"""Numerical diagnostics for weighted exponential systems, Zak transforms,
and reproducing pairs of finite vector families.

The package has three mathematical layers and two support layers:

``expsys``
    Weighted exponentials g e_n on the circle with one index removed,
    their closed-form biorthogonal duals, and the expansion sweep that
    exhibits why no ordering of the duals converges in norm.
``zak``
    The truncated Zak transform on the unit square, the Jacobi theta
    form of the Gaussian's transform, plane-wave Lipschitz bounds, and
    refinement ladders for the integrals of the two named numerators
    over |Z phi|^2, summed as real arrays from the theta form.
``reproducing``
    Finite reproducing pairs: mixed-operator checks, canonical duals,
    head/tail excess identities, and dependent-head reduction.
``linalg`` / ``reports``
    Shared dense linear algebra helpers, frozen report dataclasses with
    JSON serialisation, and the verdict type that pairs a report with
    its pass rule.

Importing the package executes none of these layers.  Each, with
``errors``, is registered in ``sys.modules`` and on the package through
importlib's LazyLoader, and its body runs on the first attribute access,
so a command runs only the layers it calls and ``import zakbench`` no
longer imports numpy.  Every name in a layer's ``__all__`` is also
readable from the package (``from zakbench import theta1``): the lookup
executes the layers in the order above until one exports the name.
LazyLoader is not thread-safe on Python 3.10 and 3.11, so touch a layer
first on one thread, as every command does before it starts a pool.

Importing the package first sets ``OPENBLAS_NUM_THREADS=1`` in
``os.environ`` unless it is set.  When numpy is not loaded yet, OpenBLAS
then starts without the worker pool that no command uses: every BLAS
call on a command's path runs inside ``linalg.single_threaded_blas()``.
Child processes inherit the variable.
"""

import importlib.util
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_LAYERS = ("errors", "linalg", "reports", "expsys", "zak", "reproducing")


def _lazy_layer(name: str):
    """The layer module registered in sys.modules, its body deferred to first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAYERS:
    globals()[_name] = _lazy_layer(_name)
del _name


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", *(n for layer in _LAYERS for n in globals()[layer].__all__)]
    else:
        home = next((globals()[layer] for layer in _LAYERS if name in globals()[layer].__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
