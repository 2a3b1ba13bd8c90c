"""Numerical diagnostics for weighted exponential systems, Zak transforms,
and reproducing pairs of finite vector families.

The package has three mathematical layers and two support layers:

``expsys``
    Weighted exponentials g e_n on the circle with one index removed,
    the coefficients of their closed-form biorthogonal duals, and the
    expansion sweep that exhibits why no ordering of the duals
    converges in norm.
``zak``
    The truncated Zak transform on the unit square, the Jacobi theta
    form of the Gaussian's transform, and refinement ladders for the
    integrals of the two named numerators over |Z phi|^2, summed as
    real arrays from the theta form.
``reproducing``
    Finite reproducing pairs: mixed-operator checks, canonical duals,
    head/tail excess identities, and dependent-head reduction.
``linalg`` / ``reports``
    Shared dense linear algebra helpers and the one NumericalFailure
    exception, the verdict type that pairs a report with its
    pass rule, and the JSON writer of the report dataclasses, each of
    which its mathematical layer declares.

Importing the package executes none of these layers.  Each is
registered in ``sys.modules`` and on the package through importlib's
LazyLoader, and its body runs on the first attribute access, so a
command runs only the layers it calls and ``import zakbench`` does not
import numpy.  A public name is imported from its layer, as in
``from zakbench.zak import theta1``; the package holds only the layers
and ``__version__``.  LazyLoader is not thread-safe on Python 3.10 and
3.11, so touch a layer first on one thread, as every command does before
it starts a pool.

Importing the package first sets ``OPENBLAS_NUM_THREADS=1`` in
``os.environ`` unless it is set.  When numpy is not loaded yet, OpenBLAS
then starts without the worker pool that no command uses: ``cli.main``
runs each command inside ``linalg.single_threaded_blas()``.
Child processes inherit the variable.
"""

import importlib.util as _util
import os as _os
import sys as _sys

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"


def _lazy_layer(name: str):
    """The layer module registered in sys.modules, its body deferred to first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("linalg", "reports", "expsys", "zak", "reproducing"):
    globals()[_name] = _lazy_layer(_name)
del _name
