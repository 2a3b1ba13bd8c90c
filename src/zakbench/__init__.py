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

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``
unless it is set.  When numpy is not loaded yet, OpenBLAS then starts
without the worker pool that no command uses: every BLAS call on a
command's path runs inside ``linalg.single_threaded_blas()``.  Child
processes inherit the variable.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import errors, expsys, linalg, reports, reproducing, zak  # noqa: E402
from .errors import *  # noqa: F401,F403,E402
from .expsys import *  # noqa: F401,F403,E402
from .linalg import *  # noqa: F401,F403,E402
from .reports import *  # noqa: F401,F403,E402
from .reproducing import *  # noqa: F401,F403,E402
from .zak import *  # noqa: F401,F403,E402

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *reports.__all__,
    *expsys.__all__,
    *zak.__all__,
    *reproducing.__all__,
]
