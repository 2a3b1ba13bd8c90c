"""Dense complex linear algebra on plain coordinate space C^n, and the
package's one numerical exception.

All inner products are conjugate-linear in the second argument:

    <u, v> = sum_i u[i] * conj(v[i])

Every rank and dependence decision reads _RANK_TOL, and every check
that an operator is numerically singular reads _SINGULAR_RATIO.  Valid
input that meets a computation which does not hold at the working
tolerance raises NumericalFailure, whose message names the check that
failed; cli.py documents how each error maps to an exit code.

The thread count of the loaded OpenBLAS can be read and held at one
thread, so that results do not depend on the count.  Two callers hold
it: cli.main, around each whole command, and
reproducing.random_pair_check, whose pool needs one BLAS thread per
worker for any caller.  Importing zakbench before numpy already starts
OpenBLAS at one thread unless OPENBLAS_NUM_THREADS is set; the hold
still matters when numpy came first or the variable asks for more
threads.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

__all__ = [
    "NumericalFailure",
    "gram_matrix",
    "rank_and_span",
    "blas_threads",
    "single_threaded_blas",
]

_RANK_TOL = 1e-10  # relative tolerance of every rank and dependence decision
_SINGULAR_RATIO = 1e-14  # an operator is singular when smallest/largest singular value is at most this


class NumericalFailure(Exception):
    """A numerical check failed on valid input; the message names the check."""


def _as_family(arr: np.ndarray) -> np.ndarray:
    """arr as a complex (count, dim) family of vectors as rows, count and dim at least 1."""
    mat = np.asarray(arr, dtype=complex)
    if mat.ndim != 2 or 0 in mat.shape:
        raise ValueError(f"a family must be a nonempty 2-D array with vectors as rows, got shape {mat.shape}")
    return mat


def gram_matrix(family: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix G[j, k] = <family[j], family[k]> of the rows."""
    mat = _as_family(family)
    return mat @ mat.conj().T


def rank_and_span(vectors: np.ndarray) -> int:
    """Numerical rank: singular values above _RANK_TOL = 1e-10 times the largest."""
    sv = np.linalg.svd(_as_family(vectors), compute_uv=False)
    return int(np.count_nonzero(sv > _RANK_TOL * sv[0]))


@functools.lru_cache(maxsize=None)
def _openblas_threading():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                return get, put
    return None


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS; None when the BLAS is not OpenBLAS."""
    openblas = _openblas_threading()
    return None if openblas is None else int(openblas[0]())


@contextlib.contextmanager
def single_threaded_blas():
    """Hold OpenBLAS at one thread inside the block, then restore its count.

    Yields whether the count could be set, which it cannot when the
    loaded BLAS is not OpenBLAS.  The count is process-wide, so blocks
    on two threads at once would restore each other's counts.
    """
    openblas = _openblas_threading()
    if openblas is None:
        yield False
        return
    get, put = openblas
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)
