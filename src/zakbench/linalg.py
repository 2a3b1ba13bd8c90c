"""Dense complex linear algebra on weighted coordinate spaces.

All inner products are conjugate-linear in the second argument:

    <u, v> = weight * sum_i u[i] * conj(v[i])

The weight is the quadrature weight of the underlying discretisation
(1/N for N samples of the circle, 1/M^2 for an M x M grid on the unit
square, 1 for plain coordinate space).
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, EmptyFamily, SpectrumFail

__all__ = ["gram_matrix", "rank_and_span"]


def _as_matrix(family) -> tuple[np.ndarray, float]:
    """Coerce a family of vectors to a (count, dim) complex matrix.

    Accepts anything with ``matrix``/``weight`` attributes, a 2d array,
    or a sequence of 1d arrays.  Returns the matrix and the weight the
    object carried, 1.0 for plain arrays.
    """
    if hasattr(family, "matrix"):
        return np.asarray(family.matrix, dtype=complex), float(family.weight)
    arr = np.asarray(family, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimMismatch(f"expected a family of vectors, got ndim={arr.ndim}")
    return arr, 1.0


def gram_matrix(family, weight: float | None = None) -> np.ndarray:
    """Hermitian Gram matrix G[j, k] = <family[j], family[k]>."""
    mat, carried = _as_matrix(family)
    if mat.shape[0] == 0:
        raise EmptyFamily("gram_matrix needs at least one vector")
    w = float(weight) if weight is not None else carried
    return w * (mat @ mat.conj().T)


def rank_and_span(vectors, tol: float = 1e-10) -> int:
    """Numerical rank: singular values above tol * (largest singular value)."""
    mat, _ = _as_matrix(vectors)
    if mat.shape[0] == 0:
        raise EmptyFamily("rank_and_span needs at least one vector")
    try:
        sv = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectrumFail(f"svd did not converge: {exc}") from exc
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))
