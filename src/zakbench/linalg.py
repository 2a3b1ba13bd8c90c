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

__all__ = ["gram_matrix", "rank_and_span", "quadrature_norm"]


def _as_matrix(family: np.ndarray, caller: str) -> np.ndarray:
    """The (count, dim) array of a nonempty family of vectors, as complex."""
    arr = np.asarray(family, dtype=complex)
    if arr.ndim != 2:
        raise DimMismatch(f"expected a family of vectors, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise EmptyFamily(f"{caller} needs at least one vector")
    return arr


def gram_matrix(family: np.ndarray, weight: float) -> np.ndarray:
    """Hermitian Gram matrix G[j, k] = <family[j], family[k]>."""
    mat = _as_matrix(family, "gram_matrix")
    return float(weight) * (mat @ mat.conj().T)


def rank_and_span(vectors: np.ndarray, tol: float = 1e-10) -> int:
    """Numerical rank: singular values above tol * (largest singular value)."""
    mat = _as_matrix(vectors, "rank_and_span")
    try:
        sv = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectrumFail(f"svd did not converge: {exc}") from exc
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def quadrature_norm(samples: np.ndarray) -> float:
    """L2 norm under the uniform quadrature weight 1/samples.size."""
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) / samples.size))
