"""Reproducing pairs of finite vector families.

A family is a complex (count, dim) array with its vectors as rows; the
row order is part of every identity.  Two ordered families psi, phi in
plain coordinate space C^n form a reproducing pair when the mixed operator

    S f = sum_i <f, psi_i> phi_i

is the identity (after normalising by S^{-1} it always is, whenever S
is invertible).  The functions here quantify how the pair behaves when
phi splits into a head of n extra elements and a tail that is minimal
and complete on its own: the tail's biorthogonal family differs from
the psi tail by a correction through the head, the head is recoverable
from the tail expansion, and dropping the head entirely still leaves a
valid expansion of the inner product.  All identities are exact in
finite dimensions; the reports, ExcessReport and RpCheckReport, carry
their rounding-level residuals.

The weak identities <f, g> = sum_i <f, psi_i> <phi_i, g> are
tested on seeded random probes f, g.  The probes are the rows of two
matrices, and one routine checks all of them at once with one matrix
product per family.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import _RANK_TOL, _SINGULAR_RATIO, NumericalFailure
from .linalg import _as_family, gram_matrix, rank_and_span, single_threaded_blas
from .reports import Verdict, _check

logger = logging.getLogger(__name__)

__all__ = [
    "ExcessReport",
    "RpCheckReport",
    "s_operator",
    "reproducing_identity_check",
    "normalize_pair",
    "canonical_dual_frame",
    "excess_n_identities",
    "random_spanning_family",
    "random_excess_pair",
    "random_pair_check",
    "excess_n_verdict",
]

_PAIR_PROBES = 8     # probe pairs of the identity check, per random pair of rp-check
_EXCESS_PROBES = 20  # probe pairs of the excess identities
_POOL_MIN_DIM = 32   # smallest rp-check dim whose pairs run on a thread pool, the crossover on 2 cores
# float64 normals per block of _complex_gaussian_vectors: 512 KiB, above glibc's initial
# 128 KiB mmap threshold, so freeing the first block raises that threshold in the calling
# thread.  With a 64 KiB block rp-check's workers make the first raise, and their arenas
# grow by 0-7 MB from run to run at --dim 256.
_DRAW_BLOCK = 65536


@dataclass(frozen=True)
class ExcessReport:
    experiment: str                  # always "excess_n", the one excess routine
    ambient_dim: int
    n: int                           # head length after every reduction step
    residuals: dict[str, float]      # partner_correction, head_reconstruction, final_chain
    margins: dict[str, float]        # tail_gram_margin, pair_identity_deviation, head_vector_identity
    seed: int                        # of the probes; excess_n_verdict draws it after the pair
    head_sum_trajectory: list[float]
    notes: list[str]


@dataclass(frozen=True)
class RpCheckReport:
    ambient_dim: int
    family_count: int
    pair_count: int
    trials_per_pair: int
    seed: int
    max_identity_deviation: float    # after canonical normalization by the inverse mixed operator
    max_adjoint_asymmetry: float     # relative, between the mixed operator and its partner's adjoint
    min_invertibility_margin: float
    passed: bool


def _aligned(psi: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi and phi as complex families of one shape."""
    psi, phi = _as_family(psi), _as_family(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"family shapes differ: {psi.shape} vs {phi.shape}")
    return psi, phi


def s_operator(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Matrix of f -> sum_i <f, psi_i> phi_i on coordinates.

    The adjoint of s_operator(psi, phi) is s_operator(phi, psi); both
    are assembled from the same products, so the relation holds to
    entrywise rounding.
    """
    psi, phi = _aligned(psi, phi)
    return phi.T @ psi.conj()


def _complex_gaussian_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows a + ib with a drawn before b, filled in place with no draw-sized temporary.

    Both halves pass through one reused block of at most _DRAW_BLOCK
    normals in stream order, all of a and then all of b, so the draw and
    the generator state after it are those of two whole-size draws.
    """
    out = np.empty((count, dim), dtype=complex)
    flat = out.reshape(-1)
    block = np.empty(min(_DRAW_BLOCK, flat.size))
    for half in (flat.real, flat.imag):
        for start in range(0, flat.size, _DRAW_BLOCK):
            drawn = rng.standard_normal(out=block[: flat.size - start])
            half[start : start + drawn.size] = drawn
    return out


def _identity_deviation(psi_mat: np.ndarray, phi_mat: np.ndarray, fs: np.ndarray, gs: np.ndarray) -> float:
    """Worst |<f, g> - sum_i <f, psi_i> <phi_i, g>| / (||f|| ||g||) over probe rows f, g."""
    return _coefficient_deviation(fs @ psi_mat.conj().T, gs.conj() @ phi_mat.T, fs, gs)


def _coefficient_deviation(cf: np.ndarray, cg: np.ndarray, fs: np.ndarray, gs: np.ndarray) -> float:
    """_identity_deviation from the coefficients cf = <f, psi_i> and cg = <phi_i, g>, one row per probe."""
    lhs = np.sum(gs.conj() * fs, axis=1)                # <f, g>
    scale = np.linalg.norm(fs, axis=1) * np.linalg.norm(gs, axis=1)
    return float(np.max(np.abs(lhs - np.sum(cf * cg, axis=1)) / scale))


def _stacked_coefficients(
    psi_rows: tuple[np.ndarray, ...], phi_rows: tuple[np.ndarray, ...], fs: np.ndarray, gs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(<f, psi_i>, <phi_i, g>), one row per probe, of families given as blocks of rows.

    Each family is stacked for its one product, and the psi stack is
    conjugated in place, so one family-sized buffer is alive at a time.
    """
    cg = gs.conj() @ np.concatenate(phi_rows).T
    psi_mat = np.concatenate(psi_rows)
    return fs @ np.conjugate(psi_mat, out=psi_mat).T, cg


def _probes(seed: int, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded probe pairs: all f rows are drawn before all g rows."""
    rng = np.random.default_rng(seed)
    return _complex_gaussian_vectors(rng, count, dim), _complex_gaussian_vectors(rng, count, dim)


def reproducing_identity_check(psi: np.ndarray, phi: np.ndarray, seed: int = 0) -> float:
    """Test <f, g> = sum_i <f, psi_i> <phi_i, g> on _PAIR_PROBES = 8 random pairs.

    Draws the probe pairs as the rows of two matrices and checks them
    all at once.  Returns |lhs - rhs| normalised by ||f|| ||g||,
    maximised over the probes, so it reads as an operator-norm-level gap.
    """
    psi, phi = _aligned(psi, phi)
    return _identity_deviation(psi, phi, *_probes(seed, _PAIR_PROBES, psi.shape[1]))


def normalize_pair(psi: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """(S^{-1} phi, smallest singular value of S) for the mixed operator S.

    Pairing psi with S^{-1} phi makes the mixed operator the identity.
    Raises NumericalFailure("mixed operator is numerically singular")
    when the smallest singular value is at most _SINGULAR_RATIO times
    the largest.
    """
    S = s_operator(psi, phi)
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] <= _SINGULAR_RATIO * sv[0]:
        raise NumericalFailure("mixed operator is numerically singular")
    return np.linalg.solve(S, _as_family(phi).T).T, float(sv[-1])


def _spanning_solve(op: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """(op^{-1} rhs, smallest eigenvalue of op) for the Hermitian frame or Gram operator of `what`.

    Raises NumericalFailure when `what` does not span: the smallest
    eigenvalue of op is at most _SINGULAR_RATIO times the largest.  The
    ratio ignores scale, so rescaling a spanning family never refuses it.
    """
    ev = np.linalg.eigvalsh(op)
    if ev[0] <= _SINGULAR_RATIO * ev[-1]:
        raise NumericalFailure(
            f"{what} does not span the ambient space: margin {ev[0]:.3e} "
            f"at or below {_SINGULAR_RATIO:g} x largest {ev[-1]:.3e}"
        )
    return np.linalg.solve(op, rhs), float(ev[0])


def canonical_dual_frame(family: np.ndarray) -> np.ndarray:
    """Dual frame S_frame^{-1} applied to each vector.

    Pairing a spanning family with its canonical dual gives a mixed
    operator equal to the identity up to the linear solve's rounding.
    A family that does not span raises NumericalFailure through
    _spanning_solve, the tail check of excess_n_identities.
    """
    family = _as_family(family)
    return _spanning_solve(gram_matrix(family.T), family.T, "family")[0].T


def _first_dependent_row(mat: np.ndarray) -> int | None:
    """First row that adds nothing to the span of its predecessors, or None.

    By interlacing, adding a row cannot raise a prefix's smallest
    singular value or lower its largest, so once a prefix is rank
    deficient every longer prefix is too.  After one rank of the whole
    matrix, the first deficient prefix is found by bisection.
    """
    n = mat.shape[0]
    if rank_and_span(mat) == n:
        return None
    lo, hi = 0, n - 1  # mat[: hi + 1] is rank deficient
    while lo < hi:
        mid = (lo + hi) // 2
        if rank_and_span(mat[: mid + 1]) <= mid:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _reduce_once(phi_mat: np.ndarray, psi_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, str] | None:
    """Drop one dependent psi head element, correcting the phi head.

    When psi_j = sum_{i != j} c_i psi_i the bilinear form
    sum <f, psi_k> <phi_k, g> is preserved by dropping the pair j and
    replacing each other phi_i by phi_i + conj(c_i) phi_j; the remaining
    pairs keep their order.  Returns (phi, psi, note), or None when the
    psi head is independent.  Each step keeps the psi head's rank and
    the head's part T = sum_k phi_k psi_k^H of the mixed operator.  When
    psi is an invertible image of phi (psi_k = A phi_k, as for the
    canonical dual), rank T is the psi head's rank from the start, so an
    independent psi head of r rows leaves r = rank T <= rank of the phi
    head: the phi head is independent too, and is never tried.
    """
    if (j := _first_dependent_row(psi_mat)) is None:
        return None
    rest = [i for i in range(psi_mat.shape[0]) if i != j]
    coeffs, *_ = np.linalg.lstsq(psi_mat[rest].T, psi_mat[j], rcond=None)
    fit_residual = np.linalg.norm(psi_mat[rest].T @ coeffs - psi_mat[j])
    if fit_residual > _RANK_TOL * (1.0 + np.linalg.norm(psi_mat[j])):
        raise NumericalFailure(
            f"dependent element sits {fit_residual:.3e} away from the span of the others"
        )
    note = f"eliminated psi head element {j} (fit residual {fit_residual:.3e})"
    logger.info("reduction: %s", note)
    return phi_mat[rest] + np.conj(coeffs)[:, None] * phi_mat[j], psi_mat[rest], note


def excess_n_identities(phi: np.ndarray, psi: np.ndarray, n: int, seed: int = 0) -> ExcessReport:
    """Identities for a family exceeding a minimal complete tail by an n-element head.

    The tail duals absorb the head through a rank-n correction, the head
    elements are recoverable from the tail expansion, and the inner
    product expands through the tail alone.  Residuals of all three are
    reported and should sit at rounding level whenever the
    preconditions hold.  The identities are tested on _EXCESS_PROBES = 20
    seeded probe pairs, and the pair identity's own deviation on the same
    probes is reported as the margin ``pair_identity_deviation``.
    A dependent head is reduced away one psi element at a time, each
    step preserving the pair's bilinear form; the report notes record
    the chain.  That presumes psi is an invertible image of phi, as the
    canonical dual is (see _reduce_once); otherwise the phi head can
    stay dependent and the reported n overcounts.  The head is reduced
    alone, so the tail's length, which must be the ambient dimension, is
    checked before any reduction; the tail must also span, which
    canonical_dual_frame's routine checks on the tail Gram matrix,
    ignoring scale.  Either failure raises NumericalFailure.

    Each family is held once: the tail is read in place from the
    caller's arrays and only the head is copied.  After the tail solve,
    each family is stacked in turn for its one product with the probes.
    At excess-n's ``--dim 512 --n 64`` the command's peak RSS, about
    72.7 MB, is then random_excess_pair's 512 x 512 tail SVD: numpy's
    svd workspace and outputs, with no draw temporary resident (see
    _complex_gaussian_vectors).  The identities stay below it.
    """
    psi, phi = _aligned(psi, phi)
    count, dim = phi.shape
    if not 0 <= n < count:
        raise ValueError(f"head length {n} must lie in [0, {count})")
    if count - n != dim:
        raise NumericalFailure(
            f"tail length {count - n} != ambient dimension {dim}; "
            "the finite model of an exact sequence needs a minimal complete tail"
        )
    notes: list[str] = []

    # Normalise away a dependent head first; each pass drops one element.
    phi_head, psi_head = phi[:n], psi[:n]
    while n > 1 and (reduced := _reduce_once(phi_head, psi_head)) is not None:
        phi_head, psi_head, note = reduced
        n -= 1
        notes.append(f"reduction: {note}; head length now {n}")

    # The tail is read in place; only the head, which a reduction rewrites, is held apart.
    tail_phi, tail_psi = phi[-dim:], psi[-dim:]
    # Biorthogonal family of the tail, unique since the tail is a basis.
    tilde, tail_margin = _spanning_solve(gram_matrix(tail_phi), tail_phi, "tail")

    fs, gs = _probes(seed, _EXCESS_PROBES, dim)
    cf, cg = _stacked_coefficients((psi_head, tail_psi), (phi_head, tail_phi), fs, gs)
    pair_dev = _coefficient_deviation(cf, cg, fs, gs)
    # Final chain <f, g> = sum_j <f, tilde_j> <phi_j, g> on the same probes.
    chain_worst = _identity_deviation(tilde, tail_phi, fs, gs)

    def worst_row(rows: np.ndarray) -> float:  # 0.0 when there are no rows
        return float(max(np.linalg.norm(rows, axis=1), default=0.0))

    # An empty head (n = 0) makes every head product below empty and its residual 0.
    # Partner correction: tilde_j = psi_j + sum_{k<n} <tilde_j, phi_k> psi_k.
    head_ip = tilde @ phi_head.conj().T                   # <tilde_j, phi_k>
    corr = head_ip @ psi_head
    corr += tail_psi
    partner_residual = worst_row(np.subtract(tilde, corr, out=corr))
    # Head reconstruction from the tail expansion: phi_k = sum_j <phi_k, tilde_j> phi_j.
    coef = head_ip.conj().T                               # <phi_k, tilde_j>
    head_residual = worst_row(phi_head - coef @ tail_phi)

    # Head coefficient identity <phi_k, g> = sum_j <phi_k, tilde_j> <phi_j, g> on the probes.
    u, cg_tail = cg[:, :n], cg[:, n:]
    u_err = np.linalg.norm(u - cg_tail @ coef.T, axis=1)
    vector_worst = np.max(u_err / np.maximum(np.linalg.norm(u, axis=1), 1e-30))
    partial = np.cumsum(coef * cg_tail[0], axis=1)        # the first probe's sums over j
    trajectory = [float(e) for e in np.linalg.norm(u[0][:, None] - partial, axis=0)] if n else []
    residuals = {
        "partner_correction": partner_residual,
        "head_reconstruction": head_residual,
        "final_chain": chain_worst,
    }
    margins = {
        "tail_gram_margin": tail_margin,
        "pair_identity_deviation": pair_dev,
        "head_vector_identity": float(vector_worst),
    }
    return ExcessReport(
        experiment="excess_n",
        ambient_dim=dim,
        n=n,
        residuals=residuals,
        margins=margins,
        seed=seed,
        head_sum_trajectory=trajectory,
        notes=notes,
    )


def random_spanning_family(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random basis of C^dim, dim vectors with all singular values clipped into [0.5, 2].

    Clipping keeps every experiment away from accidental near-degeneracy
    while preserving the randomness of the singular subspaces, so rank
    and margin preconditions hold by construction.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    return _clipped(_complex_gaussian_vectors(rng, dim, dim))


def _clipped(raw: np.ndarray) -> np.ndarray:
    """The family of raw's rows with its singular values clipped into [0.5, 2]."""
    u, s, vh = np.linalg.svd(raw, full_matrices=False)
    return u @ (np.clip(s, 0.5, 2.0)[:, None] * vh)


def random_excess_pair(
    dim: int,
    n: int,
    rng: np.random.Generator,
    dependent_head: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Reproducing pair with n head elements over a guaranteed-exact tail.

    phi stacks n random head vectors on a clipped random basis; psi is
    the dual frame, which makes the mixed operator the identity.  With
    dependent_head the last head vector copies twice the first, which
    forces the reduction path in the excess identities.
    """
    if n < 0:
        raise ValueError("head length must be nonnegative")
    tail = random_spanning_family(dim, rng)
    head = _complex_gaussian_vectors(rng, n, dim) / np.sqrt(dim)
    if dependent_head:
        if n < 2:
            raise ValueError("a dependent head needs at least two elements")
        head[-1] = 2.0 * head[0]
    phi = np.vstack([head, tail])
    return phi, canonical_dual_frame(phi)


def _pair_result(phi_raw: np.ndarray, psi_raw: np.ndarray, seed: int) -> tuple[float, float, float]:
    """(deviation, asymmetry, margin) of one random_pair_check round."""
    psi = _clipped(psi_raw)
    normalized, margin = normalize_pair(psi, _clipped(phi_raw))
    dev = reproducing_identity_check(psi, normalized, seed=seed)
    S = s_operator(psi, normalized)
    swapped = s_operator(normalized, psi)
    asym = float(np.max(np.abs(S - swapped.conj().T)) / np.max(np.abs(S)))
    return dev, asym, margin


def _pooled_pair_results(draws: Iterable[tuple], workers: int) -> Iterator[tuple[float, float, float]]:
    """_pair_result of each draw on `workers` threads, yielded in draw order.

    One drawn pair stays queued behind the workers until the last draw.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, to keep it out of every CLI start

    with ThreadPoolExecutor(workers) as pool:
        in_flight = deque()
        for draw in draws:
            in_flight.append(pool.submit(_pair_result, *draw))
            if len(in_flight) > workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


def random_pair_check(dim: int = 8, pairs: int = 20, seed: int = 0) -> Verdict:
    """Normalisation experiment over random invertible mixed operators.

    Each round draws two clipped random bases, normalises phi by the
    inverse mixed operator, and records the worst identity deviation,
    the worst relative asymmetry between the mixed operator and the
    adjoint of its swapped partner, and the smallest margin of the raw
    operator.  Clipping bounds that margin below by the product of the
    smallest singular values, so no redraws are needed.  The asymmetry
    compares two orderings of the same product, so it sits at rounding
    level (0.0 at some dimensions, up to a few 1e-16 at others); it
    guards s_operator's assembly, not the pair.  The verdict checks
    ``max_identity_deviation`` against 1e-10 and
    ``max_adjoint_asymmetry`` against 1e-12, and the report's ``passed``
    is all their rows; the CSV rows are the checks.

    Every draw is made here, in a fixed stream order, with OpenBLAS held
    at one thread, so the report does not depend on the host's thread
    count.  From dim _POOL_MIN_DIM on, the pairs are checked
    concurrently, one thread per CPU: one drawn pair waits in the pool's
    queue, so a worker that frees takes it at once, and at most
    workers + 1 pairs are drawn and in flight.  Below it, where the
    pool's handoff costs more than the work it overlaps, and where the
    pool would get one worker (one CPU, or OpenBLAS cannot be held), the
    calling thread checks the pairs in turn.  Each finished pair is
    folded, oldest first, into the running worst values, so memory does
    not grow with pairs.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if pairs < 1:
        raise ValueError("pairs must be positive")
    rng = np.random.default_rng(seed)

    def draws():
        for _ in range(pairs):
            phi_raw = _complex_gaussian_vectors(rng, dim, dim)
            psi_raw = _complex_gaussian_vectors(rng, dim, dim)
            yield phi_raw, psi_raw, int(rng.integers(2**31))

    worst_dev = worst_asym = -np.inf
    min_margin = np.inf
    with single_threaded_blas() as pinned:
        workers = min(pairs, len(os.sched_getaffinity(0))) if pinned else 1
        if workers == 1 or dim < _POOL_MIN_DIM:
            results = (_pair_result(*draw) for draw in draws())
        else:
            results = _pooled_pair_results(draws(), workers)
        for dev, asym, margin in results:
            worst_dev, worst_asym = max(worst_dev, dev), max(worst_asym, asym)
            min_margin = min(min_margin, margin)
    checks = {
        "max_identity_deviation": _check(worst_dev, 1e-10),
        "max_adjoint_asymmetry": _check(worst_asym, 1e-12),
    }
    report = RpCheckReport(
        ambient_dim=dim,
        family_count=dim,
        pair_count=pairs,
        trials_per_pair=_PAIR_PROBES,
        seed=seed,
        max_identity_deviation=float(worst_dev),
        max_adjoint_asymmetry=float(worst_asym),
        min_invertibility_margin=float(min_margin),
        passed=all(c["ok"] for c in checks.values()),
    )
    return Verdict(report, checks)


# excess_n_verdict's pass rule; head dependence is judged at linalg._RANK_TOL.
_PAIR_LIMIT = 1e-11      # pair identity deviation
_RESIDUAL_LIMIT = 1e-10  # every excess residual


def excess_n_verdict(dim: int, n: int, seed: int = 0, dependent_head: bool = False) -> Verdict:
    """Excess identities on a seeded random pair, tested on 20 probe pairs.

    The probe seed is drawn from the pair's generator after the pair, so
    the probes are independent of it.  Checks the three residuals,
    ``partner_correction``, ``head_reconstruction`` and ``final_chain``,
    against _RESIDUAL_LIMIT and ``pair_identity_deviation`` against
    _PAIR_LIMIT; the CSV rows are the checks.
    """
    rng = np.random.default_rng(seed)
    phi, psi = random_excess_pair(dim, n, rng, dependent_head)
    report = excess_n_identities(phi, psi, n, seed=int(rng.integers(2**31)))
    checks = {name: _check(value, _RESIDUAL_LIMIT) for name, value in report.residuals.items()}
    checks["pair_identity_deviation"] = _check(report.margins["pair_identity_deviation"], _PAIR_LIMIT)
    return Verdict(report, checks)
