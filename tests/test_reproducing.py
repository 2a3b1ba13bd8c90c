"""Tests for finite reproducing pairs, excess identities, and head reduction."""

import concurrent.futures
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakbench import reproducing
from zakbench.expsys import ExpSystem, PeriodicSignal, weighted_exp
from zakbench.linalg import NumericalFailure, blas_threads, rank_and_span, single_threaded_blas
from zakbench.reproducing import (
    _DRAW_BLOCK,
    _EXCESS_PROBES,
    _PAIR_PROBES,
    _POOL_MIN_DIM,
    _complex_gaussian_vectors,
    _identity_deviation,
    _probes,
    canonical_dual_frame,
    excess_n_identities,
    normalize_pair,
    random_excess_pair,
    random_pair_check,
    random_spanning_family,
    reproducing_identity_check,
    s_operator,
)

from reference import active_indices, dual_rows, reduce_dependent_pair, span_vectors


def onb(dim):
    return np.eye(dim, dtype=complex)


def random_family(dim, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return scale * mat


def test_s_operator_orthonormal_basis_is_identity():
    fam = onb(4)
    S = s_operator(fam, fam)
    assert np.max(np.abs(S - np.eye(4))) < 1e-15


def test_s_operator_scaled_partner():
    phi = onb(3)
    psi = 2.0 * np.eye(3, dtype=complex)
    S = s_operator(psi, phi)
    assert np.max(np.abs(S - 2.0 * np.eye(3))) < 1e-15


def test_s_operator_canonical_dual_gives_identity():
    phi = random_family(5, 7, seed=0)
    psi = canonical_dual_frame(phi)
    S = s_operator(psi, phi)
    assert np.max(np.abs(S - np.eye(5))) < 1e-10


# Every public entry point that takes families, called with psi before phi
# and valid values for its other arguments.
FAMILY_ENTRY_POINTS = {
    "s_operator": s_operator,
    "reproducing_identity_check": reproducing_identity_check,
    "normalize_pair": normalize_pair,
    "excess_n_identities": lambda psi, phi: excess_n_identities(phi, psi, 0),
    "canonical_dual_frame": canonical_dual_frame,
}
MALFORMED_FAMILIES = {
    "1d": np.ones(3),
    "3d": np.ones((2, 3, 3)),
    "no_vectors": np.ones((0, 3)),
    "empty_vectors": np.ones((3, 0)),
}


def malformed_family_cases():
    for name, entry in FAMILY_ENTRY_POINTS.items():
        arity = 1 if name == "canonical_dual_frame" else 2
        for label, bad in MALFORMED_FAMILIES.items():
            for slot in range(arity):
                args = [onb(3)] * arity
                args[slot] = bad
                message = f"a family must be a nonempty 2-D array with vectors as rows, got shape {bad.shape}"
                yield pytest.param(entry, args, message, id=f"{name}-{label}-arg{slot}")
        if arity == 2:
            for label, phi in (("unequal_counts", np.eye(4, 3)), ("unequal_dims", np.eye(3, 4))):
                message = f"family shapes differ: (3, 3) vs {phi.shape}"
                yield pytest.param(entry, [onb(3), phi], message, id=f"{name}-{label}")


@pytest.mark.parametrize("entry, args, message", malformed_family_cases())
def test_entry_points_refuse_malformed_families(entry, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(*args)


# Each guard on a non-family argument of a public entry point, called with
# valid families so that only the named argument is out of range.
BAD_ARGUMENTS = {
    "excess_n_identities-negative_head": (
        lambda: excess_n_identities(onb(3), onb(3), -1), "head length -1 must lie in [0, 3)"),
    "excess_n_identities-head_without_tail": (
        lambda: excess_n_identities(onb(3), onb(3), 3), "head length 3 must lie in [0, 3)"),
    "random_spanning_family-no_dim": (
        lambda: random_spanning_family(0, np.random.default_rng(0)), "dim must be positive"),
    "random_excess_pair-negative_head": (
        lambda: random_excess_pair(3, -1, np.random.default_rng(0)), "head length must be nonnegative"),
    "random_excess_pair-dependent_empty_head": (
        lambda: random_excess_pair(3, 0, np.random.default_rng(0), dependent_head=True),
        "a dependent head needs at least two elements"),
    "random_excess_pair-dependent_single_head": (
        lambda: random_excess_pair(3, 1, np.random.default_rng(0), dependent_head=True),
        "a dependent head needs at least two elements"),
    "random_pair_check-no_dim": (lambda: random_pair_check(dim=0), "dim must be positive"),
    "random_pair_check-no_pairs": (lambda: random_pair_check(pairs=0), "pairs must be positive"),
}


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_entry_points_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_entry_points_leave_inputs_unwritten():
    # Callers pass their own buffers: no entry point may write into them,
    # on the reduction path of excess_n_identities included.
    rng = np.random.default_rng(47)
    phi, psi = random_excess_pair(6, 3, rng, dependent_head=True)
    calls = [
        (s_operator, (psi, phi)),
        (reproducing_identity_check, (psi, phi)),
        (normalize_pair, (psi, phi)),
        (canonical_dual_frame, (phi,)),
        (lambda phi, psi: excess_n_identities(phi, psi, 3), (phi, psi)),
    ]
    for entry, args in calls:
        saved = [arg.copy() for arg in args]
        entry(*args)
        for arg, before in zip(args, saved):
            assert np.array_equal(arg, before), entry


def test_s_operator_adjoint_symmetry():
    for seed in range(20):
        phi = random_family(6, 9, seed=2 * seed)
        psi = random_family(6, 9, seed=2 * seed + 1)
        a = s_operator(psi, phi)
        b = s_operator(phi, psi)
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - b.conj().T)) <= 1e-15 * scale


def test_reproducing_identity_orthonormal_basis():
    fam = onb(6)
    assert reproducing_identity_check(fam, fam, seed=3) < 1e-12


def test_reproducing_identity_zero_padding_changes_nothing():
    fam = onb(4)
    padded_phi = np.vstack([fam, np.zeros((1, 4), dtype=complex)])
    padded_psi = np.vstack([fam, np.zeros((1, 4), dtype=complex)])
    # the zero pair contributes nothing
    assert reproducing_identity_check(padded_psi, padded_phi, seed=3) < 1e-12


def test_reproducing_identity_detects_non_reproducing_pair():
    phi = onb(3)
    psi = np.diag([1.0, 2.0, 4.0]).astype(complex)
    # diag(1,2,4) is not reproducing
    assert reproducing_identity_check(psi, phi, seed=0) > 0.1


def looped_identity_check(psi, phi, probes, seed):
    """The per-probe loop that the batched identity check replaced, as the reference."""
    rng = np.random.default_rng(seed)
    dim = psi.shape[1]
    fs = rng.standard_normal((probes, dim)) + 1j * rng.standard_normal((probes, dim))
    gs = rng.standard_normal((probes, dim)) + 1j * rng.standard_normal((probes, dim))
    worst = 0.0
    for f, g in zip(fs, gs):
        lhs = np.vdot(g, f)
        rhs = np.sum((psi.conj() @ f) * (phi @ g.conj()))
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(f) * np.linalg.norm(g)))
    return float(worst)


@pytest.mark.parametrize("probes", [1, 3, 8, 20])
@pytest.mark.parametrize("weight", [1.0, 1 / 64, 0.25])
@pytest.mark.parametrize("dim, count", [(5, 8), (12, 20)])
def test_identity_check_matches_probe_loop(dim, count, weight, probes):
    # All probes at once give the loop's value up to rounding.  Rows scaled
    # by sqrt(weight) give the deviation of the pair under the inner product
    # weight * <u, v>.
    psi = random_family(dim, count, seed=41, scale=np.sqrt(weight))
    phi = random_family(dim, count, seed=43, scale=np.sqrt(weight))
    batch = _identity_deviation(psi, phi, *_probes(5, probes, dim))
    loop = looped_identity_check(psi, phi, probes, seed=5)
    assert batch > 0.01  # far from reproducing
    assert abs(batch - loop) <= 1e-14 * loop
    dual = canonical_dual_frame(phi)
    assert _identity_deviation(dual, phi, *_probes(5, probes, dim)) <= 1e-14
    assert looped_identity_check(dual, phi, probes, seed=5) <= 1e-14


def test_normalize_pair_restores_identity():
    for seed in range(10):
        phi = random_family(5, 8, seed=100 + seed)
        psi = random_family(5, 8, seed=200 + seed)
        fixed, _ = normalize_pair(psi, phi)
        assert reproducing_identity_check(psi, fixed, seed=seed) <= 1e-10


def test_normalize_pair_margin_is_smallest_singular_value():
    # rp-check reports this margin as min_invertibility_margin.
    for seed in range(5):
        phi = random_family(6, 6, seed=300 + seed)
        psi = random_family(6, 6, seed=400 + seed)
        _, margin = normalize_pair(psi, phi)
        assert margin == np.linalg.svd(s_operator(psi, phi), compute_uv=False)[-1]


def test_normalize_pair_rejects_singular_operator():
    phi = np.ones((3, 3), dtype=complex)
    psi = onb(3)
    with pytest.raises(NumericalFailure, match="mixed operator is numerically singular"):
        normalize_pair(psi, phi)


def test_canonical_dual_frame_orthonormal_self_dual():
    fam = onb(4)
    dual = canonical_dual_frame(fam)
    assert np.max(np.abs(dual - fam)) < 1e-14


def test_excess_tail_check_names_the_singular_ratio():
    # A tail of ambient length that does not span fails the Gram check,
    # whose message states the ratio it was judged at.
    tail = np.eye(3, dtype=complex)
    tail[1] = tail[0]
    phi = np.vstack([np.ones((1, 3), dtype=complex), tail])
    with pytest.raises(NumericalFailure, match=re.escape("at or below 1e-14 x largest")):
        excess_n_identities(phi, phi, 1)


def test_canonical_dual_frame_rejects_non_spanning():
    # A family that does not span is a numerical failure, as in excess_n_identities' tail check.
    fam = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalFailure, match="family does not span"):
        canonical_dual_frame(fam)


def weighted_exp_families(N, W, weight_name):
    """Active weighted exponentials and their duals as aligned finite families."""
    signal = PeriodicSignal.from_name(weight_name, N)
    system = ExpSystem(weight=signal, window=W, removed=0, anchor=0.25)
    rows = [weighted_exp(system, n) for n in active_indices(system)]
    return system, np.array(rows), dual_rows(system)


def test_weighted_exponential_pair_identity_converges():
    # In-band signals are reproduced by the dual pair; the gap cannot grow
    # as the grid refines.
    gaps = []
    for N in (64, 128, 256):
        system, phi, psi = weighted_exp_families(N, 4, "linear")
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(len(phi)) + 1j * rng.standard_normal(len(phi))
        f = coeffs @ phi
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        w = 1.0 / N  # the quadrature weight of the N-point circle
        lhs = w * np.vdot(g, f)
        rhs = (w * (psi.conj() @ f)) @ (w * (phi @ g.conj()))
        gaps.append(abs(lhs - rhs) / max(abs(lhs), 1e-30))
    assert gaps[0] < 1e-3
    assert gaps[1] <= gaps[0] + 1e-12
    assert gaps[2] <= gaps[1] + 1e-12


def test_excess_one_augmented_basis():
    # Append the sum of an orthonormal basis, pair with the canonical dual
    # frame, and the single-head identities hold at rounding level.
    dim = 8
    basis = np.eye(dim, dtype=complex)
    extra = basis.sum(axis=0)[None, :]
    phi = np.vstack([extra, basis])
    psi = canonical_dual_frame(phi)
    report = excess_n_identities(phi, psi, 1)
    assert report.n == 1
    assert report.ambient_dim == dim
    for value in report.residuals.values():
        assert value < 1e-10
    assert report.margins["tail_gram_margin"] > 0.0


def test_excess_one_zero_head_trivial_branch():
    dim = 5
    phi_mat = np.vstack([np.ones((1, dim), dtype=complex), np.eye(dim, dtype=complex)])
    psi_mat = np.vstack([np.zeros((1, dim), dtype=complex), np.eye(dim, dtype=complex)])
    report = excess_n_identities(phi_mat, psi_mat, 1)
    assert report.n == 1
    for value in report.residuals.values():
        assert value < 1e-10


def test_excess_one_unitary_invariance():
    dim = 6
    rng = np.random.default_rng(13)
    phi, psi = random_excess_pair(dim, 1, rng)
    base = excess_n_identities(phi, psi, 1)

    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(raw)
    rotated = excess_n_identities(phi @ Q, psi @ Q, 1)
    for key in base.residuals:
        assert abs(base.residuals[key] - rotated.residuals[key]) < 1e-12


def test_excess_n_two_head_example():
    dim = 6
    basis = np.eye(dim, dtype=complex)
    head = np.vstack([basis[0] + basis[1], basis[2] - basis[3]])
    phi = np.vstack([head, basis])
    psi = canonical_dual_frame(phi)
    report = excess_n_identities(phi, psi, n=2)
    assert report.n == 2
    for value in report.residuals.values():
        assert value < 1e-10


def test_excess_n_zero_head_vector_triggers_reduction():
    dim = 6
    rng = np.random.default_rng(19)
    phi, psi = random_excess_pair(dim, 2, rng)
    psi_zeroed = psi.copy()
    psi_zeroed[1] = 0.0
    fixed_phi, _ = normalize_pair(psi_zeroed, phi)
    report = excess_n_identities(fixed_phi, psi_zeroed, n=2)
    assert report.n == 1
    assert any(note.startswith("reduction:") for note in report.notes)
    for value in report.residuals.values():
        assert value < 1e-9


def test_excess_n_empty_head():
    # With n = 0 every head product is empty: no head terms, exact zeros.
    phi, psi = random_excess_pair(6, 0, np.random.default_rng(23))
    report = excess_n_identities(phi, psi, n=0)
    assert report.n == 0
    assert report.notes == []
    assert report.head_sum_trajectory == []
    assert report.residuals["head_reconstruction"] == 0.0
    assert report.margins["head_vector_identity"] == 0.0
    assert report.residuals["partner_correction"] <= 1e-14
    assert report.residuals["final_chain"] <= 1e-14


def test_excess_n_tail_not_exact():
    dim = 5
    basis = np.eye(dim, dtype=complex)
    # tail shorter than the dimension
    fam = np.vstack([np.ones((1, dim), dtype=complex), basis[:-1]])
    with pytest.raises(NumericalFailure, match="tail length 4 != ambient dimension 5"):
        excess_n_identities(fam, fam, n=1)
    # The tail length is checked before the head is reduced: this psi head's
    # third row is the unfittable dependence of
    # test_reduce_once_refuses_a_dependence_it_cannot_fit, yet the short tail
    # is what is refused.
    psi_head = np.zeros((3, 4), dtype=complex)
    psi_head[0, 0], psi_head[1, 1] = 1e6, 1.0
    psi_head[2, 1], psi_head[2, 2] = 1.0, 1e-5
    short_tail = onb(4)[:3]
    phi3 = np.vstack([random_family(4, 3, seed=41), short_tail])
    with pytest.raises(NumericalFailure, match="tail length 3 != ambient dimension 4"):
        excess_n_identities(phi3, np.vstack([psi_head, short_tail]), n=3)
    # tail of the right length but degenerate
    bad_tail = basis.copy()
    bad_tail[-1] = bad_tail[0]
    fam2 = np.vstack([np.ones((1, dim), dtype=complex), bad_tail])
    with pytest.raises(NumericalFailure, match="does not span"):
        excess_n_identities(fam2, fam2, n=1)


def test_excess_n_tail_check_ignores_scale():
    # (1e-6 phi, 1e6 psi) is the same reproducing pair as (phi, psi); its tail
    # Gram's smallest eigenvalue is about 1e-13, which is no reason to reject it.
    phi, psi = random_excess_pair(8, 2, np.random.default_rng(0))
    report = excess_n_identities(1e-6 * phi, 1e6 * psi, 2)
    assert report.n == 2
    assert report.margins["pair_identity_deviation"] <= 1e-14


def test_excess_n_rejects_non_pair():
    phi = random_family(5, 6, seed=21)
    psi = random_family(5, 6, seed=22)
    # Two unrelated families are no pair: the report records a deviation far above the limit.
    report = excess_n_identities(phi, psi, n=1)
    assert report.margins["pair_identity_deviation"] > reproducing._PAIR_LIMIT


def test_excess_n_verdict_probes_are_independent_of_the_pair(monkeypatch):
    # The probes come from a seed drawn after the pair, not from a fresh
    # generator on the pair's own seed, whose first draw is the tail's.
    probes = []
    deviation = reproducing._identity_deviation

    def record(psi_mat, phi_mat, fs, gs):
        probes.append(fs)
        return deviation(psi_mat, phi_mat, fs, gs)

    monkeypatch.setattr(reproducing, "_identity_deviation", record)
    verdict = reproducing.excess_n_verdict(8, 2, seed=0, dependent_head=True)
    assert verdict.passed
    raw_tail = np.random.default_rng(0).standard_normal((8, 8))
    assert not np.array_equal(probes[0].real[:8], raw_tail)
    # The report's seed is the probe seed, so the report reproduces its probes.
    assert np.array_equal(reproducing._probes(verdict.report.seed, 20, 8)[0], probes[0])


def test_reduce_dependent_pair_doubled_vector():
    u = np.array([[1.0, 0.0]], dtype=complex)
    psi = np.vstack([u, 2 * u])
    phi = random_family(2, 2, seed=23)
    reduced_phi, reduced_psi, note = reduce_dependent_pair(phi, psi)
    assert len(reduced_psi) == 1
    assert np.max(np.abs(reduced_psi - u)) < 1e-14
    expected = phi[0] + 2.0 * phi[1]
    assert np.max(np.abs(reduced_phi[0] - expected)) < 1e-12
    assert "psi" in note


def test_reduce_dependent_pair_sum_vector():
    rng = np.random.default_rng(29)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = np.vstack([u, v, u + v])
    phi = random_family(4, 3, seed=31)
    reduced_phi, reduced_psi, _ = reduce_dependent_pair(phi, psi)
    assert len(reduced_psi) == 2
    before = s_operator(psi, phi)  # noqa: F841  (shape check below)
    # the combined operator action is preserved: for every f and g the
    # summed products agree before and after the reduction
    for seed in range(5):
        trial = np.random.default_rng(seed)
        f = trial.standard_normal(4) + 1j * trial.standard_normal(4)
        g = trial.standard_normal(4) + 1j * trial.standard_normal(4)
        lhs = (psi.conj() @ f) @ (phi @ g.conj())
        rhs = (reduced_psi.conj() @ f) @ (reduced_phi @ g.conj())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_reduction_drops_inner_rows_twice():
    # excess-n --dim 4 --n 6 --seed 1 eliminates psi head element 4 of 6, then
    # element 4 of 5: each step drops a row that is not the last, by index.
    phi, psi = random_excess_pair(4, 6, np.random.default_rng(1))
    phi, psi = phi[:6], psi[:6]
    probes = np.random.default_rng(2)
    fs = probes.standard_normal((5, 4)) + 1j * probes.standard_normal((5, 4))
    gs = probes.standard_normal((5, 4)) + 1j * probes.standard_normal((5, 4))
    form = (fs @ psi.conj().T) @ (phi @ gs.conj().T)   # sum_i <f, psi_i> <phi_i, g>
    for n in (6, 5):
        reduced_phi, reduced_psi, note = reduce_dependent_pair(phi, psi)
        assert note.startswith("eliminated psi head element 4 ")
        rest = [i for i in range(n) if i != 4]
        assert np.array_equal(reduced_psi, psi[rest])
        phi, psi = reduced_phi, reduced_psi
        after = (fs @ psi.conj().T) @ (phi @ gs.conj().T)
        assert np.max(np.abs(after - form)) <= 1e-12 * np.max(np.abs(form))
    notes = reproducing.excess_n_verdict(4, 6, seed=1).report.notes
    assert [note.startswith("reduction: ") for note in notes] == [True, True], notes


def test_reduce_dependent_pair_requires_dependence():
    # Only the psi head is tried: a dependent phi head beside it is left as it is.
    phi = onb(3)
    psi = onb(3)
    for phi_head in (phi, np.vstack([phi[:2], 3 * phi[1]])):
        with pytest.raises(NumericalFailure, match="the psi head is linearly independent"):
            reduce_dependent_pair(phi_head, psi)


def test_reduce_once_refuses_a_dependence_it_cannot_fit():
    # The third psi row lies within _RANK_TOL of the span at the scale of the
    # first, so the rank test calls it dependent, but the least-squares fit
    # misses it by 1e-5: the reduction refuses it rather than drop it.
    psi_head = np.zeros((3, 4), dtype=complex)
    psi_head[0, 0], psi_head[1, 1] = 1e6, 1.0
    psi_head[2, 1], psi_head[2, 2] = 1.0, 1e-5
    phi_head = random_family(4, 3, seed=41)
    message = "dependent element sits 1.000e-05 away from the span of the others"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        reproducing._reduce_once(phi_head, psi_head)
    tail = onb(4)
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        excess_n_identities(np.vstack([phi_head, tail]), np.vstack([psi_head, tail]), 3)


def scanned_dependent_row(mat):
    """The linear prefix scan that the bisection replaced, as the reference."""
    prev_rank = 0
    for j in range(mat.shape[0]):
        rank = rank_and_span(mat[: j + 1])
        if rank <= prev_rank:
            return j
        prev_rank = rank
    return None


@pytest.mark.parametrize("n, dim", [(2, 8), (4, 8), (8, 96), (12, 8), (64, 96)])
def test_first_dependent_row_matches_prefix_scan(n, dim):
    # A dependency planted at every position (at 0 it is a zero first row)
    # and the unplanted head; with n > dim row dim is the first dependent one.
    rng = np.random.default_rng(7 * n + dim)
    base = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    cases = [(base, None if n <= dim else dim)]
    for j in range(n):
        mat = base.copy()
        coeffs = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        mat[j] = coeffs @ mat[:j]
        cases.append((mat, min(j, dim)))
    for mat, expected in cases:
        found = reproducing._first_dependent_row(mat)
        assert found == expected
        assert found == scanned_dependent_row(mat)


def test_reduction_preserves_operator_form():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        dim = 6
        tail = random_spanning_family(dim, rng)
        dep = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        dep = np.vstack([dep, dep[0] - 0.5 * dep[1]])
        psi = np.vstack([dep, tail])
        phi = rng.standard_normal((len(psi), dim)) + 1j * rng.standard_normal((len(psi), dim))
        reduced_phi, reduced_psi, _ = reduce_dependent_pair(phi, psi)
        before = s_operator(psi, phi)
        after = s_operator(reduced_psi, reduced_phi)
        scale = max(np.max(np.abs(before)), 1e-30)
        assert np.max(np.abs(before - after)) <= 1e-11 * scale


# Property tests over seeded draws: derandomized, so every run checks the same cases.
PROPERTIES = settings(derandomize=True, deadline=None, max_examples=25)


@PROPERTIES
@given(
    dim=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reduction_preserves_operator_form_property(dim, seed, data):
    # Plant one dependency: psi head element j is a random combination of
    # the elements before it, which are independent.
    n = data.draw(st.integers(2, dim), label="head length")
    j = data.draw(st.integers(1, n - 1), label="dependent element")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    psi[j] = (rng.standard_normal(j) + 1j * rng.standard_normal(j)) @ psi[:j]
    phi = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    reduced_phi, reduced_psi, note = reduce_dependent_pair(phi, psi)
    assert len(reduced_phi) == len(reduced_psi) == n - 1
    assert note.startswith(f"eliminated psi head element {j} ")
    before = s_operator(psi, phi)
    after = s_operator(reduced_psi, reduced_phi)
    assert np.max(np.abs(before - after)) <= 1e-11 * np.max(np.abs(before))


@PROPERTIES
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reduction_keeps_the_phi_head_rank_equal_to_the_psi_head_rank_property(dim, seed, data):
    # excess-n reduces only the psi head.  With psi = A phi for an invertible A,
    # as for the canonical dual, the phi head's rank equals the psi head's after
    # every reduction, so once the psi head is independent the phi head is too.
    # The head has rank r, with n - r planted dependencies among its rows; n
    # runs up to 2 dim + 1, so heads longer than the dimension are drawn too.
    n = data.draw(st.integers(2, 2 * dim + 1), label="head length")
    r = data.draw(st.integers(1, min(n - 1, dim)), label="head rank")
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    phi = mix @ (rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim)))
    psi = phi @ random_spanning_family(dim, rng).T      # psi_k = A phi_k
    steps = 0
    while (reduced := reproducing._reduce_once(phi, psi)) is not None:
        phi, psi, _ = reduced
        steps += 1
        assert rank_and_span(phi) == rank_and_span(psi), steps
    assert steps == n - r
    assert rank_and_span(phi) == rank_and_span(psi) == len(phi) == len(psi) == r


@PROPERTIES
@given(
    dim=st.integers(2, 16),
    dependent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_excess_residuals_unitary_invariance_property(dim, dependent, seed, data):
    # A unitary Q maps the pair to another pair with the same inner products,
    # so the reduction chain and the rounding-level residuals do not change.
    n = data.draw(st.integers(2, min(dim, 6)), label="head length")
    rng = np.random.default_rng(seed)
    phi, psi = random_excess_pair(dim, n, rng, dependent_head=dependent)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    base = excess_n_identities(phi, psi, n)
    rotated = excess_n_identities(phi @ Q, psi @ Q, n)
    assert rotated.n == base.n == n - dependent
    assert len(rotated.notes) == len(base.notes)
    for key in base.residuals:
        assert base.residuals[key] <= 1e-10
        assert abs(base.residuals[key] - rotated.residuals[key]) < 1e-12


def test_span_vectors_standard_basis():
    dim, n = 5, 2
    head = np.eye(dim, dtype=complex)[:n]
    tail = np.eye(dim, dtype=complex)
    vecs = span_vectors(head, tail)
    assert len(vecs) == dim
    expected = np.zeros((dim, n), dtype=complex)
    expected[:n, :n] = np.eye(n)
    assert np.max(np.abs(vecs - expected)) < 1e-14
    assert rank_and_span(vecs) == n


def test_span_vectors_full_rank_random():
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        dim, n = 7, 3
        head = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        tail = random_spanning_family(dim, rng)
        vecs = span_vectors(head, tail)
        assert rank_and_span(vecs) == n


def test_random_spanning_family_margin():
    rng = np.random.default_rng(41)
    fam = random_spanning_family(6, rng)
    sigma = np.linalg.svd(fam, compute_uv=False)
    assert sigma[-1] >= 0.5 - 1e-12
    assert sigma[0] <= 2.0 + 1e-12


def test_random_excess_pair_is_reproducing():
    rng = np.random.default_rng(43)
    phi, psi = random_excess_pair(8, 2, rng)
    assert reproducing_identity_check(psi, phi, seed=0) < 1e-12


def test_random_pair_check_report():
    report = random_pair_check(dim=8, pairs=20, seed=0).report
    assert report.passed
    assert report.max_identity_deviation < 1e-10
    assert report.max_adjoint_asymmetry <= 1e-12
    assert report.min_invertibility_margin >= 0.25 - 1e-12


def test_random_pair_check_adjoint_asymmetry_at_rounding_level():
    # Two orderings of one product: 0.0 at some dimensions, a few 1e-16 at
    # others (dims 2, 3, 5, 6 and 7 at seed 1), never above 1e-15.
    for dim in range(1, 9):
        assert random_pair_check(dim, 20, seed=1).report.max_adjoint_asymmetry <= 1e-15, dim


def recorded_probe_counts(monkeypatch):
    """The probe counts of every _probes call from here on, in call order."""
    counts = []
    probes = reproducing._probes

    def recording_probes(seed, count, dim):
        counts.append(count)
        return probes(seed, count, dim)

    monkeypatch.setattr(reproducing, "_probes", recording_probes)
    return counts


def test_random_pair_check_draws_pair_probes_per_pair(monkeypatch):
    counts = recorded_probe_counts(monkeypatch)
    report = random_pair_check(dim=4, pairs=3, seed=0).report
    assert counts == [_PAIR_PROBES] * 3
    assert report.trials_per_pair == _PAIR_PROBES == 8


def test_excess_identities_draw_excess_probes(monkeypatch):
    counts = recorded_probe_counts(monkeypatch)
    phi, psi = random_excess_pair(4, 2, np.random.default_rng(29))
    excess_n_identities(phi, psi, 2, seed=3)
    assert counts == [_EXCESS_PROBES] == [20]


@pytest.mark.parametrize("count, dim", [(0, 5), (1, 1), (37, 300), (512, 512), (3, 9000), (3, 70000)])
def test_complex_gaussian_vectors_keep_the_whole_size_stream(count, dim):
    # The blocked fill draws what two whole-size draws give, byte for byte,
    # and leaves the generator where they leave it: several whole blocks,
    # rows wider than one block with a partial last block, and the empty
    # head of random_excess_pair(dim, 0, ...) included.
    assert 512 * 512 % _DRAW_BLOCK == 0 and 70000 > _DRAW_BLOCK and 3 * 70000 % _DRAW_BLOCK
    blocked, whole = np.random.default_rng(11), np.random.default_rng(11)
    got = _complex_gaussian_vectors(blocked, count, dim)
    a = whole.standard_normal((count, dim))
    b = whole.standard_normal((count, dim))
    want = a + 1j * b
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert blocked.standard_normal(3).tobytes() == whole.standard_normal(3).tobytes()


def test_complex_gaussian_vectors_hold_no_draw_sized_temporary():
    # Both halves pass through one reused block, so the traced peak is the
    # output and the block, 1.125 times the output at 512 x 512; two
    # whole-size float draws would make it 1.5 times.
    rng = np.random.default_rng(0)
    _complex_gaussian_vectors(rng, 512, 512)  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        out = _complex_gaussian_vectors(rng, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * (out.nbytes + _DRAW_BLOCK * 8)


def test_excess_n_holds_each_family_once():
    # The tail is read in place and only the head is copied, so no second
    # copy of either family is alive next to the tail Gram matrix and its
    # solve: the traced peak stays under 5.5 family sizes, and a stacked
    # copy of both families would add two.
    dim, n = 256, 32
    reproducing.excess_n_verdict(8, 2, seed=1, dependent_head=True)  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        reproducing.excess_n_verdict(dim, n, seed=1, dependent_head=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * (dim + n) * dim * 16


def test_random_pair_check_restores_blas_threads(monkeypatch):
    # The pairs run on single-threaded OpenBLAS, in the calling thread below
    # the pool's crossover and on the pool's workers above it; the caller's
    # thread count comes back after a normal return and after a pair raises,
    # and the exception reaches the caller unchanged.
    before = blas_threads()
    s_operator_in_module = reproducing.s_operator
    for dim in (16, _POOL_MIN_DIM + 8):
        seen = []

        def recording_s_operator(psi, phi):
            seen.append(blas_threads())
            return s_operator_in_module(psi, phi)

        monkeypatch.setattr(reproducing, "s_operator", recording_s_operator)
        assert random_pair_check(dim=dim, pairs=5, seed=0).passed
        assert blas_threads() == before
        assert set(seen) == ({None} if before is None else {1}), dim

        error = NumericalFailure("raised by a pair")

        def failing_s_operator(psi, phi):
            raise error

        monkeypatch.setattr(reproducing, "s_operator", failing_s_operator)
        with pytest.raises(NumericalFailure) as info:
            random_pair_check(dim=dim, pairs=5, seed=0)
        assert info.value is error
        assert blas_threads() == before


def test_random_pair_check_matches_serial_loop(monkeypatch):
    # The serial loop the thread pool replaced, as the reference: the same
    # draws in the same order give the same bits on both sides of the pool's
    # crossover, also when the interpreter switches threads as often as it
    # can, and at every worker count: with one pair queued behind the
    # workers, and with more workers than cores.  One CPU and the dims
    # below the crossover check the pairs in the calling thread, without
    # a pool.
    pairs, seed = 7, 5
    pools = []
    executor = concurrent.futures.ThreadPoolExecutor

    class RecordingExecutor(executor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    for dim in (12, _POOL_MIN_DIM):
        rng = np.random.default_rng(seed)
        deviations, asymmetries, margins = [], [], []
        with single_threaded_blas():
            for _ in range(pairs):
                phi = random_spanning_family(dim, rng)
                psi = random_spanning_family(dim, rng)
                raw = s_operator(psi, phi)
                margins.append(float(np.linalg.svd(raw, compute_uv=False)[-1]))
                normalized = np.linalg.solve(raw, phi.T).T
                pair_seed = int(rng.integers(2**31))
                deviations.append(reproducing_identity_check(psi, normalized, pair_seed))
                S = s_operator(psi, normalized)
                swapped = s_operator(normalized, psi)
                asymmetries.append(float(np.max(np.abs(S - swapped.conj().T)) / np.max(np.abs(S))))
        pools.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 5):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
                report = random_pair_check(dim, pairs, seed).report
                assert report.max_identity_deviation == max(deviations), (dim, cpus)
                assert report.max_adjoint_asymmetry == max(asymmetries), (dim, cpus)
                assert report.min_invertibility_margin == min(margins), (dim, cpus)
        finally:
            sys.setswitchinterval(interval)
        assert pools == ([] if dim < _POOL_MIN_DIM or blas_threads() is None else [2, 3, 5]), dim
