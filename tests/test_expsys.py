"""Tests for weighted exponential systems and their biorthogonal duals."""

import mpmath
import numpy as np
import pytest

from zakbench import (
    ExpSystem,
    IndexOutOfWindow,
    PeriodicSignal,
    RemovedIndex,
    WeightVanishesOnGrid,
    biorthogonal_dual,
    biorthogonality_gram,
    completeness_defect,
    dual_coefficient,
    exponential,
    load_signal,
    save_signal,
    schauder_failure_sweep,
    shifted_nodes,
    sweep_verdict,
    weighted_exp,
)


def make_system(name="linear", N=64, W=8, removed=0, anchor=0.25):
    return ExpSystem(
        weight=PeriodicSignal.from_name(name, N),
        window=W,
        removed=removed,
        anchor=anchor,
    )


def test_shifted_nodes_avoid_zero():
    t = shifted_nodes(8)
    assert np.allclose(t, (np.arange(8) + 0.5) / 8)
    assert np.min(t) > 0.0 and np.max(t) < 1.0


def test_periodic_signal_validation():
    with pytest.raises(ValueError):
        PeriodicSignal(np.ones(7))     # odd N
    with pytest.raises(ValueError):
        PeriodicSignal(np.ones((4, 4)))
    assert PeriodicSignal.from_name("one", 16).norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PeriodicSignal.from_name("bogus", 16)


def test_expsystem_validation():
    w = PeriodicSignal.from_name("linear", 32)
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=0)
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=9)      # 2W+1 > N/2
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=4, removed=5)
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=4, removed=0, anchor=1.0)


def test_exponential_phase_against_mpmath():
    # e_n(t_i) = exp(pi i n(2i+1)/N); the phase must not carry the rounding
    # of 2 pi n t, which reaches about 2e-12 at |n| = 2000 on this grid.
    N = 16384
    nodes = np.random.default_rng(11).integers(0, N, 64)
    for n in (1, -1, 1999, -1999, 2000, -2000, N // 4 - 1):
        samples = exponential(N, n)
        for i in nodes:
            exact = mpmath.expjpi(mpmath.mpf(n * (2 * int(i) + 1)) / N)
            assert abs(complex(exact) - samples[i]) <= 1e-15, (n, i)


def test_exponential_symmetry_is_exact():
    N = 256
    assert np.array_equal(exponential(N, 0), np.ones(N, dtype=complex))
    for n in (1, 7, 64, 128, 255, 256, 1000):
        assert np.array_equal(exponential(N, -n), exponential(N, n).conj()), n


def test_weighted_exp_constant_weight():
    sys_ = make_system("one")
    assert np.allclose(weighted_exp(sys_, 0), np.ones(sys_.N))


def test_weighted_exp_linear_weight_gives_node_samples():
    sys_ = make_system("linear")
    assert np.allclose(weighted_exp(sys_, 0), shifted_nodes(sys_.N))


def test_weighted_exp_norm_equals_weight_norm():
    # |e_n| = 1, so multiplying by e_n cannot change the norm.
    sys_ = make_system("linear")
    g_norm = sys_.weight.norm()
    for n in (-8, -3, 0, 5, 8):
        v = weighted_exp(sys_, n)
        assert np.sqrt(np.sum(np.abs(v) ** 2) / sys_.N) == pytest.approx(g_norm, abs=1e-13)


def test_weighted_exp_window_error():
    with pytest.raises(IndexOutOfWindow):
        weighted_exp(make_system(W=8), 9)


def test_dual_coefficient_hand_values():
    sys_zero = make_system(anchor=0.0)
    assert dual_coefficient(sys_zero, 3) == pytest.approx(-1.0)
    # anchor 1/2 and n - k = 1: -exp(pi i) = 1
    sys_half = make_system(anchor=0.5)
    assert dual_coefficient(sys_half, 1) == pytest.approx(1.0)


def test_dual_coefficient_unit_modulus_and_errors():
    sys_ = make_system()
    for n in sys_.active_indices():
        assert abs(dual_coefficient(sys_, n)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(RemovedIndex):
        dual_coefficient(sys_, 0)
    with pytest.raises(ValueError):
        dual_coefficient(make_system(removed=None), 1)


def test_dual_numerator_vanishes_at_anchor():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t0 = float(rng.random())
        n = int(rng.integers(-8, 9))
        if n == 0:
            n = 1
        sys_ = make_system(anchor=t0)
        c = dual_coefficient(sys_, n)
        value = np.exp(2j * np.pi * n * t0) + c * np.exp(2j * np.pi * 0 * t0)
        assert abs(value) <= 1e-14


def test_biorthogonal_dual_constant_weight_closed_form():
    # g = 1, anchor 0: dual_n = e_n - e_k directly.
    sys_ = make_system("one", anchor=0.0)
    dual = biorthogonal_dual(sys_, 2)
    expected = exponential(sys_.N, 2) - exponential(sys_.N, 0)
    assert np.max(np.abs(dual - expected)) < 1e-14


def test_biorthogonal_dual_weight_zero_error():
    samples = shifted_nodes(32).astype(complex)
    samples[3] = 0.0
    sys_ = ExpSystem(weight=PeriodicSignal(samples), window=4, removed=0)
    with pytest.raises(WeightVanishesOnGrid):
        biorthogonal_dual(sys_, 1)


def test_biorthogonality_gram_identity_and_refinement():
    """Deviation from the identity stays tiny and never grows under refinement.

    The weight cancels node by node, so the deviation sits at rounding
    level at every N; monotonicity is asserted with an additive floor
    of that size.
    """
    devs = []
    for N in (64, 128, 256):
        sys_ = make_system("linear", N=N, W=8, anchor=0.0)
        gram = biorthogonality_gram(sys_)
        devs.append(float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    assert devs[0] < 1e-3
    assert devs[1] <= devs[0] + 1e-12
    assert devs[2] <= devs[1] + 1e-12


def test_sweep_term_norms_and_flag():
    sys_ = make_system("linear", N=128, W=16)
    report = schauder_failure_sweep(sys_, 16)
    g_norm = sys_.weight.norm()
    for level in report.levels:
        assert abs(level.term_norm - g_norm) <= 1e-12
    assert report.flags.no_norm_convergence
    assert report.grid_N == 128 and report.window_W == 16 and report.removed_k == 0
    assert len(report.levels) == 16
    assert [lv.L for lv in report.levels] == list(range(1, 17))


def test_sweep_residuals_against_dirichlet_kernel():
    # For g(t) = t and k = 0 the partial sum is S_L = -g (D_L(t - t0) - 1),
    # so g e_0 - S_L = g D_L(t - t0) with D_L(s) = sin((2L+1) pi s)/sin(pi s),
    # evaluated here in mpmath independently of the sampled exponentials.
    N, W = 256, 16
    for t0 in (0.25, 0.6180339887):
        report = schauder_failure_sweep(make_system("linear", N=N, W=W, anchor=t0), W)
        for L in (1, 8, 16):
            with mpmath.workdps(30):
                total = mpmath.mpf(0)
                for i in range(N):
                    t = mpmath.mpf(2 * i + 1) / (2 * N)
                    s = mpmath.pi * (t - mpmath.mpf(t0))
                    total += (t * mpmath.sin((2 * L + 1) * s) / mpmath.sin(s)) ** 2
                exact = float(mpmath.sqrt(total / N))
            residual = report.levels[L - 1].residual
            assert abs(residual - exact) <= 1e-13 * exact, (t0, L, residual, exact)


def test_sweep_exp_cost(monkeypatch):
    # The sweep reads every exponential from one root table: about N + 1
    # table entries plus one scalar per dual coefficient reach np.exp,
    # where evaluating each term directly would pass about 2W N.
    N, W = 4096, 1000
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    system = make_system("linear", N=N, W=W)
    monkeypatch.setattr(np, "exp", counting_exp)
    assert sweep_verdict(system).passed
    assert 0 < sum(counted) <= 4 * N


def test_sweep_residuals_never_vanish():
    # Terms of constant norm cannot sum to the target function.
    report = schauder_failure_sweep(make_system("linear", N=128, W=16), 16)
    assert min(lv.residual for lv in report.levels) > 0.01


def test_sweep_hypothesis_note_for_integrable_inverse():
    report = schauder_failure_sweep(make_system("one", N=128, W=16), 8)
    notes = " ".join(report.flags.hypothesis_notes)
    assert "fails" in notes
    # the duals stay biorthogonal regardless of the failed hypothesis
    sys_ = make_system("one", N=128, W=16)
    gram = biorthogonality_gram(sys_)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_sweep_hypothesis_note_for_linear_weight():
    report = schauder_failure_sweep(make_system("linear", N=128, W=16), 8)
    notes = " ".join(report.flags.hypothesis_notes)
    assert "grows" in notes


def test_sweep_sampler_free_signal_notes_missing_ladder():
    samples = PeriodicSignal.from_name("linear", 64).samples
    sys_ = ExpSystem(weight=PeriodicSignal(samples), window=8, removed=0)
    report = schauder_failure_sweep(sys_, 4)
    assert any("ladder unavailable" in note for note in report.flags.hypothesis_notes)


def test_sweep_max_terms_validation():
    with pytest.raises(ValueError):
        schauder_failure_sweep(make_system(W=8), 9)
    with pytest.raises(ValueError):
        schauder_failure_sweep(make_system(removed=None), 4)


def test_completeness_defect_orthonormal_case():
    sys_ = ExpSystem(weight=PeriodicSignal.from_name("one", 64), window=4, removed=None)
    assert completeness_defect(sys_) == pytest.approx(1.0, abs=1e-12)


def test_completeness_defect_linear_weight_positive():
    value = completeness_defect(make_system("linear", N=64, W=8))
    assert value > 0.05


def test_completeness_defect_half_support_near_zero():
    # Weight vanishing on half the circle leaves the truncation
    # numerically incomplete; reported as a small value, not an error.
    t = shifted_nodes(64)
    samples = np.where(t < 0.5, 1.0 + 0j, 1e-9 + 0j)
    sys_ = ExpSystem(weight=PeriodicSignal(samples), window=8, removed=0)
    assert completeness_defect(sys_) < 1e-4


def test_signal_roundtrip(tmp_path):
    sig = PeriodicSignal.from_name("sqrt", 32)
    path = tmp_path / "weight.json"
    save_signal(sig, path)
    loaded = load_signal(path)
    assert loaded.N == 32
    assert np.max(np.abs(loaded.samples - sig.samples)) < 1e-15
    assert loaded.sampler is None


def test_load_signal_rejects_bad_header(tmp_path):
    path = tmp_path / "weight.json"
    path.write_text('{"N": 2, "grid": "uniform", "samples": [[1, 0], [1, 0]]}')
    with pytest.raises(ValueError):
        load_signal(path)
    for bad in ("NaN", "Infinity"):
        path.write_text(f'{{"N": 2, "grid": "shifted_midpoint", "samples": [[1, 0], [{bad}, 0]]}}')
        with pytest.raises(ValueError):
            load_signal(path)
