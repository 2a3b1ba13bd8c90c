"""Tests for weighted exponential systems and their biorthogonal duals."""

import json
import re

import mpmath
import numpy as np
import pytest

from zakbench import expsys
from zakbench.expsys import (
    ExpSystem,
    PeriodicSignal,
    dual_coefficient,
    exponential,
    inverse_weight_energy,
    load_signal,
    save_signal,
    schauder_failure_sweep,
    shifted_nodes,
    weighted_exp,
)
from zakbench.zak import save_grid_function, theta_grid

from reference import active_indices, biorthogonality_gram, dual_rows


def make_system(name="linear", N=64, W=8, removed=0, anchor=0.25):
    return ExpSystem(
        weight=PeriodicSignal.from_name(name, N),
        window=W,
        removed=removed,
        anchor=anchor,
    )


def sampled_sweep(system):
    """(residual, term norm) per level, summed over sampled N-vectors term by term.

    The per-term loop that the Gram form of ``schauder_failure_sweep``
    replaced, kept as its reference.
    """
    k = system.removed
    target = weighted_exp(system, k)
    partial = np.zeros(system.N, dtype=complex)
    levels = []
    for L in range(1, system.window + 1):
        term_norm = 0.0
        for n in (k - L, k + L):
            if abs(n) <= system.window:
                term = np.conj(dual_coefficient(system, n)) * weighted_exp(system, n)
                partial += term
                term_norm = max(term_norm, PeriodicSignal(term).norm())
        levels.append((PeriodicSignal(target - partial).norm(), term_norm))
    return levels


def test_shifted_nodes_avoid_zero():
    t = shifted_nodes(8)
    assert np.allclose(t, (np.arange(8) + 0.5) / 8)
    assert np.min(t) > 0.0 and np.max(t) < 1.0


def test_periodic_signal_validation():
    with pytest.raises(ValueError):
        PeriodicSignal(np.ones(7))     # odd N
    for shape in ((), (2, 2, 2)):
        with pytest.raises(ValueError, match="1d or square 2d"):
            PeriodicSignal(np.ones(shape))
    assert PeriodicSignal.from_name("one", 16).norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PeriodicSignal.from_name("bogus", 16)


def test_periodic_signal_norm_hand_values():
    # The quadrature weight is 1/N per axis: 1/N^2 on a square grid.
    assert PeriodicSignal(np.ones(8, dtype=complex)).norm() == 1.0
    assert PeriodicSignal(np.array([[3.0, 4j], [0.0, 0.0]])).norm() == 2.5


def test_expsystem_validation():
    w = PeriodicSignal.from_name("linear", 32)
    with pytest.raises(ValueError, match="weight must be sampled on the circle"):
        ExpSystem(weight=PeriodicSignal(np.ones((32, 32))), window=2, removed=0)
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=0, removed=0)
    with pytest.raises(ValueError):
        ExpSystem(weight=w, window=9, removed=0)      # 2W+1 > N/2
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
    with pytest.raises(ValueError, match=r"index 9 outside window \|n\| <= 8"):
        weighted_exp(make_system(W=8), 9)


def test_dual_coefficient_hand_values():
    sys_zero = make_system(anchor=0.0)
    assert dual_coefficient(sys_zero, 3) == pytest.approx(-1.0)
    # anchor 1/2 and n - k = 1: -exp(pi i) = 1
    sys_half = make_system(anchor=0.5)
    assert dual_coefficient(sys_half, 1) == pytest.approx(1.0)


def test_dual_coefficient_unit_modulus_and_errors():
    sys_ = make_system()
    for n in active_indices(sys_):
        assert abs(dual_coefficient(sys_, n)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="index 0 is the removed index"):
        dual_coefficient(sys_, 0)


def test_dual_coefficient_phase_against_mpmath():
    # c_n = -exp(2 pi i (n - k) t0); evaluating the rounded product
    # 2 pi (n - k) t0 is off by about 1e-12 at |n| = 2000.
    N, W = 16384, 2000
    for t0 in (0.25, 0.1, 0.6180339887):
        sys_ = make_system("linear", N=N, W=W, anchor=t0)
        with mpmath.workdps(40):
            for n in active_indices(sys_):
                exact = -mpmath.expjpi(2 * (n - sys_.removed) * mpmath.mpf(t0))
                assert abs(complex(exact) - dual_coefficient(sys_, n)) <= 1e-15, (t0, n)


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
    dual = dual_rows(sys_)[active_indices(sys_).index(2)]
    expected = exponential(sys_.N, 2) - exponential(sys_.N, 0)
    assert np.max(np.abs(dual - expected)) < 1e-14


def test_biorthogonal_dual_weight_zero_error():
    samples = shifted_nodes(32).astype(complex)
    samples[3] = 0.0
    with pytest.raises(ValueError, match="weight vanishes at a grid node"):
        ExpSystem(weight=PeriodicSignal(samples), window=4, removed=0)


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
    report = schauder_failure_sweep(sys_).report
    g_norm = sys_.weight.norm()
    for level in report.levels:
        assert abs(level["term_norm"] - g_norm) <= 1e-12
    assert report.flags["no_norm_convergence"]
    assert report.grid_N == 128 and report.window_W == 16 and report.removed_k == 0
    assert len(report.levels) == 16
    assert [lv["L"] for lv in report.levels] == list(range(1, 17))


def test_sweep_residuals_against_dirichlet_kernel():
    # For g(t) = t and k = 0 the partial sum is S_L = -g (D_L(t - t0) - 1),
    # so g e_0 - S_L = g D_L(t - t0) with D_L(s) = sin((2L+1) pi s)/sin(pi s),
    # evaluated here in mpmath independently of the sampled exponentials.
    # At N = 4096 each Gram update sums up to 2W + 1 = 2001 Toeplitz
    # entries; their accumulated rounding must stay at the oracle's level.
    for N, W, anchors, levels in ((256, 16, (0.25, 0.6180339887), (1, 8, 16)),
                                  (4096, 1000, (0.25,), (1, 500, 1000))):
        for t0 in anchors:
            report = schauder_failure_sweep(make_system("linear", N=N, W=W, anchor=t0)).report
            for L in levels:
                with mpmath.workdps(30):
                    total = mpmath.mpf(0)
                    for i in range(N):
                        t = mpmath.mpf(2 * i + 1) / (2 * N)
                        s = mpmath.pi * (t - mpmath.mpf(t0))
                        total += (t * mpmath.sin((2 * L + 1) * s) / mpmath.sin(s)) ** 2
                    exact = float(mpmath.sqrt(total / N))
                residual = report.levels[L - 1]["residual"]
                assert abs(residual - exact) <= 1e-13 * exact, (N, t0, L, residual, exact)


@pytest.mark.parametrize("weight", ["linear", "sqrt", "one", "file"])
def test_sweep_matches_sampled_reference(weight, tmp_path):
    N, W = 512, 100
    if weight == "file":
        # A complex weight read back from a weight file, as --g-file loads it.
        rng = np.random.default_rng(3)
        save_signal(PeriodicSignal(rng.standard_normal(N) + 1j * rng.standard_normal(N)), tmp_path / "g.json")
        signal = load_signal(tmp_path / "g.json")
    else:
        signal = PeriodicSignal.from_name(weight, N)
    g_norm = signal.norm()
    for k in (0, -37, W - 1):
        for t0 in (0.0, 0.25, 0.6180339887):
            system = ExpSystem(weight=signal, window=W, removed=k, anchor=t0)
            report = schauder_failure_sweep(system).report
            reference = sampled_sweep(system)
            assert len(report.levels) == len(reference) == W
            for level, (residual, term_norm) in zip(report.levels, reference):
                case = (k, t0, level["L"])
                assert abs(level["residual"] - residual) <= 1e-14 * residual, case
                assert abs(level["term_norm"] - term_norm) <= 4.5e-16 * g_norm, case


def test_sweep_exp_cost(monkeypatch):
    # The sweep reads every exponential from one root table: about N + 1
    # table entries plus one scalar per dual coefficient reach np.exp,
    # where evaluating each term directly would pass about 2W N.  It sums
    # the Gram of |g|^2, so no sampled exponential is built per term
    # either; the sampled loop made 2W + 1 calls to ``exponential`` here.
    N, W = 4096, 1000
    counted = []
    calls = []
    exp = np.exp
    exponential_ = expsys.exponential

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    def counting_exponential(N, n):
        calls.append(n)
        return exponential_(N, n)

    system = make_system("linear", N=N, W=W)
    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(expsys, "exponential", counting_exponential)
    assert schauder_failure_sweep(system).passed
    assert 0 < sum(counted) <= 4 * N
    assert len(calls) <= 4


def test_sweep_verdict_fails_on_off_modulus_terms(monkeypatch):
    # Term norms are certified from |c_n| and the root table's moduli, so
    # one coefficient or one table entry of modulus 1 + 1e-6 must fail.
    system = make_system("linear", N=4096, W=1000)
    assert schauder_failure_sweep(system).passed
    dual_coefficient_ = expsys.dual_coefficient
    root_table = expsys._root_table

    def scaled(system, n):
        c = dual_coefficient_(system, n)
        return c * (1 + 1e-6) if n == 517 else c

    def perturbed(N):
        roots, odd = root_table(N)
        roots = roots.copy()
        roots[3] *= 1 + 1e-6
        return roots, odd

    for name, patch in (("dual_coefficient", scaled), ("_root_table", perturbed)):
        with monkeypatch.context() as m:
            m.setattr(expsys, name, patch)
            assert not schauder_failure_sweep(system).passed, name


def test_sweep_verdict_is_invariant_under_weight_scale():
    # The spread limit is relative to ||g|| at every scale: the linear weight
    # times 1e-100 gives the unscaled verdict, spread / ||g|| and limit / ||g||.
    base = make_system("linear", N=128, W=16)
    tiny = ExpSystem(PeriodicSignal(base.weight.samples * 1e-100), window=16, removed=0, anchor=0.25)
    got = []
    for system in (base, tiny):
        verdict, g_norm = schauder_failure_sweep(system), system.weight.norm()
        spread = verdict.checks["term_norm_spread"]
        got.append((verdict.passed, spread["value"] / g_norm, spread["limit"] / g_norm))
    (passed, spread, limit), (tiny_passed, tiny_spread, tiny_limit) = got
    assert passed is tiny_passed is True
    assert spread < 4e-16 and tiny_spread < 4e-16, got
    assert limit == pytest.approx(1e-9, rel=1e-12) and tiny_limit == pytest.approx(1e-9, rel=1e-12), got


def test_sweep_residuals_never_vanish():
    # Terms of constant norm cannot sum to the target function.
    report = schauder_failure_sweep(make_system("linear", N=128, W=16)).report
    assert min(lv["residual"] for lv in report.levels) > 0.01


def test_sweep_hypothesis_note_for_integrable_inverse():
    report = schauder_failure_sweep(make_system("one", N=128, W=16)).report
    notes = " ".join(report.flags["hypothesis_notes"])
    assert "fails" in notes
    # the duals stay biorthogonal regardless of the failed hypothesis
    sys_ = make_system("one", N=128, W=16)
    gram = biorthogonality_gram(sys_)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_sweep_hypothesis_note_for_linear_weight():
    report = schauder_failure_sweep(make_system("linear", N=128, W=16)).report
    notes = " ".join(report.flags["hypothesis_notes"])
    assert "grows" in notes


def test_sweep_hypothesis_ladder_on_small_grids():
    # The ladder must compare distinct grids: on N = 6 and 8 a repeated
    # coarse size once gave a ratio of exactly 1, which read as "fails".
    def notes(name, N):
        report = schauder_failure_sweep(make_system(name, N=N, W=1)).report
        return " ".join(report.flags["hypothesis_notes"])

    for N in (6, 8):
        linear = notes("linear", N)
        assert "grows" in linear, linear
        sizes = [int(size) for size in re.findall(r"N=(\d+):", linear)]
        assert len(sizes) >= 2 and sizes == sorted(set(sizes)) and sizes[-1] == N, linear
        assert "fails" in notes("one", N)


def test_sweep_sampler_free_signal_notes_missing_ladder():
    samples = PeriodicSignal.from_name("linear", 64).samples
    sys_ = ExpSystem(weight=PeriodicSignal(samples), window=8, removed=0)
    report = schauder_failure_sweep(sys_).report
    assert any("ladder unavailable" in note for note in report.flags["hypothesis_notes"])


def test_signal_roundtrip(tmp_path):
    sig = PeriodicSignal.from_name("sqrt", 32)
    assert sig.name == "sqrt"
    path = tmp_path / "weight.json"
    save_signal(sig, path)
    loaded = load_signal(path)
    assert loaded.N == 32
    assert np.max(np.abs(loaded.samples - sig.samples)) < 1e-15
    assert loaded.name is None
    with pytest.raises(ValueError, match="a weight file holds 1-D samples"):
        save_signal(theta_grid(4), tmp_path / "grid.json")



def per_sample_file(header, samples):
    """A sample file's text, with each sample converted by float() one at a time."""
    pairs = [[float(z.real), float(z.imag)] for z in samples.ravel()]
    return json.dumps({**header, "samples": pairs}) + "\n"


def test_sample_files_match_per_sample_writer(tmp_path):
    rng = np.random.default_rng(5)
    weight_header = {"N": 64, "grid": "shifted_midpoint"}
    grid_header = {"grid": "midpoint", "domain": "unit_square"}
    signed_zeros = np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 2.5e-310 - 1e300j]])
    cases = [
        (save_signal, {**weight_header, "N": 128}, PeriodicSignal.from_name("linear", 128)),
        (save_signal, weight_header, PeriodicSignal(rng.standard_normal(64) + 1j * rng.standard_normal(64))),
        (save_grid_function, {"M": 128, **grid_header}, theta_grid(128)),
        (save_grid_function, {"M": 2, **grid_header}, PeriodicSignal(signed_zeros)),
    ]
    path = tmp_path / "samples.json"
    for save, header, signal in cases:
        save(signal, path)
        assert path.read_text() == per_sample_file(header, signal.samples)

def test_load_signal_rejects_bad_header(tmp_path):
    path = tmp_path / "weight.json"
    path.write_text('{"N": 2, "grid": "uniform", "samples": [[1, 0], [1, 0]]}')
    with pytest.raises(ValueError):
        load_signal(path)
    # JSON true loads as a bool, which complex() would take as 1.
    for bad, message in (("NaN", "finite"), ("Infinity", "finite"), ("true", "number pairs")):
        path.write_text(f'{{"N": 2, "grid": "shifted_midpoint", "samples": [[1, 0], [{bad}, 0]]}}')
        with pytest.raises(ValueError, match=message):
            load_signal(path)
    # JSON true loads as a bool, which is an int, and is not a size.
    path.write_text('{"N": true, "grid": "shifted_midpoint", "samples": [[1, 0]]}')
    with pytest.raises(ValueError, match="N must be a positive integer, got True"):
        load_signal(path)
    # A theta grid file is a 2-D grid function, not a circle weight.
    save_grid_function(theta_grid(4), path)
    with pytest.raises(ValueError, match="unsupported grid 'midpoint'"):
        load_signal(path)


@pytest.mark.parametrize("N", [256, 4096, 16384])
def test_inverse_weight_energy_closed_forms(N):
    # On the shifted grid (1/N) sum_i 1/|g(t_i)|^2 has exact forms:
    # linear: N sum_i 1/(i + 1/2)^2 = N (pi^2/2 - psi_1(N + 1/2));
    # sqrt: sum_i 1/(i + 1/2) = psi(N + 1/2) - psi(1/2); one: 1.
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        exact = {
            "linear": float(N * (mpmath.pi ** 2 / 2 - mpmath.psi(1, N + half))),
            "sqrt": float(mpmath.digamma(N + half) - mpmath.digamma(half)),
        }
    for name, value in exact.items():
        energy = inverse_weight_energy(PeriodicSignal.from_name(name, N).samples)
        assert abs(energy - value) <= 1e-15 * value, (name, energy, value)
    assert inverse_weight_energy(PeriodicSignal.from_name("one", N).samples) == 1.0
