"""Tests for the Zak transform, the theta form, and the ladder diagnostics."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakbench import zak
from zakbench.expsys import PeriodicSignal, exponential, save_signal, shifted_nodes
from zakbench.linalg import NumericalFailure
from zakbench.zak import (
    ThetaParams,
    gaussian_atom,
    gaussian_zak_theta,
    leading_coefficient,
    load_grid_function,
    modulated_translate,
    quotient_integral,
    save_grid_function,
    theta1,
    theta1_prime_zero,
    theta_grid,
    validate_verdict,
    zak_transform,
)

from reference import plane_wave, plane_wave_bounds

# Frozen oracle values, computed by direct high-truncation summation.
THETA_PRIME_ZERO = 0.9067676551677313
CENTER_SUM = 1.291996007481504          # 2^{1/4} * sum_k exp(-pi k^2)
THETA_HALF_PI = 0.9135791381561168      # theta1(pi/2) at q = exp(-pi)


def meshgrid(M):
    g = shifted_nodes(M)
    return np.meshgrid(g, g, indexing="ij")


# Squared numerators of the named ladders at the full meshgrid, for the pointwise reference.
POINTWISE_NUMERATORS = {"cone": lambda X, XI: (X - 0.5) ** 2 + (XI - 0.5) ** 2, "one": lambda X, XI: 1.0}


def pointwise_estimate(numerator, M):
    """Mean of num / |gaussian_zak_theta|^2 on the full M x M meshgrid."""
    X, XI = meshgrid(M)
    return float(np.mean(POINTWISE_NUMERATORS[numerator](X, XI) / np.abs(gaussian_zak_theta(X, XI)) ** 2))


def test_zak_of_unit_indicator_is_constant_one():
    def indicator(t):
        t = np.asarray(t, dtype=float)
        return ((0.0 <= t) & (t < 1.0)).astype(complex)

    grid = zak_transform(indicator, 16, 3)
    assert np.max(np.abs(grid.samples - 1.0)) < 1e-14
    assert grid.norm() == pytest.approx(1.0)


def test_gaussian_zak_norm_is_one():
    grid = zak_transform(gaussian_atom, 64, 6)
    assert abs(grid.norm() - 1.0) < 1e-6


def test_gaussian_zak_center_sum_oracle():
    # Value at the origin is a rapidly converging plain Gaussian sum.
    direct = sum(2.0**0.25 * np.exp(-np.pi * k * k) for k in range(-8, 9))
    assert direct == pytest.approx(CENTER_SUM, abs=1e-14)
    assert gaussian_zak_theta(0.0, 0.0) == pytest.approx(CENTER_SUM, abs=1e-12)


def test_theta_form_matches_direct_series():
    M = 64
    direct = zak_transform(gaussian_atom, M, 6)
    theta = theta_grid(M)
    assert np.max(np.abs(direct.samples - theta.samples)) < 1e-10


def test_theta_vanishes_at_center_only():
    assert abs(gaussian_zak_theta(0.5, 0.5)) < 1e-12
    X, XI = meshgrid(32)
    vals = np.abs(gaussian_zak_theta(X, XI))
    assert np.min(vals) > 0.05  # nodes stay away from the zero


def test_covariance_under_modulation_and_translation():
    M = 32
    base = zak_transform(gaussian_atom, M, 6)
    X, XI = meshgrid(M)
    for n in (-1, 0, 1):
        for k in (-1, 0, 1):
            shifted = zak_transform(modulated_translate(gaussian_atom, n, k), M, 6)
            expected = plane_wave(n, k, X, XI) * base.samples
            assert np.max(np.abs(shifted.samples - expected)) < 1e-10


def test_translated_gaussian_norm():
    # Fractional translates are still unit vectors on the line.
    grid = zak_transform(lambda t: gaussian_atom(t - 0.3), 64, 6)
    assert abs(grid.norm() - 1.0) < 1e-6


def test_zak_transform_refuses_an_empty_sum():
    with pytest.raises(ValueError, match="^J must be at least 1$"):
        zak_transform(gaussian_atom, 8, 0)


def outer_zak_transform(f, M, J):
    """The j-sum accumulated through a fresh np.outer per term."""
    x = shifted_nodes(M)
    out = np.zeros((M, M), dtype=complex)
    for j in range(-J, J + 1):
        out += np.outer(np.asarray(f(x - j), dtype=complex), exponential(M, j))
    return out


@pytest.mark.parametrize("M", [16, 128])
def test_zak_transform_matches_outer_accumulation_bitwise(M):
    for n in range(-2, 3):
        for k in range(-2, 3):
            f = modulated_translate(gaussian_atom, n, k)
            # Bytes, so a zero of the other sign would also show.
            assert zak_transform(f, M, 6).samples.tobytes() == outer_zak_transform(f, M, 6).tobytes()


def test_covariance_dev_matches_outer_loop_exactly():
    M, J = 128, 6
    direct = outer_zak_transform(gaussian_atom, M, J)
    dev = 0.0
    for n in range(-2, 3):
        for k in range(-2, 3):
            lhs = outer_zak_transform(modulated_translate(gaussian_atom, n, k), M, J)
            rhs = np.outer(exponential(M, n), exponential(M, -k)) * direct
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    assert validate_verdict(M)[0].report.covariance_max_dev == dev


def test_theta1_oddness_and_zero():
    assert theta1(0.0) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(25):
        z = complex(3 * rng.standard_normal(), rng.uniform(-1, 1))
        a, b = theta1(z), theta1(-z)
        assert abs(a + b) <= 1e-13 * max(abs(a), 1e-30)


def mp_theta1(z, derivative=0):
    """theta1 at nome exp(-pi) from mpmath, at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.jtheta(1, z, mpmath.exp(-mpmath.pi), derivative))


def test_theta1_high_truncation_oracle():
    val8 = theta1(np.pi / 2)
    assert val8 == pytest.approx(mp_theta1(np.pi / 2), abs=1e-15)
    assert val8.real == pytest.approx(THETA_HALF_PI, abs=1e-12)
    assert abs(val8.imag) < 1e-15
    z = 0.3 + 0.2j
    assert theta1(z) == pytest.approx(mp_theta1(z), abs=1e-15)


def test_theta1_domain_error():
    with pytest.raises(ValueError, match=r"\|Im z\| exceeds 4"):
        theta1(5j)
    for z in (0.1 + np.nan * 1j, np.nan, np.inf, np.array([0.2, np.inf + 0j])):
        with pytest.raises(ValueError, match="arguments must be finite"):
            theta1(z)


def test_theta_params_tail_bound():
    with pytest.raises(ValueError, match="^truncation must be a positive integer$"):
        ThetaParams(truncation=0)
    with pytest.raises(ValueError):
        ThetaParams(truncation=2)
    message = "truncation 1 leaves tail 8.514e-04 >= 1e-30 for q=0.04321391826377226"
    with pytest.raises(ValueError) as info:
        ThetaParams(truncation=1)
    assert str(info.value) == message
    ThetaParams(truncation=8)  # the default configuration is valid
    # The top sine term reaches exp((2K+1) 4) on the validated strip |Im z| <= 4:
    # 708 stays below ln(DBL_MAX) = 709.78 at K = 88, 716 does not at K = 89.
    assert np.isfinite(theta1(4j, ThetaParams(truncation=88)))
    with pytest.raises(ValueError, match="truncation 89 overflows"):
        ThetaParams(truncation=89)


def test_theta1_prime_zero_oracle():
    v8 = theta1_prime_zero()
    oracle = mp_theta1(0, derivative=1).real
    assert abs(v8 - oracle) <= 1e-13 * abs(oracle)
    assert v8 == pytest.approx(THETA_PRIME_ZERO, abs=1e-13)
    assert v8 >= 0.9


def test_theta_prime_closed_form_against_mpmath():
    # theta1'(0) = theta2 theta3 theta4 = pi^{3/4} / (sqrt(2) Gamma(3/4)^3) at q = exp(-pi)
    # is the oracle of zak-validate's theta_prime check.
    oracle = mp_theta1(0, derivative=1).real
    assert abs(zak._THETA1_PRIME_ZERO - oracle) <= 1e-15 * oracle
    report = validate_verdict(8)[0].report
    assert (report.J, report.truncation_K, report.translate_shift, report.covariance_range) == (6, 8, 1.0, 2)
    expected = abs(theta1_prime_zero() - zak._THETA1_PRIME_ZERO) / zak._THETA1_PRIME_ZERO
    assert report.theta_prime_oracle_rel_dev == expected <= 1e-15


def test_theta_grid_memory_does_not_scale_with_truncation():
    # The theta series adds its K + 1 terms into one array; a (..., K + 1)
    # sine temporary would hold K + 1 = 9 complex grids on its own.
    M = 256
    gaussian_zak_theta(*meshgrid(8))  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        gaussian_zak_theta(*meshgrid(M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * M * M * np.dtype(complex).itemsize


def test_theta_grid_memory_stays_at_three_complex_grids():
    # theta_grid holds the two real products and builds re - i im once, then
    # scales it in place: 48 bytes per grid point, never a fourth complex grid.
    M = 1024
    theta_grid(8)  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        theta_grid(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 49 * M * M


def test_leading_coefficient_against_mpmath():
    # |grad Z phi| at the zero is 2^{1/4} pi |theta1'(0)|, here entirely in mpmath.
    with mpmath.workdps(30):
        theta_prime = mpmath.jtheta(1, 0, mpmath.exp(-mpmath.pi), 1)
        oracle = float(mpmath.root(2, 4) * mpmath.pi * abs(theta_prime))
    assert abs(leading_coefficient() - oracle) <= 1e-13 * oracle


def test_signed_jacobian_at_the_zero():
    # Im(conj(d_x Z phi) d_xi Z phi) at (1/2, 1/2) equals leading_coefficient()**2:
    # the zero is simple with positive orientation, which the logarithmic
    # growth rate 2 pi log(M'/M) / C^2 of the "one" ladder rests on.
    h = 1e-5
    dx = (gaussian_zak_theta(0.5 + h, 0.5) - gaussian_zak_theta(0.5 - h, 0.5)) / (2 * h)
    dxi = (gaussian_zak_theta(0.5, 0.5 + h) - gaussian_zak_theta(0.5, 0.5 - h)) / (2 * h)
    jacobian = (np.conj(dx) * dxi).imag
    assert leading_coefficient() ** 2 == pytest.approx(11.476429, abs=1e-6)
    assert abs(jacobian / leading_coefficient() ** 2 - 1) <= 1e-8


def test_enk_hand_values():
    assert plane_wave(1, 0, 0.25, 0.9) == pytest.approx(np.exp(2j * np.pi * 0.25))
    assert plane_wave(0, 1, 0.9, 0.25) == pytest.approx(np.exp(-2j * np.pi * 0.25))


def test_enk_bound_check_passes():
    violations, anchored_max = plane_wave_bounds(1, 0, trials=10_000, seed=0)
    assert violations == 0
    assert anchored_max <= 2 * np.pi + 1e-9


def test_enk_bound_check_anchored_pair_from_bound_constant():
    violations, anchored_max = plane_wave_bounds(2, 3, trials=10_000, seed=1)
    assert violations == 0
    assert anchored_max <= 2 * np.pi * np.hypot(2, 3) + 1e-9


def test_quotient_integral_equal_arguments_give_unit_measure(monkeypatch):
    # re = 2^{-1/4} exp(pi u^2) and im = 0 cancel the prefactor of
    # |Z phi|^2 = sqrt(2) exp(-2 pi u^2) (re^2 + im^2), so the constant
    # numerator's quotient is 1 at every node.
    def unit_modulus(x, columns):
        u = x - 0.5
        re = np.repeat(2.0**-0.25 * np.exp(np.pi * u * u)[:, None], columns[0].shape[0], axis=1)
        return u, re, np.zeros_like(re)

    monkeypatch.setattr(zak, "_theta_products", unit_modulus)
    report = quotient_integral("one", [4, 8, 16]).report
    assert report.estimates == [1.0, 1.0, 1.0]
    assert report.converges and not report.diverges


def test_quotient_integral_cone_numerator_converges():
    report = quotient_integral("cone", [64, 128]).report
    assert report.converges
    assert not report.diverges


def test_quotient_integral_constant_numerator_grows():
    report = quotient_integral("one", [64, 128]).report
    assert report.diverges
    assert report.step_growth[0] > 0.10
    assert "cannot certify" in report.note


def test_ladder_flags_hold_at_their_limits(monkeypatch):
    # Each flag is the ok of its row: a last step exactly at
    # STABILIZATION_THRESHOLD converges and a smallest step exactly at
    # GROWTH_THRESHOLD diverges, in the report and in the checks alike.
    last = abs(quotient_integral("cone", [8, 16]).report.step_growth[-1])
    low = min(quotient_integral("one", [8, 16]).report.step_growth)
    monkeypatch.setattr(zak, "STABILIZATION_THRESHOLD", last)
    monkeypatch.setattr(zak, "GROWTH_THRESHOLD", low)
    cone, one = quotient_integral("cone", [8, 16]), quotient_integral("one", [8, 16])
    assert cone.checks["last_step_growth"] == {"value": last, "limit": last, "bound": "upper", "ok": True}
    assert one.checks["min_step_growth"] == {"value": low, "limit": low, "bound": "lower", "ok": True}
    assert cone.report.converges is True and one.report.diverges is True
    assert cone.passed and one.passed


@pytest.mark.parametrize("numerator", ["cone", "one"])
def test_ladder_grid_path_matches_pointwise_sampler(numerator):
    ladder = [64, 128, 256, 512]
    report = quotient_integral(numerator, ladder).report
    assert (report.numerator, report.denominator) == (numerator, "gaussian_zak")
    for M, estimate in zip(ladder, report.estimates):
        reference = pointwise_estimate(numerator, M)
        assert abs(estimate - reference) <= 1e-15 * reference


def test_ladder_builds_no_complex_grid(monkeypatch):
    # The ladder reads |Z phi|^2 from theta1's two real products; the
    # complex grid of theta_grid is never built.
    expected = {name: quotient_integral(name, [64, 128, 256]).report for name in ("cone", "one")}

    def no_complex_grid(*args):
        raise AssertionError("the ladder built a complex theta grid")

    monkeypatch.setattr(zak, "theta_grid", no_complex_grid)
    for name, before in expected.items():
        after = quotient_integral(name, [64, 128, 256]).report
        assert (after.converges, after.diverges) == (before.converges, before.diverges)
        assert after.estimates == before.estimates


def test_one_ladder_grows_at_the_logarithmic_rate():
    # Near its zero |Z phi| ~ C rho with C = leading_coefficient(), so the
    # midpoint estimate of the integral of 1/|Z phi|^2 grows by
    # 2 pi log(M'/M) / C^2 per refinement from M to M'.
    estimates = quotient_integral("one", [512, 1024, 2048]).report.estimates
    rate = 2 * np.pi * np.log(2) / leading_coefficient() ** 2
    for a, b in zip(estimates, estimates[1:]):
        assert abs((b - a) / rate - 1) <= 1e-9


def test_ladder_memory_does_not_scale_with_grid():
    # The quadrature runs over row blocks of bounded size; one complex
    # 2048 x 2048 grid alone would be 64 MiB.
    quotient_integral("one", [8, 16])  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        quotient_integral("one", [256, 512, 1024, 2048])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_ladder_sine_cost(monkeypatch):
    # theta's column factors are read from one table per ladder level:
    # (K + 1) M sines for the series, where recomputing them for every
    # block of rows would pass about (K + 1) M^2 / rows, 768 times as
    # many at these sizes.  Each run builds its own tables, so a second
    # run of the same ladder passes the same sines as the first.
    ladder = [4096, 8192]
    counted = []
    sin = np.sin

    def counting_sin(x, *args, **kwargs):
        counted.append(np.size(x))
        return sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counting_sin)
    quotient_integral("one", ladder)
    assert 0 < sum(counted) <= 2 * (ThetaParams().truncation + 2) * sum(ladder)
    runs = []
    for _ in range(2):
        counted.clear()
        quotient_integral("one", [64, 128])
        runs.append(sum(counted))
    assert runs[0] == runs[1] > 0


def test_quotient_integral_singular_node(monkeypatch):
    # A zero of |Z phi|^2 = sqrt(2) exp(-2 pi u^2) (re^2 + im^2) at one node
    # of a row block is refused before the division.
    products = zak._theta_products

    def zero_at_first_node(x, columns):
        u, re, im = products(x, columns)
        re[0, 0] = im[0, 0] = 0.0
        return u, re, im

    monkeypatch.setattr(zak, "_theta_products", zero_at_first_node)
    for numerator in ("cone", "one"):
        with pytest.raises(NumericalFailure, match="M=4 grid"):
            quotient_integral(numerator, [4, 8])


def test_quotient_integral_ladder_validation():
    with pytest.raises(ValueError):
        quotient_integral("one", [64])
    with pytest.raises(ValueError):
        quotient_integral("one", [15, 30])
    for ladder in ([64, 64], [128, 64]):
        with pytest.raises(ValueError):
            quotient_integral("cone", ladder)
    message = "unknown numerator 'foo', expected one of ['cone', 'one']"
    with pytest.raises(ValueError, match=re.escape(message)):
        quotient_integral("foo", [4, 8])


def test_grid_function_validation():
    # Square grids share the circle weights' type, with N nodes per axis.
    with pytest.raises(ValueError, match="N must be a positive even integer, got 3"):
        PeriodicSignal(np.zeros((3, 3), dtype=complex))   # odd M
    for shape in ((4, 6), (4, 4, 4)):                       # not square, 3-D
        with pytest.raises(ValueError, match="1d or square 2d"):
            PeriodicSignal(np.zeros(shape, dtype=complex))
    g = PeriodicSignal(np.ones((4, 4), dtype=complex))
    assert g.N == 4 and g.norm() == 1.0


def test_grid_function_roundtrip(tmp_path):
    grid = theta_grid(8)
    path = tmp_path / "grid.json"
    save_grid_function(grid, path)
    loaded = load_grid_function(path)
    assert loaded.N == 8
    assert np.max(np.abs(loaded.samples - grid.samples)) < 1e-15
    with pytest.raises(ValueError, match="a grid file holds a square 2-D grid"):
        save_grid_function(PeriodicSignal.from_name("linear", 8), tmp_path / "weight.json")


def test_load_grid_function_rejects_bad_header(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"M": 2, "grid": "corner", "domain": "unit_square", "samples": []}')
    with pytest.raises(ValueError):
        load_grid_function(path)
    samples = "[1, 0], [1, 0], [1, 0], [NaN, 0]"
    path.write_text(f'{{"M": 2, "grid": "midpoint", "domain": "unit_square", "samples": [{samples}]}}')
    with pytest.raises(ValueError):
        load_grid_function(path)
    samples = "[1, 0], [1, 0], [1, 0], [1, false]"  # JSON false loads as a bool, which complex() takes as 0
    path.write_text(f'{{"M": 2, "grid": "midpoint", "domain": "unit_square", "samples": [{samples}]}}')
    with pytest.raises(ValueError, match="samples must be a list of \\[re, im\\] number pairs"):
        load_grid_function(path)
    path.write_text('{"M": true, "grid": "midpoint", "domain": "unit_square", "samples": [[1, 0]]}')
    with pytest.raises(ValueError, match="M must be a positive integer, got True"):
        load_grid_function(path)
    # A circle weight file is not a grid function on the square.
    save_signal(PeriodicSignal.from_name("linear", 4), path)
    with pytest.raises(ValueError, match="unsupported grid 'shifted_midpoint'"):
        load_grid_function(path)


# Property tests over seeded draws: derandomized, so every run checks the same cases.
PROPERTIES = settings(derandomize=True, deadline=None, max_examples=25)
EVEN_M = st.integers(1, 64).map(lambda half: 2 * half)


@PROPERTIES
@given(M=EVEN_M, n=st.integers(-8, 8), k=st.integers(-2, 2))
def test_covariance_property(M, n, k):
    base = zak_transform(gaussian_atom, M, 8)
    shifted = zak_transform(modulated_translate(gaussian_atom, n, k), M, 8)
    plane = np.outer(exponential(M, n), exponential(M, -k))
    assert np.max(np.abs(shifted.samples - plane * base.samples)) <= 1e-12


@PROPERTIES
@given(M=EVEN_M, n=st.integers(-16, 16), k=st.integers(-16, 16))
def test_table_plane_waves_match_enk(M, n, k):
    X, XI = meshgrid(M)
    table = np.outer(exponential(M, n), exponential(M, -k))
    assert np.max(np.abs(table - plane_wave(n, k, X, XI))) <= 1e-13


def pointwise_theta_form(x, xi, K):
    """gaussian_zak_theta's closed form with theta1 truncated at K."""
    u, v = x - 0.5, xi - 0.5
    pref = -(2.0**0.25) * 1j * np.exp(-np.pi * u * u + 1j * np.pi * v)
    return pref * theta1(np.pi * (v - 1j * u), ThetaParams(K))


def truncated_theta1_prime_zero(K):
    """theta1_prime_zero's sum 2 sum_{k<=K} (-1)^k (2k+1) q^{(k+1/2)^2} at truncation K."""
    odd, coef = zak._theta_series(ThetaParams(K))
    return float(np.sum(odd * coef))


@pytest.mark.parametrize("K", [5, 8, 20])
@pytest.mark.parametrize("M", [8, 64, 130])
def test_theta_grid_low_rank_matches_pointwise_form(M, K):
    # theta_grid runs at the default truncation; the pointwise form at any valid K agrees.
    pointwise = pointwise_theta_form(*meshgrid(M), K)
    assert np.max(np.abs(theta_grid(M).samples - pointwise)) <= 1e-15


def test_theta_truncation_changes_no_value():
    # Every valid truncation, K = 5 to 88, gives the same doubles, which is why
    # gaussian_zak_theta, theta1'(0), theta_grid, the ladder and zak-validate
    # run at the default K = 8 alone.
    X, XI = meshgrid(64)
    assert np.array_equal(pointwise_theta_form(X, XI, 8), gaussian_zak_theta(X, XI))
    assert truncated_theta1_prime_zero(8) == theta1_prime_zero()
    reference = pointwise_theta_form(X, XI, 5)
    for K in (8, 20, 88):
        assert np.array_equal(pointwise_theta_form(X, XI, K), reference)
        assert truncated_theta1_prime_zero(K) == truncated_theta1_prime_zero(5)


@PROPERTIES
@given(M=EVEN_M, nodes=st.lists(st.tuples(st.integers(0, 127), st.integers(0, 127)), min_size=1))
def test_theta_grid_matches_pointwise_theta(M, nodes):
    grid = theta_grid(M).samples
    for p, q in ((p % M, q % M) for p, q in nodes):
        assert abs(grid[p, q] - gaussian_zak_theta((p + 0.5) / M, (q + 0.5) / M)) <= 1e-15
