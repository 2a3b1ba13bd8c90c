"""Zak transform diagnostics on the unit square.

The Zak transform used here is

    Zf(x, xi) = sum_j f(x - j) exp(2 pi i j xi),

sampled on expsys's shifted grid x_p = (p + 1/2)/M, xi_q = (q + 1/2)/M,
whose exact-phase root table gives exp(2 pi i j xi) and the plane waves
E_nk, with quadrature weight 1/M^2.  The samples are held in expsys's
PeriodicSignal as a square M x M array, the same type as a circle
weight g, since Z maps the Gabor atoms M_n T_k phi to the weighted
exponentials E_nk Z phi.  An even M keeps the point (1/2, 1/2), the
single zero of the Gaussian's Zak transform, strictly between nodes.

For the unit-normalised Gaussian atom phi(t) = 2^{1/4} exp(-pi t^2) the
transform has the closed theta form

    Z phi(x, xi) = -2^{1/4} i exp(-pi u^2 + i pi v) theta1(pi (v - i u))

with u = x - 1/2, v = xi - 1/2, nome q = exp(-pi), and

    theta1(z) = 2 sum_{k>=0} (-1)^k q^{(k+1/2)^2} sin((2k+1) z).

The quadratic-exponent prefactor sometimes quoted for this identity is
off by the unimodular factor exp(i pi (v^2 - v)); the linear-exponent
form above matches the defining series pointwise, which the tests check
against an independent direct summation.

On a tensor grid the sine series separates:

    sin((2k+1) pi (v - i u)) = sin((2k+1) pi v) cosh((2k+1) pi u)
                               - i cos((2k+1) pi v) sinh((2k+1) pi u),

so theta1(pi (v - i u)) = re - i im over rows x and columns xi, where re
and im are two real products of a rows x (K+1) matrix with a
(K+1) x columns matrix.  theta_grid scales re - i im in place by the
row factor exp(-pi u^2) and the column factor -2^{1/4} i exp(i pi v),
and the quotient ladder needs only the modulus

    |Z phi|^2 = sqrt(2) exp(-2 pi u^2) (re^2 + im^2),

a real array with no complex grid behind it.  theta1 and
gaussian_zak_theta evaluate pointwise, for arbitrary points.  The
products' column factors, sin and cos of (2k+1) pi v times theta1's
coefficients, are built once per grid, by theta_grid or a ladder level,
and passed to every row block; zak keeps no table between calls.  Only
theta1 takes a truncation; the grid paths, gaussian_zak_theta and
theta1'(0) use the default K = 8:
on the unit square every valid K, 5 to 88, gives bit-identical values,
since on its strip |Im z| <= pi/2 the first dropped term at K = 5 is
below 1e-48.  The ladder sums its quadrature over blocks of grid rows
of bounded size, so its memory does not grow with the grid (README
gives its timings).  The ladder writes a LadderReport and the invariant
checks a ZakValidationReport.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .expsys import PeriodicSignal, _check_grid_size, exponential, shifted_nodes
from .linalg import NumericalFailure
from .reports import Verdict, _check, _read_samples, _write_samples

__all__ = [
    "GAUSSIAN_NOME",
    "STABILIZATION_THRESHOLD",
    "GROWTH_THRESHOLD",
    "NAMED_NUMERATORS",
    "ThetaParams",
    "LadderReport",
    "ZakValidationReport",
    "gaussian_atom",
    "modulated_translate",
    "zak_transform",
    "theta1",
    "theta1_prime_zero",
    "gaussian_zak_theta",
    "theta_grid",
    "leading_coefficient",
    "quotient_integral",
    "validate_verdict",
    "save_grid_function",
    "load_grid_function",
]

GAUSSIAN_NOME = math.exp(-math.pi)
# theta1'(0) = theta2 theta3 theta4 = pi^{3/4} / (sqrt(2) Gamma(3/4)^3) at this nome.
_THETA1_PRIME_ZERO = math.pi**0.75 / (math.sqrt(2.0) * math.gamma(0.75) ** 3)

# Validated argument strip of the theta evaluator; wide enough for every
# Zak argument that arises here (|Im z| <= pi/2) with margin, narrow
# enough that the K = 8 default keeps the truncation tail negligible.
# The largest term sin((2K+1) z) on the strip grows like
# exp((2K+1) THETA_IM_LIMIT), which bounds K from above.
THETA_IM_LIMIT = 4.0

STABILIZATION_THRESHOLD = 0.01  # final refinement step must move at most 1%
GROWTH_THRESHOLD = 0.10         # every step must grow by at least 10% to call divergence

# Grid values per row block of the ladder quadrature: a block of real
# samples is 512 KiB, so a level's working set stays a few MiB at any M.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ThetaParams:
    """Truncation order of the theta series at the Gaussian nome."""

    truncation: int = 8   # K, the series keeps k = 0..K

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be a positive integer")
        exponent = (2 * self.truncation + 1) * THETA_IM_LIMIT
        if exponent > math.log(sys.float_info.max):
            raise ValueError(
                f"truncation {self.truncation} overflows: its top sine term reaches "
                f"exp({exponent:g}) on |Im z| <= {THETA_IM_LIMIT}, beyond the double range"
            )
        tail = GAUSSIAN_NOME ** ((self.truncation + 0.5) ** 2)
        if tail >= 1e-30:
            raise ValueError(
                f"truncation {self.truncation} leaves tail {tail:.3e} >= 1e-30 for q={GAUSSIAN_NOME}"
            )


@dataclass(frozen=True)
class LadderReport:
    numerator: str
    denominator: str
    ladder: list[int]
    estimates: list[float]
    step_growth: list[float]        # relative change at each refinement step
    log_slope: float                # least squares slope of estimate against log M
    converges: bool                 # final step changed by at most STABILIZATION_THRESHOLD
    diverges: bool                  # every step grew by at least GROWTH_THRESHOLD
    stabilization_threshold: float
    growth_threshold: float
    note: str


@dataclass(frozen=True)
class ZakValidationReport:
    M: int
    J: int
    truncation_K: int
    gaussian_norm: float
    translated_norm: float
    translate_shift: float
    covariance_range: int
    covariance_max_dev: float
    theta_vs_series_max_dev: float
    center_zero_abs: float
    corner_value: float
    theta_prime_value: float
    theta_prime_oracle_rel_dev: float
    passed: bool                    # every check, the stored grid's included


def gaussian_atom(t):
    """phi(t) = 2^{1/4} exp(-pi t^2), unit L2 norm on the line."""
    return 2.0**0.25 * np.exp(-np.pi * np.square(t))


def modulated_translate(fn: Callable, n: int, k: int) -> Callable:
    """Sampler of exp(2 pi i n t) fn(t - k)."""

    def sampler(t):
        return np.exp(2j * np.pi * n * np.asarray(t)) * fn(np.asarray(t) - k)

    return sampler


def zak_transform(f: Callable, M: int, J: int) -> PeriodicSignal:
    """Truncated Zak transform of the line sampler f on the M x M midpoint grid, M even.

    f evaluates the line function on float arrays; the j-sum runs over |j| <= J.
    Each term is formed in one M x M buffer, not in a fresh array, for the
    reason _zak_sum gives.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    return PeriodicSignal(_zak_sum(f, J, np.empty((M, M), dtype=complex), np.empty((M, M), dtype=complex)))


def _zak_sum(f: Callable, J: int, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """zak_transform's j-sum of f written into out, each term formed in term; both M x M complex.

    The terms are the products np.outer would give, added in the same
    order.  A fresh M x M temporary per term, 256 KiB at M = 128, sits at
    glibc's mmap and trim thresholds, so it can be mapped, or trimmed and
    faulted in again, on every term; buffers the caller holds are faulted
    in once.
    """
    M = out.shape[0]
    x = shifted_nodes(M)
    out.fill(0)
    for j in range(-J, J + 1):
        out += np.multiply.outer(np.asarray(f(x - j), dtype=complex), exponential(M, j), out=term)
    return out


def theta1(z, params: ThetaParams = ThetaParams()):
    """First Jacobi theta function, truncated odd sine series.

    Accepts scalars or arrays.  Arguments must be finite and satisfy
    |Im z| <= 4, which keeps every term of the default series within
    double range.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("arguments must be finite")
    if z.size and float(np.max(np.abs(z.imag))) > THETA_IM_LIMIT:
        raise ValueError(f"|Im z| exceeds {THETA_IM_LIMIT}")
    vals, term = np.zeros_like(z), np.empty_like(z)
    for odd, c in zip(*_theta_series(params)):
        np.sin(np.multiply(z, odd, out=term), out=term)
        vals += np.multiply(term, c, out=term)
    return vals if vals.ndim else complex(vals)


def _theta_series(params: ThetaParams = ThetaParams()) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies 2k+1 and coefficients 2 (-1)^k q^{(k+1/2)^2} of theta1, k = 0..K."""
    ks = np.arange(params.truncation + 1)
    return 2 * ks + 1, 2.0 * ((-1.0) ** ks) * GAUSSIAN_NOME ** ((ks + 0.5) ** 2)  # the factor 2 is exact


def theta1_prime_zero() -> float:
    """theta1'(0) = 2 sum_{k>=0} (-1)^k (2k+1) q^{(k+1/2)^2}, at the default truncation K = 8."""
    odd, coef = _theta_series()
    return float(np.sum(odd * coef))


def gaussian_zak_theta(x, xi):
    """Closed theta form of the Gaussian's Zak transform, theta1 at its default truncation.

    Vanishes exactly at (1/2, 1/2) and matches the direct j-sum of
    zak_transform(gaussian_atom, ...) to rounding everywhere else.
    """
    u = np.asarray(x, dtype=float) - 0.5
    v = np.asarray(xi, dtype=float) - 0.5
    pref = -(2.0**0.25) * 1j * np.exp(-np.pi * u * u + 1j * np.pi * v)
    vals = pref * theta1(np.pi * (v - 1j * u))
    return vals if np.ndim(vals) else complex(vals)


def _theta_columns(M: int) -> tuple[np.ndarray, np.ndarray]:
    """_theta_products' column factors on the M shifted nodes xi, v = xi - 1/2.

    sin and cos of (2k+1) pi v times theta1's coefficients, as (M, K+1)
    tables; a grid's caller builds them once and passes them to every
    row block.
    """
    v = shifted_nodes(M) - 0.5
    odd, coef = _theta_series()
    col = np.multiply.outer(np.pi * v, odd)   # (2k+1) pi v, the real part of theta1's argument
    return np.sin(col) * coef, np.cos(col) * coef


def _theta_products(x, columns: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = x - 1/2 and theta1(pi (v - i u)) = re - i im on row nodes x times the M shifted nodes.

    columns are _theta_columns(M).  Returns u and the real (len(x), M)
    products re and im of cosh/sinh row factors and those column
    factors (see the module docstring).
    """
    sin_col, cos_col = columns
    u = x - 0.5
    row = np.multiply.outer(np.pi * u, _theta_series()[0])  # (2k+1) pi u, minus Im of the argument
    return u, np.cosh(row) @ sin_col.T, np.sinh(row) @ cos_col.T


def theta_grid(M: int) -> PeriodicSignal:
    """Gaussian Zak transform sampled on the midpoint grid via the theta form."""
    u, re, im = _theta_products(shifted_nodes(M), _theta_columns(M))
    grid = re - 1j * im                                   # theta1(pi (v - i u)), and v = u on these nodes
    grid *= -(2.0**0.25) * 1j * np.exp(1j * np.pi * u)    # the column factor of the prefactor
    grid *= np.exp(-np.pi * u * u)[:, None]               # and its row factor
    return PeriodicSignal(grid)


def leading_coefficient() -> float:
    """|gradient| of the Zak zero: 2^{1/4} pi |theta1'(0)|."""
    return float(2.0**0.25 * np.pi * abs(theta1_prime_zero()))


def quotient_integral(numerator: str, refinement_ladder: Sequence[int]) -> Verdict:
    """Midpoint-rule ladder for the integral of a named numerator over |Z phi|^2.

    NAMED_NUMERATORS gives the squared numerator as a function of
    u = x - 1/2 and v = xi - 1/2.  At each ladder resolution the
    midpoint grid is visited in blocks of rows, and each block's
    |Z phi|^2 = sqrt(2) exp(-2 pi u^2) (re^2 + im^2) is a real array
    formed from theta1's two real products (see the module docstring).
    The block height keeps a block near a fixed number of grid values,
    so memory does not grow with M, and math.fsum adds the block sums.
    theta1 runs at the default truncation K = 8 (see the module
    docstring).  Two rows hold the report's flags: ``converges`` is
    the ok of ``last_step_growth``, |final step| at most
    STABILIZATION_THRESHOLD, and ``diverges`` that of
    ``min_step_growth``, the smallest step at least GROWTH_THRESHOLD.
    The verdict checks the row of the outcome NAMED_NUMERATORS expects,
    and its CSV rows are the levels.  Grid evidence cannot certify an
    infinite integral, so the report says so.
    """
    if numerator not in NAMED_NUMERATORS:
        raise ValueError(f"unknown numerator {numerator!r}, expected one of {sorted(NAMED_NUMERATORS)}")
    squared_numerator = NAMED_NUMERATORS[numerator][0]
    ladder = [int(M) for M in refinement_ladder]
    if len(ladder) < 2:
        raise ValueError("refinement ladder needs at least two resolutions")
    for M in ladder:
        _check_grid_size("M", M)
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder resolutions must strictly increase")

    def block_sum(x: np.ndarray, v: np.ndarray, columns: tuple[np.ndarray, np.ndarray]) -> float:
        u, re, im = _theta_products(x, columns)
        den = np.square(re, out=re)
        den += np.square(im, out=im)
        den *= (math.sqrt(2.0) * np.exp(-2.0 * np.pi * u * u))[:, None]
        if float(np.min(den)) < 1e-300:
            raise NumericalFailure(f"|Z phi|^2 vanishes at a node of the M={v.size} grid")
        return float(np.sum(np.divide(squared_numerator(u, v), den, out=den)))

    def estimate(M: int) -> float:
        nodes = shifted_nodes(M)
        v = nodes - 0.5
        columns = _theta_columns(M)
        rows = max(1, _BLOCK_ELEMENTS // M)
        return math.fsum(block_sum(nodes[r:r + rows], v, columns) for r in range(0, M, rows)) / M**2

    estimates = [estimate(M) for M in ladder]
    growth = [(b - a) / a for a, b in zip(estimates, estimates[1:])]
    rows = {
        "last_step_growth": _check(abs(growth[-1]), STABILIZATION_THRESHOLD),
        "min_step_growth": _check(min(growth), GROWTH_THRESHOLD, "lower"),
    }
    converges, diverges = rows["last_step_growth"]["ok"], rows["min_step_growth"]["ok"]
    log_slope = float(np.polyfit(np.log(np.asarray(ladder, dtype=float)), estimates, 1)[0])

    report = LadderReport(
        numerator=numerator,
        denominator="gaussian_zak",
        ladder=ladder,
        estimates=estimates,
        step_growth=growth,
        log_slope=log_slope,
        converges=converges,
        diverges=diverges,
        stabilization_threshold=STABILIZATION_THRESHOLD,
        growth_threshold=GROWTH_THRESHOLD,
        note=(
            "midpoint-rule evidence on finite grids; growth flags are "
            "consistent with, but cannot certify, a divergent integral"
        ),
    )
    expected = "last_step_growth" if NAMED_NUMERATORS[numerator][1] == "converges" else "min_step_growth"
    flag = "converges" if converges else ("diverges" if diverges else "undecided")
    return Verdict(report, {expected: rows[expected]}, [(M, est, flag) for M, est in zip(ladder, estimates)])


# Numerators of the quotient ladder selectable by name, as their squares
# on rows u = x - 1/2 and columns v = xi - 1/2, each with the outcome its
# ladder must show: the cone, the distance to (1/2, 1/2), vanishes to
# first order at the zero of Z phi and keeps the quotient integrable, the
# constant does not.  Neither vanishes at a node, since an even M keeps
# (1/2, 1/2) strictly between nodes, so no estimate is zero.
NAMED_NUMERATORS: dict[str, tuple[Callable, str]] = {
    "cone": (lambda u, v: np.add.outer(u * u, v * v), "converges"),
    "one": (lambda u, v: 1.0, "diverges"),
}


def validate_verdict(M: int, stored: PeriodicSignal | None = None) -> tuple[Verdict, PeriodicSignal]:
    """Invariant checks of the Gaussian's Zak transform on the M x M grid, M even.

    Checks ``gaussian_norm`` and ``translated_norm``, |norm - 1| of Z phi
    and of its translate by 1; ``covariance`` for |n|, |k| <= 2;
    ``theta_vs_series``, the theta form at K = 8 against the direct
    series over |j| <= 6; ``center_zero``; ``theta_prime``, theta1'(0)
    against its closed form; and ``theta_file``, a ``stored`` grid, if
    given.  The CSV rows are the checks.  Returns the verdict and the
    theta grid.
    """
    _check_grid_size("M", M)
    J, shift, cov_range = 6, 1, 2  # every translate m keeps J - |m| >= 4: phi(4) < 1e-21 is left unsummed
    direct = zak_transform(gaussian_atom, M, J)
    theta = theta_grid(M)

    # Covariance: modulation by n and translation by k multiply the
    # transform by the plane wave E_nk, read on the grid from the root table.
    # The (0, 0) term is direct itself and the (0, shift) term is the translate.
    # |lhs - E_nk direct| takes the floating-point steps of the plain expression,
    # in four M x M buffers held across the loop (see _zak_sum).
    cov_dev = 0.0
    buffer, term, rhs = (np.empty((M, M), dtype=complex) for _ in range(3))
    dev = np.empty((M, M))
    for n in range(-cov_range, cov_range + 1):
        for k in range(-cov_range, cov_range + 1):
            if n == k == 0:
                lhs = direct.samples
            else:
                lhs = _zak_sum(modulated_translate(gaussian_atom, n, k), J, buffer, term)
            if (n, k) == (0, shift):
                translated_norm = PeriodicSignal(lhs).norm()
            np.multiply.outer(exponential(M, n), exponential(M, -k), out=rhs)
            rhs *= direct.samples
            np.subtract(lhs, rhs, out=rhs)
            cov_dev = max(cov_dev, float(np.max(np.abs(rhs, out=dev))))

    theta_dev = float(np.max(np.abs(theta.samples - direct.samples)))
    center_abs = abs(gaussian_zak_theta(0.5, 0.5))
    corner = abs(gaussian_zak_theta(0.0, 0.0))
    prime = theta1_prime_zero()
    prime_rel = abs(prime - _THETA1_PRIME_ZERO) / _THETA1_PRIME_ZERO

    norm_limit, series_limit, zero_limit = 1e-6, 1e-10, 1e-12
    checks = {
        "gaussian_norm": _check(abs(direct.norm() - 1.0), norm_limit),
        "translated_norm": _check(abs(translated_norm - 1.0), norm_limit),
        "covariance": _check(cov_dev, series_limit),
        "theta_vs_series": _check(theta_dev, series_limit),
        "center_zero": _check(center_abs, zero_limit),
        "theta_prime": _check(prime_rel, 1e-13),
    }
    if stored is not None:
        reference = theta if stored.N == M else theta_grid(stored.N)
        checks["theta_file"] = _check(float(np.max(np.abs(stored.samples - reference.samples))), zero_limit)

    report = ZakValidationReport(
        M=M,
        J=J,
        truncation_K=ThetaParams().truncation,
        gaussian_norm=direct.norm(),
        translated_norm=translated_norm,
        translate_shift=float(shift),
        covariance_range=cov_range,
        covariance_max_dev=cov_dev,
        theta_vs_series_max_dev=theta_dev,
        center_zero_abs=float(center_abs),
        corner_value=float(corner),
        theta_prime_value=float(prime),
        theta_prime_oracle_rel_dev=float(prime_rel),
        passed=all(c["ok"] for c in checks.values()),
    )
    return Verdict(report, checks), theta


def save_grid_function(grid: PeriodicSignal, path: str | Path) -> None:
    if grid.samples.ndim != 2:
        raise ValueError("a grid file holds a square 2-D grid; save 1-D samples with save_signal")
    _write_samples(path, {"M": grid.N, "grid": "midpoint", "domain": "unit_square"}, grid.samples)


def load_grid_function(path: str | Path) -> PeriodicSignal:
    return PeriodicSignal(_read_samples(path, "M", {"grid": "midpoint", "domain": "unit_square"}, 2))
