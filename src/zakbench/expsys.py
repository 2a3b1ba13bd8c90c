"""Weighted exponential systems on the unit circle.

A system is built from a weight g sampled on the shifted uniform grid
t_i = (i + 1/2)/N, a symmetric frequency window |n| <= W, one removed
index k, and an anchor point t0.  The functions studied are

    (g e_n)(t) = g(t) * exp(2 pi i n t),        |n| <= W, n != k,

together with the closed-form biorthogonal family

    dual_n = (e_n + c_n e_k) / conj(g),   c_n = -exp(2 pi i (n - k) t0),

whose numerator vanishes at the anchor.  The shifted grid keeps weights
such as g(t) = t nonzero at every node, and a system whose weight
vanishes at a node, or whose |g|^2 leaves the double range, is refused
when it is built, so the division is always defined.  Sampled
exponentials with in-window frequencies are exactly orthonormal under
the 1/N quadrature weight, which the tests exploit as an oracle.

PeriodicSignal holds shifted-grid samples in one variable, a weight g,
or in two, a grid function on the unit square such as zak's theta grid,
with N nodes per axis and quadrature weight 1/N per axis.  An ExpSystem
takes only a 1-D weight.

On the shifted grid e_n(t_i) = w^(n(2i+1)) with w = exp(pi i/N), so
every sampled exponential is read from one cached table of the 2N-th
roots of unity at the integer exponent n(2i+1) mod 2N.  No rounded
argument 2 pi n t enters, so the phase error stays at the table's
rounding level for every n instead of growing with |n|.

The quadrature Gram of the sampled system is Toeplitz,

    <g e_a, g e_b> = G(a - b),   G(m) = (1/N) sum_i |g(t_i)|^2 e_m(t_i),

and for |m| <= 2W, inside the alias-free band, G(m) is exp(pi i m/N)
times entry m of the inverse FFT of |g|^2.  The Schauder sweep sums its
residuals through G, with one FFT and one dot product per added term,
and certifies each term norm by the interval |c_n| ||g|| [rho_min,
rho_max], where rho runs over the moduli of the root table.  The sweep
writes a SweepReport, whose levels and flags are plain JSON objects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .reports import Verdict, _check, _read_samples, _write_samples

__all__ = [
    "PeriodicSignal",
    "ExpSystem",
    "SweepReport",
    "NAMED_WEIGHTS",
    "ENERGY_GROWTH_RATIO",
    "shifted_nodes",
    "exponential",
    "weighted_exp",
    "dual_coefficient",
    "schauder_failure_sweep",
    "inverse_weight_energy",
    "save_signal",
    "load_signal",
]

# Weights selectable by name on the command line.  Each maps the node
# array to complex samples.
NAMED_WEIGHTS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "linear": lambda t: t.astype(complex),
    "one": lambda t: np.ones_like(t, dtype=complex),
    "sqrt": lambda t: np.sqrt(t).astype(complex),
}

# Ladder growth above this ratio per refinement step counts as "grows".
ENERGY_GROWTH_RATIO = 1.05

# A late term norm at this fraction of ||g|| or above blocks norm convergence.
_LATE_TERM_FLOOR = 0.99


def _check_grid_size(name: str, n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"{name} must be a positive even integer, got {n}")


def shifted_nodes(N: int) -> np.ndarray:
    """Quadrature nodes t_i = (i + 1/2)/N."""
    return (np.arange(N) + 0.5) / N


@functools.lru_cache(maxsize=8)
def _root_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2N-th roots of unity exp(pi i m/N), m < 2N, and the odd numbers 2i+1, i < N.

    Only the upper half-circle is evaluated; the lower half is its
    conjugate, and 1 and -1 are exact, so a negated exponent returns
    the bitwise conjugate.  Both arrays are read-only because every
    caller shares them.
    """
    half = np.exp(1j * np.pi * np.arange(N + 1) / N)
    half[N] = -1.0
    roots = np.concatenate([half, half[N - 1:0:-1].conj()])
    odd = 2 * np.arange(N, dtype=np.int64) + 1
    roots.flags.writeable = False
    odd.flags.writeable = False
    return roots, odd


def exponential(N: int, n: int) -> np.ndarray:
    """Samples of e_n(t) = exp(2 pi i n t) on the shifted grid.

    e_n((i + 1/2)/N) = exp(pi i n(2i+1)/N) is looked up in the root table
    at the exponent n(2i+1) reduced mod 2N in exact integer arithmetic,
    so the phase carries no rounding of 2 pi n t.
    """
    roots, odd = _root_table(N)
    m = (n % (2 * N)) * odd
    m %= 2 * N
    return roots[m]


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """Complex samples of a periodic function on the shifted grid, N nodes per axis.

    A 1-D array holds g(t_i) on the circle.  A square 2-D array holds
    samples[p, q] = f(x_p, xi_q) on the unit square, as zak builds and
    loads them.  ``name`` is the key in NAMED_WEIGHTS of the circle
    weight the samples were drawn from, which lets hypothesis checks
    resample the weight on coarser grids.  A signal given as samples
    only, such as one loaded from disk, has no name.
    """

    samples: np.ndarray
    name: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.ndim not in (1, 2) or arr.shape != arr.shape[:1] * arr.ndim:
            raise ValueError(f"samples must be a 1d or square 2d array, got shape {arr.shape}")
        _check_grid_size("N", arr.shape[0])
        object.__setattr__(self, "samples", arr)

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    def norm(self) -> float:
        """L2 norm under the quadrature weight 1/N per axis."""
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) / self.samples.size))

    @classmethod
    def from_name(cls, name: str, N: int) -> "PeriodicSignal":
        """The named weight sampled on the shifted grid of N nodes."""
        if name not in NAMED_WEIGHTS:
            raise ValueError(f"unknown weight name {name!r}, expected one of {sorted(NAMED_WEIGHTS)}")
        _check_grid_size("N", N)
        return cls(NAMED_WEIGHTS[name](shifted_nodes(N)), name=name)


@dataclass(frozen=True, eq=False)
class ExpSystem:
    """Weighted exponentials over a finite window with one removed index."""

    weight: PeriodicSignal
    window: int              # W, active frequencies satisfy |n| <= W
    removed: int             # k, the dropped index
    anchor: float = 0.0      # t0, where the dual numerators vanish

    def __post_init__(self):
        if self.weight.samples.ndim != 1:
            raise ValueError("weight must be sampled on the circle, got a 2d grid")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        # Keep the window inside the alias-free band of the grid.
        if 2 * self.window + 1 > self.weight.N // 2:
            raise ValueError(
                f"window {self.window} too wide for N={self.weight.N}: need 2W+1 <= N/2"
            )
        if abs(self.removed) > self.window:
            raise ValueError(f"removed index {self.removed} outside window {self.window}")
        if not 0.0 <= self.anchor < 1.0:
            raise ValueError(f"anchor must lie in [0, 1), got {self.anchor}")
        # |g|^2 that underflows to 0 vanishes; one that overflows makes every norm non-finite.
        with np.errstate(over="ignore", divide="ignore"):
            square = np.abs(self.weight.samples) ** 2
            energy, inverse = np.sum(square), np.sum(1.0 / square)
        if not np.isfinite(inverse):
            raise ValueError("weight vanishes at a grid node")
        if not np.isfinite(energy):
            raise ValueError("weight energy sum |g|^2 overflows the double range")

    @property
    def N(self) -> int:
        return self.weight.N


@dataclass(frozen=True)
class SweepReport:
    grid_N: int
    window_W: int
    removed_k: int
    anchor_t0: float
    levels: list[dict]   # {"L", "residual", "term_norm"} per level of schauder_failure_sweep
    flags: dict          # {"no_norm_convergence", "hypothesis_notes"}


def _check_in_window(system: ExpSystem, n: int) -> None:
    if abs(n) > system.window:
        raise ValueError(f"index {n} outside window |n| <= {system.window}")


def weighted_exp(system: ExpSystem, n: int) -> np.ndarray:
    """Samples of g(t) exp(2 pi i n t)."""
    _check_in_window(system, n)
    return system.weight.samples * exponential(system.N, n)


def dual_coefficient(system: ExpSystem, n: int) -> complex:
    """Unimodular coefficient c_n = -exp(2 pi i (n - k) t0).

    Chosen so that e_n + c_n e_k vanishes at the anchor t0.  The phase
    (n - k) t0 is reduced mod 1 into (-1/2, 1/2] in exact integer
    arithmetic on t0's binary fraction, so its rounding does not grow
    with |n - k|.
    """
    _check_in_window(system, n)
    if n == system.removed:
        raise ValueError(f"index {n} is the removed index")
    p, q = float(system.anchor).as_integer_ratio()
    r = (n - system.removed) * p % q
    if 2 * r > q:
        r -= q
    return complex(-np.exp(2j * np.pi * (r / q)))


def inverse_weight_energy(samples: np.ndarray) -> float:
    """Quadrature estimate of the integral of 1/|g|^2 from samples of g on the shifted grid."""
    return float(np.sum(1.0 / np.abs(samples) ** 2) / samples.size)


def _hypothesis_notes(system: ExpSystem) -> list[str]:
    """Refinement-ladder check of the integrability of 1/|g|^2.

    The construction needs 1/g outside L2; a bounded ladder means the
    hypothesis fails (for example g identically one) and is reported,
    not raised, because the duals stay biorthogonal regardless.

    Known limit: "grows" asks every doubling to raise the energy by the
    ratio ENERGY_GROWTH_RATIO, and an energy that diverges like log N
    rises by only log 2 per doubling, below that ratio once it passes
    log 2 / 0.05 = 13.9.  So from N = 524288 on, sqrt's ladder
    (13.747, 14.4402, 15.1333 there) is noted as bounded, although
    1/sqrt(t) is not in L2.  The note does not enter the verdict.
    """
    notes: list[str] = []
    if system.weight.name is None:
        energy = inverse_weight_energy(system.weight.samples)
        notes.append(
            f"weight given as samples only; inverse weight energy {energy:.6g} at N={system.N}, "
            "refinement ladder unavailable"
        )
        return notes
    ladder = sorted({max(4, system.N // 4), max(4, system.N // 2), system.N})
    fn = NAMED_WEIGHTS[system.weight.name]
    energies = [inverse_weight_energy(fn(shifted_nodes(n))) for n in ladder]
    ratios = [b / a for a, b in zip(energies, energies[1:])]
    grows = all(r >= ENERGY_GROWTH_RATIO for r in ratios)
    detail = ", ".join(f"N={n}: {e:.6g}" for n, e in zip(ladder, energies))
    if grows:
        notes.append(f"inverse weight energy grows under refinement ({detail}): consistent with 1/g outside L2")
    else:
        notes.append(f"hypothesis 1/g not in L2 fails: inverse weight energy stays bounded ({detail})")
    return notes


def schauder_failure_sweep(system: ExpSystem) -> Verdict:
    """Partial sums of the dual expansion of the removed element, checked for its failure.

    Levels are concentric in |n - k| and run over L = 1..W, W the
    window, so the last level has added every active index when the
    removed index is 0.  Level L reports the residual
    || g e_k - S_L || of the partial sum

        S_L = sum over 0 < |n - k| <= L, |n| <= W of conj(c_n) g e_n

    and the largest norm among the newly added terms.  Every term has
    norm ||g|| because |c_n| = 1, so the terms cannot tend to zero and
    the expansion cannot converge in norm.  The verdict checks
    ``no_norm_convergence``, the largest of the last five term norms
    against _LATE_TERM_FLOOR ||g||, whose ok is the report's flag of
    that name, and ``term_norm_spread``, the largest distance of a term
    norm from ||g||, against 1e-9 ||g||.  The CSV rows are the levels.

    No N-vector is summed.  The residual is sum_j beta_j g e_j over a
    contiguous run of frequencies, beta_k = 1 and beta_n = -conj(c_n),
    so with the Toeplitz Gram G of the module docstring adding index j
    raises ||residual||^2 by 2 Re(beta_j sum_j' conj(beta_j') G(j - j'))
    + |beta_j|^2 G(0), one dot product over the terms added before it.
    Each G(m) carries an absolute rounding of about eps ||g||^2, so only
    a residual far below ||g|| loses relative digits.  The term norm
    ||conj(c_n) g e_n|| lies in |c_n| ||g|| [rho_min, rho_max], rho the
    moduli of the root table that every sampled e_n is read from; the
    end farther from ||g|| is reported, so the spread rule is at least
    as strict as on the sampled terms.
    """
    N, W, k = system.N, system.window, system.removed
    roots, _ = _root_table(N)
    g_norm = system.weight.norm()
    rho = np.abs(roots)
    norm_ends = (g_norm * float(rho.min()), g_norm * float(rho.max()))

    # G(m) = (1/N) sum_i |g_i|^2 e_m(t_i) = e^(i pi m/N) ifft(|g|^2)[m], stored
    # reversed, gram[2W - m] = G(m), so each dot product reads a forward slice.
    # 2W + 1 <= N/2 gives each |m| <= 2W its own entry of the inverse FFT.
    m = np.arange(2 * W, -2 * W - 1, -1)
    gram = np.fft.ifft(np.abs(system.weight.samples) ** 2)[m] * roots[m]
    g0 = gram[2 * W].real
    coef = np.zeros(2 * W + 1, dtype=complex)   # conj(beta_n) at n + W
    coef[k + W] = 1.0
    lo = hi = k                                 # the added frequencies are lo..hi
    r2 = g0

    levels: list[dict] = []
    for L in range(1, W + 1):
        term_norm = 0.0
        for n in (k - L, k + L):
            if abs(n) > W:
                continue
            c = dual_coefficient(system, n)
            beta = -c.conjugate()
            cross = np.dot(coef[lo + W:hi + W + 1], gram[2 * W - n + lo:2 * W - n + hi + 1])
            r2 += 2.0 * (beta * cross).real + abs(c) ** 2 * g0
            coef[n + W] = -c
            lo, hi = min(lo, n), max(hi, n)
            ends = (abs(c) * norm_ends[0], abs(c) * norm_ends[1])
            term_norm = max(term_norm, max(ends, key=lambda x: abs(x - g_norm)))
        levels.append({"L": L, "residual": float(np.sqrt(r2)), "term_norm": term_norm})

    late = max(lv["term_norm"] for lv in levels[-5:])
    spread = max(abs(lv["term_norm"] - g_norm) for lv in levels)  # every level adds a term
    checks = {
        "no_norm_convergence": _check(late, _LATE_TERM_FLOOR * g_norm, "lower"),
        "term_norm_spread": _check(spread, 1e-9 * g_norm),
    }
    flag = checks["no_norm_convergence"]["ok"]
    report = SweepReport(
        grid_N=system.N,
        window_W=system.window,
        removed_k=k,
        anchor_t0=float(system.anchor),
        levels=levels,
        flags={"no_norm_convergence": flag, "hypothesis_notes": _hypothesis_notes(system)},
    )
    return Verdict(report, checks, [(lv["L"], lv["residual"], flag) for lv in levels])


def save_signal(signal: PeriodicSignal, path: str | Path) -> None:
    if signal.samples.ndim != 1:
        raise ValueError("a weight file holds 1-D samples; save a 2-D grid with save_grid_function")
    _write_samples(path, {"N": signal.N, "grid": "shifted_midpoint"}, signal.samples)


def load_signal(path: str | Path) -> PeriodicSignal:
    return PeriodicSignal(_read_samples(path, "N", {"grid": "shifted_midpoint"}, 1))
