"""Weighted exponential systems on the unit circle.

A system is built from a weight g sampled on the shifted uniform grid
t_i = (i + 1/2)/N, a symmetric frequency window |n| <= W, one removed
index k, and an anchor point t0.  The functions studied are

    (g e_n)(t) = g(t) * exp(2 pi i n t),        |n| <= W, n != k,

together with the closed-form biorthogonal family

    dual_n = (e_n + c_n e_k) / conj(g),   c_n = -exp(2 pi i (n - k) t0),

whose numerator vanishes at the anchor.  The shifted grid keeps weights
such as g(t) = t nonzero at every node, so the division is always
defined.  Sampled exponentials with in-window frequencies are exactly
orthonormal under the 1/N quadrature weight, which the tests exploit
as an oracle.

On the shifted grid e_n(t_i) = w^(n(2i+1)) with w = exp(pi i/N), so
every sampled exponential is read from one cached table of the 2N-th
roots of unity at the integer exponent n(2i+1) mod 2N.  No rounded
argument 2 pi n t enters, so the phase error stays at the table's
rounding level for every n instead of growing with |n|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import IndexOutOfWindow, RemovedIndex, SpectrumFail, WeightVanishesOnGrid
from .linalg import quadrature_norm
from .reports import SweepFlags, SweepLevel, SweepReport, Verdict, _read_samples, _write_samples

__all__ = [
    "PeriodicSignal",
    "ExpSystem",
    "NAMED_WEIGHTS",
    "ENERGY_GROWTH_RATIO",
    "shifted_nodes",
    "exponential",
    "weighted_exp",
    "dual_coefficient",
    "biorthogonal_dual",
    "biorthogonality_gram",
    "schauder_failure_sweep",
    "sweep_verdict",
    "completeness_defect",
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
    # m - (m // 2N) 2N is m % 2N for m >= 0; NumPy floor-divides an int64
    # array by a scalar on a fast path that its remainder lacks.
    m -= m // (2 * N) * (2 * N)
    return roots[m]


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """Complex samples of a circle function on the shifted grid.

    ``sampler`` keeps the generating function when one is known, which
    lets hypothesis checks resample the weight on coarser grids.  A
    signal loaded from disk has no sampler.
    """

    samples: np.ndarray
    sampler: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("samples must be a 1d array")
        if arr.size < 2 or arr.size % 2 != 0:
            raise ValueError(f"N must be a positive even integer, got {arr.size}")
        object.__setattr__(self, "samples", arr)

    @property
    def N(self) -> int:
        return self.samples.size

    def norm(self) -> float:
        """L2 norm under the 1/N quadrature weight."""
        return quadrature_norm(self.samples)

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], N: int) -> "PeriodicSignal":
        return cls(np.asarray(fn(shifted_nodes(N)), dtype=complex), sampler=fn)

    @classmethod
    def from_name(cls, name: str, N: int) -> "PeriodicSignal":
        try:
            fn = NAMED_WEIGHTS[name]
        except KeyError:
            raise ValueError(f"unknown weight name {name!r}, expected one of {sorted(NAMED_WEIGHTS)}")
        return cls.from_function(fn, N)


@dataclass(frozen=True, eq=False)
class ExpSystem:
    """Weighted exponentials over a finite window with one removed index."""

    weight: PeriodicSignal
    window: int              # W, active frequencies satisfy |n| <= W
    removed: int | None = None   # k, the dropped index; None keeps the full window
    anchor: float = 0.0      # t0, where the dual numerators vanish

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        # Keep the window inside the alias-free band of the grid.
        if 2 * self.window + 1 > self.weight.N // 2:
            raise ValueError(
                f"window {self.window} too wide for N={self.weight.N}: need 2W+1 <= N/2"
            )
        if self.removed is not None and abs(self.removed) > self.window:
            raise ValueError(f"removed index {self.removed} outside window {self.window}")
        if not 0.0 <= self.anchor < 1.0:
            raise ValueError(f"anchor must lie in [0, 1), got {self.anchor}")

    @property
    def N(self) -> int:
        return self.weight.N

    def active_indices(self) -> list[int]:
        return [n for n in range(-self.window, self.window + 1) if n != self.removed]


def _check_in_window(system: ExpSystem, n: int) -> None:
    if abs(n) > system.window:
        raise IndexOutOfWindow(f"index {n} outside window |n| <= {system.window}")


def weighted_exp(system: ExpSystem, n: int) -> np.ndarray:
    """Samples of g(t) exp(2 pi i n t)."""
    _check_in_window(system, n)
    return system.weight.samples * exponential(system.N, n)


def dual_coefficient(system: ExpSystem, n: int) -> complex:
    """Unimodular coefficient c_n = -exp(2 pi i (n - k) t0).

    Chosen so that e_n + c_n e_k vanishes at the anchor t0.
    """
    if system.removed is None:
        raise ValueError("system has no removed index")
    _check_in_window(system, n)
    if n == system.removed:
        raise RemovedIndex(f"index {n} is the removed index")
    return complex(-np.exp(2j * np.pi * (n - system.removed) * system.anchor))


def biorthogonal_dual(system: ExpSystem, n: int) -> np.ndarray:
    """Samples of (e_n + c_n e_k) / conj(g), biorthogonal to the system."""
    c = dual_coefficient(system, n)  # validates the index
    g = system.weight.samples
    if np.min(np.abs(g)) < 1e-300:
        raise WeightVanishesOnGrid("weight vanishes at a grid node")
    numerator = exponential(system.N, n) + c * exponential(system.N, system.removed)
    return numerator / np.conj(g)


def biorthogonality_gram(system: ExpSystem) -> np.ndarray:
    """Matrix of <g e_m, dual_n> over the active indices.

    Equals the identity up to rounding: the weight cancels node by node
    and the leftover exponential sums are exact Kronecker deltas for
    in-window frequencies.
    """
    act = system.active_indices()
    primal = np.array([weighted_exp(system, m) for m in act])
    duals = np.array([biorthogonal_dual(system, n) for n in act])
    return primal @ duals.conj().T / system.N


def inverse_weight_energy(samples: np.ndarray) -> float:
    """Quadrature estimate of the integral of 1/|g|^2 from samples of g on the shifted grid."""
    return float(np.sum(1.0 / np.abs(samples) ** 2) / samples.size)


def _hypothesis_notes(system: ExpSystem) -> list[str]:
    """Refinement-ladder check of the integrability of 1/|g|^2.

    The construction needs 1/g outside L2; a bounded ladder means the
    hypothesis fails (for example g identically one) and is reported,
    not raised, because the duals stay biorthogonal regardless.
    """
    notes: list[str] = []
    fn = system.weight.sampler
    if fn is None:
        energy = inverse_weight_energy(system.weight.samples)
        notes.append(
            f"weight given as samples only; inverse weight energy {energy:.6g} at N={system.N}, "
            "refinement ladder unavailable"
        )
        return notes
    ladder = [max(4, system.N // 4), max(4, system.N // 2), system.N]
    energies = [inverse_weight_energy(np.asarray(fn(shifted_nodes(n)))) for n in ladder]
    ratios = [b / a for a, b in zip(energies, energies[1:])]
    grows = all(r >= ENERGY_GROWTH_RATIO for r in ratios)
    detail = ", ".join(f"N={n}: {e:.6g}" for n, e in zip(ladder, energies))
    if grows:
        notes.append(f"inverse weight energy grows under refinement ({detail}): consistent with 1/g outside L2")
    else:
        notes.append(f"hypothesis 1/g not in L2 fails: inverse weight energy stays bounded ({detail})")
    return notes


def schauder_failure_sweep(system: ExpSystem, max_terms: int) -> SweepReport:
    """Partial sums of the dual expansion of the removed element.

    Levels are concentric in |n - k|.  Level L reports the residual
    || g e_k - S_L || of the partial sum

        S_L = sum over 0 < |n - k| <= L, |n| <= W of conj(c_n) g e_n

    and the largest norm among the newly added terms.  Every term has
    norm ||g|| because |c_n| = 1, so the terms cannot tend to zero and
    the expansion cannot converge in norm; the report flags this when
    the late-level term norms fail to decay.
    """
    if system.removed is None:
        raise ValueError("sweep needs a removed index to reconstruct")
    if not 1 <= max_terms <= system.window:
        raise ValueError(f"max_terms must lie in [1, {system.window}]")
    k = system.removed
    target = weighted_exp(system, k)
    g_norm = system.weight.norm()

    levels: list[SweepLevel] = []
    partial = np.zeros(system.N, dtype=complex)
    active = set(system.active_indices())
    for L in range(1, max_terms + 1):
        new_terms = [n for n in (k - L, k + L) if n in active]
        term_norm = 0.0
        for n in new_terms:
            term = np.conj(dual_coefficient(system, n)) * weighted_exp(system, n)
            partial += term
            term_norm = max(term_norm, quadrature_norm(term))
        residual = quadrature_norm(target - partial)
        levels.append(SweepLevel(L=L, residual=residual, term_norm=term_norm))

    late = [lv.term_norm for lv in levels[-5:]]
    no_norm_convergence = max(late) >= 0.99 * g_norm
    flags = SweepFlags(
        no_norm_convergence=bool(no_norm_convergence),
        hypothesis_notes=_hypothesis_notes(system),
    )
    return SweepReport(
        grid_N=system.N,
        window_W=system.window,
        removed_k=k,
        anchor_t0=float(system.anchor),
        levels=levels,
        flags=flags,
    )


def sweep_verdict(system: ExpSystem, max_terms: int | None = None) -> Verdict:
    """Dual-expansion sweep of the removed element, checked for its failure.

    Passes when the report flags no norm convergence and every nonzero
    term norm sits within 1e-9 ||g|| of the weight's norm ||g||, as
    |c_n| = 1 demands.  ``max_terms`` defaults to the window.
    """
    report = schauder_failure_sweep(system, system.window if max_terms is None else max_terms)
    g_norm = system.weight.norm()
    term_norms = [lv.term_norm for lv in report.levels if lv.term_norm > 0.0]
    norm_spread = max(abs(t - g_norm) for t in term_norms) if term_norms else float("inf")
    passed = report.flags.no_norm_convergence and norm_spread <= 1e-9 * max(g_norm, 1e-30)

    rows = [(lv.L, lv.residual, report.flags.no_norm_convergence) for lv in report.levels]
    detail = (
        f"no_norm_convergence={report.flags.no_norm_convergence}, "
        f"term norm spread {norm_spread:.3e}"
    )
    return Verdict(report, passed, detail, rows)


def completeness_defect(system: ExpSystem) -> float:
    """Smallest singular value of the active weighted exponential family.

    Rows are scaled by sqrt(1/N) so singular values live on the L2
    scale: an orthonormal family scores exactly one, a numerically
    dependent truncation scores near zero.
    """
    act = system.active_indices()
    rows = np.array([weighted_exp(system, n) for n in act]) / np.sqrt(system.N)
    try:
        sv = np.linalg.svd(rows, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectrumFail(f"svd did not converge: {exc}") from exc
    return float(sv[-1])


def save_signal(signal: PeriodicSignal, path: str | Path) -> None:
    _write_samples(path, {"N": signal.N, "grid": "shifted_midpoint"}, signal.samples)


def load_signal(path: str | Path) -> PeriodicSignal:
    return PeriodicSignal(_read_samples(path, "N", {"grid": "shifted_midpoint"}, 1))
