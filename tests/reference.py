"""Reference computations of statements that the tests check and no command runs.

Each is built from library code that a command does run, or from plain
numpy where the statement is about plane waves and not about zakbench.
"""

import math

import numpy as np

from zakbench.expsys import dual_coefficient, exponential, weighted_exp
from zakbench.linalg import NumericalFailure
from zakbench.reproducing import _reduce_once


def active_indices(system):
    """The window's indices |n| <= W without the removed index k."""
    return [n for n in range(-system.window, system.window + 1) if n != system.removed]


def dual_rows(system):
    """Samples of (e_n + c_n e_k) / conj(g), one row per active index n."""
    e_k = exponential(system.N, system.removed)
    rows = [exponential(system.N, n) + dual_coefficient(system, n) * e_k for n in active_indices(system)]
    return np.array(rows) / np.conj(system.weight.samples)


def biorthogonality_gram(system):
    """<g e_m, dual_n> over the active indices, the identity up to rounding."""
    primal = np.array([weighted_exp(system, m) for m in active_indices(system)])
    return primal @ dual_rows(system).conj().T / system.N


def plane_wave(n, k, x, xi):
    """E_nk(x, xi) = exp(2 pi i n x) exp(-2 pi i k xi)."""
    return np.exp(2j * np.pi * (n * np.asarray(x) - k * np.asarray(xi)))


def plane_wave_bounds(n, k, trials, seed):
    """Lipschitz bounds of E_nk, (n, k) != (0, 0), at seeded uniform points of the unit square.

    Returns the number of points where |E_nk - 1| exceeds
    2 pi |(n, k)| rho_00 by more than 1e-12, rho_00 the distance to the
    origin, and the largest ratio |E_nk - E_nk(1/2, 1/2)| / rho, rho the
    distance to the zero (1/2, 1/2) of Z phi, which stays below
    2 pi |(n, k)|.
    """
    rng = np.random.default_rng(seed)
    x, xi = rng.random(trials), rng.random(trials)
    wave, lipschitz = plane_wave(n, k, x, xi), 2.0 * np.pi * math.hypot(n, k)
    violations = int(np.count_nonzero(np.abs(wave - 1.0) - lipschitz * np.sqrt(x**2 + xi**2) > 1e-12))
    rho = np.sqrt((x - 0.5) ** 2 + (xi - 0.5) ** 2)
    keep = rho > 1e-12  # the anchored wave vanishes at the zero itself
    return violations, float(np.max(np.abs(wave - plane_wave(n, k, 0.5, 0.5))[keep] / rho[keep]))


def span_vectors(psi_head, phi_tail):
    """Rows v_m = (<psi_0, phi_m>, ..., <psi_{n-1}, phi_m>), one per tail element.

    With an independent head and a complete tail they span C^n, which is
    what lets head coefficients be recovered from tail data.
    """
    return phi_tail.conj() @ psi_head.T


def reduce_dependent_pair(phi_head, psi_head):
    """The one-element head reduction that excess-n runs; raises when the psi head is independent."""
    reduced = _reduce_once(phi_head, psi_head)
    if reduced is None:
        raise NumericalFailure("the psi head is linearly independent at the working tolerance")
    return reduced
