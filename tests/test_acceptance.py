"""Acceptance suite: one test per headline guarantee, printed as a checklist.

Each test prints one line, ACCEPTANCE <i> PASS|FAIL: <label>, before
asserting, so the checklist survives in the captured output either way.
"""

import json
import time

import numpy as np

from zakbench import cli, zak
from zakbench.expsys import (
    ExpSystem,
    PeriodicSignal,
    dual_coefficient,
    schauder_failure_sweep,
    shifted_nodes,
    weighted_exp,
)
from zakbench.linalg import rank_and_span
from zakbench.reproducing import (
    canonical_dual_frame,
    excess_n_identities,
    random_pair_check,
    random_spanning_family,
    s_operator,
)
from zakbench.zak import (
    gaussian_atom,
    gaussian_zak_theta,
    modulated_translate,
    quotient_integral,
    theta1_prime_zero,
    theta_grid,
    zak_transform,
)

from reference import (
    active_indices,
    biorthogonality_gram,
    plane_wave,
    plane_wave_bounds,
    reduce_dependent_pair,
    span_vectors,
)

MONOTONE_FLOOR = 1e-12  # additive slack for already-exact sequences


def verdict(index, ok, label):
    print(f"ACCEPTANCE {index} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"acceptance criterion {index} failed: {label}"


def linear_system(N, W):
    signal = PeriodicSignal.from_name("linear", N)
    anchor = (N // 4 + 0.5) / N  # a node of this grid
    return ExpSystem(weight=signal, window=W, removed=0, anchor=anchor)


def test_acceptance_01_biorthogonality_deviation():
    start = time.monotonic()
    deviations = []
    for N in (64, 128, 256):
        W = min(16, (N // 2 - 1) // 2)  # widest window the grid admits, 16 at N >= 128
        system = linear_system(N, W)
        gram = biorthogonality_gram(system)
        deviations.append(float(np.max(np.abs(gram - np.eye(len(gram))))))
    elapsed = time.monotonic() - start
    ok = (
        deviations[-1] < 5e-4
        and deviations[1] <= deviations[0] + MONOTONE_FLOOR
        and deviations[2] <= deviations[1] + MONOTONE_FLOOR
        and elapsed < 5.0
    )
    verdict(1, ok, f"dual-system deviation {deviations[-1]:.2e} in {elapsed:.2f}s")


def test_acceptance_02_term_norms_block_convergence():
    start = time.monotonic()
    system = linear_system(256, 16)
    g_norm = system.weight.norm()
    term_devs = []
    for n in active_indices(system):
        term = np.conj(dual_coefficient(system, n)) * weighted_exp(system, n)
        term_norm = float(np.sqrt(np.sum(np.abs(term) ** 2) / system.N))
        term_devs.append(abs(term_norm - g_norm))
    report = schauder_failure_sweep(system).report
    elapsed = time.monotonic() - start
    ok = (
        max(term_devs) <= 1e-12 * g_norm
        and report.flags["no_norm_convergence"]
        and elapsed < 1.0
    )
    verdict(2, ok, f"all terms at ||g|| within {max(term_devs):.2e}, flag set, {elapsed:.2f}s")


def test_acceptance_03_zak_unitarity_and_covariance():
    start = time.monotonic()
    M = 128
    base = zak_transform(gaussian_atom, M, 6)
    norm_dev = abs(base.norm() - 1.0)
    X, XI = np.meshgrid(shifted_nodes(M), shifted_nodes(M), indexing="ij")
    cov_dev = 0.0
    for n in range(-2, 3):
        for k in range(-2, 3):
            shifted = zak_transform(modulated_translate(gaussian_atom, n, k), M, 6)
            expected = plane_wave(n, k, X, XI) * base.samples
            cov_dev = max(cov_dev, float(np.max(np.abs(shifted.samples - expected))))
    elapsed = time.monotonic() - start
    ok = norm_dev <= 1e-6 and cov_dev <= 1e-10 and elapsed < 10.0
    verdict(3, ok, f"norm dev {norm_dev:.2e}, covariance dev {cov_dev:.2e}, {elapsed:.2f}s")


def test_acceptance_04_theta_cross_validation():
    M = 128
    direct = zak_transform(gaussian_atom, M, 6)
    theta = theta_grid(M)
    grid_dev = float(np.max(np.abs(direct.samples - theta.samples)))
    center_abs = abs(gaussian_zak_theta(0.5, 0.5))
    v8 = theta1_prime_zero()
    prime_rel = abs(v8 - zak._THETA1_PRIME_ZERO) / zak._THETA1_PRIME_ZERO  # pi^{3/4} / (sqrt(2) Gamma(3/4)^3)
    ok = grid_dev <= 1e-10 and center_abs < 1e-12 and prime_rel <= 1e-13 and v8 >= 0.9
    verdict(4, ok, f"grid dev {grid_dev:.2e}, center {center_abs:.2e}, slope rel {prime_rel:.2e}")


def test_acceptance_05_quotient_ladder_dichotomy():
    start = time.monotonic()
    ladder = [64, 128, 256, 512]
    conv = quotient_integral("cone", ladder).report
    div = quotient_integral("one", ladder).report
    elapsed = time.monotonic() - start
    final_step = abs(conv.estimates[-1] - conv.estimates[-2]) / conv.estimates[-2]
    ok = (
        conv.converges
        and final_step < 0.01
        and div.diverges
        and all(step > 0.10 for step in div.step_growth)
        and div.log_slope > 0.0
        and elapsed < 60.0
    )
    verdict(5, ok, f"cone settles ({final_step:.2%}), constant grows, {elapsed:.1f}s")


def test_acceptance_06_pointwise_modulation_bound():
    pairs = [(1, 0), (0, 1), (1, 1), (2, 1), (-1, 2), (3, 0), (2, -3), (-2, -2), (4, 1), (1, -4)]
    violations = 0
    for i, (n, k) in enumerate(pairs):
        violations += plane_wave_bounds(n, k, trials=10_000, seed=100 + i)[0]
    ok = violations == 0
    verdict(6, ok, f"{len(pairs)} index pairs x 10^4 points, {violations} violations")


def test_acceptance_07_excess_one_identities():
    dim = 8
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        tail = random_spanning_family(dim, rng)
        head = (rng.standard_normal((1, dim)) + 1j * rng.standard_normal((1, dim))) / np.sqrt(dim)
        phi = np.vstack([head, tail])
        psi = canonical_dual_frame(phi)  # pseudoinverse-based partner
        report = excess_n_identities(phi, psi, 1, seed=seed)
        worst = max(worst, max(report.residuals.values()))
    ok = worst < 1e-10
    verdict(7, ok, f"50 seeds, worst single-head residual {worst:.2e}")


def test_acceptance_08_excess_n_pipeline():
    dim = 8
    form_dev = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        tail = random_spanning_family(dim, rng)
        dep = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dep = np.vstack([dep, coeffs @ dep])
        psi = np.vstack([dep, tail])
        phi = rng.standard_normal((len(psi), dim)) + 1j * rng.standard_normal((len(psi), dim))
        reduced_phi, reduced_psi, _ = reduce_dependent_pair(phi, psi)
        before = s_operator(psi, phi)
        after = s_operator(reduced_psi, reduced_phi)
        scale = max(float(np.max(np.abs(before))), 1e-30)
        form_dev = max(form_dev, float(np.max(np.abs(before - after))) / scale)

    ranks_ok = True
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = 1 + seed % 3
        head = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        tail = random_spanning_family(dim, rng)
        ranks_ok = ranks_ok and rank_and_span(span_vectors(head, tail)) == n

    worst_residual = 0.0
    for n in (2, 3):
        for seed in range(10):
            rng = np.random.default_rng(4000 + 10 * n + seed)
            tail = random_spanning_family(dim, rng)
            head = (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / np.sqrt(dim)
            phi = np.vstack([head, tail])
            psi = canonical_dual_frame(phi)
            report = excess_n_identities(phi, psi, n=n, seed=seed)
            worst_residual = max(worst_residual, max(report.residuals.values()))

    ok = form_dev <= 1e-11 and ranks_ok and worst_residual < 1e-10
    verdict(
        8,
        ok,
        f"form dev {form_dev:.2e}, span ranks exact, multi-head residual {worst_residual:.2e}",
    )


def test_acceptance_09_pair_normalization():
    report = random_pair_check(dim=8, pairs=20, seed=0).report
    ok = (
        report.passed
        and report.max_identity_deviation < 1e-10
        and report.max_adjoint_asymmetry <= 1e-15
    )
    verdict(
        9,
        ok,
        f"identity dev {report.max_identity_deviation:.2e}, "
        f"adjoint asymmetry {report.max_adjoint_asymmetry:.2e}",
    )


def test_acceptance_10_cli_determinism(tmp_path):
    commands = {
        "expsys_sweep": ["expsys-sweep", "--g", "linear", "--N", "128", "--W", "8"],
        "zak_validate": ["zak-validate", "--M", "32"],
        "quotient_ladder_cone": ["quotient-ladder", "--numerator", "cone", "--ladder", "32,64,128"],
        "quotient_ladder_one": ["quotient-ladder", "--numerator", "one", "--ladder", "32,64,128"],
        "rp_check": ["rp-check"],
        "excess_n": ["excess-n", "--n", "2"],
    }
    ok = True
    for stem, argv in commands.items():
        texts = []
        for run in ("x", "y"):
            out = tmp_path / f"{stem}_{run}"
            code = cli.main(argv + ["--seed", "7", "--out", str(out)])
            ok = ok and code == 0
            payload = json.loads((out / f"{stem}.json").read_text())
            payload.pop("metadata")
            texts.append(json.dumps(payload, indent=2, sort_keys=True))
        ok = ok and texts[0] == texts[1]
    verdict(10, ok, f"{len(commands)} commands byte-identical across repeated seeded runs")
