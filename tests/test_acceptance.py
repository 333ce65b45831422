"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from tradeoff_helpers import ce_midpoint_gap, cq_midpoint_gap
from unruhcap import channelsim, cli, regions
from unruhcap.entropy import ensemble_conditional_entropy_A
from unruhcap.spectra import (
    EnsembleParams,
    UnruhConfig,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    unruh_weights,
)


def _finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not failures, failures


def test_criterion_1_block_cloner_equivalence():
    failures = []
    started = time.monotonic()
    for d in (2, 3, 4):
        for k in range(1, 6):
            report = channelsim.verify_cloner_equivalence(d, k, n_samples=20, seed=100 * d + k)
            if report.deviation >= 1e-9:
                failures.append(f"d={d} k={k}: spectral dev {report.deviation}")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish(1, "block/cloner spectral equivalence", failures)


def test_criterion_2_kraus_verification():
    failures = []
    started = time.monotonic()
    for d in (2, 3, 4, 5):
        report = channelsim.verify_kraus(d, n_samples=100, seed=200 + d)
        if report.details["completeness_dev"] >= 1e-10:
            failures.append(f"d={d}: completeness {report.details['completeness_dev']}")
        if report.details["action_dev"] >= 1e-9:
            failures.append(f"d={d}: action {report.details['action_dev']}")
        if report.details["max_second_singular"] >= 1e-10:
            failures.append(f"d={d}: second singular {report.details['max_second_singular']}")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(2, "complement Kraus completeness/action/rank", failures)


def test_criterion_3_weight_normalization():
    failures = []
    for d in (2, 3, 5):
        for z in (0.25, 0.5, 0.75):
            mass = float(unruh_weights(UnruhConfig(d, z)).sum())
            if mass < 1.0 - 1e-8:
                failures.append(f"d={d} z={z}: mass {mass!r}")
    _finish(3, "block weight normalization at own horizon", failures)


def test_criterion_4_noiseless_limits():
    failures = []
    for d in (2, 3):
        base = float(d)
        # CQ boundary at z=0 is the segment (1,0)-(0,1).
        curve = regions.cq_curve(regions.ChannelSpec(d=d, z=0.0))
        boundary = curve.boundary
        if len(boundary) != 2:
            failures.append(f"d={d}: noiseless boundary has {len(boundary)} vertices")
        else:
            if not np.allclose(boundary[0], (0.0, 1.0), atol=1e-12):
                failures.append(f"d={d}: top endpoint {boundary[0]}")
            if not np.allclose(boundary[1], (1.0, 0.0), atol=1e-12):
                failures.append(f"d={d}: right endpoint {boundary[1]}")
        for rates in curve.rates:
            if abs(sum(rates) - 1.0) > 1e-12:
                failures.append(f"d={d}: off-segment sample {rates}")
                break
        cloner_curve = regions.cq_curve(regions.ChannelSpec(d=d, k=1), resolution=16)
        for rates in cloner_curve.rates:
            if abs(sum(rates) - 1.0) > 1e-12:
                failures.append(f"d={d}: k=1 sweep off segment")
                break

        # CE endpoint at the uniform ensemble is (2, 1).
        triple = regions.cloner_entropy_triple(d, 1, EnsembleParams.uniform(d), base)
        if not np.allclose(regions.ce_point(triple), (2.0, 1.0), atol=1e-12):
            failures.append(f"d={d}: CE endpoint {regions.ce_point(triple)}")

        # CQE bounds (2, 1, 1) at the uniform ensemble.
        aggregate = regions.unruh_entropy_triple(regions.ChannelSpec(d, z=0.0), EnsembleParams.uniform(d))
        if not np.allclose(regions.cqe_bounds(aggregate), (2.0, 1.0, 1.0), atol=1e-12):
            failures.append(f"d={d}: CQE bounds {regions.cqe_bounds(aggregate)}")

        # RPS bounds (1, H(nu), 1) for several ensembles.
        for nu in (
            EnsembleParams.uniform(d),
            EnsembleParams.vertex(d),
            EnsembleParams((0.75,) + (0.25 / (d - 1),) * (d - 1)),
        ):
            rp, ps, rps = regions.rps_bounds(regions.ChannelSpec(d, z=0.0), nu)
            h_nu = -math.fsum(p * math.log(p) / math.log(d) for p in nu.mu if p > 0)
            if abs(rp - 1.0) > 1e-12 or abs(rps - 1.0) > 1e-12 or abs(ps - h_nu) > 1e-12:
                failures.append(f"d={d} nu={nu.mu}: rps bounds ({rp}, {ps}, {rps})")
    _finish(4, "noiseless limits", failures)


def test_criterion_5_tradeoff_beats_time_sharing():
    failures = []
    resolutions = {2: 200, 5: 16}
    gaps = {}
    for d in (2, 5):
        for k in (2, 5, 10):
            spec = regions.ChannelSpec(d=d, k=k)
            gaps[("cq", d, k)] = cq_midpoint_gap(spec, resolutions[d])
            gaps[("ce", d, k)] = ce_midpoint_gap(spec, resolutions[d])
    for d, k in ((2, 2), (2, 5), (5, 5), (5, 10)):
        for curve in ("cq", "ce"):
            absolute, _ = gaps[(curve, d, k)]
            if absolute <= 1e-3:
                failures.append(f"{curve} d={d} k={k}: gap {absolute:.2e} <= 1e-3 dits")
    # Monotone in k per the figure claim: the gap relative to the chord
    # ordinate grows with k (the absolute d=2 CQ gap shrinks with the region).
    for curve in ("cq", "ce"):
        for d in (2, 5):
            relative = [gaps[(curve, d, k)][1] for k in (2, 5, 10)]
            if not all(b >= a - 1e-12 for a, b in zip(relative, relative[1:])):
                failures.append(f"{curve} d={d}: relative gaps not monotone {relative}")
    _finish(5, "trade-off beats time-sharing", failures)


def test_criterion_6_entropy_identity_audits():
    failures = []
    rng = np.random.default_rng(600)
    for d in (2, 3, 4, 5):
        for k in range(1, 9):
            worst_b = worst_e = 0.0
            for _ in range(100):
                mu = tuple(rng.dirichlet(np.ones(d)))
                worst_b = max(worst_b, abs(ensemble_spectrum_B(d, k, mu).mass - 1.0))
                worst_e = max(worst_e, abs(ensemble_spectrum_E(d, k, mu).mass - 1.0))
            if worst_b > 1e-12 or worst_e > 1e-12:
                failures.append(f"d={d} k={k}: mass dev B={worst_b:.2e} E={worst_e:.2e}")
    for d, z, res in ((2, 0.5, 16), (3, 0.25, 8)):
        grid, rates = regions.region_surface_cqe(regions.ChannelSpec(d, z=z), resolution=res)
        for mu, (b1, _, b3) in zip(grid, rates):
            h_a = ensemble_conditional_entropy_A(mu, float(d)).value
            if abs((b1 - b3) - h_a) > 1e-12:
                failures.append(f"d={d} z={z}: b1-b3 != h_A at {mu}")
                break
    _finish(6, "entropy identity audits", failures)


def test_criterion_7_supporting_hyperplane_audit():
    failures = []
    weight_pairs = [
        regions.CapacityWeights(lam, muw)
        for lam in (0.0, 0.5, 1.0, 2.0, 5.0)
        for muw in (0.0, 0.5, 1.0, 3.0)
    ]
    assert len(weight_pairs) == 20
    for d in (2, 3):
        for z in (0.25, 0.75):
            problem = regions.DynamicCapacityProblem(regions.ChannelSpec(d, z=z))
            stride = max(1, len(problem.grid) // 23)
            for weights in weight_pairs:
                result = problem.solve(weights)
                values = problem.grid_objectives(weights)
                if result.value < float(values.max()) - 1e-9:
                    failures.append(
                        f"d={d} z={z} {weights}: value {result.value} < grid max {values.max()}"
                    )
                # Independent spot checks against the direct objective.
                for idx in range(0, len(problem.grid), stride):
                    direct = regions.dynamic_objective(
                        problem.evaluator, weights, problem.grid[idx]
                    )
                    if result.value < direct - 1e-9:
                        failures.append(f"d={d} z={z} {weights}: grid point {idx} beats optimizer")
    _finish(7, "supporting-hyperplane audit", failures)


def test_criterion_8_ppt_witness():
    failures = []
    for d in (2, 3):
        for k in (2, 3, 4):
            report = channelsim.choi_ppt_check(d, k)
            min_eig = report.details["min_partial_transpose_eigenvalue"]
            if min_eig < -1e-9:
                failures.append(f"d={d} k={k}: min PT eigenvalue {min_eig}")
    _finish(8, "PPT witness of the Hadamard property", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []
    commands = {
        "cq-curve": ["cq-curve", "--d", "2", "--z", "0.25", "--grid", "8"],
        "rps-region": ["rps-region", "--d", "2", "--z", "0.5", "--grid", "8"],
        "dyncap": ["dyncap", "--d", "2", "--z", "0.25", "--lambda", "1.0",
                   "--mu-weight", "0.5", "--grid", "16"],
        "verify-hadamard": ["verify", "hadamard", "--d", "3", "--samples", "25"],
    }
    for name, args in commands.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        if cli.main(args + ["-o", str(first)]) not in (0,):
            failures.append(f"{name}: nonzero exit")
            continue
        cli.main(args + ["-o", str(second)])
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name}: outputs differ between identical runs")
    json.loads((tmp_path / "verify-hadamard_1.out").read_text())  # valid JSON
    _finish(9, "byte-identical reruns", failures)
