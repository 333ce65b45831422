import itertools
import math

import numpy as np
import pytest

from tradeoff_helpers import ce_midpoint_gap, cq_midpoint_gap
from unruhcap import channelsim, regions
from unruhcap.engine import TradeoffEvaluator
from unruhcap.regions import (
    CapacityWeights,
    ChannelSpec,
    DynamicCapacityProblem,
    EntropyTriple,
    RegionSample,
    ce_curve,
    ce_point,
    cloner_entropy_triple,
    cq_curve,
    cq_point,
    cqe_bounds,
    cqe_corner,
    dynamic_capacity,
    dynamic_objective,
    pareto_hull_2d,
    pareto_hull_indices,
    region_surface_cqe,
    rps_bounds,
    rps_region,
    simplex_grid,
    unruh_entropy_triple,
)
from unruhcap.spectra import EnsembleParams, UnruhConfig, truncation_horizon, unruh_weights


def triple_values(t: EntropyTriple):
    return (t.h_b.value, t.h_b_given_x.value, t.h_e_given_x.value, t.h_a_given_x.value)


# ---------------------------------------------------------------------------
# Entropy triples and CQ/CE points
# ---------------------------------------------------------------------------

def test_cloner_triple_identity_channel():
    for d in (2, 3, 5):
        t = cloner_entropy_triple(d, 1, EnsembleParams.uniform(d))
        assert triple_values(t) == pytest.approx((1.0, 1.0, 0.0, 1.0), abs=1e-12)


def test_cloner_triple_vertex_d2_k2():
    t = cloner_entropy_triple(2, 2, EnsembleParams.vertex(2), base=2.0)
    h23 = math.log2(3) - 2.0 / 3.0  # H(2/3, 1/3)
    assert t.h_b.value == pytest.approx(math.log2(3), abs=1e-14)
    assert t.h_b_given_x.value == pytest.approx(h23, abs=1e-13)
    assert t.h_e_given_x.value == pytest.approx(h23, abs=1e-13)
    assert t.h_a_given_x.value == 0.0


def test_cloner_triple_uniform_spectrum_is_flat():
    t = cloner_entropy_triple(5, 10, EnsembleParams.uniform(5))
    assert t.h_b_given_x.value == pytest.approx(t.h_b.value, abs=1e-12)


def test_cq_point_examples():
    identity = cloner_entropy_triple(3, 1, EnsembleParams.uniform(3))
    assert cq_point(identity) == pytest.approx((0.0, 1.0), abs=1e-12)
    classical = cloner_entropy_triple(3, 1, EnsembleParams.vertex(3))
    assert cq_point(classical) == pytest.approx((1.0, 0.0), abs=1e-12)
    vertex22 = cloner_entropy_triple(2, 2, EnsembleParams.vertex(2), base=2.0)
    c, q = cq_point(vertex22)
    assert c == pytest.approx(2.0 / 3.0, abs=1e-12)  # log2(3) - H(2/3,1/3) exactly
    assert q == pytest.approx(0.0, abs=1e-12)


def test_ce_point_examples():
    identity = cloner_entropy_triple(3, 1, EnsembleParams.uniform(3))
    assert ce_point(identity) == pytest.approx((2.0, 1.0), abs=1e-12)
    vertex = cloner_entropy_triple(3, 2, EnsembleParams.vertex(3))
    c_vertex, e_vertex = ce_point(vertex)
    assert e_vertex == 0.0
    assert c_vertex == pytest.approx(cq_point(vertex)[0], abs=1e-12)
    uniform22 = cloner_entropy_triple(2, 2, EnsembleParams.uniform(2), base=2.0)
    c, e = ce_point(uniform22)
    assert c == pytest.approx(math.log2(3), abs=1e-13)  # gamma spectrum is {1/2, 1/2}
    assert e == pytest.approx(1.0, abs=1e-14)


def test_entropy_triple_rejects_mixed_bases():
    from unruhcap.entropy import EntropyValue

    with pytest.raises(ValueError):
        EntropyTriple(
            EntropyValue(1.0, 2.0),
            EntropyValue(1.0, 2.0),
            EntropyValue(1.0, 3.0),
            EntropyValue(1.0, 2.0),
        )


# ---------------------------------------------------------------------------
# Unruh aggregates, CQE and RPS bounds
# ---------------------------------------------------------------------------

def test_unruh_triple_noiseless_reduces_to_identity_block():
    for d in (2, 3):
        mu = EnsembleParams((0.6,) + (0.4 / (d - 1),) * (d - 1))
        cfg = UnruhConfig(d, 0.0)
        assert truncation_horizon(cfg) == 1
        cloner = cloner_entropy_triple(d, 1, mu)
        assert triple_values(unruh_entropy_triple(cfg, mu)) == pytest.approx(
            triple_values(cloner), abs=1e-13
        )


def test_cqe_bounds_noiseless_uniform():
    for d in (2, 3):
        agg = unruh_entropy_triple(UnruhConfig(d, 0.0), EnsembleParams.uniform(d))
        assert cqe_bounds(agg) == pytest.approx((2.0, 1.0, 1.0), abs=1e-12)


def test_cqe_b1_minus_b3_is_input_entropy():
    rng = np.random.default_rng(51)
    for d, z in ((2, 0.3), (3, 0.6)):
        for _ in range(4):
            mu = EnsembleParams(tuple(rng.dirichlet(np.ones(d))))
            agg = unruh_entropy_triple(UnruhConfig(d, z), mu)
            b1, _, b3 = cqe_bounds(agg)
            assert b1 - b3 == pytest.approx(agg.h_a_given_x.value, abs=1e-14)


def test_cqe_bounds_regression_d3():
    # Pinned from a validated run cross-checked against the matrix oracle.
    agg = unruh_entropy_triple(UnruhConfig(3, 0.75), EnsembleParams.uniform(3))
    bounds = cqe_bounds(agg)
    assert bounds[0] == pytest.approx(1.1721801124066247, rel=1e-9)
    assert bounds[1] == pytest.approx(0.1721801124066250, rel=1e-9)
    assert bounds[2] == pytest.approx(0.1721801124066250, rel=1e-9)


def test_cqe_b3_matches_block_diagonal_matrix_oracle():
    cfg = UnruhConfig(2, 0.5, log_base=2.0)
    b3 = cqe_bounds(unruh_entropy_triple(cfg, EnsembleParams.uniform(2)))[2]
    weights = unruh_weights(cfg)
    rho = channelsim.DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    h_b = h_e = 0.0
    for k in range(1, weights.size + 1):
        isometry = channelsim.cloner_isometry(2, k)
        eig_b = channelsim.apply_channel(isometry, rho, "B").eigenvalues()
        eig_e = channelsim.apply_channel(isometry, rho, "E").eigenvalues()
        w = weights[k - 1]
        h_b += w * float(-sum(x * np.log2(x) for x in eig_b if x > 1e-15))
        h_e += w * float(-sum(x * np.log2(x) for x in eig_e if x > 1e-15))
    assert b3 == pytest.approx(h_b - h_e, abs=1e-6)


def test_unruh_cq_classical_endpoint_degrades_with_z():
    # Regression pins from a validated run; monotone decrease is the claim.
    expected = {
        0.0: 1.0,
        0.25: 0.7656527264709404,
        0.5: 0.5642367824013563,
        0.75: 0.3992955990243243,
    }
    endpoints = []
    for z, pin in expected.items():
        evaluator = ChannelSpec(d=2, z=z).evaluator()
        s_bx, _ = evaluator.sums(np.array([1.0, 0.0]))
        c_classical = evaluator.s_b - s_bx
        assert c_classical == pytest.approx(pin, rel=1e-9, abs=1e-12)
        endpoints.append(c_classical)
    assert all(a > b for a, b in zip(endpoints, endpoints[1:]))


def test_rps_bounds_noiseless():
    d = 3
    for nu in (EnsembleParams.uniform(d), EnsembleParams.vertex(d), EnsembleParams((0.6, 0.3, 0.1))):
        rp, ps, rps = rps_bounds(UnruhConfig(d, 0.0), nu)
        h_nu = -math.fsum(p * math.log(p) / math.log(d) for p in nu.mu if p > 0)
        assert rp == pytest.approx(1.0, abs=1e-12)
        assert rps == pytest.approx(1.0, abs=1e-12)
        assert ps == pytest.approx(h_nu, abs=1e-12)


def test_rps_public_bound_dominates_difference():
    # h_B|XY <= h_E|X per block, so R+P >= (R+P+S) - (P+S) pointwise.
    rng = np.random.default_rng(61)
    for d, z in ((2, 0.25), (2, 0.75), (3, 0.5)):
        for _ in range(4):
            nu = EnsembleParams(tuple(rng.dirichlet(np.ones(d))))
            rp, ps, rps = rps_bounds(UnruhConfig(d, z), nu)
            assert rp >= rps - ps - 1e-12


def test_rps_regression_d5():
    # Pinned from a validated run (single heavy sample, uniform ensemble).
    rp, ps, rps = rps_bounds(UnruhConfig(5, 0.75), EnsembleParams.uniform(5))
    assert rp == pytest.approx(0.28835980083062107, rel=1e-9)
    assert ps == pytest.approx(0.14231700935041713, rel=1e-9)
    assert rps == pytest.approx(0.14231700935041713, rel=1e-8)


# ---------------------------------------------------------------------------
# Dynamic capacity optimization
# ---------------------------------------------------------------------------

def test_dynamic_capacity_noiseless_unweighted():
    result = dynamic_capacity(UnruhConfig(3, 0.0), CapacityWeights(0.0, 0.0), resolution=24)
    assert result.value == pytest.approx(2.0, abs=1e-9)
    assert result.argmax.mu == pytest.approx([1 / 3] * 3, abs=1e-6)


def test_dynamic_capacity_large_lambda_tracks_coherent_information():
    cfg = UnruhConfig(2, 0.25)
    problem = DynamicCapacityProblem(cfg, resolution=32)
    result = problem.solve(CapacityWeights(lambda_w=1e5, mu_w=0.0))

    def coherent(mu):
        s_bx, s_ex = problem.evaluator.sums(np.asarray(mu))
        return s_bx - s_ex

    best_grid_coherent = max(coherent(p.as_array()) for p in problem.grid)
    assert coherent(result.argmax.as_array()) >= best_grid_coherent - 1e-6


def test_dynamic_capacity_refinement_dominates_grid():
    cfg = UnruhConfig(2, 0.25)
    problem = DynamicCapacityProblem(cfg, resolution=64)
    weights = CapacityWeights(lambda_w=1.0, mu_w=0.0)
    result = problem.solve(weights)
    values = problem.grid_objectives(weights)
    assert result.value >= result.grid_best
    assert result.grid_best == pytest.approx(float(values.max()), abs=0.0)
    # Spot-check the cached grid objectives against direct evaluation.
    for idx in (0, len(problem.grid) // 2, len(problem.grid) - 1):
        direct = dynamic_objective(problem.evaluator, weights, problem.grid[idx])
        assert values[idx] == pytest.approx(direct, abs=1e-12)


def test_dynamic_capacity_climbs_off_a_vertex_start():
    # The grid optimum is the vertex (1, 0); the true optimum lies just inside.
    result = dynamic_capacity(UnruhConfig(2, 0.95), CapacityWeights(10.0, 10.0))
    assert result.grid_best == pytest.approx(3.281697287991, abs=1e-9)
    assert result.value > result.grid_best + 1e-3


def test_dynamic_capacity_climbs_off_a_face_start():
    # The grid optimum lies on the face mu_3 = 0; the true optimum does not.
    problem = DynamicCapacityProblem(UnruhConfig(3, 0.5), resolution=16)
    weights = CapacityWeights(0.0, 10.0)
    result = problem.solve(weights)
    assert result.value > 5.56
    assert min(result.argmax.mu) > 0.0
    direct = dynamic_objective(problem.evaluator, weights, result.argmax)
    assert direct == pytest.approx(result.value, abs=1e-12)
    # A repeat climb reads the sums the first one kept and lands on the same point.
    assert problem.solve(weights) == result


def test_capacity_weights_validation():
    with pytest.raises(ValueError):
        CapacityWeights(-0.1, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CapacityWeights(bad, 0.0)
        with pytest.raises(ValueError):
            CapacityWeights(0.0, bad)


# ---------------------------------------------------------------------------
# Pareto hull
# ---------------------------------------------------------------------------

def test_hull_single_point():
    sample = RegionSample((0.4, 0.2), EnsembleParams.uniform(2), ("cloner", 2, 1))
    assert pareto_hull_2d([sample]) == [sample]


def test_hull_collinear_descending_line_keeps_extremes():
    pts = [(x, 1.0 - x) for x in np.linspace(0.0, 1.0, 9)]
    idx = pareto_hull_indices(pts)
    assert [pts[i] for i in idx] == [(0.0, 1.0), (1.0, 0.0)]


def test_hull_drops_dominated_and_interior_points():
    pts = [(0.0, 1.0), (1.0, 0.0), (0.2, 0.2), (0.6, 0.55), (0.5, 0.5), (0.0, 0.0)]
    idx = pareto_hull_indices(pts)
    kept = [pts[i] for i in idx]
    assert kept == [(0.0, 1.0), (0.6, 0.55), (1.0, 0.0)]


def test_hull_rejects_non_2d():
    sample = RegionSample((0.4, 0.2, 0.1), EnsembleParams.uniform(2), ("cloner", 2, 1))
    with pytest.raises(ValueError):
        pareto_hull_2d([sample])


def test_cq_boundary_beats_time_sharing_chord_d2_k2():
    gap, _ = cq_midpoint_gap(ChannelSpec(d=2, k=2), resolution=200)
    assert gap > 1e-3


def test_ce_boundary_sags_below_chord_d2_k2():
    gap, _ = ce_midpoint_gap(ChannelSpec(d=2, k=2), resolution=200)
    assert gap > 1e-3


def test_cq_noiseless_boundary_is_the_unit_segment():
    curve = cq_curve(ChannelSpec(d=2, k=1), resolution=4)
    boundary = [s.rates for s in curve.boundary]
    assert len(boundary) == 2
    assert boundary[0] == pytest.approx((0.0, 1.0), abs=1e-12)
    assert boundary[1] == pytest.approx((1.0, 0.0), abs=1e-12)
    for sample in curve.samples:
        assert sum(sample.rates) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Surfaces, grids, specs
# ---------------------------------------------------------------------------

def test_region_surface_corners_are_tight():
    surface = region_surface_cqe(UnruhConfig(2, 0.25), resolution=8)
    assert set(surface.rays) == {"TP", "SD", "ED"}
    for sample in surface.samples:
        b1, b2, b3 = sample.rates
        c, q, e = cqe_corner(sample.rates)
        assert c + 2 * q == pytest.approx(b1, abs=1e-12)
        assert q + e == pytest.approx(b2, abs=1e-12)
        assert c + q + e == pytest.approx(b3, abs=1e-12)


def test_region_surface_noiseless_contains_super_dense_corner():
    surface = region_surface_cqe(UnruhConfig(2, 0.0), resolution=4)
    uniform_sample = next(
        s for s in surface.samples if s.ensemble.mu == pytest.approx((0.5, 0.5))
    )
    corner = np.array(cqe_corner(uniform_sample.rates))
    sd_corner = corner + np.array(surface.rays["SD"])
    assert sd_corner == pytest.approx([2.0, 0.0, -1.0], abs=1e-12)


def test_rps_region_sweep_shapes():
    samples = rps_region(UnruhConfig(2, 0.5), resolution=8)
    assert len(samples) == 9
    rp_values = {s.rates[0] for s in samples}
    assert len(rp_values) == 1  # public bound is ensemble independent
    for s in samples:
        assert s.channel[0] == "unruh" and len(s.rates) == 3


def test_simplex_grid_contents():
    grid = simplex_grid(2, 64)
    assert len(grid) == 65
    grid3 = simplex_grid(3, 64)
    assert len(grid3) == math.comb(66, 2) + 1  # uniform appended (64 not divisible by 3)
    tuples = [g.mu for g in grid3]
    assert tuples == sorted(tuples, reverse=True)
    assert (1.0, 0.0, 0.0) in tuples
    assert any(np.allclose(t, [1 / 3] * 3) for t in tuples)
    with pytest.raises(ValueError):
        simplex_grid(3, 0)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(d=3)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, k=2, z=0.5)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, k=0)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, z=1.5)
    spec = ChannelSpec(d=3, z=0.5)
    assert spec.channel_tag(7) == ("unruh", 3, 0.5, 7)
    assert ChannelSpec(d=3, k=2).channel_tag(2) == ("cloner", 3, 2)


def test_region_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        RegionSample((math.inf, 0.0), EnsembleParams.uniform(2), ("cloner", 2, 1))


def test_bounds_invariant_under_cyclic_relabeling():
    # Every permutation of the ensemble weights (all of S_d, not only the
    # cyclic shifts) only relabels the occupation basis.
    for cfg, mu in ((UnruhConfig(3, 0.5), (0.6, 0.3, 0.1)), (UnruhConfig(4, 0.25), (0.4, 0.3, 0.2, 0.1))):
        b_ref = cqe_bounds(unruh_entropy_triple(cfg, mu))
        rps_ref = rps_bounds(cfg, mu)
        perms = list(itertools.permutations(mu))
        assert len(perms) == math.factorial(cfg.d)
        for perm in perms:
            assert cqe_bounds(unruh_entropy_triple(cfg, perm)) == pytest.approx(b_ref, abs=1e-12)
            assert rps_bounds(cfg, perm) == pytest.approx(rps_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# Orbit reuse in the sweeps
# ---------------------------------------------------------------------------

def count_sums(monkeypatch) -> list:
    """Record the ensemble of every ``TradeoffEvaluator.sums`` call."""
    calls = []
    original = TradeoffEvaluator.sums

    def counted(self, mu):
        calls.append(tuple(mu))
        return original(self, mu)

    monkeypatch.setattr(TradeoffEvaluator, "sums", counted)
    return calls


def orbit_count(grid) -> int:
    return len({tuple(sorted(p.mu)) for p in grid})


def test_orbit_sweeps_match_per_point_evaluation():
    for cfg, resolution in ((UnruhConfig(3, 0.5), 7), (UnruhConfig(4, 0.25), 5)):
        grid = simplex_grid(cfg.d, resolution)
        assert EnsembleParams.uniform(cfg.d) in grid  # R not a multiple of d
        assert orbit_count(grid) < len(grid)
        surface = region_surface_cqe(cfg, resolution)
        rps = rps_region(cfg, resolution)
        assert [s.ensemble for s in surface.samples] == grid
        assert [s.ensemble for s in rps] == grid
        for params, cqe_sample, rps_sample in zip(grid, surface.samples, rps):
            want = cqe_bounds(unruh_entropy_triple(cfg, params))
            assert cqe_sample.rates == pytest.approx(want, abs=1e-12)
            assert rps_sample.rates == pytest.approx(rps_bounds(cfg, params), abs=1e-12)


def test_region_sweeps_evaluate_each_orbit_once(monkeypatch):
    calls = count_sums(monkeypatch)
    surface = region_surface_cqe(UnruhConfig(5, 0.5), 4)
    assert len(surface.samples) == 71
    # The 5 partitions of 4, plus the uniform point; each evaluated at its
    # descending-sorted member, the first one the grid meets.
    assert len(calls) == 6
    assert all(list(mu) == sorted(mu, reverse=True) for mu in calls)

    calls.clear()
    cfg = UnruhConfig(3, 0.5)
    rps_region(cfg, 8)
    assert len(calls) == orbit_count(simplex_grid(3, 8)) == 11

    calls.clear()
    problem = DynamicCapacityProblem(cfg, resolution=8)
    assert len(calls) == 11 and len(problem.grid) == 46


def test_curves_evaluate_every_grid_point(monkeypatch):
    # The curves' Pareto hulls pick among tied orbit-mates by their last
    # bits, so the curves keep one evaluation per point.
    calls = count_sums(monkeypatch)
    for spec in (ChannelSpec(d=3, z=0.5), ChannelSpec(d=3, k=4)):
        for curve in (cq_curve, ce_curve):
            calls.clear()
            result = curve(spec, 8)
            assert len(calls) == len(result.samples) == 46
            assert [s.ensemble.mu for s in result.samples] == calls
