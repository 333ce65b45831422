import itertools
import math
import time

import numpy as np
import pytest

from tradeoff_helpers import (
    ce_midpoint_gap,
    cq_midpoint_gap,
    family_midpoint_gap,
    orbit_counts,
    reduced_counts,
    reevaluated_rows,
    refined_family,
    tied_rows,
)
from unruhcap import channelsim, engine, kernels, regions, spectra
from unruhcap.combinat import SizeCapError
from unruhcap.engine import TradeoffEvaluator
from unruhcap.entropy import shannon_entropy
from unruhcap.regions import (
    MAX_GRID_ENTRIES,
    MAX_GRID_POINTS,
    CapacityWeights,
    ChannelSpec,
    DynamicCapacityProblem,
    ce_curve,
    ce_point,
    cloner_entropy_triple,
    cq_curve,
    cq_point,
    cqe_bounds,
    cqe_corner,
    dynamic_capacity,
    dynamic_objective,
    pareto_hull_indices,
    region_surface_cqe,
    rps_bounds,
    rps_region,
    simplex_grid,
    sweep_resolution,
    unruh_entropy_triple,
)
from unruhcap.spectra import EnsembleParams, cloner_spectrum, truncation_horizon, unruh_weights


# ---------------------------------------------------------------------------
# Entropy triples and CQ/CE points
# ---------------------------------------------------------------------------

def test_cloner_triple_identity_channel():
    for d in (2, 3, 5):
        t = cloner_entropy_triple(d, 1, EnsembleParams.uniform(d))
        assert tuple(t) == pytest.approx((1.0, 1.0, 0.0, 1.0), abs=1e-12)


def test_cloner_triple_vertex_d2_k2():
    t = cloner_entropy_triple(2, 2, EnsembleParams.vertex(2), base=2.0)
    h23 = math.log2(3) - 2.0 / 3.0  # H(2/3, 1/3)
    assert t.h_b == pytest.approx(math.log2(3), abs=1e-14)
    assert t.h_b_given_x == pytest.approx(h23, abs=1e-13)
    assert t.h_e_given_x == pytest.approx(h23, abs=1e-13)
    assert t.h_a_given_x == 0.0


def test_cloner_triple_uniform_spectrum_is_flat():
    t = cloner_entropy_triple(5, 10, EnsembleParams.uniform(5))
    assert t.h_b_given_x == pytest.approx(t.h_b, abs=1e-12)


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


# ---------------------------------------------------------------------------
# Unruh aggregates, CQE and RPS bounds
# ---------------------------------------------------------------------------

def test_unruh_triple_noiseless_reduces_to_identity_block():
    for d in (2, 3):
        mu = EnsembleParams((0.6,) + (0.4 / (d - 1),) * (d - 1))
        spec = ChannelSpec(d, z=0.0)
        assert truncation_horizon(spec.unruh_config()) == 1
        cloner = cloner_entropy_triple(d, 1, mu)
        assert tuple(unruh_entropy_triple(spec, mu)) == pytest.approx(tuple(cloner), abs=1e-13)


def test_cqe_bounds_noiseless_uniform():
    for d in (2, 3):
        agg = unruh_entropy_triple(ChannelSpec(d, z=0.0), EnsembleParams.uniform(d))
        assert cqe_bounds(agg) == pytest.approx((2.0, 1.0, 1.0), abs=1e-12)


def test_cqe_b1_minus_b3_is_input_entropy():
    rng = np.random.default_rng(51)
    for d, z in ((2, 0.3), (3, 0.6)):
        for _ in range(4):
            mu = EnsembleParams(tuple(rng.dirichlet(np.ones(d))))
            agg = unruh_entropy_triple(ChannelSpec(d, z=z), mu)
            b1, _, b3 = cqe_bounds(agg)
            assert b1 - b3 == pytest.approx(agg.h_a_given_x, abs=1e-14)


def test_cqe_bounds_regression_d3():
    # Pinned from a validated run cross-checked against the matrix oracle.
    agg = unruh_entropy_triple(ChannelSpec(3, z=0.75), EnsembleParams.uniform(3))
    bounds = cqe_bounds(agg)
    assert bounds[0] == pytest.approx(1.1721801124066247, rel=1e-9)
    assert bounds[1] == pytest.approx(0.1721801124066250, rel=1e-9)
    assert bounds[2] == pytest.approx(0.1721801124066250, rel=1e-9)


def test_cqe_b3_matches_block_diagonal_matrix_oracle():
    spec = ChannelSpec(2, z=0.5, log_base=2.0)
    b3 = cqe_bounds(unruh_entropy_triple(spec, EnsembleParams.uniform(2)))[2]
    weights = unruh_weights(spec.unruh_config())
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
        evaluator = ChannelSpec(d=2, z=z).evaluator
        s_bx, _ = evaluator.sums(np.array([1.0, 0.0]))
        c_classical = evaluator.s_b - s_bx
        assert c_classical == pytest.approx(pin, rel=1e-9, abs=1e-12)
        endpoints.append(c_classical)
    assert all(a > b for a, b in zip(endpoints, endpoints[1:]))


def test_rps_bounds_noiseless():
    d = 3
    for nu in (EnsembleParams.uniform(d), EnsembleParams.vertex(d), EnsembleParams((0.6, 0.3, 0.1))):
        rp, ps, rps = rps_bounds(ChannelSpec(d, z=0.0), nu)
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
            rp, ps, rps = rps_bounds(ChannelSpec(d, z=z), nu)
            assert rp >= rps - ps - 1e-12


@pytest.mark.parametrize(
    "spec",
    [ChannelSpec(2, z=0.5), ChannelSpec(3, z=0.75), ChannelSpec(4, z=0.25, log_base=2.0),
     ChannelSpec(3, k=7), ChannelSpec(2, k=6000)],
)
def test_public_bound_matches_the_cloner_spectrum_formula(spec):
    # R+P per block is log dim_k minus the entropy of the cloner spectrum,
    # built here one block of positive weight at a time.  The single block
    # k = 6000 runs on the family kernel at one photon number per side.
    start = time.perf_counter()
    evaluator = spec.evaluator
    h_xy = np.zeros(evaluator.horizon)
    for k in np.flatnonzero(evaluator.weights) + 1:
        h_xy[k - 1] = shannon_entropy(cloner_spectrum(spec.d, int(k)), spec.base).value
    want = float(np.dot(evaluator.weights, evaluator.log_dims - h_xy))
    assert regions._public_bound(evaluator) == pytest.approx(want, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_rps_regression_d5():
    # Pinned from a validated run (single heavy sample, uniform ensemble).
    rp, ps, rps = rps_bounds(ChannelSpec(5, z=0.75), EnsembleParams.uniform(5))
    assert rp == pytest.approx(0.28835980083062107, rel=1e-9)
    assert ps == pytest.approx(0.14231700935041713, rel=1e-9)
    assert rps == pytest.approx(0.14231700935041713, rel=1e-8)


# ---------------------------------------------------------------------------
# Dynamic capacity optimization
# ---------------------------------------------------------------------------

def test_dynamic_capacity_noiseless_unweighted():
    result = dynamic_capacity(ChannelSpec(3, z=0.0), CapacityWeights(0.0, 0.0), resolution=24)
    assert result.value == pytest.approx(2.0, abs=1e-9)
    assert result.argmax.mu == pytest.approx([1 / 3] * 3, abs=1e-6)


def test_dynamic_capacity_large_lambda_tracks_coherent_information():
    problem = DynamicCapacityProblem(ChannelSpec(2, z=0.25), resolution=32)
    result = problem.solve(CapacityWeights(lambda_w=1e5, mu_w=0.0))

    def coherent(mu):
        s_bx, s_ex = problem.evaluator.sums(np.asarray(mu))
        return s_bx - s_ex

    best_grid_coherent = max(coherent(mu) for mu in problem.grid)
    assert coherent(result.argmax.as_array()) >= best_grid_coherent - 1e-6


def test_dynamic_capacity_refinement_dominates_grid():
    problem = DynamicCapacityProblem(ChannelSpec(2, z=0.25), resolution=64)
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
    result = dynamic_capacity(ChannelSpec(2, z=0.95), CapacityWeights(10.0, 10.0))
    assert result.grid_best == pytest.approx(3.281697287991, abs=1e-9)
    assert result.value > result.grid_best + 1e-3


def test_dynamic_capacity_climbs_off_a_face_start():
    # The grid optimum lies on the face mu_3 = 0; the true optimum does not.
    problem = DynamicCapacityProblem(ChannelSpec(3, z=0.5), resolution=16)
    weights = CapacityWeights(0.0, 10.0)
    result = problem.solve(weights)
    assert result.value > 5.56
    assert min(result.argmax.mu) > 0.0
    direct = dynamic_objective(problem.evaluator, weights, result.argmax)
    assert direct == pytest.approx(result.value, abs=1e-12)
    # The optimum lies on the family (a, b, b), and a repeat solve lands on it again.
    assert result.argmax.mu[1] == result.argmax.mu[2] and result.family_gap == 0.0
    assert problem.solve(weights) == result


@pytest.mark.parametrize("d, z", [(2, 0.25), (2, 0.75), (3, 0.25), (3, 0.75)])
def test_family_climb_beats_a_grid_twice_as_fine(d, z):
    # The oracle of the one-heavy reduction, on criterion 7's problems and
    # weight pairs: no row of a grid twice as fine, on the family or off it,
    # beats the climb, and the grid's best never beats the family's.
    problem = DynamicCapacityProblem(ChannelSpec(d, z=z))
    fine = DynamicCapacityProblem(ChannelSpec(d, z=z), 2 * problem.resolution)
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        for muw in (0.0, 0.5, 1.0, 3.0):
            weights = CapacityWeights(lam, muw)
            result = problem.solve(weights)
            assert result.family_gap == 0.0
            assert result.value >= float(fine.grid_objectives(weights).max()) - 1e-12


def test_solve_falls_back_to_the_grid_best_off_the_family(monkeypatch):
    # The climb starts at the family's best grid row, so it ends below the
    # grid's best only when that row is off the family.  One off-family row
    # is lifted above every row; solve then reports that row and the gap.
    problem = DynamicCapacityProblem(ChannelSpec(3, z=0.5), 4)
    grid = problem.grid
    off = int(np.flatnonzero(grid[:, 1] != grid[:, 2])[0])
    objectives = problem.grid_objectives

    def lifted(weights):
        values = objectives(weights).copy()
        values[off] = values.max() + 1.0
        return values

    monkeypatch.setattr(problem, "grid_objectives", lifted)
    result = problem.solve(CapacityWeights(1.0, 0.0))
    assert result.value == result.grid_best == lifted(CapacityWeights(1.0, 0.0))[off]
    assert result.argmax.mu == tuple(grid[off])
    assert result.family_gap > 0.0


def time_sharing_rows(grid) -> list:
    """Rows of the vertex (1, 0, ..., 0) and the uniform ensemble in ``grid``;
    both are points of every sweep grid."""
    d = grid.shape[1]
    (vertex,) = np.flatnonzero(grid[:, 0] == 1.0)
    (uniform,) = np.flatnonzero(np.all(grid == 1.0 / d, axis=1))
    return [vertex, uniform]


@pytest.mark.parametrize(
    "d, z, lam, muw, resolution, gap",
    [
        (2, 0.5, 1.0, 10.0, 32, 0.124),
        (2, 0.75, 100.0, 100.0, 32, 1.575),
        (3, 0.25, 6.0, 90.0, 16, 0.456),
        (3, 0.5, 0.3, 10.0, 16, 0.046),
        (3, 0.75, 100.0, 100.0, 16, 1.375),
        (5, 0.5, 24.0, 93.0, 8, 0.346),
        (5, 0.75, 96.0, 99.0, 8, 0.923),
        (5, 0.9, 87.0, 30.0, 4, 0.143),
        (8, 0.75, 96.0, 99.0, 4, 0.406),
        (8, 0.5, 24.0, 96.0, 8, 0.251),
    ],
)
def test_dynamic_region_beats_time_sharing(d, z, lam, muw, resolution, gap):
    # Time-sharing is the hull of the vertex and uniform ensembles' regions
    # plus the protocol rays, so its support at weights (lambda, mu) is the
    # larger of their two objectives; a grid point above both is a strict
    # gain of trade-off coding over time-sharing.  Both ensembles are grid
    # rows, which keeps d = 5 and 8 on the per-orbit sweep's kernels.
    problem = DynamicCapacityProblem(ChannelSpec(d, z=z), resolution)
    values = problem.grid_objectives(CapacityWeights(lam, muw))
    got = float(values.max() - values[time_sharing_rows(problem.grid)].max())
    assert got > 0.0
    assert got == pytest.approx(gap, abs=1e-3)


@pytest.mark.parametrize(
    "d, z, lam, muw, resolution, gap",
    [
        (2, 0.5, 27.0, 93.0, 32, 1.182),
        (3, 0.5, 27.0, 96.0, 16, 0.9986),
        (5, 0.5, 27.0, 96.0, 8, 0.4694),
        (5, 0.75, 99.0, 96.0, 8, 0.9978),
        (5, 0.9, 93.0, 27.0, 4, 0.2506),
        (8, 0.75, 99.0, 96.0, 4, 0.5324),
        (8, 0.5, 27.0, 96.0, 8, 0.3633),
    ],
)
def test_private_region_beats_time_sharing(d, z, lam, muw, resolution, gap):
    # The private dynamic region's support at weights (lambda, mu) is
    # (R+P) + lambda (P+S) + mu (R+P+S), with R+P the same at every ensemble;
    # as for the quantum region, time-sharing reaches the larger of the
    # vertex and uniform rows.
    mu, rates = rps_region(ChannelSpec(d, z=z), resolution)
    support = rates @ np.array([1.0, lam, muw])
    got = float(support.max() - support[time_sharing_rows(mu)].max())
    assert got > 0.0
    assert got == pytest.approx(gap, abs=1e-3)


# Points (a, b, ..., b) of the one-heavy family are real ensembles, with the
# uniform point (a = 1/d) and the vertex (a = 1) at its two ends, so what the
# hull of evaluated family points reaches is achievable.  They show the
# headline claim where the grid route cannot: at d = 5 and 8, z = 0.25,
# grid 4 the grid hull is only the vertex and the uniform row, and a CQ/CE
# curve at d = 8, z = 0.75 is over the lattice cap near its hull.


@pytest.mark.parametrize(
    "d, z, cq_gap, ce_gap",
    [
        (5, 0.25, 3.517e-3, 2.604e-3),
        (8, 0.75, 6.061e-3, 2.733e-3),
        (8, 0.9, 3.132e-3, 2.534e-3),
        (10, 0.5, 5.740e-3, 1.658e-3),
        (10, 0.9, 2.912e-3, 1.714e-3),
        (20, 0.9, 2.366e-3, 5.294e-4),
    ],
)
def test_family_hulls_beat_time_sharing(d, z, cq_gap, ce_gap):
    # The CQ hull rises above, and the CE hull sags below, the time-sharing
    # chord at its midpoint abscissa.  For CE it takes the hull, not one
    # point: at d = 10 and 20, z = 0.9 the family point at that abscissa lies
    # above the chord.  The points are refined around the two hull vertices
    # that bracket the midpoint; the gaps are those of 801 equally spaced
    # values of a, to 1e-3.
    spec = ChannelSpec(d, z=z)
    for point, sign, want in ((cq_point, 1.0, cq_gap), (ce_point, -1.0, ce_gap)):

        def bracket(table):
            return family_midpoint_gap(np.column_stack(point(table)), sign)[1]

        got, _ = family_midpoint_gap(np.column_stack(point(refined_family(spec, bracket))), sign)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize(
    "d, lam, muw, gain", [(8, 96, 33, 0.4234), (10, 93, 33, 0.3751), (20, 99, 36, 0.3049)]
)
def test_family_dynamic_region_beats_time_sharing(d, lam, muw, gain):
    # The 3-D quantum dynamic region at z = 0.9 over lambda, mu in {0, 3,
    # ..., 99}, with time-sharing support the larger of the vertex's and the
    # uniform point's objectives (see test_dynamic_region_beats_time_sharing),
    # from family points refined around the best point at the best pair.
    best = CapacityWeights(float(lam), float(muw))
    table = refined_family(
        ChannelSpec(d, z=0.9), lambda t: [int(np.argmax(regions._objective(best, t)))]
    )
    gains = {}
    for pair in itertools.product(range(0, 100, 3), repeat=2):
        values = regions._objective(CapacityWeights(*map(float, pair)), table)
        gains[pair] = float(values.max() - max(values[0], values[-1]))
    assert max(gains, key=gains.get) == (lam, muw)
    assert gains[lam, muw] > 0.0
    assert gains[lam, muw] == pytest.approx(gain, abs=1e-4)


@pytest.mark.parametrize(
    "d, z, resolution, cq_gap, ce_gap",
    [
        (2, 0.25, 32, 5.957e-3, 6.510e-3),
        (2, 0.5, 32, 1.021e-2, 1.338e-2),
        (2, 0.75, 32, 9.869e-3, 2.026e-2),
        (3, 0.25, 16, 4.489e-3, 4.369e-3),
        (3, 0.5, 16, 8.255e-3, 8.676e-3),
        (3, 0.75, 16, 8.188e-3, 1.245e-2),
        (4, 0.5, 8, 4.616e-3, 1.864e-3),
        (5, 0.25, 8, 8.460e-4, 2.735e-4),
        (5, 0.5, 8, 3.995e-3, 3.696e-4),
    ],
)
def test_unruh_curves_beat_time_sharing(d, z, resolution, cq_gap, ce_gap):
    # The CQ boundary rises above, and the CE boundary sags below, the
    # time-sharing chord at its midpoint, for the Unruh channel as for a
    # single cloner block (criterion 5).
    spec = ChannelSpec(d, z=z)
    for gap, want in ((cq_midpoint_gap, cq_gap), (ce_midpoint_gap, ce_gap)):
        got, _ = gap(spec, resolution)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("weights", [CapacityWeights(1e308, 0.0), CapacityWeights(0.0, 1e308)])
def test_a_shared_problem_refuses_overflowing_weights(weights):
    # One grid serves many weight pairs; each pair passes the overflow rule
    # that dynamic_capacity applies before its grid.
    problem = DynamicCapacityProblem(ChannelSpec(2, z=0.5), 4)
    with pytest.raises(OverflowError, match="overflow"):
        problem.solve(weights)
    assert math.isfinite(problem.solve(CapacityWeights(1e300, 0.0)).value)


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
    assert pareto_hull_indices(np.array([[0.4, 0.2]])) == [0]


def test_hull_collinear_descending_line_keeps_extremes():
    pts = [(x, 1.0 - x) for x in np.linspace(0.0, 1.0, 9)]
    idx = pareto_hull_indices(pts)
    assert [pts[i] for i in idx] == [(0.0, 1.0), (1.0, 0.0)]


def test_hull_drops_dominated_and_interior_points():
    pts = [(0.0, 1.0), (1.0, 0.0), (0.2, 0.2), (0.6, 0.55), (0.5, 0.5), (0.0, 0.0)]
    idx = pareto_hull_indices(pts)
    kept = [pts[i] for i in idx]
    assert kept == [(0.0, 1.0), (0.6, 0.55), (1.0, 0.0)]


def test_hull_rejects_empty_and_non_2d():
    with pytest.raises(ValueError):
        pareto_hull_indices([])
    with pytest.raises(ValueError):
        pareto_hull_indices(np.array([[0.4, 0.2, 0.1]]))


def test_cq_boundary_beats_time_sharing_chord_d2_k2():
    gap, _ = cq_midpoint_gap(ChannelSpec(d=2, k=2), resolution=200)
    assert gap > 1e-3


def test_ce_boundary_sags_below_chord_d2_k2():
    gap, _ = ce_midpoint_gap(ChannelSpec(d=2, k=2), resolution=200)
    assert gap > 1e-3


def test_cq_noiseless_boundary_is_the_unit_segment():
    curve = cq_curve(ChannelSpec(d=2, k=1), resolution=4)
    boundary = curve.boundary
    assert len(boundary) == 2
    assert boundary[0] == pytest.approx((0.0, 1.0), abs=1e-12)
    assert boundary[1] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert curve.rates.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)


# ---------------------------------------------------------------------------
# Surfaces, grids, specs
# ---------------------------------------------------------------------------

def test_region_surface_corners_are_tight():
    _, surface = region_surface_cqe(ChannelSpec(2, z=0.25), resolution=8)
    assert set(regions.PROTOCOL_RAYS) == {"TP", "SD", "ED"}
    for rates in surface:
        b1, b2, b3 = rates
        c, q, e = cqe_corner(rates)
        assert c + 2 * q == pytest.approx(b1, abs=1e-12)
        assert q + e == pytest.approx(b2, abs=1e-12)
        assert c + q + e == pytest.approx(b3, abs=1e-12)


def test_region_surface_noiseless_contains_super_dense_corner():
    mu, rates = region_surface_cqe(ChannelSpec(2, z=0.0), resolution=4)
    (uniform_row,) = np.flatnonzero(np.all(mu == 0.5, axis=1))
    corner = np.array(cqe_corner(rates[uniform_row]))
    sd_corner = corner + np.array(regions.PROTOCOL_RAYS["SD"])
    assert sd_corner == pytest.approx([2.0, 0.0, -1.0], abs=1e-12)


def test_rps_region_sweep_shapes():
    mu, rates = rps_region(ChannelSpec(2, z=0.5), resolution=8)
    assert mu.shape == (9, 2) and rates.shape == (9, 3)
    assert len(set(rates[:, 0])) == 1  # public bound is ensemble independent


def test_simplex_grid_contents():
    grid = simplex_grid(2, 64)
    assert grid.shape == (65, 2) and grid.dtype == np.int32
    assert not grid.flags.writeable
    grid3 = simplex_grid(3, 64)
    assert len(grid3) == math.comb(66, 2) + 1  # uniform appended (64 not divisible by 3)
    assert np.all(grid3.sum(axis=1) == 64 * 3)  # counts over resolution * d
    tuples = [tuple(row) for row in grid3.tolist()]
    assert tuples == sorted(tuples, reverse=True)
    assert (192, 0, 0) in tuples
    assert (64, 64, 64) in tuples
    with pytest.raises(ValueError):
        simplex_grid(3, 0)


@pytest.mark.parametrize("d, resolution", [(2, 3), (3, 7), (4, 5), (4, 8), (5, 4), (6, 3)])
def test_simplex_grid_matches_enumeration(d, resolution):
    # Every composition times d, plus the uniform row when d does not divide
    # the resolution, sorted lexicographically descending.
    comps = [c for c in itertools.product(range(resolution + 1), repeat=d) if sum(c) == resolution]
    want = {tuple(x * d for x in comp) for comp in comps} | {(resolution,) * d}
    got = [tuple(row) for row in simplex_grid(d, resolution).tolist()]
    assert got == sorted(want, reverse=True)
    # The sweep's ensembles are each composition divided through, and 1/d.
    want_mu = {tuple(x / resolution for x in comp) for comp in comps} | {(1.0 / d,) * d}
    mu, _, _ = regions._sweep(ChannelSpec(d, k=1).evaluator, resolution)
    assert [tuple(row) for row in mu.tolist()] == sorted(want_mu, reverse=True)


@pytest.mark.parametrize("d, resolution", [(10, 14), (1600, 1), (6, 35)])
def test_simplex_grid_admits_every_grid_within_both_caps(d, resolution):
    # The entries cap (points times d) refuses wide grids of few rows (see
    # test_size_cap_exits_3_before_enumerating) but no grid within the point
    # cap at d <= 10, nor one row per mode at d = 1600.
    points = math.comb(resolution + d - 1, d - 1)
    assert points <= regions.MAX_GRID_POINTS and points * d <= regions.MAX_GRID_ENTRIES
    assert simplex_grid(d, resolution).shape == (points + (resolution % d > 0), d)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(d=3)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, k=2, z=0.5)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, k=0)
    with pytest.raises(ValueError):
        ChannelSpec(d=3, z=1.5)
    # The base is checked for a cloner block too; it has no truncation, so
    # any truncation_eps, even a valid one, is refused.
    for bad in ({"log_base": math.inf}, {"log_base": 1.0}, {"truncation_eps": -1.0},
                {"truncation_eps": 1e-3}):
        with pytest.raises(ValueError):
            ChannelSpec(d=2, k=2, **bad)
    with pytest.raises(ValueError, match="truncation_eps must be positive"):
        ChannelSpec(d=2, z=0.5, truncation_eps=0.0)
    # An Unruh spec without one takes UnruhConfig's default.
    assert ChannelSpec(d=2, z=0.5).unruh_config() == regions.UnruhConfig(2, 0.5)
    assert ChannelSpec(d=2, z=0.5, truncation_eps=1e-3).unruh_config().truncation_eps == 1e-3


@pytest.mark.parametrize("channel", [{"z": 0.5}, {"z": 0.5, "log_base": 2.0}, {"k": 3}])
def test_channel_spec_builds_one_config(channel, monkeypatch):
    # The config that checks the spec also gives its base, its horizon and
    # its weights.
    built = []

    class CountedConfig(regions.UnruhConfig):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(regions, "UnruhConfig", CountedConfig)
    spec = ChannelSpec(3, **channel)
    assert spec.base == channel.get("log_base", 3.0)
    if spec.z is not None:
        assert spec.unruh_config() is spec.unruh_config()
        assert spec.horizon_tail == regions.truncation(spec.unruh_config())
    spec.evaluator
    assert len(built) == 1


# Every sweep entry point, called with a channel spec and a resolution.
EVERY_SWEEP = pytest.mark.parametrize(
    "sweep",
    [
        lambda spec, r: cq_curve(spec, r),
        lambda spec, r: ce_curve(spec, r),
        lambda spec, r: region_surface_cqe(spec, r),
        lambda spec, r: rps_region(spec, r),
        lambda spec, r: dynamic_capacity(spec, CapacityWeights(1.0, 0.0), r),
        lambda spec, r: DynamicCapacityProblem(spec, r),
    ],
    ids=["cq_curve", "ce_curve", "region_surface_cqe", "rps_region", "dynamic_capacity", "problem"],
)


@pytest.mark.parametrize("resolution", [0, -3])
@EVERY_SWEEP
def test_sweeps_refuse_a_resolution_below_1_before_the_evaluator(sweep, resolution, forbid):
    # Resolution 0 is refused like -3, not read as "the default grid".
    forbid("built the evaluator past a bad resolution", TradeoffEvaluator, "__init__")
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        sweep(ChannelSpec(2, z=0.5), resolution)


@pytest.mark.parametrize(
    "d, resolution",
    [(12, 64), (90, 3), (300000, 300000)],  # 4.9e12 points, 1.1e7 entries, the bound
    ids=["points", "entries", "bound"],
)
@EVERY_SWEEP
def test_sweeps_refuse_an_over_cap_grid_before_the_channel(sweep, d, resolution, forbid):
    # The grid's caps are asked with the resolution, before the truncation,
    # the block weights and the evaluator.
    message = "built the channel past the grid caps"
    forbid(message, spectra, "truncation")
    forbid(message, regions, "truncation", "unruh_weights")
    forbid(message, TradeoffEvaluator, "__init__")
    with pytest.raises(SizeCapError, match="ensemble points .* exceed cap"):
        sweep(ChannelSpec(d, z=0.5), resolution)


@pytest.mark.parametrize(
    "d, z, eps",
    [(2, 0.3, 0.3), (2, 0.9, 1e-3), (2, 0.95, 1e-2), (3, 0.5, 1e-2), (3, 0.75, 0.3),
     (4, 0.5, 1e-3), (5, 0.3, 1e-2)],
)
def test_tail_bound_bounds_every_rate_the_truncation_moves(d, z, eps):
    # The certificate reported with a run: each CQ, CE, CQE and RPS quantity
    # at the spec's horizon K is within its tail_bound of the same quantity
    # with the tail cut at 1e-13, at the vertex, the uniform point and seeded
    # ensembles.
    spec, deep = ChannelSpec(d, z=z, truncation_eps=eps), ChannelSpec(d, z=z, truncation_eps=1e-13)
    tail_bound = spec.horizon_tail[1]
    assert deep.horizon_tail[0] > spec.horizon_tail[0]
    rng = np.random.default_rng(d)
    ensembles = [EnsembleParams.vertex(d), EnsembleParams.uniform(d)]
    ensembles += [EnsembleParams(tuple(rng.dirichlet(np.ones(d)))) for _ in range(3)]

    def quantities(spec, mu):
        triple = regions.unruh_entropy_triple(spec, mu)
        return [*cq_point(triple), *ce_point(triple), *cqe_bounds(triple), *rps_bounds(spec, mu)]

    for mu in ensembles:
        moved = np.subtract(quantities(spec, mu), quantities(deep, mu))
        assert np.abs(moved).max() <= tail_bound, (mu, moved, tail_bound)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sweep_rejects_nonfinite_rates(bad, monkeypatch):
    # Every entry of a sweep's entropy table passes through EntropyValue.
    evaluator = ChannelSpec(d=2, k=2).evaluator
    monkeypatch.setattr(evaluator, "sums", lambda mu, n=None: (bad, 0.0))
    with pytest.raises(ValueError, match="finite"):
        regions._sweep(evaluator, 4)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_climb_rejects_nonfinite_rates(bad, monkeypatch):
    # The dyncap climb's entropy records pass the same EntropyValue checks.
    problem = DynamicCapacityProblem(ChannelSpec(d=2, z=0.5), 4)
    monkeypatch.setattr(problem.evaluator, "family_sums", lambda a: (bad, 0.0))
    with pytest.raises(ValueError, match="finite"):
        problem.solve(CapacityWeights(1.0, 0.0))


def test_bounds_invariant_under_cyclic_relabeling():
    # Every permutation of the ensemble weights (all of S_d, not only the
    # cyclic shifts) only relabels the occupation basis.
    for spec, mu in ((ChannelSpec(3, z=0.5), (0.6, 0.3, 0.1)), (ChannelSpec(4, z=0.25), (0.4, 0.3, 0.2, 0.1))):
        b_ref = cqe_bounds(unruh_entropy_triple(spec, mu))
        rps_ref = rps_bounds(spec, mu)
        perms = list(itertools.permutations(mu))
        assert len(perms) == math.factorial(spec.d)
        for perm in perms:
            assert cqe_bounds(unruh_entropy_triple(spec, perm)) == pytest.approx(b_ref, abs=1e-12)
            assert rps_bounds(spec, perm) == pytest.approx(rps_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# Orbit reuse in the sweeps
# ---------------------------------------------------------------------------

def count_sums(monkeypatch) -> list:
    """Record the ensemble and integer counts of every
    ``TradeoffEvaluator.sums`` call."""
    calls = []
    original = TradeoffEvaluator.sums

    def counted(self, mu, counts=None):
        calls.append((tuple(mu), counts))
        return original(self, mu, counts)

    monkeypatch.setattr(TradeoffEvaluator, "sums", counted)
    return calls


def count_lattice(monkeypatch) -> list:
    """Record every ``TradeoffEvaluator.lattice_entropies`` call: its
    ensembles, and each (E, d) stack it evaluates on the lattice kernel, as
    the stack's ensembles and its ``swap`` flag."""
    calls, inside = [], []
    lattice, stack = TradeoffEvaluator.lattice_entropies, TradeoffEvaluator._lattice_entropies

    def counted(self, mus):
        calls.append(([tuple(mu) for mu in mus.tolist()], []))
        inside.append(True)
        try:
            return lattice(self, mus)
        finally:
            inside.pop()

    def stacked(self, mus, swap=False):
        if inside:
            calls[-1][1].append(([tuple(mu) for mu in mus.tolist()], swap))
        return stack(self, mus, swap)

    monkeypatch.setattr(TradeoffEvaluator, "lattice_entropies", counted)
    monkeypatch.setattr(TradeoffEvaluator, "_lattice_entropies", stacked)
    return calls


def orbit_count(grid) -> int:
    return len({tuple(sorted(mu)) for mu in grid.tolist()})


def test_orbit_sweeps_match_per_point_evaluation():
    for spec, resolution in ((ChannelSpec(3, z=0.5), 7), (ChannelSpec(4, z=0.25), 5)):
        grid = simplex_grid(spec.d, resolution) / (resolution * spec.d)
        # R is not a multiple of d, so the uniform point is added.
        assert (1.0 / spec.d,) * spec.d in [tuple(mu) for mu in grid.tolist()]
        assert orbit_count(grid) < len(grid)
        cqe_mu, cqe_rates = region_surface_cqe(spec, resolution)
        rps_mu, rps_rates = rps_region(spec, resolution)
        assert np.array_equal(cqe_mu, grid) and np.array_equal(rps_mu, grid)
        for mu, cqe_row, rps_row in zip(grid, cqe_rates, rps_rates):
            want = cqe_bounds(unruh_entropy_triple(spec, mu))
            assert cqe_row == pytest.approx(want, abs=1e-12)
            assert rps_row == pytest.approx(rps_bounds(spec, mu), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sweep_orbits_are_the_first_rows_with_their_reduced_counts(d):
    # The sweep divides the grid's counts over resolution * d through once,
    # and maps each orbit's first row to its counts reduced by their gcd;
    # every resolution up to 12 is covered, and the default.
    evaluator = ChannelSpec(d, k=1).evaluator
    for resolution in [*range(1, 13), sweep_resolution(d)]:
        if math.comb(resolution + d - 1, d - 1) > MAX_GRID_POINTS:
            continue
        mu, _, orbits = regions._sweep(evaluator, resolution)
        assert np.array_equal(mu, simplex_grid(d, resolution) / (resolution * d))
        assert not mu.flags.writeable
        assert orbits == orbit_counts(mu, resolution), resolution
        (uniform,) = np.flatnonzero(np.all(mu == 1.0 / d, axis=1))
        assert orbits[uniform] == (1,) * d, resolution


@pytest.mark.parametrize("d", range(2, 9))
def test_orbit_enumeration_matches_the_grid(d):
    # The sweep prices its orbits before the grid is built, from the
    # partitions of the resolution: they must be the grid's orbits, each
    # once, with the counts the sweep evaluates (descending, over their gcd).
    for resolution in range(1, 41):
        points = math.comb(resolution + d - 1, d - 1)
        if points > MAX_GRID_POINTS or points * d > MAX_GRID_ENTRIES:
            continue
        rows = np.sort(simplex_grid(d, resolution), axis=1)[:, ::-1]
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * d))).ravel()
        rows = rows[np.unique(keys, return_index=True)[1]]
        want = rows // np.gcd.reduce(rows, axis=1)[:, None]
        got = regions._orbit_counts(d, resolution)
        assert sorted(got) == sorted(map(tuple, want.tolist())), resolution


def test_region_sweeps_evaluate_each_orbit_once(monkeypatch):
    calls = count_sums(monkeypatch)
    _, rates = region_surface_cqe(ChannelSpec(5, z=0.5), 4)
    assert rates.shape == (71, 3)
    # The 5 partitions of 4, plus the uniform point; each evaluated at its
    # descending-sorted member, the first one the grid meets, with its counts
    # over 4 * 5 reduced by their gcd.
    assert len(calls) == 6
    assert all(
        list(mu) == sorted(mu, reverse=True) and counts == reduced_counts(mu, 20)
        for mu, counts in calls
    )

    calls.clear()
    spec = ChannelSpec(3, z=0.5)
    rps_region(spec, 8)
    assert len(calls) == orbit_count(simplex_grid(3, 8)) == 11

    calls.clear()
    problem = DynamicCapacityProblem(spec, resolution=8)
    assert len(calls) == 11 and len(problem.grid) == 46


def test_curves_evaluate_each_orbit_once_plus_the_tied_mates_of_hull_vertices(monkeypatch):
    # One evaluation per orbit, at its first row with its reduced counts;
    # then every row tied with a hull vertex once more on its own without
    # them, since its last bits decide which of the tied rows the hull flags,
    # except an orbit's first row that the sweep ran on the lattice: it holds
    # its own bits already.  Those rows are one lattice_entropies call, in
    # grid order.  At d = 2 each is a lone evaluation.  From d = 3 on they
    # run in stacks of at most stack_rows: the heads of the swap pairs (two
    # rows that differ by a swap of weights 1 and 2), then the single rows;
    # the single rows and both rows of every pair are the rows evaluated
    # again, each once.
    calls = count_sums(monkeypatch)
    lattice = count_lattice(monkeypatch)
    cases = {
        "d3-z0.5": (ChannelSpec(3, z=0.5), 8),
        "d3-k4": (ChannelSpec(3, k=4), 8),
        "d2-z0.5": (ChannelSpec(2, z=0.5), 64),
        "d4-z0.5": (ChannelSpec(4, z=0.5), 8),
        "d5-z0.25": (ChannelSpec(5, z=0.25), 6),
    }
    sizes = {}
    for name, (spec, resolution) in cases.items():
        for curve in (cq_curve, ce_curve):
            calls.clear()
            lattice.clear()
            result = curve(spec, resolution)
            rows = [tuple(mu) for mu in result.mu.tolist()]
            orbits = orbit_counts(result.mu, resolution)
            again = reevaluated_rows(spec, result, resolution)
            assert sorted(calls) == sorted((rows[i], c) for i, c in orbits.items())
            tied = tied_rows(result.rates, result.hull_indices)
            ((evaluated, stacks),) = lattice
            assert evaluated == [rows[i] for i in again]
            heads = [mu for mus, swap in stacks if swap for mu in mus]
            singles = [mu for mus, swap in stacks if not swap for mu in mus]
            if spec.d == 2:
                assert heads == [] and len(stacks) == len(singles)  # lone evaluations
            flags = [swap for _, swap in stacks]
            assert flags == sorted(flags, reverse=True)  # the pairs first
            limit = engine.stack_rows(spec.d, spec.evaluator.horizon)
            assert all(len(mus) <= limit for mus, _ in stacks)
            mates = [(mu[0], mu[2], mu[1], *mu[3:]) for mu in heads]
            assert all(mu != mate for mu, mate in zip(heads, mates))
            # A single row's swap mate is itself, or not evaluated again.
            swapped = [(mu[0], mu[2], mu[1], *mu[3:]) for mu in singles if spec.d > 2]
            assert all(mate == mu or mate not in singles for mu, mate in zip(singles, swapped))
            assert sorted(heads + mates + singles) == sorted(evaluated)
            sizes[name, curve.__name__] = (len(orbits), len(tied), len(again), len(heads))
    # (orbits, tied rows, rows evaluated again, swap pairs among them).  At
    # d >= 3 every orbit ran on the histogram, so every tied row is
    # evaluated again; d = 2 ran all on the lattice (33 + 30 evaluations for
    # the 65 rows of the CQ curve), and has no pairs.  At d = 5, z = 0.25 the
    # CQ curve has 2 pairs and 7 single rows, stacks of 4 rows.
    assert sizes == {
        ("d3-z0.5", "cq_curve"): (11, 16, 16, 6),
        ("d3-z0.5", "ce_curve"): (11, 7, 7, 2),
        ("d3-k4", "cq_curve"): (11, 22, 22, 9),
        ("d3-k4", "ce_curve"): (11, 7, 7, 2),
        ("d2-z0.5", "cq_curve"): (33, 61, 30, 0),
        ("d2-z0.5", "ce_curve"): (33, 63, 31, 0),
        ("d4-z0.5", "cq_curve"): (15, 33, 33, 12),
        ("d4-z0.5", "ce_curve"): (15, 9, 9, 2),
        ("d5-z0.25", "cq_curve"): (11, 11, 11, 2),
        ("d5-z0.25", "ce_curve"): (11, 6, 6, 1),
    }
    assert engine.stack_rows(5, ChannelSpec(5, z=0.25).evaluator.horizon) == 4


@pytest.mark.parametrize("name", ["cq", "ce"])
@pytest.mark.parametrize(
    "spec, resolutions",
    [
        (ChannelSpec(2, z=0.5), (16, 33)),
        (ChannelSpec(2, k=3, log_base=10.0), (16, 33)),
        (ChannelSpec(3, z=0.5, log_base=2.0), (8, 13)),
        (ChannelSpec(3, k=4), (8, 13)),
        (ChannelSpec(3, z=0.75), (16,)),
        (ChannelSpec(3, k=40), (13, 16)),
        (ChannelSpec(4, z=0.2), (5, 8)),
        (ChannelSpec(4, k=3), (5, 8)),
        (ChannelSpec(5, z=0.1), (4, 6)),
        (ChannelSpec(5, k=10), (4, 6)),
    ],
    ids=[
        "d2-z0.5", "d2-k3-base10", "d3-z0.5-base2", "d3-k4", "d3-z0.75", "d3-k40",
        "d4-z0.2", "d4-k3", "d5-z0.1", "d5-k10",
    ],
)
def test_orbit_curves_match_per_point_evaluation(name, spec, resolutions, monkeypatch):
    # Oracle: every grid row evaluated on its own, then hulled.  The orbit
    # curve flags the same rows, with the same bits on every row that can
    # decide a flag, and every other row within rounding.
    curve, point, sign = {"cq": (cq_curve, cq_point, 1.0), "ce": (ce_curve, ce_point, -1.0)}[name]
    histogram = kernels.histogram_entropy
    on_histogram = []

    def spy(*args):
        on_histogram.append(args[0])
        return histogram(*args)

    monkeypatch.setattr(kernels, "histogram_entropy", spy)
    for resolution in resolutions:
        on_histogram.clear()
        result = curve(spec, resolution)
        # The gate sends orbits at d >= 3 to the histogram kernel; the oracle
        # below must not pass only because every row ran on the lattice.
        assert bool(on_histogram) == (spec.d > 2)
        want = np.array([point(regions._evaluated_triple(spec.evaluator, mu)) for mu in result.mu])
        hull = tuple(pareto_hull_indices(want * (1.0, sign)))
        assert result.hull_indices == hull
        exact = tied_rows(want, hull)
        assert np.array_equal(result.rates[exact], want[exact])
        assert np.abs(result.rates - want).max() <= 1e-12
