import math

import numpy as np
import pytest

from unruhcap import engine, kernels, regions
from unruhcap.combinat import SizeCapError, block_normalizer
from unruhcap.engine import MAX_LATTICE_TERMS, TradeoffEvaluator, grid_counts, pick_kernel
from unruhcap.entropy import ensemble_conditional_entropy_A, shannon_entropy
from unruhcap.spectra import (
    UnruhConfig,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation_horizon,
)


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


def test_block_family_skips_floor_atoms_and_inactive_blocks():
    # Receiver atoms of block j+0 are [0.5, PROB_FLOOR, 1e-16, 0]: only 0.5
    # contributes.  Block j+1 and every environment block have a zero inverse
    # normalizer, so their atoms are all 0 and must add exactly nothing.
    a_sub = np.array([0.5, kernels.PROB_FLOOR, 1e-16, 0.0])
    inv_b = np.array([1.0, 0.0])
    inv_e = np.zeros(2)
    out_b = np.zeros(5)
    out_e = np.zeros(5)
    kernels.block_family_entropy(a_sub, 0.0, inv_b, inv_e, 1.0, out_b, out_e, 2)
    assert out_b.tolist() == [0.0, 0.0, -(0.5 * np.log(0.5)), 0.0, 0.0]
    assert out_e.tolist() == [0.0] * 5


def test_engine_matches_spectra_route_per_block():
    # Dual route: streamed kernel accumulation vs explicit spectrum objects.
    rng = np.random.default_rng(23)
    for d, k in ((2, 3), (3, 4), (4, 3), (5, 2)):
        weights = np.zeros(k)
        weights[-1] = 1.0
        evaluator = TradeoffEvaluator(d, weights, base=float(d))
        for _ in range(5):
            mu = rng.dirichlet(np.ones(d))
            h_bx, h_ex = evaluator.block_entropies(mu)
            for kk in range(1, k + 1):
                ref_b = shannon_entropy(ensemble_spectrum_B(d, kk, tuple(mu)), float(d)).value
                ref_e = shannon_entropy(ensemble_spectrum_E(d, kk, tuple(mu)), float(d)).value
                assert h_bx[kk - 1] == pytest.approx(ref_b, abs=1e-12)
                assert h_ex[kk - 1] == pytest.approx(ref_e, abs=1e-12)


def test_engine_weighted_sums_match_blockwise_dot():
    cfg = UnruhConfig(3, 0.4, log_base=2.0)
    spec = regions.ChannelSpec.from_unruh(cfg)
    evaluator = spec.evaluator()
    mu = np.array([0.6, 0.3, 0.1])
    h_bx, h_ex = evaluator.block_entropies(mu)
    s_bx, s_ex = evaluator.sums(mu)
    assert s_bx == pytest.approx(float(evaluator.weights @ h_bx), abs=1e-14)
    assert s_ex == pytest.approx(float(evaluator.weights @ h_ex), abs=1e-14)


def test_evaluator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TradeoffEvaluator(1, np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        TradeoffEvaluator(2, np.array([-0.5, 1.5]), 2.0)
    with pytest.raises(ValueError):
        TradeoffEvaluator(2, np.array([1.0]), 1.0)
    evaluator = TradeoffEvaluator(2, np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        evaluator.block_entropies(np.array([0.5, 0.3, 0.2]))


def random_grid_points(rng, d, count):
    """Seeded random (counts, n) with counts a composition of n over d slots."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        cuts = np.sort(rng.integers(0, n + 1, d - 1))
        yield np.diff(np.concatenate(([0], cuts, [n]))), n


def test_histogram_kernel_matches_spectra_route_and_lattice_per_block():
    rng = np.random.default_rng(31)
    horizon = 5
    for d in (2, 3, 4, 5, 6):
        evaluator = TradeoffEvaluator(d, np.full(horizon, 1.0 / horizon), float(d))
        inv_norm = np.array([1.0 / block_normalizer(d, k) for k in range(1, horizon + 1)])
        for counts, n in random_grid_points(rng, d, 4):
            mu = counts / n
            h_b, h_e = kernels.histogram_entropy(tuple(counts), n, inv_norm, 1.0 / np.log(d))
            lat_b, lat_e = evaluator.block_entropies(mu)
            assert np.abs(h_b - lat_b).max() <= 1e-12
            assert np.abs(h_e - lat_e).max() <= 1e-12
            for k in range(1, horizon + 1):
                ref_b = shannon_entropy(ensemble_spectrum_B(d, k, tuple(mu)), float(d)).value
                ref_e = shannon_entropy(ensemble_spectrum_E(d, k, tuple(mu)), float(d)).value
                assert h_b[k - 1] == pytest.approx(ref_b, abs=1e-12)
                assert h_e[k - 1] == pytest.approx(ref_e, abs=1e-12)


def test_cost_function_picks_each_kernel():
    # A region-d5 orbit: 2.6M lattice terms against a few thousand cells.
    k5 = regions.ChannelSpec(d=5, z=0.5).evaluator().horizon
    assert pick_kernel(5, k5, grid_counts(np.array([2, 1, 1, 0, 0]) / 4, 4)[0]) == "histogram"
    # An interior d = 2 point of a long horizon: 142k lattice terms against
    # a histogram of 533 rows by thousands of values.
    k2 = regions.ChannelSpec(d=2, z=0.95).evaluator().horizon
    counts, n = grid_counts(np.array([40, 24]) / 64, 64)
    assert (counts, n) == ((5, 3), 8)
    assert pick_kernel(2, k2, counts) == "lattice"
    # An off-grid point has only the lattice kernel.
    assert pick_kernel(5, k5) == "lattice"
    # d = 8, z = 0.75: the lattice is over its cap, and the histogram of the
    # uniform point (counts (1,) * 8) has 21,406 cells.
    k8 = truncation_horizon(UnruhConfig(8, 0.75))
    assert math.comb(k8 + 8, 8) > MAX_LATTICE_TERMS
    assert pick_kernel(8, k8, (1,) * 8) == "histogram"
    # Both over their caps: off the grid, or a histogram of 1.9e7 cells.
    with pytest.raises(SizeCapError, match="needs a grid point"):
        pick_kernel(8, k8)
    with pytest.raises(SizeCapError, match="cells"):
        pick_kernel(8, k8, (1000, 1))
    # d = 10, z = 0.9: the vertex histogram has 180,200 cells, within its
    # cap, but dim_K = 1.3e18 >= 2**53 would make its float counts inexact.
    k10 = truncation_horizon(UnruhConfig(10, 0.9))
    assert math.comb(k10 + 9, 9) >= 2**53
    with pytest.raises(SizeCapError, match=r"2\*\*53"):
        pick_kernel(10, k10, (1,))
    # d = 9, K = 300: 95,718 cells and 1e15 < dim_K < 2**53, but the uniform
    # row's atoms 1/dim_K would fall below PROB_FLOOR and read as zero.
    assert 10**15 < math.comb(308, 8) < 2**53
    with pytest.raises(SizeCapError, match="least atom"):
        pick_kernel(9, 300, (1,) * 9)


def test_size_gate_keeps_every_histogram_atom_above_the_floor():
    # At d = 9 and the uniform row (n = 9), K = 146 is the last horizon with
    # n M_K < 1e15.  There every block's receiver atoms are 1/dim_k and its
    # environment atoms 1/dim_{k-1}, whatever the floor.
    assert 9 * block_normalizer(9, 146) < 10**15 <= 9 * block_normalizer(9, 147)
    with pytest.raises(SizeCapError, match="least atom"):
        pick_kernel(9, 147, (1,) * 9)
    assert pick_kernel(9, 146, (1,) * 9) == "histogram"
    h_b, h_e = TradeoffEvaluator(9, np.ones(146), 9.0).block_entropies(np.full(9, 1 / 9), 9)
    log_dims = np.log([math.comb(k + 8, 8) for k in range(147)]) / math.log(9)
    np.testing.assert_allclose(h_b, log_dims[1:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(h_e, log_dims[:-1], rtol=0, atol=1e-12)


def test_grid_counts_reduce_and_refuse_off_grid_points():
    assert grid_counts(np.full(3, 1.0 / 3), 21) == ((1, 1, 1), 3)
    assert grid_counts(np.array([1.0, 0.0]), 128) == ((1, 0), 1)
    evaluator = TradeoffEvaluator(3, np.array([0.5, 0.5]), 3.0)
    with pytest.raises(ValueError, match="grid"):
        evaluator.block_entropies(np.array([0.5, 0.3, 0.2]), 4)
    with pytest.raises(ValueError, match="grid"):
        evaluator.sums(np.array([0.6, 0.3, 0.1]), 7)


def test_histogram_only_sweep_builds_no_lattice_table(monkeypatch):
    # cqe-region --d 5 --z 0.75 --grid 4: the lattice would scan 2.1e8 terms
    # per orbit; every orbit goes to the histogram, so no table is built.
    def refuse(*args):
        raise AssertionError(f"built lattice table {args}")

    monkeypatch.setattr(engine, "composition_matrix", refuse)
    mu, rates = regions.region_surface_cqe(UnruhConfig(5, 0.75), 4)
    assert rates.shape == (71, 3)
    for row, (b1, _, b3) in zip(mu, rates):
        h_a = ensemble_conditional_entropy_A(tuple(row), 5.0).value
        assert b1 - b3 == pytest.approx(h_a, abs=1e-12)
