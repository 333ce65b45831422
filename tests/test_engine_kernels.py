import math
import os

import numpy as np
import pytest

from tradeoff_helpers import orbit_counts, reevaluated_rows
from unruhcap import cli, engine, kernels, regions
from unruhcap.combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix
from unruhcap.engine import MAX_LATTICE_TERMS, TradeoffEvaluator, pick_kernel
from unruhcap.entropy import ensemble_conditional_entropy_A, shannon_entropy
from unruhcap.spectra import (
    UnruhConfig,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation_horizon,
)


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


def test_block_family_skips_zero_atoms_and_inactive_blocks():
    # Receiver atoms of block j+0 are [0.5, 1e-16, 0]: the exact 0 adds
    # nothing, and the 1e-16 atom adds its -3.7e-15, about 66 units in the
    # last place of the total.  Block j+1 and every environment block have a
    # zero inverse normalizer, so their atoms are all 0 and add nothing.
    a_sub = np.array([0.5, 1e-16, 0.0])
    inv_b = np.array([1.0, 0.0])
    inv_e = np.zeros(2)
    out_b = np.zeros(5)
    out_e = np.zeros(5)
    # The kernel's accumulator holds environment block k+1 at column k.
    out = np.stack((out_b[:-1], out_e[1:]))
    mu_b1 = 0.0 * np.arange(2.0)[:, None]
    kernels.block_family_entropy(a_sub, np.stack((inv_b, inv_e))[:, :, None], mu_b1, 1.0, out, 2)
    out_b[:-1], out_e[1:] = out
    h = -(0.5 * np.log(0.5) + 1e-16 * np.log(1e-16))
    assert h != -(0.5 * np.log(0.5))
    assert out_b.tolist() == [0.0, 0.0, h, 0.0, 0.0]
    assert out_e.tolist() == [0.0] * 5


def _per_side_block_family(a_sub, mu1, inv_b, inv_e, inv_ln_base, out_b, out_e, j):
    """The lattice kernel written one side at a time, with zero atoms masked."""
    m = inv_b.shape[0]
    x = mu1 * np.arange(m, dtype=np.float64)[:, None] + a_sub[None, :]
    for shift, inv, out, off in ((0.0, inv_b, out_b, 0), (1.0, inv_e, out_e, 1)):
        p = (x + shift) * inv[:, None]
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        out[j + off : j + off + m] -= terms.sum(axis=1) * inv_ln_base


def test_lattice_kernel_bits_match_the_per_side_formula():
    # Equality is bitwise, not to a tolerance: the CQ/CE curves flag one of
    # several orbit-mates whose rates tie up to the last bit, so any change
    # in the kernel's rounding can move an on_hull flag of existing outputs.
    rng = np.random.default_rng(20261018)
    specials = [0.0, 5e-324, 1e-300, 1e-15, 1e-16]
    for _ in range(300):
        m, length, j = int(rng.integers(1, 12)), int(rng.integers(1, 400)), int(rng.integers(0, 6))
        a_sub = rng.uniform(0.0, 3.0, length) * rng.choice([1.0, 1e-14, 40.0], length)
        a_sub[rng.random(length) < 0.2] = rng.choice(specials)
        mu1 = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        inv_b, inv_e = rng.uniform(1e-3, 1.0, (2, m)) * rng.choice([1.0, 1e-16], (2, m))
        for inv in (inv_b, inv_e):  # zero normalizers; unit ones keep the tiny atoms
            inv[rng.random(m) < 0.2] = 0.0
            inv[rng.random(m) < 0.2] = 1.0
        inv_ln_base = 1.0 / math.log(float(rng.uniform(1.5, 9.0)))
        out_b, out_e = rng.normal(size=(2, j + m + 2))
        want_b, want_e = out_b.copy(), out_e.copy()
        _per_side_block_family(a_sub, mu1, inv_b, inv_e, inv_ln_base, want_b, want_e, j)
        out = np.stack((out_b[:-1], out_e[1:]))  # environment block k+1 at column k
        mu_b1 = mu1 * np.arange(m, dtype=np.float64)[:, None]
        inv_norm = np.stack((inv_b, inv_e))[:, :, None]
        kernels.block_family_entropy(a_sub, inv_norm, mu_b1, inv_ln_base, out, j)
        out_b[:-1], out_e[1:] = out
        assert np.array_equal(out_b, want_b) and np.array_equal(out_e, want_e)


def _per_sub_weight_block_entropies(evaluator, mu):
    """The lattice evaluation as one loop over sub-weights j: a zero vector
    plus the column products of weight j's own table, then the per-side
    kernel."""
    d, horizon = evaluator.d, evaluator.horizon
    inv_norm = np.zeros(horizon + 2)
    for k in range(1, horizon + 1):
        inv_norm[k] = 1.0 / float(block_normalizer(d, k))
    inv_ln_base = 1.0 / math.log(evaluator.base)
    out_b = np.zeros(horizon + 2)
    out_e = np.zeros(horizon + 2)
    for j in range(horizon + 1):
        comps = composition_matrix(d - 1, j)
        a_sub = np.zeros(comps.shape[0])
        for c in range(d - 1):
            a_sub += comps[:, c] * mu[c + 1]
        _per_side_block_family(
            a_sub, float(mu[0]), inv_norm[j : horizon + 1], inv_norm[j + 1 : horizon + 2],
            inv_ln_base, out_b, out_e, j,
        )
    return out_b[1 : horizon + 1], out_e[1 : horizon + 1]


@pytest.mark.parametrize("d, horizon", [(2, 120), (3, 100), (4, 12), (5, 6)])
def test_engine_bits_match_the_per_sub_weight_loop(d, horizon):
    # Bitwise, as for the kernel: the evaluation takes all trailing dot
    # products at once, but every block must keep its last bit.
    rng = np.random.default_rng(1000 + d)
    evaluator = TradeoffEvaluator(d, rng.uniform(0.0, 1.0, horizon), float(d))
    points = [np.full(d, 1.0 / d), np.eye(d)[0], np.eye(d)[-1]]
    for _ in range(4):
        mu = rng.dirichlet(np.ones(d))
        points.append(mu)
        zeroed = mu.copy()
        zeroed[rng.random(d) < 0.5] = 0.0
        if zeroed.sum() > 0.0:
            points.append(zeroed / zeroed.sum())
    for mu in points:
        want_b, want_e = _per_sub_weight_block_entropies(evaluator, mu)
        got_b, got_e = evaluator.block_entropies(mu)
        assert np.array_equal(got_b, want_b) and np.array_equal(got_e, want_e)


def test_lattice_evaluation_keeps_the_traced_call_shape(monkeypatch):
    # The benchmark tracer counts one evaluation per block_entropies call
    # and len(args[0]) * len(args[2]) terms per kernel call.  A curve
    # evaluates each orbit once with its counts, on the kernel the gate
    # picks, then every row tied with a hull vertex once more without them,
    # on the lattice, but for the orbits' first rows the sweep ran there.
    spec = regions.ChannelSpec(3, z=0.5)
    curve = regions.cq_curve(spec, 4)
    orbits = orbit_counts(curve.mu, 4)
    again = reevaluated_rows(spec, curve, 4)
    evals, horizons = [], []
    kernel, evaluate = kernels.block_family_entropy, TradeoffEvaluator.block_entropies
    weights = regions.unruh_weights

    def record_eval(self, mu, counts=None):
        evals.append((np.array(mu), counts, []))
        return evaluate(self, mu, counts)

    def record_kernel(*args):
        evals[-1][2].append((len(args[0]), len(args[2]), args[-1]))
        return kernel(*args)

    def record_weights(*args):
        result = weights(*args)
        horizons.append(len(result))
        return result

    monkeypatch.setattr(kernels, "block_family_entropy", record_kernel)
    monkeypatch.setattr(TradeoffEvaluator, "block_entropies", record_eval)
    monkeypatch.setattr(regions, "unruh_weights", record_weights)
    assert cli.main(["cq-curve", "--d", "3", "--z", "0.5", "--grid", "4", "-o", os.devnull]) == 0
    horizon = truncation_horizon(UnruhConfig(3, 0.5))
    assert horizons == [horizon]
    # One per orbit with its reduced counts, then one per tied row that
    # does not hold its own lattice bits yet.
    assert sorted(counts for _, counts, _ in evals[: len(orbits)]) == sorted(orbits.values())
    assert [counts for _, counts, _ in evals[len(orbits) :]] == [None] * len(again)
    on_lattice = [
        counts is None or pick_kernel(3, horizon, counts) == "lattice" for _, counts, _ in evals
    ]
    assert not all(on_lattice)  # some orbits ran on the histogram
    lattice_calls = [(j + 1, horizon + 1 - j, j) for j in range(horizon + 1)]
    for (mu, _, calls), lattice in zip(evals, on_lattice):
        assert mu.shape == (3,)
        assert calls == (lattice_calls if lattice else [])


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
    evaluator = regions.ChannelSpec(3, z=0.4, log_base=2.0).evaluator
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


def test_grid_counts_must_name_the_ensemble_exactly():
    # The kernel reads the counts alone, so counts of another ensemble would
    # return that ensemble's entropies.  Counts without a positive sum are
    # refused before the division: (0, 0, 0) has no quotient, and
    # (-2, -1, -1) divides to the ensemble exactly but is no grid point.
    evaluator = regions.ChannelSpec(3, z=0.5).evaluator
    for mu, counts in (
        ([0.5, 0.25, 0.25], (1, 1, 1)),
        ([0.5, 0.25, 0.25], (2, 1, 1, 0)),
        ([1 / 3, 1 / 3, 1 / 3 + 1e-16], (1, 1, 1)),
        ([0.5, 0.25, 0.25], (0, 0, 0)),
        ([0.5, 0.25, 0.25], (1, -1, 0)),
        ([0.5, 0.25, 0.25], (-2, -1, -1)),
    ):
        with pytest.raises(ValueError, match="counts"):
            evaluator.sums(np.array(mu), counts)
    # Quotients equal to mu are accepted, reduced or not.
    want = evaluator.sums(np.array([0.5, 0.25, 0.25]))
    for counts in ((2, 1, 1), (4, 2, 2)):
        assert evaluator.sums(np.array([0.5, 0.25, 0.25]), counts) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("a", [-0.25, 1.5, math.nan, math.inf])
def test_family_sums_refuse_a_outside_the_unit_interval(a):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TradeoffEvaluator(3, np.array([0.5, 0.5]), 3.0).family_sums(a)


def random_grid_points(rng, d, count):
    """Seeded random (counts, n) with counts a composition of n over d slots."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        cuts = np.sort(rng.integers(0, n + 1, d - 1))
        yield np.diff(np.concatenate(([0], cuts, [n]))), n


def tied_grid_points(rng, d):
    """Seeded (counts, n), one for each start of the histogram kernel: all
    counts equal, zero the commonest count, a nonzero count the commonest,
    and all counts distinct.  Below d = 3 a count can be the commonest only
    in a tie."""
    ties = max(1, min(d - 1, d // 2 + 1))
    c = int(rng.integers(1, 4))
    others = rng.integers(1, 6, d - ties)
    cases = [
        np.full(d, c),
        np.concatenate((np.zeros(ties, dtype=np.int64), others)),
        np.concatenate((np.full(ties, c), np.where(others == c, 0, others))),
        rng.choice(2 * d, d, replace=False),
    ]
    for counts in cases:
        counts = rng.permutation(counts)
        yield counts, int(counts.sum())


def test_histogram_kernel_matches_spectra_route_and_lattice_per_block():
    rng = np.random.default_rng(31)
    horizon = 5
    for d in (2, 3, 4, 5, 6):
        evaluator = TradeoffEvaluator(d, np.full(horizon, 1.0 / horizon), float(d))
        inv_norm = np.array([1.0 / block_normalizer(d, k) for k in range(1, horizon + 1)])
        for counts, n in random_grid_points(rng, d, 4):
            mu = counts / n
            h_b, h_e = kernels.histogram_entropy(tuple(counts), inv_norm, 1.0 / np.log(d))
            lat_b, lat_e = evaluator.block_entropies(mu)
            assert np.abs(h_b - lat_b).max() <= 1e-12
            assert np.abs(h_e - lat_e).max() <= 1e-12
            for k in range(1, horizon + 1):
                ref_b = shannon_entropy(ensemble_spectrum_B(d, k, tuple(mu)), float(d)).value
                ref_e = shannon_entropy(ensemble_spectrum_E(d, k, tuple(mu)), float(d)).value
                assert h_b[k - 1] == pytest.approx(ref_b, abs=1e-12)
                assert h_e[k - 1] == pytest.approx(ref_e, abs=1e-12)


@pytest.mark.parametrize(
    "d, horizon, base",
    [(2, 33, 10.0), (3, 15, 3.0), (3, 16, 3.0), (3, 17, 3.0), (4, 16, 4.0), (5, 17, 5.0), (6, 16, 6.0)],
)
def test_histogram_kernel_matches_spectra_route_across_chunks(d, horizon, base):
    # Blocks are built 16 at a time, each mode carrying its last row into the
    # next chunk: K below, at and past a chunk multiple, and two past.
    assert kernels.HISTOGRAM_CHUNK == 16
    rng = np.random.default_rng(100 * d + horizon)
    inv_norm = np.array([1.0 / block_normalizer(d, k) for k in range(1, horizon + 1)])
    points = list(random_grid_points(rng, d, 3))
    points.append((np.eye(d, dtype=np.int64)[0], 1))  # the vertex: d - 1 zero counts
    points += tied_grid_points(rng, d)
    for counts, n in points:
        mu = tuple(counts / n)
        want = np.array([
            [shannon_entropy(spectrum(d, k, mu), base).value for k in range(1, horizon + 1)]
            for spectrum in (ensemble_spectrum_B, ensemble_spectrum_E)
        ])
        # The counts as given, and times 3 (gcd-reducible): the same atoms.
        for scale in (1, 3):
            got = kernels.histogram_entropy(
                tuple(int(c) * scale for c in counts), inv_norm, 1.0 / math.log(base)
            )
            assert np.abs(np.array(got) - want).max() <= 1e-12


def _per_mode_histogram_entropy(counts, n, inv_norm, inv_ln_base):
    """The histogram kernel with one count pass per mode, each chunk's rows
    starting from zero: the closed-form start of the commonest count must
    reproduce its bits."""
    horizon = inv_norm.shape[0]
    width = (horizon - 1) * max(counts) + n + 1
    v = np.arange(width, dtype=np.float64)
    vlogv = v * np.log(np.maximum(v, 1.0))
    hist = np.zeros((kernels.HISTOGRAM_CHUNK + 1, n + width))
    nk = hist[:, n:]
    carry = np.zeros((len(counts), width))
    carry[:, 0] = 1.0
    sums = np.empty((2, 2, horizon))
    for k0 in range(0, horizon, kernels.HISTOGRAM_CHUNK):
        m = min(kernels.HISTOGRAM_CHUNK, horizon - k0)
        nk[1:] = 0.0
        for i, c in enumerate(counts):
            nk[0] = carry[i]
            for r in range(1, m + 1):
                nk[r, c:] += nk[r - 1, : width - c]
            carry[i] = nk[m]
        for side, rows in enumerate((nk[1 : m + 1], hist[:m, :width])):
            np.matmul(rows, vlogv, out=sums[0, side, k0 : k0 + m])
            np.matmul(rows, v, out=sums[1, side, k0 : k0 + m])
    s = inv_norm / n
    h = s * (sums[0] + np.log(s) * sums[1])
    h *= -inv_ln_base
    return h[0], h[1]


@pytest.mark.parametrize(
    "d, horizon", [(d, k) for d in (2, 3, 4, 5, 6) for k in (15, 16, 17, 33)] + [(5, 327)]
)
def test_histogram_kernel_bits_match_the_per_mode_dp(d, horizon):
    # Bitwise: every count is an exact integer either way, and each matmul
    # reads the same rows, so the golden outputs keep their last digits.
    # K = 327 is the horizon of cqe-region --d 5 --z 0.9.
    rng = np.random.default_rng(1000 * d + horizon)
    inv_norm = np.array([1.0 / block_normalizer(d, k) for k in range(1, horizon + 1)])
    for counts, n in tied_grid_points(rng, d):
        counts = tuple(int(c) for c in counts)
        got = kernels.histogram_entropy(counts, inv_norm, 1.0 / math.log(d))
        want = _per_mode_histogram_entropy(counts, n, inv_norm, 1.0 / math.log(d))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), counts


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_vertex_private_bound_is_exactly_zero(d):
    # At a vertex the receiver and environment spectra of every block are
    # one multiset, so each block's two entropies, and P+S = H(B|X) - H(E|X),
    # must tie exactly; from d = 3 on the vertex orbit runs on the histogram
    # kernel.  The weighted sums can hide a last-bit split of one block, so
    # the blocks are compared too.
    spec = regions.ChannelSpec(d, z=0.25)
    assert (pick_kernel(d, spec.evaluator.horizon, (1,)) == "histogram") == (d > 2)
    h_b, h_e = spec.evaluator.block_entropies(np.eye(d)[0], (1,) + (0,) * (d - 1))
    assert np.array_equal(h_b, h_e)
    mu, rates = regions.rps_region(spec, 4)
    vertices = np.flatnonzero(mu.max(axis=1) == 1.0)
    assert len(vertices) == d
    assert np.all(rates[vertices, 1] == 0.0)


def test_cost_function_picks_each_kernel():
    # A grid point at d >= 3 within the histogram's conditions runs there:
    # a region-d5 orbit, and the sweep-d3 orbit (31, 1, 0) / 32.
    k5 = regions.ChannelSpec(d=5, z=0.5).evaluator.horizon
    assert pick_kernel(5, k5, (2, 1, 1, 0, 0)) == "histogram"
    assert pick_kernel(3, 102, (31, 1, 0)) == "histogram"
    # d = 2 runs on the lattice, grid point or not: (40, 24) / 64 with
    # reduced counts (5, 3) has pairwise distinct atom numerators per block.
    k2 = regions.ChannelSpec(d=2, z=0.95).evaluator.horizon
    assert pick_kernel(2, k2, (5, 3)) == "lattice"
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
    # d = 9, K = 300: 95,718 cells and dim_K < 2**53.
    assert math.comb(308, 8) < 2**53
    assert pick_kernel(9, 300, (1,) * 9) == "histogram"
    # Off the grid, with C(K+d, d) terms within their cap, the lattice's
    # (d-1)-mode table of (d-1) dim_K int32 entries is over its cap: 1.9e9
    # (7.6 GB) and 5.0e8 (2.0 GB).  Tier-1's largest, d = 5 and K = 117
    # (3.4e7 entries), is within it.
    for d, horizon in ((10, 30), (1000, 2)):
        assert math.comb(horizon + d, d) <= MAX_LATTICE_TERMS
        with pytest.raises(SizeCapError, match="table entries"):
            pick_kernel(d, horizon)
    assert pick_kernel(5, 117) == "lattice"


@pytest.mark.parametrize(
    "d, z, resolution",
    [
        (2, 0.95, 64), (3, 0.75, 32), (3, 0.97, 16), (4, 0.9, 8), (4, 0.97, 8),
        (5, 0.5, 16), (6, 0.05, 8),
    ],
)
def test_grid_orbits_take_the_histogram_unless_d2_or_past_its_conditions(d, z, resolution):
    # The kernel depends on structure only: an orbit runs on the lattice iff
    # d = 2 or the histogram is past its cell cap or its exact-count bound
    # dim_K < 2**53; past both kernels' caps it is refused.
    horizon = truncation_horizon(UnruhConfig(d, z))
    dim = math.comb(horizon + d - 1, d - 1)
    grid = regions.simplex_grid(d, resolution) / (resolution * d)
    kinds = set()
    for counts in orbit_counts(grid, resolution).values():
        cells = (horizon + 1) * ((horizon - 1) * max(counts) + 2 * sum(counts) + 1)
        past = cells > engine.MAX_HISTOGRAM_CELLS or dim >= 2**53
        try:
            kind = pick_kernel(d, horizon, counts)
        except SizeCapError:
            kind = "refused"
        if d > 2 and not past:
            assert kind == "histogram", counts
        else:
            lattice_fits = (
                math.comb(horizon + d, d) <= MAX_LATTICE_TERMS
                and (d - 1) * dim <= engine.MAX_LATTICE_ENTRIES
            )
            assert kind == ("lattice" if lattice_fits else "refused"), counts
        kinds.add(kind)
    assert kinds == {
        (2, 0.95, 64): {"lattice"},
        (3, 0.97, 16): {"histogram", "lattice"},
        (4, 0.97, 8): {"histogram", "refused"},
    }.get((d, z, resolution), {"histogram"})


def test_d2_atom_numerators_are_distinct_within_a_block():
    # The premise of sending d = 2 to the lattice: with c1 != c2 the atom
    # numerators b1 c1 + b2 c2 of block k (and the environment's, each + 1)
    # are pairwise distinct, so the histogram would merge no two of them.
    rng = np.random.default_rng(2)
    for _ in range(200):
        c1, c2 = (int(c) for c in rng.integers(0, 1000, 2))
        if c1 == c2:
            continue
        for k in range(1, 40):
            numerators = composition_matrix(2, k) @ np.array([c1, c2], dtype=np.int64)
            assert len(set(numerators.tolist())) == k + 1, (c1, c2, k)


def test_histogram_uniform_row_is_flat_at_d9_k300():
    # The uniform row's receiver atoms of block k are 1/dim_k, and its
    # environment atoms 1/dim_{k-1}: down to 1/dim_300 = 5.5e-16 at K = 300,
    # where n M_K = 5.5e17.  Each atom counts, however small, so the entropies
    # are log dim_k and log dim_{k-1}.
    assert 9 * block_normalizer(9, 300) > 10**17
    assert pick_kernel(9, 300, (1,) * 9) == "histogram"
    evaluator = TradeoffEvaluator(9, np.ones(300), 9.0)
    h_b, h_e = evaluator.block_entropies(np.full(9, 1 / 9), (1,) * 9)
    log_dims = np.log([math.comb(k + 8, 8) for k in range(301)]) / math.log(9)
    np.testing.assert_allclose(h_b, log_dims[1:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(h_e, log_dims[:-1], rtol=0, atol=1e-12)


def family_block(d, horizon, k, a):
    """Block k's (H(B|X), H(E|X)) on the family kernel: its sums for the
    one-hot weights of block k among ``horizon`` blocks."""
    weights = np.zeros(horizon)
    weights[k - 1] = 1.0
    return TradeoffEvaluator(d, weights, float(d)).family_sums(a)


@pytest.mark.parametrize("d, horizon", [(2, 8), (3, 7), (4, 6), (5, 5), (6, 4)])
def test_family_kernel_matches_spectra_route_per_block(d, horizon):
    rng = np.random.default_rng(700 + d)
    for a in [1.0 / d, *rng.uniform(1.0 / d, 1.0, 3), 1.0]:
        mu = (a,) + ((1.0 - a) / (d - 1),) * (d - 1)
        per_block = np.array([family_block(d, horizon, k, a) for k in range(1, horizon + 1)])
        for k in range(1, horizon + 1):
            ref_b = shannon_entropy(ensemble_spectrum_B(d, k, mu), float(d)).value
            ref_e = shannon_entropy(ensemble_spectrum_E(d, k, mu), float(d)).value
            assert per_block[k - 1, 0] == pytest.approx(ref_b, abs=1e-12)
            assert per_block[k - 1, 1] == pytest.approx(ref_e, abs=1e-12)
        weights = rng.uniform(0.0, 1.0, horizon)
        got = TradeoffEvaluator(d, weights, float(d)).family_sums(a)
        assert got == pytest.approx(tuple(weights @ per_block), abs=1e-12)


def test_family_sums_skip_blocks_of_weight_zero():
    # A single cloner block k reads only the photon numbers k (receiver) and
    # k - 1 (environment); blocks of weight zero past it change nothing.
    assert family_block(4, 9, 7, 0.7) == family_block(4, 7, 7, 0.7)


def test_family_kernel_keeps_every_atom_at_d20():
    # d = 20, z = 0.9 (K = 588): M_K is about 1e37, so every atom lies far
    # below 1e-15, and the counts C(r+18, 18) reach 1e34, rounded to floats.
    # At the uniform point the spectra are flat: log dim_k and log dim_{k-1}.
    horizon = truncation_horizon(UnruhConfig(20, 0.9))
    assert horizon == 588 and block_normalizer(20, horizon) > 10**37
    log_dims = np.array([math.log(block_dimension(20, k), 20) for k in range(horizon + 1)])
    assert family_block(20, horizon, horizon, 1.0 / 20) == pytest.approx(
        (log_dims[horizon], log_dims[horizon - 1]), abs=1e-12
    )
    weights = np.random.default_rng(20).dirichlet(np.ones(horizon))
    got = TradeoffEvaluator(20, weights, 20.0).family_sums(1.0 / 20)
    assert got == pytest.approx((weights @ log_dims[1:], weights @ log_dims[:-1]), abs=1e-12)


def test_histogram_only_sweep_builds_no_lattice_table(forbid):
    # cqe-region --d 5 --z 0.75 --grid 4: the lattice would scan 2.1e8 terms
    # per orbit; every orbit goes to the histogram, so no table is built.
    forbid("built lattice table", engine, "composition_table")
    mu, rates = regions.region_surface_cqe(regions.ChannelSpec(5, z=0.75), 4)
    assert rates.shape == (71, 3)
    for row, (b1, _, b3) in zip(mu, rates):
        h_a = ensemble_conditional_entropy_A(tuple(row), 5.0).value
        assert b1 - b3 == pytest.approx(h_a, abs=1e-12)
