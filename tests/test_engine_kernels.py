import math
import os

import numpy as np
import pytest

from tradeoff_helpers import orbit_counts, reevaluated_rows
from unruhcap import cli, engine, kernels, regions
from unruhcap.combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix
from unruhcap.engine import CELL_PRICE, MAX_KERNEL_BYTES, TradeoffEvaluator, pick_kernel
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
    # Bitwise, as for the kernel: the evaluation forms each sub-weight's
    # trailing dot products with all its columns at once, but every block
    # must keep its last bit.
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


def swap_mate(mu) -> np.ndarray:
    """``mu`` with its weights 1 and 2 exchanged."""
    return np.asarray(mu)[[0, 2, 1, *range(3, len(mu))]]


def oracle_points(rng, d) -> list:
    """Vertices, the uniform point, tied weights 1 and 2 (a row that is its
    own swap mate from d = 3 on), an off-grid point, grid edges with zeros
    and seeded random points, each normalized."""
    points = [np.eye(d)[i] for i in range(d)] + [np.full(d, 1.0 / d)]
    points.append(np.linspace(1.0, 2.0, d))
    points.append(np.array([3.0, 1.0, 1.0] + [0.5] * (d - 3))[:d])
    points.append(np.array([math.pi, math.e, math.sqrt(2.0)] + [math.log(3.0)] * (d - 3))[:d])
    for _ in range(6):
        counts = rng.integers(0, 9, d)
        counts[rng.integers(d)] += 1
        points.append(counts / counts.sum())  # zeros on the grid's edges
        points.append(rng.dirichlet(np.ones(d)))
    return [mu / mu.sum() for mu in points]


@pytest.mark.parametrize("d, horizon", [(2, 120), (3, 100), (4, 24), (5, 12), (6, 7)])
def test_lattice_entropies_match_lone_evaluations(d, horizon, monkeypatch):
    # Bitwise, in input order: every row is its own lone evaluation, whether
    # the engine runs it alone (d = 2), as a single row of a stack, or as the
    # head or the mate of a swap pair, whose mate's terms are the head's
    # gathered in the swap order, the same multiset, so only the order of
    # the sums could split a last bit.  From d = 3 on the rows hold swap
    # mates placed after and before their heads, rows whose mate is absent,
    # rows that are their own mate, and exact duplicates.  Each stack size
    # runs there: one row, two rows and the byte budget's size, over at
    # least 2 * budget + 1 rows.
    rng = np.random.default_rng(3000 + d)
    evaluator = TradeoffEvaluator(d, rng.uniform(0.0, 1.0, horizon), float(d))
    budget = engine.stack_rows(d, horizon)
    assert budget > 2
    points = oracle_points(rng, d)
    if d > 2:
        heads = points[-4:-1]  # seeded random and grid-edge rows
        points += [swap_mate(mu) for mu in heads[1:]]  # after their heads
        points.insert(0, swap_mate(heads[0]))  # before its head
        keys = {tuple(mu) for mu in points}
        paired = [mu for mu in points if tuple(swap_mate(mu)) in keys - {tuple(mu)}]
        assert len(paired) >= 6
        points += list(rng.dirichlet(np.ones(d), max(0, 2 * budget - 1 - len(points))))
    points += [points[0], points[1]]  # exact duplicates: a pair's row from d = 3 on
    points = np.array(points)
    lone = [evaluator.block_entropies(mu) for mu in points]
    for size in (1, 2, budget):
        monkeypatch.setattr(engine, "stack_rows", lambda d, horizon: size)
        got = evaluator.lattice_entropies(points)
        assert len(got) == len(points)
        for mu, got_h, want_h in zip(points, got, lone):
            assert all(np.array_equal(g, w) for g, w in zip(got_h, want_h)), (size, mu)
    with pytest.raises(ValueError, match=f"rows of {d} weights"):
        evaluator.lattice_entropies(points[0])


def record_kernel_calls(monkeypatch) -> list:
    """Each lattice kernel call's (a_sub.ndim, has a swap order, has a mate
    accumulator), in call order."""
    calls, kernel = [], kernels.block_family_entropy

    def record(*args):
        calls.append((args[0].ndim, args[6] is not None, args[7] is not None))
        return kernel(*args)

    monkeypatch.setattr(kernels, "block_family_entropy", record)
    return calls


@pytest.mark.parametrize("d, horizon", [(3, 100), (4, 24), (5, 12), (6, 7)])
def test_swap_pair_bits_match_two_lone_evaluations(d, horizon, monkeypatch):
    # Bitwise: a row and its swap mate, in either order, are one swap pair,
    # a stack of one: K + 1 kernel calls with a lone evaluation's 1-D dot
    # products, each passed the swap order and the mate's accumulator.  The
    # two results are those of block_entropies at each row, in input order.
    rng = np.random.default_rng(2000 + d)
    evaluator = TradeoffEvaluator(d, rng.uniform(0.0, 1.0, horizon), float(d))
    pairs = [mu for mu in oracle_points(rng, d) if not np.array_equal(swap_mate(mu), mu)]
    assert len(pairs) >= 10
    for mu in pairs:
        rows = np.array([mu, swap_mate(mu)])
        want = [evaluator.block_entropies(row) for row in rows]
        for order in (rows, rows[::-1]):
            calls = record_kernel_calls(monkeypatch)
            got = evaluator.lattice_entropies(order)
            assert calls == [(1, True, True)] * (horizon + 1), mu
            wanted = want if order is rows else want[::-1]
            for got_h, want_h in zip(got, wanted):
                assert all(np.array_equal(g, w) for g, w in zip(got_h, want_h)), mu


def test_swap_pair_needs_two_trailing_weights(monkeypatch):
    # At d = 2 there are no weights 1 and 2 to exchange: lattice_entropies
    # pairs no rows, even a row and its reverse, and runs each as a lone
    # evaluation, K + 1 kernel calls with no swap order.  A 1-D mus is refused.
    horizon = 40
    evaluator = TradeoffEvaluator(2, np.ones(horizon), 2.0)
    rows = np.array([[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]])
    want = [evaluator.block_entropies(mu) for mu in rows]
    calls = record_kernel_calls(monkeypatch)
    got = evaluator.lattice_entropies(rows)
    assert calls == [(1, False, False)] * (len(rows) * (horizon + 1))
    for got_h, want_h in zip(got, want):
        assert all(np.array_equal(g, w) for g, w in zip(got_h, want_h))
    with pytest.raises(ValueError, match="rows of 2 weights"):
        evaluator.lattice_entropies(rows[0])


def test_lattice_evaluation_keeps_the_traced_call_shape(monkeypatch):
    # The benchmark tracer counts one evaluation per block_entropies call
    # and len(args[0]) * len(args[2]) terms per kernel call.  A curve
    # evaluates each orbit once with its counts, on the kernel the gate
    # picks, then every row tied with a hull vertex once more without them,
    # on the lattice, but for the orbits' first rows the sweep ran there, in
    # one lattice_entropies call.  At d = 3 it runs those rows in stacks:
    # one stack of the heads of the swap pairs and one of the single rows,
    # each kernel call taking (E, L) dot products and an (E, m, 1) column
    # for a stack of E rows, and a lone evaluation's shapes for a stack of
    # one.
    spec = regions.ChannelSpec(3, z=0.5)
    curve = regions.cq_curve(spec, 4)
    orbits = orbit_counts(curve.mu, 4)
    again = reevaluated_rows(spec, curve, 4)
    evals, horizons = [], []
    kernel, weights = kernels.block_family_entropy, regions.unruh_weights
    evaluate, lattice = TradeoffEvaluator.block_entropies, TradeoffEvaluator.lattice_entropies

    def record_eval(self, mu, counts=None):
        evals.append(([tuple(mu)], counts, []))
        return evaluate(self, mu, counts)

    def record_lattice(self, mus):
        evals.append(([tuple(mu) for mu in mus], "lattice", []))
        return lattice(self, mus)

    def record_kernel(*args):
        swap = args[6] is not None
        evals[-1][2].append((args[0].shape, args[2].shape, args[4].shape, args[5], swap))
        return kernel(*args)

    def record_weights(*args):
        result = weights(*args)
        horizons.append(len(result))
        return result

    monkeypatch.setattr(kernels, "block_family_entropy", record_kernel)
    monkeypatch.setattr(TradeoffEvaluator, "block_entropies", record_eval)
    monkeypatch.setattr(TradeoffEvaluator, "lattice_entropies", record_lattice)
    monkeypatch.setattr(regions, "unruh_weights", record_weights)
    assert cli.main(["cq-curve", "--d", "3", "--z", "0.5", "--grid", "4", "-o", os.devnull]) == 0
    horizon = truncation_horizon(UnruhConfig(3, 0.5))
    assert horizons == [horizon]
    # One per orbit with its reduced counts, all on the histogram at d = 3,
    # then one lattice_entropies call of the rows evaluated again, which
    # makes K + 1 kernel calls for a stack of the pair heads, then K + 1
    # for a stack of the single rows.
    assert sorted(counts for _, counts, _ in evals[: len(orbits)]) == sorted(orbits.values())
    assert all(pick_kernel(3, horizon, counts)[0] == "histogram" for counts in orbits.values())
    assert all(calls == [] for _, _, calls in evals[: len(orbits)])
    ((rows, kind, calls),) = evals[len(orbits) :]
    assert kind == "lattice" and rows == [tuple(curve.mu[i]) for i in again]
    stacks = [calls[start : start + horizon + 1] for start in range(0, len(calls), horizon + 1)]
    assert [stack[0][4] for stack in stacks] == [True, False]
    rows_per_stack = engine.stack_rows(3, horizon)
    for stack in stacks:
        count = 1 if len(stack[0][0]) == 1 else stack[0][0][0]
        assert 0 < count <= rows_per_stack
        lead = () if count == 1 else (count,)
        assert stack == [
            (lead + (j + 1,), lead + (horizon + 1 - j, 1), lead + (2, horizon + 1), j, stack[0][4])
            for j in range(horizon + 1)
        ]


def test_a_d2_curve_makes_one_kernel_call_per_sub_weight(monkeypatch):
    # At d = 2 no rows are stacked or paired: cq-curve --d 2 --z 0.5 --grid
    # 8 runs its orbits, and in its one lattice_entropies call its rows tied
    # with a hull vertex, as lone evaluations, each of K + 1 kernel calls
    # with 1-D dot products and no swap order.  The benchmark's tracer
    # counts lattice calls as evaluations times (K + 1) on its d = 2 argvs.
    evals, a_subs, tied = [], [], []
    kernel, evaluate = kernels.block_family_entropy, TradeoffEvaluator.block_entropies
    lattice = TradeoffEvaluator.lattice_entropies

    def record_eval(self, mu, counts=None):
        evals.append(counts)
        return evaluate(self, mu, counts)

    def record_lattice(self, mus):
        tied.append(len(mus))
        return lattice(self, mus)

    def record_kernel(*args):
        a_subs.append((args[0].ndim, args[6]))
        return kernel(*args)

    monkeypatch.setattr(kernels, "block_family_entropy", record_kernel)
    monkeypatch.setattr(TradeoffEvaluator, "block_entropies", record_eval)
    monkeypatch.setattr(TradeoffEvaluator, "lattice_entropies", record_lattice)
    assert cli.main(["cq-curve", "--d", "2", "--z", "0.5", "--grid", "8", "-o", os.devnull]) == 0
    horizon = truncation_horizon(UnruhConfig(2, 0.5))
    assert None in evals and len(evals) > evals.count(None)  # orbits, then tied rows
    assert tied == [evals.count(None)]
    assert len(a_subs) == len(evals) * (horizon + 1)
    assert set(a_subs) == {(1, None)}


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
    assert (pick_kernel(d, spec.evaluator.horizon, (1,))[0] == "histogram") == (d > 2)
    h_b, h_e = spec.evaluator.block_entropies(np.eye(d)[0], (1,) + (0,) * (d - 1))
    assert np.array_equal(h_b, h_e)
    mu, rates = regions.rps_region(spec, 4)
    vertices = np.flatnonzero(mu.max(axis=1) == 1.0)
    assert len(vertices) == d
    assert np.all(rates[vertices, 1] == 0.0)


def test_cost_function_picks_each_kernel():
    # A grid point at d >= 3 runs on the histogram, priced at CELL_PRICE
    # lattice terms a cell: a region-d5 orbit, and the sweep-d3 orbit
    # (31, 1, 0) / 32, of (K+1) rows of (K-1) max + 2 sum + 1 cells.
    k5 = regions.ChannelSpec(d=5, z=0.5).evaluator.horizon
    assert pick_kernel(5, k5, (2, 1, 1, 0, 0))[0] == "histogram"
    assert pick_kernel(3, 102, (31, 1, 0)) == ("histogram", 103 * (101 * 31 + 65) * CELL_PRICE)
    # d = 2 runs on the lattice, grid point or not: (40, 24) / 64 with
    # reduced counts (5, 3) has pairwise distinct atom numerators per block.
    # Its work is C(K+d, d) terms.
    k2 = regions.ChannelSpec(d=2, z=0.95).evaluator.horizon
    assert pick_kernel(2, k2, (5, 3)) == ("lattice", math.comb(k2 + 2, 2))
    # An off-grid point has only the lattice kernel.
    assert pick_kernel(5, k5) == ("lattice", math.comb(k5 + 5, 5))
    # d = 8, z = 0.75: the lattice table, 7 dim_K int32 entries, is 6.5e12
    # bytes, over the byte cap, so off the grid is refused; the histogram
    # runs the uniform point and (1000, 1), 19.3e6 cells, which the old cell
    # cap refused.  Its rows are held 25 at a time, so at (20000, 1) they
    # are past the byte cap too.
    k8 = truncation_horizon(UnruhConfig(8, 0.75))
    assert 4 * 7 * math.comb(k8 + 7, 7) > MAX_KERNEL_BYTES
    assert pick_kernel(8, k8, (1,) * 8)[0] == "histogram"
    assert pick_kernel(8, k8, (1000, 1))[0] == "histogram"
    with pytest.raises(SizeCapError, match="table entries"):
        pick_kernel(8, k8)
    assert 8 * 25 * ((k8 - 1) * 20000 + 40003) > MAX_KERNEL_BYTES
    with pytest.raises(SizeCapError, match="histogram kernel: .* bytes"):
        pick_kernel(8, k8, (20000, 1))
    # d = 10, z = 0.9: the vertex histogram is well within the byte cap, but
    # dim_K = 1.3e18 >= 2**53 would make its float counts inexact, and there
    # is no fallback.
    k10 = truncation_horizon(UnruhConfig(10, 0.9))
    assert math.comb(k10 + 9, 9) >= 2**53
    with pytest.raises(SizeCapError, match=r"2\*\*53"):
        pick_kernel(10, k10, (1,))
    # d = 9, K = 300: 95,718 cells and dim_K < 2**53.
    assert math.comb(308, 8) < 2**53
    assert pick_kernel(9, 300, (1,) * 9)[0] == "histogram"
    # Off the grid, the lattice's (d-1)-mode table of (d-1) dim_K int32
    # entries is over the byte cap: 1.9e9 entries (7.6 GB) and 5.0e8
    # (2.0 GB).  Tier-1's largest, d = 5 and K = 117 (3.4e7 entries), is
    # within it.
    for d, horizon in ((10, 30), (1000, 2)):
        with pytest.raises(SizeCapError, match="table entries"):
            pick_kernel(d, horizon)
    assert pick_kernel(5, 117)[0] == "lattice"


def lattice_price(d, horizon) -> int:
    """What one lattice evaluation holds, priced here from its parts: the
    int32 table of (d-1) dim_K entries, one int64 swap order of the largest
    sub-weight's L columns, the (2, m, L) float64 terms, p log p, bool mask
    and dot products of the largest sub-weight, found here by trying every
    one, and the bookkeeping (a span, a b1 entry, a normalizer pair, a mu1 b1
    entry and two accumulator columns a sub-weight, and the Python
    objects)."""
    dim = math.comb(horizon + d - 1, d - 1)
    sizes = [(horizon + 1 - j, math.comb(j + d - 2, d - 2)) for j in range(horizon + 1)]
    m, length = max(sizes, key=lambda size: size[0] * size[1])
    held = 4 * (d - 1) * dim + 8 * length + 34 * m * length
    return held + engine.LATTICE_SUB_WEIGHT * (horizon + 1) + engine.LATTICE_OBJECTS


@pytest.mark.parametrize(
    "d, z, shown, rows",
    [
        (2, 0.95, "1.5e5", None),
        (3, 0.75, "1.7e5", 12),
        (4, 0.5, "4.7e5", 4),
        (5, 0.5, "7.9e6", None),
    ],
)
def test_the_lattice_byte_cap_prices_what_one_evaluation_holds(d, z, shown, rows, monkeypatch):
    # pick_kernel admits the lattice at exactly the price of one evaluation,
    # and a stack of E rows is priced as E of them, an upper bound, since a
    # stack shares its table and swap order.  A lone evaluation peaks within
    # the price and above half of it: at d = 2, z = 0.95 (K = 532) as K + 1
    # one-column calls, whose per-sub-weight bookkeeping dominates, and at
    # d = 5, z = 0.5 (K = 47) as one evaluation of a large table.  At d = 3
    # and 4, lattice_entropies calls that make one stack of one, two and the
    # byte budget's rows, of single rows and of swap pairs (each head with
    # its mate), each on a fresh evaluator, which builds its table, peak
    # within the price of their stack, and above half of the part of it
    # that each row holds on its own: its terms and dot products and its
    # bookkeeping.  The budget holds the largest sub-weight's float64
    # (2, m, L) terms of its rows within STACK_BYTES.
    import gc
    import tracemalloc

    horizon = regions.ChannelSpec(d, z=z).evaluator.horizon
    priced = lattice_price(d, horizon)
    monkeypatch.setattr(engine, "MAX_KERNEL_BYTES", priced)
    assert pick_kernel(d, horizon)[0] == "lattice"
    assert engine.stack_rows(d, horizon) == 1  # the cap admits no second row
    monkeypatch.setattr(engine, "MAX_KERNEL_BYTES", priced - 1)
    with pytest.raises(SizeCapError, match=f"table entries and {shown} bytes in all"):
        pick_kernel(d, horizon)
    monkeypatch.undo()
    largest = max((horizon + 1 - j) * math.comb(j + d - 2, d - 2) for j in range(horizon + 1))
    own = 34 * largest + engine.LATTICE_SUB_WEIGHT * (horizon + 1) + 1024
    cases = [(1, None)]
    if rows is not None:
        assert engine.stack_rows(d, horizon) == rows
        assert rows * 16 * largest <= engine.STACK_BYTES < (rows + 1) * 16 * largest
        cases += [(count, swap) for count in (1, 2, rows) for swap in (False, True)]
    rng = np.random.default_rng(d)
    for count, swap in cases:
        mus = rng.dirichlet(np.ones(d), count)
        if swap:
            mus = np.concatenate((mus, mus[:, [0, 2, 1, *range(3, d)]]))
        evaluator = regions.ChannelSpec(d, z=z).evaluator
        gc.collect()  # empties the free lists, whose reuse tracemalloc would not see
        tracemalloc.start()
        try:
            if swap is None:
                evaluator.block_entropies(mus[0])
            else:
                evaluator.lattice_entropies(mus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        price = count * priced
        floor = priced if swap is None else count * own
        assert floor / 2 <= peak <= price, (count, swap, peak, price)


def test_a_stack_holds_the_dot_products_of_one_sub_weight_at_a_time():
    # Sweep-d3's stack of 12 rows at d = 3, z = 0.75 (K = 102): each kernel
    # call takes its own sub-weight's (E, L) dot products, formed just
    # before it, so the stack peaks below the (E, dim_K) float64 dot
    # products of every sub-weight plus the largest call's terms and
    # scratch (at least 24 E m L bytes), what an evaluation that took every
    # sub-weight's dot products at once would hold at that call.
    import tracemalloc

    evaluator = regions.ChannelSpec(3, z=0.75).evaluator
    horizon, rows = evaluator.horizon, engine.stack_rows(3, evaluator.horizon)
    assert (horizon, rows) == (102, 12)
    mus = np.random.default_rng(12).dirichlet(np.ones(3), rows)
    evaluator.lattice_entropies(mus[:1])  # builds the table, which every stack shares
    tracemalloc.start()
    try:
        evaluator.lattice_entropies(mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, length = engine._largest_sub_weight(3, horizon)
    assert peak < 8 * rows * math.comb(horizon + 2, 2) + 24 * rows * m * length, peak


def test_the_lattice_byte_boundaries_are_pinned():
    # The largest K that pick_kernel admits on the lattice at d = 3..12.
    # Each sub-weight's dot products are priced in the largest call's slack,
    # not as the dim_K dot products of every sub-weight, so the boundaries
    # at d = 3..10 moved up (d = 3: 4,915 -> 5,646, 4: 406 -> 443, 5: 123 ->
    # 130, 6: 61 -> 64, 7: 39 -> 40, 8: 28 -> 29, 9: 22 -> 23, 10: 18 -> 19);
    # d = 11 and 12 did not move.  At d = 3 and 4 the run budget refuses
    # every lattice evaluation past K = 1,815 and 391 first, so no run moved
    # there; at d = 2 it refuses past K = 44,719, far below the byte
    # boundary.
    boundaries = {3: 5646, 4: 443, 5: 130, 6: 64, 7: 40, 8: 29, 9: 23, 10: 19, 11: 16, 12: 14}
    for d, horizon in boundaries.items():
        assert pick_kernel(d, horizon)[0] == "lattice"
        with pytest.raises(SizeCapError, match="bytes in all"):
            pick_kernel(d, horizon + 1)
    for d, horizon in ((4, 391), (3, 1815), (2, 44719)):
        assert math.comb(horizon + d, d) <= engine.MAX_RUN_WORK < math.comb(horizon + 1 + d, d)
        engine.run_work(d, horizon, [None])
        with pytest.raises(SizeCapError, match="the run budget"):
            engine.run_work(d, horizon + 1, [None])
    assert pick_kernel(2, 44720)[0] == "lattice"
    # At every sub-weight j, its L_j float64 dot products and their product
    # temporary, formed while the previous sub-weight's are still held, and
    # then the dot products with the call's 26 m_j L_j bytes, fit the price
    # of the largest call, 34 m L bytes a row, for every K up to the
    # boundary.  L_j grows with j, and m_j L_j <= m L, so j = K bounds every
    # sub-weight.
    for d, last in {2: 44719, **boundaries}.items():
        for horizon in range(1, last + 1):
            m, length = engine._largest_sub_weight(d, horizon)
            widest = math.comb(horizon + d - 2, d - 2)
            assert 8 * math.comb(horizon + d - 3, d - 2) + 16 * widest <= 34 * m * length
            assert 8 * widest + 26 * m * length <= 34 * m * length, (d, horizon)


@pytest.mark.parametrize(
    "rows, m", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 8), (2, 1), (3, 1), (2, 2), (4, 1)]
)
def test_a_pair_kernel_call_holds_no_more_than_the_priced_terms(rows, m):
    # A call holds its (2, m, L) float64 terms, one (m, L) float64 scratch
    # array for the atoms, each side's logs and the mate's gathered terms,
    # and a bool zero mask: 26 m L bytes a row, within the 34 m L the
    # lattice price holds.  A pair stack's call also holds its L-entry swap
    # order; the bytes traced here include the order's.  A second
    # full-size buffer for the logs would add 16 E m L bytes.  Each mate is
    # the lone call on its reversed row.
    import tracemalloc

    width = 2**16
    rng = np.random.default_rng(10 * rows + m)
    a_sub = rng.uniform(0.0, 1.0, (rows, width))
    inv_norm = rng.uniform(0.5, 1.0, (2, m, 1))
    mu_b1 = rng.uniform(0.0, 1.0, (rows, 1, 1)) * np.arange(m, dtype=np.float64)[:, None]
    out, mate = np.zeros((rows, 2, m)), np.zeros((rows, 2, m))
    lead = 0 if rows == 1 else slice(None)  # a stack of one has lone shapes
    tracemalloc.start()
    try:
        order = np.arange(width)[::-1].copy()
        kernels.block_family_entropy(
            a_sub[lead], inv_norm, mu_b1[lead], 1.0, out[lead], 0, order, mate[lead]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 24 * rows * m * width <= peak <= 26 * rows * m * width + 8 * width + 4096
    for row in range(rows):
        lone = np.zeros((2, m))
        kernels.block_family_entropy(a_sub[row, ::-1].copy(), inv_norm, mu_b1[row], 1.0, lone, 0)
        assert np.array_equal(mate[row], lone)


def test_run_work_sums_each_orbit_against_one_budget():
    # A run's work is the exact sum of its orbits' prices; past the budget
    # the refusal names the orbit count, the total, the budget and the
    # costliest orbit.
    orbits = [(1, 0, 0), (31, 1, 0), (1, 1, 1)]
    prices = [pick_kernel(3, 102, counts)[1] for counts in orbits]
    assert engine.run_work(3, 102, orbits) == math.fsum(prices)
    assert engine.run_work(2, 10, [None]) == math.comb(12, 2)
    with pytest.raises(SizeCapError) as excinfo:
        engine.run_work(3, 987, [(1, 0, 0), (63, 1, 0)] * 100)
    message = str(excinfo.value)
    assert "200 evaluations of 1.2e9 lattice terms" in message
    assert f"exceed cap {engine.MAX_RUN_WORK}, the run budget" in message
    assert "the costliest, at counts (63, 1), takes 1.2e7" in message
    # A lone evaluation is a run of one: at d = 2, K = 44,721 the lattice
    # table is 179 KB, but its C(K+2, 2) terms are past the budget.
    assert math.comb(44721 + 2, 2) > engine.MAX_RUN_WORK
    with pytest.raises(SizeCapError, match="1 evaluations .* off the grid"):
        TradeoffEvaluator(2, np.ones(44721), 2.0).block_entropies(np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "d, z, resolution",
    [
        (2, 0.95, 64), (3, 0.75, 32), (3, 0.97, 16), (4, 0.9, 8), (4, 0.97, 8),
        (5, 0.5, 16), (6, 0.05, 8),
    ],
)
def test_grid_orbits_take_the_histogram_unless_d2(d, z, resolution):
    # The kernel depends on structure only, with no fallback: an orbit runs
    # on the lattice iff d = 2, and from d = 3 on it runs on the histogram
    # or is refused, past the byte cap or the exact-count bound dim_K < 2**53.
    horizon = truncation_horizon(UnruhConfig(d, z))
    dim = math.comb(horizon + d - 1, d - 1)
    grid = regions.simplex_grid(d, resolution) / (resolution * d)
    kinds = set()
    for counts in orbit_counts(grid, resolution).values():
        row = (horizon - 1) * max(counts) + 2 * sum(counts) + 1
        if d == 2:
            want = "lattice" if 4 * dim <= MAX_KERNEL_BYTES else None
        elif 8 * (kernels.HISTOGRAM_CHUNK + 1 + d) * row <= MAX_KERNEL_BYTES and dim < 2**53:
            want = "histogram"
        else:
            want = None
        if want is None:
            with pytest.raises(SizeCapError):
                pick_kernel(d, horizon, counts)
        else:
            assert pick_kernel(d, horizon, counts)[0] == want, counts
        kinds.add(want)
    # None is refused: at (3, 0.97, 16) and (4, 0.97, 8) too, every orbit
    # runs on the histogram.
    assert kinds == {"lattice" if d == 2 else "histogram"}


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
    assert pick_kernel(9, 300, (1,) * 9)[0] == "histogram"
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
