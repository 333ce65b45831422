"""The run budget: a sweep prices every orbit before it builds the grid, in
lattice terms with a histogram cell at ``CELL_PRICE``, and either runs them
all within ``MAX_RUN_WORK`` or is refused before any kernel call."""

import json
import math
import os

import pytest

from unruhcap import cli, engine, kernels, regions
from unruhcap.combinat import SizeCapError
from unruhcap.engine import CELL_PRICE, MAX_RUN_WORK, TradeoffEvaluator

# The golden commands and the benchmark's four workloads, every one admitted.
ADMITTED = [
    "cq-curve --d 3 --k 2 --grid 8",
    "cq-curve --d 2 --z 0.5 --grid 16",
    "ce-curve --d 3 --z 0.5 --grid 8",
    "cqe-region --d 3 --z 0.5 --grid 7",
    "cqe-region --d 5 --z 0.9 --grid 4",
    "rps-region --d 4 --z 0.25 --grid 5",
    "dyncap --d 3 --z 0.5 --lambda 0 --mu-weight 10 --grid 16",
    "cq-curve --d 3 --z 0.75 --grid 32",
    "cqe-region --d 5 --z 0.5 --grid 4",
    "dyncap --d 2 --z 0.95 --lambda 2 --mu-weight 0.5",
    "cq-curve --d 5 --k 10 --grid 16",
]


@pytest.mark.parametrize("argv", ADMITTED)
def test_the_pre_grid_estimate_is_the_work_the_sweep_does(argv, monkeypatch):
    # The estimate is read from the sweep's own gate; the work from the
    # kernels' own arguments, at each evaluation the sweep makes: lattice
    # terms one per (b1, composition), histogram cells (K+1) rows of
    # n + width.  The curves' lone evaluations after the sweep are not part
    # of it.
    estimates, work, in_sweep = [], [], []
    sweep, gate, evaluate = regions._sweep, regions.run_work, TradeoffEvaluator.block_entropies
    lattice, histogram = kernels.block_family_entropy, kernels.histogram_entropy

    def spy_sweep(*args):
        in_sweep.append(True)
        try:
            return sweep(*args)
        finally:
            in_sweep.pop()

    def spy_gate(d, horizon, orbits):
        total = gate(d, horizon, orbits)
        if in_sweep:
            estimates.append(total)
        return total

    def spy_evaluate(self, mu, counts=None):
        if in_sweep:
            work.append(0)
        return evaluate(self, mu, counts)

    def spy_lattice(a_sub, inv_norm, mu_b1, *args):
        if in_sweep:
            work[-1] += len(a_sub) * len(mu_b1)
        return lattice(a_sub, inv_norm, mu_b1, *args)

    def spy_histogram(counts, inv_norm, inv_ln_base):
        if in_sweep:
            horizon, n = len(inv_norm), sum(counts)
            width = (horizon - 1) * max(counts) + n + 1
            work[-1] += (horizon + 1) * (n + width) * CELL_PRICE
        return histogram(counts, inv_norm, inv_ln_base)

    monkeypatch.setattr(regions, "_sweep", spy_sweep)
    monkeypatch.setattr(regions, "run_work", spy_gate)
    monkeypatch.setattr(TradeoffEvaluator, "block_entropies", spy_evaluate)
    monkeypatch.setattr(kernels, "block_family_entropy", spy_lattice)
    monkeypatch.setattr(kernels, "histogram_entropy", spy_histogram)
    assert cli.main(argv.split() + ["-o", os.devnull]) == 0
    assert len(estimates) == 1 and all(work)
    assert estimates[0] == math.fsum(work) <= MAX_RUN_WORK


def near_cap_argvs():
    """cqe-region at d = 2..8 and z in {0.5, 0.9, 0.97, 0.99}, at half, once
    and twice the default grid."""
    for d in range(2, 9):
        default = regions.sweep_resolution(d)
        for z in (0.5, 0.9, 0.97, 0.99):
            for grid in (default // 2, default, 2 * default):
                yield ["cqe-region", "--d", str(d), "--z", str(z), "--grid", str(grid)]


class GridReached(Exception):
    """Raised in place of building the grid: the run passed the gate."""


def test_near_cap_runs_pass_the_gate_or_exit_3_before_any_kernel_call(monkeypatch, capsys):
    # Only the gate runs: an admitted sweep stops where it would build the
    # grid, and a refused one must exit 3 with no kernel called.
    def reach_grid(*args):
        raise GridReached

    def no_kernel(*args):
        raise AssertionError("a kernel ran before the gate decided")

    estimates = []
    gate = regions.run_work

    def spy_gate(d, horizon, orbits):
        estimates.append(gate(d, horizon, orbits))
        return estimates[-1]

    monkeypatch.setattr(regions, "simplex_grid", reach_grid)
    monkeypatch.setattr(regions, "run_work", spy_gate)
    for name in ("block_family_entropy", "histogram_entropy", "family_sums"):
        monkeypatch.setattr(kernels, name, no_kernel)
    outcomes = {}
    for argv in near_cap_argvs():
        estimates.clear()
        try:
            status = cli.main(argv)
        except GridReached:
            assert len(estimates) == 1 and estimates[0] <= MAX_RUN_WORK, argv
            outcomes[" ".join(argv)] = "admitted"
            continue
        assert status == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        outcomes[" ".join(argv)] = json.loads(captured.err.strip())["error"]
    # Both sides of the budget are reached: 2.9e8 and 9.2e8 terms admitted,
    # 2.2e9 and 1.6e9 refused; at d = 7, z = 0.99 the histogram's counts
    # would not be exact (dim_K = 5.1e18), and d = 7, grid 32 is past the
    # grid's caps.
    assert outcomes["cqe-region --d 3 --z 0.97 --grid 32"] == "admitted"
    assert outcomes["cqe-region --d 4 --z 0.99 --grid 16"] == "admitted"
    assert outcomes["cqe-region --d 3 --z 0.97 --grid 64"] == "SizeCapError"
    assert outcomes["cqe-region --d 5 --z 0.99 --grid 16"] == "SizeCapError"
    assert outcomes["cqe-region --d 7 --z 0.99 --grid 8"] == "SizeCapError"
    assert outcomes["cqe-region --d 7 --z 0.5 --grid 32"] == "SizeCapError"
    assert set(outcomes.values()) <= {"admitted", "SizeCapError", "ConvergenceError"}


@pytest.mark.parametrize(
    "argv, orbits",
    [
        ("cqe-region --d 5 --z 0.9 --grid 64", 9028),
        ("cqe-region --d 3 --z 0.97", 375),
    ],
)
def test_a_run_over_budget_names_its_orbits_total_and_costliest(argv, orbits, capsys, forbid):
    forbid("built the grid past the run budget", regions, "simplex_grid")
    forbid("ran a kernel past the run budget", kernels, "block_family_entropy", "histogram_entropy")
    assert cli.main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "SizeCapError"
    message = diagnostic["message"]
    assert f"{orbits} evaluations of " in message
    assert f"exceed cap {MAX_RUN_WORK}, the run budget" in message
    assert "the costliest, at counts (63, 1)" in message


def test_a_cloner_block_is_a_run_of_one_at_its_vertex_before_its_weights():
    # At d = 2 the vertex runs on the lattice: C(k+2, 2) terms, within the
    # budget up to k = 44,719, and refused above it before the k weights.
    assert math.comb(44722, 2) > MAX_RUN_WORK >= math.comb(44721, 2)
    with pytest.raises(SizeCapError, match=r"1 evaluations .* at counts \(1,\)"):
        regions.ChannelSpec(2, k=44720).evaluator
    assert engine.run_work(2, 44719, [(1,)]) == math.comb(44721, 2)


@pytest.mark.parametrize(
    "argv, again",
    [("cq-curve --d 5 --z 0.75 --grid 4", 56), ("cq-curve --d 4 --z 0.9 --grid 8", 33)],
)
def test_a_curves_re_evaluations_are_one_run(argv, again, capsys, forbid, monkeypatch):
    # The sweep runs on the histogram; the rows tied to a hull vertex, each
    # a lone lattice evaluation within the budget, are then priced together
    # and refused before the first of them.
    forbid("ran the lattice past the run budget", kernels, "block_family_entropy")
    histogram, calls = kernels.histogram_entropy, []
    monkeypatch.setattr(kernels, "histogram_entropy", lambda *a: calls.append(a) or histogram(*a))
    assert cli.main(argv.split()) == 3
    assert calls  # refused after the sweep
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err.strip())["message"]
    assert f"{again} evaluations of " in message
    assert f"exceed cap {MAX_RUN_WORK}, the run budget; the costliest, off the grid" in message
