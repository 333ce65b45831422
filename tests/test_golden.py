"""Frozen CLI outputs: small runs whose stdout must not change by one byte.

The files under ``tests/golden/`` were written by the same commands before
the sweeps were rewritten as arrays, and ``cqe-region-d5-z0.9.csv`` (every
orbit on the histogram kernel) before its DP started from the closed form of
the commonest count; a refactor of the kernels, sweep, hull or emission code
must reproduce them exactly.  ``cq-curve-d4.csv`` was written before a
curve's swap-mate rows shared one set of lattice terms: at d = 4 their
swap order is a general column permutation, not the d = 3 reversal.
``cq-curve-d5.csv`` was written before those rows ran in stacks of several
rows a kernel call: at d = 5, z = 0.25 its 2 swap pairs and 7 single rows
run in stacks of 4 rows, so its single rows take a stack of 4 and one of 3.
"""

from pathlib import Path

import pytest

from unruhcap import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "cq-curve-cloner.csv": "cq-curve --d 3 --k 2 --grid 8",
    "cq-curve-unruh.csv": "cq-curve --d 2 --z 0.5 --grid 16",
    "cq-curve-d4.csv": "cq-curve --d 4 --z 0.5 --grid 8",
    "cq-curve-d5.csv": "cq-curve --d 5 --z 0.25 --grid 6",
    "ce-curve.csv": "ce-curve --d 3 --z 0.5 --grid 8",
    "cqe-region.csv": "cqe-region --d 3 --z 0.5 --grid 7",
    "cqe-region-d5-z0.9.csv": "cqe-region --d 5 --z 0.9 --grid 4",
    "rps-region.csv": "rps-region --d 4 --z 0.25 --grid 5",
    "dyncap.json": "dyncap --d 3 --z 0.5 --lambda 0 --mu-weight 10 --grid 16",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_file(name, capsys):
    assert cli.main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)
