"""The committed benchmark records (``BENCH_*.json`` at the repository root).

Each file declares its two sides, ``parent`` and ``head``, each with a
commit and the ``source_sha256`` digest ``perfbench/run.py`` prints for its
source tree, and holds run records as ``perfbench/run.py`` wrote them to
``.perfbench/runs/``, each labelled with its side.  A file is only evidence
when every record is a correct run, all of them ran in one environment, and
each record's source tree is the one its side declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_a_bench_file_holds_correct_records_of_one_environment_and_its_sides(path):
    bench = json.loads(path.read_text())
    assert bench["records"]
    envs = set()
    for entry in bench["records"]:
        side, record = entry["side"], entry["record"]
        assert side in ("parent", "head"), side
        where = (side, record["workload"], record["trace"], record["seed"])
        assert record["correct"] is True, where
        assert record["fingerprint"]["code"]["source_sha256"] == bench[side]["source_sha256"], where
        envs.add(json.dumps(record["fingerprint"]["env"], sort_keys=True))
    assert len(envs) == 1, sorted(envs)
