import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_timed_workloads_and_reasons_match_their_definitions():
    for entry in SPEC["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]


def test_metrics_match_what_the_run_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_a_run_fits_the_per_sample_budget_and_the_exit_deadline():
    assert SPEC["run_seconds"] + run.SAMPLE_BUDGET_S < 180
