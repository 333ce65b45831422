import json
import random

import pytest

import checks
from workloads import WORKLOADS


def reference(name):
    fmt = WORKLOADS[name].fmt
    return checks.reference_text(name, fmt)


def replace_cell(text, row, column, new):
    table = checks.parse_csv(text)
    lines = text.split("\n")
    first_row = len(table.meta) + 1
    cells = lines[first_row + row].split(",")
    cells[table.header.index(column)] = new(cells[table.header.index(column)])
    lines[first_row + row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["sweep-d3", "region-d5", "cloner-d5"])
def test_reference_passes_both_checks(name):
    text = reference(name)
    counts = checks.check_output(WORKLOADS[name], text, 0, random.Random(0))
    assert counts["regions.grid_points"] == len(checks.parse_csv(text).rows)


def test_value_off_by_1e_9_is_rejected():
    text = replace_cell(reference("sweep-d3"), 5, "rate_y", lambda v: format(float(v) + 1e-9, ".12g"))
    with pytest.raises(checks.CheckError, match="rate_y"):
        checks.check_output(WORKLOADS["sweep-d3"], text, 0, random.Random(0))


def test_flipped_hull_flag_is_rejected():
    table = checks.parse_csv(reference("cloner-d5"))
    row = next(i for i, r in enumerate(table.rows) if r[-1] == "1")
    text = replace_cell(reference("cloner-d5"), row, "on_hull", lambda v: "0")
    with pytest.raises(checks.CheckError, match="on_hull"):
        checks.check_output(WORKLOADS["cloner-d5"], text, 0, random.Random(0))


@pytest.mark.parametrize("cut", [0.5, 0.999])
def test_truncated_file_is_rejected(cut):
    text = reference("sweep-d3")
    with pytest.raises(checks.CheckError):
        checks.check_output(WORKLOADS["sweep-d3"], text[: int(len(text) * cut)], 0, random.Random(0))


def test_missing_last_row_is_rejected():
    text = reference("region-d5")
    shortened = text[: text.rstrip("\n").rfind("\n") + 1]
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_output(WORKLOADS["region-d5"], shortened, 0, random.Random(0))


def test_seed_must_match_the_one_passed():
    text = reference("cloner-d5").replace("# seed: 0\n", "# seed: 7\n")
    checks.check_output(WORKLOADS["cloner-d5"], text, 7, random.Random(7))
    with pytest.raises(checks.CheckError, match="seed"):
        checks.check_output(WORKLOADS["cloner-d5"], text, 0, random.Random(0))


def test_spectra_route_catches_an_error_the_reference_cannot_see():
    # Same value in output and reference: only the independent route can tell.
    table = checks.parse_csv(reference("sweep-d3"))
    row = table.rows[3]
    row[table.header.index("rate_x")] = format(float(row[table.header.index("rate_x")]) + 1e-8, ".12g")
    with pytest.raises(checks.CheckError, match="spectra route"):
        checks.rederive_rows(table, [3])


def test_close12_is_one_unit_of_the_12th_digit():
    assert checks.close12(0.123456789012, 0.123456789013)
    assert not checks.close12(0.123456789012, 0.123456789015)
    assert checks.close12(0.0, 5e-13)
    assert not checks.close12(0.5, 0.5 + 1e-9)


def test_dyncap_reference_passes_and_perturbations_fail():
    workload = WORKLOADS["dyncap-d2"]
    text = reference("dyncap-d2")
    checks.check_output(workload, text, 0, random.Random(0))
    payload = json.loads(text)
    for key, delta in (("value", -1e-9), ("grid_best", 1e-9)):
        bad = dict(payload, **{key: payload[key] + delta})
        with pytest.raises(checks.CheckError):
            checks.check_output(workload, json.dumps(bad), 0, random.Random(0))
    moved = dict(payload, argmax_mu=[0.6, 0.4])
    with pytest.raises(checks.CheckError, match="objective"):
        checks.check_output(workload, json.dumps(moved), 0, random.Random(0))
    with pytest.raises(checks.CheckError):
        checks.check_output(workload, text[: len(text) // 2], 0, random.Random(0))
