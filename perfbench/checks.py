"""Output checks applied to every timed sample.

Two independent checks:

* against reference outputs recorded from the seed commit (``reference/``):
  numbers agree within the CLI's 12-significant-digit print precision; row
  order, ``K`` and ``on_hull`` flags agree exactly;
* against the spectra route: sampled rows are re-derived from
  ``spectra.ensemble_spectrum_B/E`` and ``entropy.shannon_entropy`` only,
  never through ``engine.TradeoffEvaluator`` or the block kernel.

Any miss raises :class:`CheckError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REDERIVE_TOL = 1e-9
ABS_FLOOR = 1e-12


class CheckError(Exception):
    """An output that does not match what the benchmark expects."""


@dataclass(frozen=True)
class Table:
    meta: dict
    header: list
    rows: list


def reference_text(name: str, fmt: str) -> str:
    return (REFERENCE_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


def parse_csv(text: str) -> Table:
    """Parse the CLI's CSV: ``# key: value`` lines, a header, then rows."""
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline (truncated)")
    meta, header, rows = {}, None, []
    for line in text[:-1].split("\n"):
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if not sep or header is not None:
                raise CheckError(f"malformed meta line {line!r}")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise CheckError(f"row {len(rows)} has {len(cells)} cells, expected {len(header)}")
            rows.append(cells)
    if header is None:
        raise CheckError("output has no header")
    return Table(meta, header, rows)


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not valid JSON: {exc}") from None


def close12(a: float, b: float) -> bool:
    """Equal within one unit of the 12th significant digit (or 1e-12)."""
    scale = max(abs(a), abs(b))
    unit = 10.0 ** (math.floor(math.log10(scale)) - 11) if scale > 0.0 else 0.0
    # 1% slack absorbs the binary rounding of the two parsed decimals.
    return abs(a - b) <= max(unit, ABS_FLOOR) * 1.01


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"not a finite number: {text!r}")
    return value


def _compare_meta(meta: dict, ref_meta: dict, seed: int) -> None:
    for key, want in ref_meta.items():
        if key == "tool":
            continue
        if key == "seed":
            want = str(seed)
        if meta.get(key) != want:
            raise CheckError(f"meta {key}: {meta.get(key)!r} != {want!r}")


def compare_table(out: Table, ref: Table, seed: int) -> None:
    _compare_meta(out.meta, ref.meta, seed)
    if out.header != ref.header:
        raise CheckError(f"header {out.header} != {ref.header}")
    if len(out.rows) != len(ref.rows):
        raise CheckError(f"{len(out.rows)} rows, reference has {len(ref.rows)}")
    for i, (row, ref_row) in enumerate(zip(out.rows, ref.rows)):
        for col, got, want in zip(out.header, row, ref_row):
            if col == "on_hull":
                ok = got == want
            else:
                ok = close12(_number(got), _number(want))
            if not ok:
                raise CheckError(f"row {i} {col}: {got} != reference {want}")


# ---------------------------------------------------------------------------
# Independent route: spectra + shannon_entropy, block by block
# ---------------------------------------------------------------------------

def _block_weights(meta: dict):
    from unruhcap.spectra import UnruhConfig, unruh_weights

    if meta["k"] != "none":
        k = int(meta["k"])
        return [0.0] * (k - 1) + [1.0]
    cfg = UnruhConfig(
        int(meta["d"]), float(meta["z"]), float(meta["truncation_eps"]), float(meta["log_base"])
    )
    return list(unruh_weights(cfg))


def entropy_sums(meta: dict, mu) -> tuple[float, float, float, float]:
    """(H(A|X), sum p_k log dim_k, sum p_k H(B|X)_k, sum p_k H(E|X)_k) at ``mu``."""
    from unruhcap.combinat import block_dimension
    from unruhcap.entropy import ensemble_conditional_entropy_A, shannon_entropy
    from unruhcap.spectra import EnsembleParams, ensemble_spectrum_B, ensemble_spectrum_E

    d = int(meta["d"])
    base = float(meta["log_base"])
    params = EnsembleParams(tuple(mu))
    s_b = s_bx = s_ex = 0.0
    for k, w in enumerate(_block_weights(meta), start=1):
        if w == 0.0:
            continue
        s_b += w * math.log(block_dimension(d, k)) / math.log(base)
        s_bx += w * shannon_entropy(ensemble_spectrum_B(d, k, params), base).value
        s_ex += w * shannon_entropy(ensemble_spectrum_E(d, k, params), base).value
    return ensemble_conditional_entropy_A(params, base).value, s_b, s_bx, s_ex


def expected_columns(subcommand: str, sums) -> dict:
    """Rate columns of one row, from the textbook formulas."""
    h_a, s_b, s_bx, s_ex = sums
    if subcommand == "cq-curve":
        return {"rate_x": s_b - s_bx, "rate_y": s_bx - s_ex}
    if subcommand == "cqe-region":
        b3 = s_b - s_ex
        b1, b2 = h_a + b3, s_bx - s_ex
        q = (b1 + b2 - b3) / 2.0
        return {
            "b1_c2q": b1, "b2_qe": b2, "b3_cqe": b3,
            "corner_c": b3 - b2, "corner_q": q, "corner_e": b2 - q,
        }
    raise CheckError(f"no independent route for {subcommand}")


def row_mu(table: Table, row) -> list:
    d = int(table.meta["d"])
    mu = [_number(row[table.header.index(f"mu_{i}")]) for i in range(1, d)]
    return mu + [max(0.0, 1.0 - math.fsum(mu))]


def rederive_rows(table: Table, indices) -> None:
    for i in indices:
        row = table.rows[i]
        sums = entropy_sums(table.meta, row_mu(table, row))
        for col, want in expected_columns(table.meta["subcommand"], sums).items():
            got = _number(row[table.header.index(col)])
            if abs(got - want) > REDERIVE_TOL:
                raise CheckError(f"row {i} {col}: {got} but spectra route gives {want}")


def dyncap_objective(payload: dict) -> float:
    h_a, s_b, s_bx, s_ex = entropy_sums(payload["meta"], payload["argmax_mu"])
    lam, muw = payload["lambda"], payload["mu_weight"]
    return h_a + (muw + 1.0) * s_b + lam * s_bx - (lam + muw + 1.0) * s_ex


def check_dyncap(payload: dict, ref: dict, seed: int) -> None:
    try:
        _compare_meta(payload["meta"], ref["meta"], seed)
        for key in ("lambda", "mu_weight", "resolution"):
            if payload[key] != ref[key]:
                raise CheckError(f"{key}: {payload[key]} != reference {ref[key]}")
        value, grid_best = float(payload["value"]), float(payload["grid_best"])
        if not close12(grid_best, ref["grid_best"]):
            raise CheckError(f"grid_best {grid_best} != reference {ref['grid_best']}")
        if value < grid_best:
            raise CheckError(f"value {value} below grid_best {grid_best}")
        if value < ref["value"] - ABS_FLOOR:
            raise CheckError(f"value {value} below reference {ref['value']}")
        objective = dyncap_objective(payload)
    except (KeyError, TypeError) as exc:
        raise CheckError(f"dyncap output lacks a field: {exc!r}") from None
    if abs(objective - value) > REDERIVE_TOL:
        raise CheckError(f"value {value} but objective at argmax_mu is {objective}")


def grid_points(meta: dict) -> int:
    """Ensembles in the CLI's simplex grid (the uniform point is added when
    the resolution is not a multiple of d)."""
    d, r = int(meta["d"]), int(meta["grid"])
    return math.comb(r + d - 1, d - 1) + (1 if r % d else 0)


def check_output(workload, text: str, seed: int, rng) -> dict:
    """Apply both checks to one sample's stdout; returns its exact counts."""
    if workload.fmt == "json":
        payload = parse_json(text)
        if not isinstance(payload, dict) or not isinstance(payload.get("meta"), dict):
            raise CheckError("dyncap output is not a JSON object with meta")
        check_dyncap(payload, parse_json(reference_text(workload.name, "json")), seed)
        meta = payload["meta"]
    else:
        table = parse_csv(text)
        compare_table(table, parse_csv(reference_text(workload.name, "csv")), seed)
        n = min(workload.check_rows, len(table.rows))
        rederive_rows(table, sorted(rng.sample(range(len(table.rows)), n)))
        meta = table.meta
    counts = {"regions.grid_points": grid_points(meta)}
    if meta["K"] != "none":
        counts["spectra.horizon_K"] = int(meta["K"])
    return counts
