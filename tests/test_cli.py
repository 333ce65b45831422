import json
import math

import numpy as np
import pytest

from unruhcap import channelsim, cli, combinat, engine, entropy, regions, spectra


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_spectrum_command(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert run_cli(["spectrum", "--d", "2", "--k", "2", "-o", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["value", "multiplicity"]
    assert [(float(r["value"]), int(r["multiplicity"])) for r in rows] == [
        pytest.approx((1 / 3, 1)),
        pytest.approx((2 / 3, 1)),
    ]
    for key in ("tool", "d", "k", "z", "log_base", "truncation_eps", "K", "seed"):
        assert key in meta
    assert meta["tool"].startswith("unruhcap ")


def test_grid_header_only_for_sweeps(tmp_path):
    # A spectrum has no ensemble grid; a sweep names the one it ran.
    out = tmp_path / "out.csv"
    assert run_cli(["spectrum", "--d", "3", "--k", "4", "-o", str(out)]) == 0
    assert "grid" not in read_csv(out)[0]
    assert run_cli(["rps-region", "--d", "3", "--z", "0.5", "--grid", "2", "-o", str(out)]) == 0
    assert read_csv(out)[0]["grid"] == "2"
    assert run_cli(["cqe-region", "--d", "2", "--z", "0.25", "-o", str(out)]) == 0
    assert read_csv(out)[0]["grid"] == str(regions.default_resolution(2))


def test_cq_curve_noiseless_contains_endpoints(tmp_path):
    out = tmp_path / "cq.csv"
    assert run_cli(["cq-curve", "--d", "2", "--k", "1", "--grid", "4", "-o", str(out)]) == 0
    _, _, rows = read_csv(out)
    points = {(round(float(r["rate_x"]), 12), round(float(r["rate_y"]), 12)) for r in rows}
    assert (1.0, 0.0) in points
    assert (0.0, 1.0) in points
    hull_points = {
        (round(float(r["rate_x"]), 9), round(float(r["rate_y"]), 9))
        for r in rows
        if r["on_hull"] == "1"
    }
    assert hull_points == {(1.0, 0.0), (0.0, 1.0)}


def test_curve_json_mirrors_csv_fields(tmp_path):
    out = tmp_path / "ce.json"
    assert run_cli(
        ["ce-curve", "--d", "2", "--k", "2", "--grid", "8", "--format", "json", "-o", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "samples"}
    assert len(payload["samples"]) == 9
    assert set(payload["samples"][0]) == {"mu_1", "rate_x", "rate_y", "on_hull"}


def test_unruh_curve_header_carries_horizon(tmp_path):
    out = tmp_path / "cq_unruh.csv"
    assert run_cli(
        ["cq-curve", "--d", "2", "--z", "0.5", "--grid", "8", "-o", str(out)]
    ) == 0
    meta, _, rows = read_csv(out)
    assert meta["z"] == "0.5" and meta["k"] == "none"
    assert int(meta["K"]) >= 1
    assert meta["truncation_eps"] == "1e-08"
    assert len(rows) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "2", "--z", "0.5", "--grid", "4"],
        ["ce-curve", "--d", "3", "--z", "0.25", "--grid", "2", "--eps", "1e-5"],
        ["cqe-region", "--d", "2", "--z", "0.75", "--grid", "4", "--eps", "1e-10"],
        ["rps-region", "--d", "3", "--z", "0.5", "--grid", "2", "--base", "2"],
        ["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0", "--grid", "4"],
    ],
)
def test_unruh_meta_reports_certified_tail_bound(argv, tmp_path):
    out = tmp_path / "out"
    assert run_cli(argv + ["-o", str(out)]) == 0
    if argv[0] == "dyncap":
        meta = json.loads(out.read_text())["meta"]
    else:
        meta, _, _ = read_csv(out)
    eps = float(argv[argv.index("--eps") + 1]) if "--eps" in argv else 1e-8
    assert 0.0 < float(meta["tail_bound"]) <= eps


def test_tail_bound_is_zero_noiseless_and_none_for_a_cloner(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(["cqe-region", "--d", "2", "--z", "0", "--grid", "2", "-o", str(out)]) == 0
    assert read_csv(out)[0]["tail_bound"] == "0"
    assert run_cli(["cq-curve", "--d", "2", "--k", "3", "--grid", "2", "-o", str(out)]) == 0
    assert read_csv(out)[0]["tail_bound"] == "none"
    assert run_cli(["spectrum", "--d", "2", "--k", "3", "-o", str(out)]) == 0
    assert read_csv(out)[0]["tail_bound"] == "none"


def test_cqe_region_rays_and_columns(tmp_path):
    out = tmp_path / "cqe.csv"
    assert run_cli(["cqe-region", "--d", "2", "--z", "0.25", "--grid", "4", "-o", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["mu_1", "b1_c2q", "b2_qe", "b3_cqe", "corner_c", "corner_q", "corner_e"]
    for ray in ("ray_TP", "ray_SD", "ray_ED"):
        assert ray in meta
    for row in rows:
        b1, b2, b3 = (float(row[c]) for c in ("b1_c2q", "b2_qe", "b3_cqe"))
        c, q, e = (float(row[c]) for c in ("corner_c", "corner_q", "corner_e"))
        assert c + 2 * q == pytest.approx(b1, abs=1e-9)
        assert q + e == pytest.approx(b2, abs=1e-9)


def test_rps_region_command(tmp_path):
    out = tmp_path / "rps.csv"
    assert run_cli(["rps-region", "--d", "2", "--z", "0.5", "--grid", "4", "-o", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["mu_1", "rp_bound", "ps_bound", "rps_bound"]
    assert len(rows) == 5


def test_dyncap_command(tmp_path):
    out = tmp_path / "dyncap.json"
    assert run_cli(
        [
            "dyncap", "--d", "2", "--z", "0.25",
            "--lambda", "1.0", "--mu-weight", "0.0", "--grid", "16",
            "-o", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] >= payload["grid_best"]
    assert len(payload["argmax_mu"]) == 2
    assert payload["meta"]["K"] != "none"


def test_verify_commands_pass(tmp_path):
    out = tmp_path / "had.json"
    assert run_cli(["verify", "hadamard", "--d", "2", "--samples", "10", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True and payload["check"] == "hadamard-kraus"

    out2 = tmp_path / "eq.json"
    assert run_cli(
        ["verify", "cloner-equivalence", "--d", "2", "--k", "3", "--samples", "5", "-o", str(out2)]
    ) == 0
    assert json.loads(out2.read_text())["pass"] is True

    out3 = tmp_path / "ppt.json"
    assert run_cli(["verify", "ppt", "--d", "2", "--k", "2", "-o", str(out3)]) == 0
    payload3 = json.loads(out3.read_text())
    assert payload3["pass"] is True
    assert payload3["details"]["min_partial_transpose_eigenvalue"] >= -1e-9


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["cq-curve", "--d", "2"])  # neither --k nor --z
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["cq-curve", "--d", "2", "--k", "2", "--z", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["spectrum", "--d", "1", "--k", "2"])
    assert err.value.code == 2


def test_numeric_guard_exits_3(tmp_path, capsys):
    rc = run_cli(["cq-curve", "--d", "2", "--z", "0.9999", "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ConvergenceError"


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "8", "--z", "0.75", "--grid", "2"],  # ~4e12 terms, lattice only
        ["cqe-region", "--d", "10", "--z", "0.9", "--grid", "2"],  # dim_K ~1.3e18 >= 2**53
        ["dyncap", "--d", "8", "--z", "0.75", "--lambda", "1", "--mu-weight", "0", "--grid", "2"],
        ["cq-curve", "--d", "12", "--k", "1", "--grid", "64"],  # ~4.9e12 grid points
    ],
)
def test_size_cap_exits_3_before_enumerating(argv, tmp_path, capsys, monkeypatch):
    # The caps are exact binomial counts taken before the lattice tables are
    # built, so only a few small tables may be enumerated before the refusal.
    rows = []

    def budgeted(d, k):
        rows.append(math.comb(k + d - 1, d - 1))
        assert sum(rows) <= 10**6, f"enumerated {sum(rows)} lattice rows past the size cap"
        return combinat.composition_matrix(d, k)

    monkeypatch.setattr(engine, "composition_matrix", budgeted)
    monkeypatch.setattr(regions, "composition_matrix", budgeted)
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["-o", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "exceed cap" in diagnostic["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "8", "--z", "0.75", "--grid", "2"],
        ["dyncap", "--d", "8", "--z", "0.75", "--lambda", "1", "--mu-weight", "0", "--grid", "2"],
        ["cqe-region", "--d", "10", "--z", "0.9", "--grid", "2"],
        ["cqe-region", "--d", "5", "--z", "0.9", "--grid", "64"],
        ["cqe-region", "--d", "9", "--z", "0.8", "--grid", "2"],
    ],
)
def test_size_gate_refuses_before_the_grid(argv, capsys, monkeypatch):
    # The curves and the dyncap climb run on the lattice only, which is over
    # its cap here.  A per-orbit sweep is gated at its costliest orbits: at
    # d = 10 no kernel fits even the vertex; at d = 5, grid 64 the histogram of
    # (63, 1) / 64 needs 6.8e6 cells; at d = 9, z = 0.8 (K = 188) the atoms
    # 1/(n M_K) of (1, 1) / 2 fall below the floor.  Each is refused before
    # the ensemble grid is built.
    def refuse(*args):
        raise AssertionError(f"built grid {args} past the size gate")

    monkeypatch.setattr(regions, "simplex_grid", refuse)
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "SizeCapError"


def test_cloner_block_past_every_cap_exits_3_before_allocating(capsys):
    # 2**62 block weights can never be allocated: the vertex, the cheapest
    # grid point, fits no kernel, so the block is refused before its weights.
    assert run_cli(["cq-curve", "--d", "2", "--k", str(2**62)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "exceed cap" in diagnostic["message"]


@pytest.mark.parametrize(
    "command, d, z", [("cqe-region", 5, 0.9), ("cqe-region", 8, 0.75), ("rps-region", 8, 0.75)]
)
def test_histogram_only_sweeps_match_closed_form_rows(command, d, z, tmp_path, monkeypatch):
    # The lattice would scan 3.3e10 (d = 5) or 4.2e12 (d = 8) terms per
    # orbit; every orbit runs on the histogram kernel and no table is built.
    def refuse(*args):
        raise AssertionError(f"built lattice table {args}")

    monkeypatch.setattr(engine, "composition_matrix", refuse)
    out = tmp_path / "x.csv"
    assert run_cli([command, "--d", str(d), "--z", str(z), "--grid", "4", "-o", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert 0.0 < float(meta["tail_bound"]) <= 1e-8
    cfg = spectra.UnruhConfig(d, z)
    sweep = regions.region_surface_cqe if command == "cqe-region" else regions.rps_region
    mu, rates = sweep(cfg, 4)
    assert len(rows) == len(mu)
    # At the vertex the receiver and environment spectra of block k are both
    # the cloner spectrum; at the uniform point they are flat over dim_k and
    # dim_{k-1} atoms.  (b2, b3) are (Q+E, C+Q+E), or (P+S, R+P+S).
    p = spectra.unruh_weights(cfg)
    log_dim = np.array([math.log(combinat.block_dimension(d, k), d) for k in range(len(p) + 1)])
    h_cloner = [entropy.shannon_entropy(spectra.cloner_spectrum(d, k), d).value
                for k in range(1, len(p) + 1)]
    public = p @ (log_dim[1:] - h_cloner)
    (vertex,) = np.flatnonzero(mu[:, 0] == 1.0)
    (uniform,) = np.flatnonzero(np.all(mu == 1.0 / d, axis=1))
    b2, b3 = rates[:, 1], rates[:, 2]
    assert abs(b2[vertex]) <= 1e-12
    assert abs(b3[vertex] - public) <= 1e-12
    assert abs(b2[uniform] - p @ (log_dim[1:] - log_dim[:-1])) <= 1e-12
    assert abs(b3[uniform] - b2[uniform]) <= 1e-12
    if command == "rps-region":
        assert np.abs(rates[:, 0] - public).max() <= 1e-12


@pytest.mark.parametrize("d, k", [("4", "60"), ("2", "2000")])  # dim_B = 39,711 and 2,001
def test_oracle_size_cap_exits_3_before_allocating(d, k, capsys, monkeypatch):
    # dim_B = C(k+d-1, d-1) is checked before any basis table, spectrum or
    # matrix is built; building one fails the test.
    def refuse(*args):
        raise AssertionError(f"built {args} past the oracle cap")

    monkeypatch.setattr(channelsim, "composition_matrix", refuse)
    monkeypatch.setattr(channelsim, "cloner_spectrum", refuse)
    assert run_cli(["verify", "cloner-equivalence", "--d", d, "--k", k]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "exceeds cap 2000" in diagnostic["message"]


@pytest.mark.parametrize("k", ["1000001", str(10**9)])
def test_spectrum_size_cap_exits_3_before_building(k, tmp_path, capsys, monkeypatch):
    # The table has k rows; k past spectra.MAX_SPECTRUM_ROWS is refused before
    # any atom is computed.
    def refuse(*args):
        raise AssertionError(f"built {args} past the spectrum cap")

    monkeypatch.setattr(spectra, "block_normalizer", refuse)
    monkeypatch.setattr(spectra, "eigen_multiplicity", refuse)
    out = tmp_path / "x.csv"
    assert run_cli(["spectrum", "--d", "2", "--k", k, "-o", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "exceed cap 1000000" in diagnostic["message"]
    assert not out.exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ce-curve", "--d", "2", "--z", "0.25", "--grid", "8"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ce_curve_prints_no_negative_zero(tmp_path):
    out = tmp_path / "ce.csv"
    assert run_cli(["ce-curve", "--d", "2", "--z", "0.75", "--grid", "16", "-o", str(out)]) == 0
    _, _, rows = read_csv(out)
    cells = [cell for row in rows for cell in row.values()]
    assert "-0" not in cells
    assert [r["rate_y"] for r in rows if r["mu_1"] in ("0", "1")] == ["0", "0"]


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize(
    "check", [["hadamard", "--d", "2"], ["cloner-equivalence", "--d", "2", "--k", "3"]]
)
def test_verify_rejects_vacuous_sample_count(check, count, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", *check, "--samples", count])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--mu-weight"])
def test_dyncap_rejects_nonfinite_weights(flag, value, capsys):
    args = ["dyncap", "--d", "2", "--z", "0.25", "--lambda", "1", "--mu-weight", "0", "--grid", "4"]
    with pytest.raises(SystemExit) as err:
        run_cli(args + [flag, value])  # the last occurrence of a flag wins
    assert err.value.code == 2
    assert capsys.readouterr().out == ""
