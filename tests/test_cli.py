import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unruhcap import channelsim, cli, combinat, engine, entropy, regions, spectra


def run_cli(args):
    return cli.main(args)


def prog_of(argv):
    """The words of ``argv`` that name its parser: the check too, under verify."""
    return argv[:2] if argv[0] == "verify" else argv[:1]


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
    assert read_csv(out)[0]["grid"] == str(regions.sweep_resolution(2))


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


def test_unruh_command_searches_the_horizon_once(capsys, monkeypatch):
    # The K/tail_bound header and the evaluator's weights share one search.
    searches = []
    search = spectra.truncation

    def counted(cfg):
        searches.append(cfg)
        return search(cfg)

    for name, module in list(sys.modules.items()):
        if name.startswith("unruhcap") and getattr(module, "truncation", None) is search:
            monkeypatch.setattr(module, "truncation", counted)
    assert run_cli(["cqe-region", "--d", "3", "--z", "0.5", "--grid", "4"]) == 0
    assert searches == [spectra.UnruhConfig(3, 0.5)]
    out = capsys.readouterr().out
    assert "# K: 41\n# tail_bound: 9.30099526576e-09\n" in out
    # The whole stdout as printed while the header ran its own search.
    digest = "f337da8859bbed2c746a40a73c4a4d0dc66c74329f8cb4f9fff32cc473e046bc"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "d, lam, muw, resolution", [(5, 1.0, 0.5, 4), (8, 1.0, 0.0, 2)]
)
def test_dyncap_past_the_lattice_cap_climbs_on_the_family(d, lam, muw, resolution, forbid, capsys):
    # z = 0.75: the lattice would scan 2.1e8 (d = 5) or 4.2e12 (d = 8) terms
    # per evaluation.  The grid runs on the histogram kernel and the climb on
    # the family kernel, so no lattice table is built.  The optimum is the
    # uniform point, where the spectra are flat over dim_k and dim_{k-1} atoms.
    forbid("built lattice table", engine, "composition_table")
    argv = ["dyncap", "--d", str(d), "--z", "0.75", "--lambda", str(lam),
            "--mu-weight", str(muw), "--grid", str(resolution)]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family_gap"] == 0.0
    assert payload["argmax_mu"] == [1.0 / d] * d
    spec = regions.ChannelSpec(d, z=0.75)
    p = spectra.unruh_weights(spec.unruh_config())
    log_dim = np.array([math.log(combinat.block_dimension(d, k), d) for k in range(len(p) + 1)])
    s_b, s_e = p @ log_dim[1:], p @ log_dim[:-1]
    want = 1.0 + (muw + 1.0) * s_b + lam * s_b - (lam + muw + 1.0) * s_e
    assert payload["value"] == payload["grid_best"] == pytest.approx(want, abs=1e-12)


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``,
    and its descriptor is a file's."""

    def __init__(self, path: Path):
        self.handle = open(path, "w")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.handle.fileno()


def test_broken_pipe_exits_141_silently(tmp_path, capsys, monkeypatch):
    pipe = _ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert run_cli(["cq-curve", "--d", "2", "--z", "0.5", "--grid", "4"]) == 141
        assert capsys.readouterr().err == ""
        # stdout's descriptor now points at the null device, so a last flush
        # of buffered output cannot raise again.
        assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
    finally:
        pipe.handle.close()


def test_broken_pipe_in_a_child_process_exits_141_silently():
    # 5,001 rows (about 200 KB) overfill the pipe, so the child is still
    # writing when the reader closes it after one line.
    env = dict(os.environ, PYTHONPATH=str(Path(regions.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "unruhcap", "cq-curve", "--d", "2", "--k", "1", "--grid", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline() == f"# tool: unruhcap {cli.__version__}\n".encode()
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_keeps_blas_single_threaded_unless_chosen(preset, expected):
    # An idle OpenBLAS worker spins after numpy loads, and its CPU time lands
    # in short commands; the package keeps one thread unless the caller set one.
    env = dict(os.environ, PYTHONPATH=str(Path(regions.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (
        "import os, unruhcap.cli, numpy; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    value, threads = done.stdout.split()
    assert value == expected
    if preset is None:
        assert threads == "1"


def test_check_route_imports_no_hot_path_module():
    env = dict(os.environ, PYTHONPATH=str(Path(regions.__file__).parents[1]))
    cases = [
        # The closed-form spectra and entropies and the matrix oracle check
        # the sweep engine, so they load neither the engine nor its kernels.
        ("import unruhcap.spectra, unruhcap.entropy, unruhcap.channelsim", "unruhcap.kernels unruhcap.engine"),
        # A sweep loads neither the oracle, which only verify imports, nor
        # decimal, which only a size-cap message imports.
        (
            "from unruhcap import cli; "
            "assert cli.main(['cqe-region', '--d', '5', '--z', '0.5', '--grid', '4', '-o', os.devnull]) == 0; "
            "assert cli.main(['cq-curve', '--d', '2', '--z', '0.5', '--grid', '16', '-o', os.devnull]) == 0",
            "decimal unruhcap.channelsim",
        ),
    ]
    for run, modules in cases:
        script = f"import os, sys; {run}; print(sorted(set({modules.split()!r}) & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n", run


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Every `unruhcap` command in the README's CLI block runs as written.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("unruhcap ")]
    examples = [shlex.split(line, comments=True)[1:] for line in lines]
    assert len(examples) == 10
    monkeypatch.chdir(tmp_path)  # for the examples that write a file
    for argv in examples:
        assert run_cli(argv) == 0, argv


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


def test_usage_errors_exit_2(capsys):
    # Neither --k nor --z, then both: ChannelSpec holds the rule, and the
    # curve exits 2 with its message.
    for channel in ([], ["--k", "2", "--z", "0.5"]):
        with pytest.raises(SystemExit) as err:
            run_cli(["cq-curve", "--d", "2", *channel])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: unruhcap cq-curve " in captured.err
        assert "error: exactly one of k (cloner) or z (Unruh) must be set" in captured.err


@pytest.mark.parametrize("kind", ["missing directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cqe-region", "--d", "2", "--z", "0.5", "--grid", "2"],
        ["spectrum", "--d", "2", "--k", "2"],
        ["verify", "ppt", "--d", "2", "--k", "2"],
    ],
)
def test_unwritable_output_exits_2_before_the_run(argv, kind, tmp_path, capsys, monkeypatch, forbid):
    # Refused before the subcommand runs, and nothing is created.
    help_text, add_flags, _ = cli._SUBCOMMANDS[argv[0]]
    refuse = forbid("ran past an unwritable output")
    monkeypatch.setitem(cli._SUBCOMMANDS, argv[0], (help_text, add_flags, refuse))
    target = tmp_path / "absent" / "x.csv" if kind == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["-o", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prog = " ".join(prog_of(argv))
    assert f"usage: unruhcap {prog} " in captured.err
    assert str(target) in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("kind", ["missing directory", "directory"])
def test_late_output_error_exits_2(kind, tmp_path, capsys, monkeypatch):
    # An OSError on the destination after the early check, as when the
    # directory goes away during the sweep, is the same usage error.
    monkeypatch.setattr(cli, "_check_output", lambda path: None)
    target = tmp_path / "absent" / "x.csv" if kind == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as err:
        run_cli(["cqe-region", "--d", "2", "--z", "0.5", "--grid", "2", "-o", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: unruhcap cqe-region " in captured.err
    assert "cannot write output" in captured.err


@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_no_or_unknown_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: unruhcap [-h] [--version]" in captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == "unruhcap 0.1.0\n"


def listed_flags(help_text):
    """The option strings of a ``-h`` page, read from its first column alone:
    a help string may name other flags."""
    flags = set()
    for line in help_text.split("options:")[1].splitlines():
        if line.startswith("  -"):
            invocation = line.strip().split("  ")[0]
            flags |= {part.split()[0] for part in invocation.split(", ")}
    return flags


def test_help_lists_every_subcommand_and_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["-h"])
    assert err.value.code == 0
    listed = {tuple(line.split(None, 1)) for line in capsys.readouterr().out.splitlines()}
    assert {
        ("spectrum", "cloner output spectrum table"),
        ("cq-curve", "classical/quantum Pareto boundary sweep"),
        ("ce-curve", "classical/entanglement Pareto boundary sweep"),
        ("cqe-region", "CQE bound triples and corner cloud"),
        ("rps-region", "public/private/secret-key bound triples"),
        ("dyncap", "maximize the weighted dynamic capacity objective"),
        ("verify", "matrix-oracle verification checks"),
    } <= listed
    common = {"-h", "--help", "--base", "--seed", "--output", "-o"}
    for command, flags in (
        ("cq-curve", {"--d", "--k", "--z", "--eps", "--format", "--grid"}),
        ("dyncap", {"--d", "--z", "--lambda", "--mu-weight", "--eps", "--grid"}),
        ("spectrum", {"--d", "--k", "--format"}),
    ):
        with pytest.raises(SystemExit) as err:
            run_cli([command, "-h"])
        assert err.value.code == 0
        assert listed_flags(capsys.readouterr().out) == common | flags


# A run of each subcommand, and a value for each flag that differs from the run's.
FLAG_WALK_RUNS = [
    ["spectrum", "--d", "2", "--k", "2"],
    ["cq-curve", "--d", "2", "--k", "2", "--grid", "2"],
    ["ce-curve", "--d", "2", "--z", "0.5", "--grid", "2"],
    ["cqe-region", "--d", "2", "--z", "0.5", "--grid", "2"],
    ["rps-region", "--d", "2", "--z", "0.5", "--grid", "2"],
    ["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0", "--grid", "2"],
    ["verify", "hadamard", "--d", "2", "--samples", "2"],
    ["verify", "cloner-equivalence", "--d", "2", "--k", "2", "--samples", "2"],
    ["verify", "ppt", "--d", "2", "--k", "2"],
]
FLAG_WALK_VALUES = {
    "--d": "3", "--k": "3", "--z": "0.25", "--eps": "1e-3", "--base": "10", "--seed": "1",
    "--format": "json", "--grid": "3", "--lambda": "2", "--mu-weight": "1", "--samples": "3",
}


def stdout_or_usage_error(argv, capsys):
    """(exit code, stdout) of ``argv``; a usage error is exit code 2."""
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", FLAG_WALK_RUNS, ids=lambda argv: " ".join(prog_of(argv)))
def test_every_offered_flag_changes_stdout_or_exits_2(argv, capsys):
    # Each flag a subcommand's -h offers is read by its run: set to another
    # value, it changes stdout, or it is refused with a usage error, as
    # --eps is for a cloner block and --z is beside --k.  -o only moves stdout.
    with pytest.raises(SystemExit):
        run_cli([*prog_of(argv), "-h"])
    flags = listed_flags(capsys.readouterr().out) - {"-h", "--help", "-o", "--output"}
    assert flags, "no flag to walk"
    code, base = stdout_or_usage_error(argv, capsys)
    assert code == 0
    for flag in sorted(flags):
        code, out = stdout_or_usage_error(argv + [flag, FLAG_WALK_VALUES[flag]], capsys)
        assert (code == 2 and out == "") or (code == 0 and out != base), flag


@pytest.mark.parametrize("command", ["cqe-region", "cq-curve"])
def test_a_subcommand_builds_its_parser_alone(command, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = [command, "--d", "2", "--z", "0.5", "--grid", "2", "-o", str(tmp_path / "out.csv")]
    assert run_cli(argv) == 0
    assert built == [f"unruhcap {command}"]


DIM = "dimension must be an integer >= 2"
BLOCK = "block index must be an integer >= 1"
Z = "0 <= z < 1"
EPS = "truncation_eps must be positive"
BASE_LOW, BASE_INF = "log base must exceed 1", "log base must be finite"
GRID = "resolution must be >= 1"
SAMPLES = "n_samples must be >= 1"
CLONER_EPS = "a cloner block has no truncation"
UNOFFERED = "unrecognized arguments"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cq-curve", "--d", "1", "--z", "0.5"], DIM),
        (["cq-curve", "--d", "1", "--k", "2"], DIM),
        (["spectrum", "--d", "1", "--k", "2"], DIM),
        (["cq-curve", "--d", "2", "--k", "0"], BLOCK),
        (["spectrum", "--d", "2", "--k", "0"], BLOCK),
        (["cq-curve", "--d", "2", "--z", "1"], Z),
        (["ce-curve", "--d", "2", "--z", "-0.1"], Z),
        (["cqe-region", "--d", "2", "--z", "nan"], Z),
        (["dyncap", "--d", "2", "--z", "inf", "--lambda", "1", "--mu-weight", "0"], Z),
        (["cq-curve", "--d", "2", "--z", "0.5", "--eps", "0"], EPS),
        (["cqe-region", "--d", "2", "--z", "0.5", "--eps", "-1"], EPS),
        (["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0", "--eps", "nan"],
         EPS),
        (["cq-curve", "--d", "2", "--z", "0.5", "--base", "1"], BASE_LOW),
        (["rps-region", "--d", "2", "--z", "0.5", "--base", "inf"], BASE_INF),
        (["spectrum", "--d", "2", "--k", "2", "--base", "1"], BASE_LOW),
        (["spectrum", "--d", "2", "--k", "2", "--base", "inf"], BASE_INF),
        (["cq-curve", "--d", "2", "--z", "0.5", "--grid", "0"], GRID),
        (["ce-curve", "--d", "2", "--k", "2", "--grid", "0"], GRID),
        (["cqe-region", "--d", "3", "--z", "0.5", "--grid", "-3"], GRID),
        (["rps-region", "--d", "3", "--z", "0.5", "--grid", "0"], GRID),
        (["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0", "--grid", "0"],
         GRID),
        (["verify", "hadamard", "--d", "1"], DIM),
        (["verify", "cloner-equivalence", "--d", "1", "--k", "2"], DIM),
        (["verify", "ppt", "--d", "1", "--k", "2"], DIM),
        (["verify", "cloner-equivalence", "--d", "2", "--k", "0"], BLOCK),
        (["verify", "ppt", "--d", "2", "--k", "0"], BLOCK),
        (["verify", "hadamard", "--d", "2", "--samples", "0"], SAMPLES),
        (["verify", "cloner-equivalence", "--d", "2", "--k", "2", "--samples", "0"], SAMPLES),
        # An infinite base would print every rate as 0.
        (["cq-curve", "--d", "2", "--z", "0.5", "--grid", "2", "--base", "inf"], BASE_INF),
        (["cq-curve", "--d", "2", "--k", "3", "--grid", "2", "--base", "1"], BASE_LOW),
        (["cq-curve", "--d", "2", "--k", "3", "--grid", "2", "--base", "inf"], BASE_INF),
        (["verify", "hadamard", "--d", "2", "--samples", "-3"], SAMPLES),
        (["verify", "cloner-equivalence", "--d", "2", "--k", "3", "--samples", "-3"], SAMPLES),
        # A cloner block has no truncation, and neither has a spectrum; dyncap
        # always writes JSON.
        (["cq-curve", "--d", "3", "--k", "2", "--grid", "8", "--eps", "1e-3"], CLONER_EPS),
        (["spectrum", "--d", "2", "--k", "2", "--eps", "0.3"], UNOFFERED),
        (["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0", "--format", "csv"],
         UNOFFERED),
    ],
)
def test_bad_values_exit_2_before_anything_is_built(argv, message, capsys, forbid):
    # The flags parse as plain numbers; the library refuses each bad value
    # with its own ValueError before it builds an evaluator, a grid or a
    # matrix, and main turns that into a usage error of the subcommand, or of
    # the check under verify.  A flag the subcommand does not offer is
    # argparse's usage error of that subcommand.
    forbid("built past a bad value", engine.TradeoffEvaluator, "__init__")
    forbid("built past a bad value", channelsim, "Isometry", "KrausSet", "DensityMatrix")
    forbid("built past a bad value", spectra, "Spectrum")
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    prog = " ".join(prog_of(argv))
    assert f"usage: unruhcap {prog} " in captured.err
    assert f"unruhcap {prog}: error: " in captured.err


# The same refusals as the refusal table's rows argv12, argv26 and argv27,
# kept under their own test IDs; the other cases these two tests had are rows.
@pytest.mark.parametrize("value, message", [("1", "log base must exceed 1")])
@pytest.mark.parametrize("channel", [["--z", "0.5"]])
def test_log_base_must_be_finite_and_exceed_1(channel, value, message, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["cq-curve", "--d", "2", *channel, "--grid", "2", "--base", value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "usage: unruhcap cq-curve " in captured.err
    assert "unruhcap cq-curve: error: " in captured.err


@pytest.mark.parametrize("count", ["0"])
@pytest.mark.parametrize(
    "check", [["hadamard", "--d", "2"], ["cloner-equivalence", "--d", "2", "--k", "3"]]
)
def test_verify_rejects_vacuous_sample_count(check, count, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", *check, "--samples", count])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples must be >= 1" in captured.err
    assert f"usage: unruhcap verify {check[0]} " in captured.err


def test_numeric_guard_exits_3(tmp_path, capsys):
    rc = run_cli(["cq-curve", "--d", "2", "--z", "0.9999", "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ConvergenceError"


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "8", "--z", "0.75", "--grid", "2"],  # ~4e12 terms near the hull
        ["cqe-region", "--d", "10", "--z", "0.9", "--grid", "2"],  # dim_K ~1.3e18 >= 2**53
        ["dyncap", "--d", "10", "--z", "0.9", "--lambda", "1", "--mu-weight", "0", "--grid", "2"],
        ["cq-curve", "--d", "12", "--k", "1", "--grid", "64"],  # ~4.9e12 grid points
        # Wide grids: few rows, but each row holds d counts.
        ["cq-curve", "--d", "100000", "--k", "1", "--grid", "1"],  # 1e10 grid entries
        ["cqe-region", "--d", "100000", "--z", "0", "--grid", "1"],
        ["cq-curve", "--d", "90", "--k", "1", "--grid", "3"],  # 1.1e7 grid entries
    ],
)
def test_size_cap_exits_3_before_enumerating(argv, tmp_path, capsys, monkeypatch):
    # The caps are exact binomial counts taken before the lattice tables are
    # built, so only a few small tables may be enumerated before the refusal.
    # A table is budgeted by its entries (rows times modes) before it is built.
    entries = []

    def spend(count):
        entries.append(count)
        assert sum(entries) <= 10**6, f"enumerated {sum(entries)} table entries past the size cap"

    def budgeted(d, k):
        spend(math.comb(k + d - 1, d - 1) * d)
        return combinat.composition_matrix(d, k)

    def budgeted_table(d, horizon):
        spend(math.comb(horizon + d, d) * d)
        return combinat.composition_table(d, horizon)

    monkeypatch.setattr(engine, "composition_table", budgeted_table)
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
        ["dyncap", "--d", "10", "--z", "0.9", "--lambda", "1", "--mu-weight", "0", "--grid", "2"],
        ["cqe-region", "--d", "10", "--z", "0.9", "--grid", "2"],
        ["cqe-region", "--d", "5", "--z", "0.9", "--grid", "64"],
        ["ce-curve", "--d", "9", "--z", "0.8", "--grid", "2"],
    ],
)
def test_size_gate_refuses_before_the_grid(argv, capsys, forbid):
    # The curves evaluate the rows near their hull vertices on the lattice,
    # which is over its cap here, so they gate it first.  A per-orbit sweep,
    # the dyncap grid among them, is gated at its costliest orbits: at
    # d = 10, z = 0.9 no kernel fits even the vertex (the lattice
    # is over its cap, and dim_K = 1.3e18 >= 2**53 would make the histogram's
    # float counts inexact); at d = 5, grid 64 the histogram of (63, 1) / 64
    # needs 6.8e6 cells.  Each is refused before the ensemble grid is built.
    forbid("built the grid past the size gate", regions, "simplex_grid")
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "SizeCapError"


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "10", "--k", "30", "--grid", "1"],  # 1.9e9 table entries
        ["cq-curve", "--d", "1000", "--k", "2", "--grid", "1"],  # 5.0e8 table entries
    ],
)
def test_lattice_table_past_its_cap_exits_3_before_it_is_built(argv, capsys, forbid):
    # Both sweeps fit the histogram, but the curve evaluates its tied vertex
    # rows again on the lattice, whose (d-1)-mode table is over its cap.
    forbid("built lattice table", engine, "composition_table")
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "table entries" in diagnostic["message"]


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
    "command, d, z",
    [("cqe-region", 5, 0.9), ("cqe-region", 8, 0.75), ("rps-region", 8, 0.75), ("cqe-region", 9, 0.8)],
)
def test_histogram_only_sweeps_match_closed_form_rows(command, d, z, tmp_path, forbid):
    # The lattice would scan 3.3e10 (d = 5), 4.2e12 (d = 8) or 1.0e15 (d = 9)
    # terms per orbit; every orbit runs on the histogram kernel and no table
    # is built.  At d = 9 (K = 188) the least atom, 1/(4 M_K), is 2.6e-16.
    forbid("built lattice table", engine, "composition_table")
    out = tmp_path / "x.csv"
    assert run_cli([command, "--d", str(d), "--z", str(z), "--grid", "4", "-o", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert 0.0 < float(meta["tail_bound"]) <= 1e-8
    spec = regions.ChannelSpec(d, z=z)
    sweep = regions.region_surface_cqe if command == "cqe-region" else regions.rps_region
    mu, rates = sweep(spec, 4)
    assert len(rows) == len(mu)
    # At the vertex the receiver and environment spectra of block k are both
    # the cloner spectrum; at the uniform point they are flat over dim_k and
    # dim_{k-1} atoms.  (b2, b3) are (Q+E, C+Q+E), or (P+S, R+P+S).
    p = spectra.unruh_weights(spec.unruh_config())
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
def test_oracle_size_cap_exits_3_before_allocating(d, k, capsys, forbid):
    # dim_B = C(k+d-1, d-1) is checked before any basis table, spectrum or
    # matrix is built; building one fails the test.
    forbid("built past the oracle cap", channelsim, "composition_matrix", "cloner_spectrum")
    assert run_cli(["verify", "cloner-equivalence", "--d", d, "--k", k]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "SizeCapError"
    assert "exceeds cap 2000" in diagnostic["message"]


@pytest.mark.parametrize("k", ["1000001", str(10**9)])
def test_spectrum_size_cap_exits_3_before_building(k, tmp_path, capsys, forbid):
    # The table has k rows; k past spectra.MAX_SPECTRUM_ROWS is refused before
    # any atom is computed.
    forbid("built past the spectrum cap", spectra, "block_normalizer", "eigen_multiplicity")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["cqe-region", "--d", "200", "--z", "0.99", "--grid", "1"],  # every weight underflows
        ["dyncap", "--d", "200", "--z", "0.99", "--lambda", "1", "--mu-weight", "0", "--grid", "1"],
    ],
)
def test_underflowing_weights_exit_3_before_the_evaluator(argv, capsys, forbid):
    forbid("built the evaluator past the truncation guard", engine.TradeoffEvaluator, "__init__")
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err.strip())
    assert diagnostic["error"] == "ConvergenceError"
    assert "d=200, z=0.99" in diagnostic["message"]


def test_block_normalizer_past_the_float_range_exits_3(capsys, forbid):
    # The horizon search refuses at the first block whose normalizer is past
    # the float range (k = 309 of the K = 2416 it would reach), before any
    # block weight is computed.
    forbid("computed the block weights past the normalizer guard", regions, "unruh_weights")
    assert run_cli(["cqe-region", "--d", "1000", "--z", "0.5", "--grid", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip()) == {
        "error": "SizeCapError",
        "message": "d=1000, k=309: block normalizer M_k = C(1308, 1000) ~ 3.0e308 "
        "exceeds the float range",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["cqe-region", "--d", "300", "--z", "0.5", "--grid", "1"],  # two 268-digit kernel counts
        ["cq-curve", "--d", "1000", "--k", "1", "--grid", "1000"],  # C(1999, 999) grid points
        # 6,019 digits: past the 4,300 that str(int) prints, so a whole count exited 2.
        ["cq-curve", "--d", "10000", "--k", "1", "--grid", "10000"],
    ],
)
def test_size_cap_messages_round_big_counts(argv, capsys):
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err.strip())["message"]
    assert "exceed cap" in message
    assert len(message) < 300, message


@pytest.mark.parametrize(
    "command, flags, zero_line",
    [
        (["cq-curve", "--d", "2", "--grid", "2"], ["--z"], "# z: 0\n"),
        (
            ["dyncap", "--d", "2", "--z", "0.5", "--grid", "4"],
            ["--lambda", "--mu-weight"],
            '  "lambda": 0.0,\n',
        ),
    ],
    ids=["cq-curve-z", "dyncap-weights"],
)
def test_negative_zero_prints_as_zero(command, flags, zero_line, capsys):
    outputs = []
    for zero in ("-0.0", "0"):
        assert run_cli(command + [arg for flag in flags for arg in (flag, zero)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert zero_line in outputs[0]


def test_ce_curve_prints_no_negative_zero(tmp_path):
    out = tmp_path / "ce.csv"
    assert run_cli(["ce-curve", "--d", "2", "--z", "0.75", "--grid", "16", "-o", str(out)]) == 0
    _, _, rows = read_csv(out)
    cells = [cell for row in rows for cell in row.values()]
    assert "-0" not in cells
    assert [r["rate_y"] for r in rows if r["mu_1"] in ("0", "1")] == ["0", "0"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--mu-weight"])
def test_dyncap_rejects_nonfinite_weights(flag, value, capsys):
    args = ["dyncap", "--d", "2", "--z", "0.25", "--lambda", "1", "--mu-weight", "0", "--grid", "4"]
    with pytest.raises(SystemExit) as err:
        run_cli(args + [flag, value])  # the last occurrence of a flag wins
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "weights", [["--lambda", "1e308", "--mu-weight", "0"], ["--lambda", "1", "--mu-weight", "1e308"]]
)
def test_dyncap_refuses_overflowing_weights_before_the_grid(weights, capsys, forbid):
    # Finite weights whose objective would overflow are a numeric guard, not
    # a usage error, and are refused before the sweep runs.
    forbid("swept the grid past the overflow guard", regions, "_sweep")
    assert run_cli(["dyncap", "--d", "2", "--z", "0.5", *weights, "--grid", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "OverflowError"


@pytest.mark.parametrize("scale, status", [(0.999, 0), (1.001, 3)])
def test_dyncap_overflow_guard_boundary(scale, status, capsys, forbid):
    # The objective is at most (2 lambda + 2 mu + 3) times the largest
    # entropy, top; at mu = 0 it overflows once lambda passes max / (2 top).
    evaluator = regions.ChannelSpec(2, z=0.5).evaluator
    top = max(float(evaluator.log_dims[-1]), 1.0)  # log_2 d = 1
    lam = scale / (2.0 * top) * sys.float_info.max
    if status == 3:
        forbid("swept the grid past the overflow guard", regions, "_sweep")
    argv = ["dyncap", "--d", "2", "--z", "0.5", "--lambda", repr(lam), "--mu-weight", "0"]
    assert run_cli(argv + ["--grid", "4"]) == status
    captured = capsys.readouterr()
    if status == 0:
        assert math.isfinite(json.loads(captured.out)["value"])
    else:
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "OverflowError"


def test_dyncap_accepts_large_finite_weights(capsys):
    argv = ["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1e300", "--mu-weight", "0", "--grid", "4"]
    assert run_cli(argv) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["value"])
