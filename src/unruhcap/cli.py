"""Command-line front end: sweeps, verification runs, bit-stable CSV/JSON.

Every output file starts with a self-describing header (dimension, channel
parameter, log base, truncation horizon and its certified tail bound, seed,
tool version); reals are written with 12 significant digits.  Identical
configuration and seed produce byte-identical files.

Exit codes: 0 all good (and all verifications passed), 1 a verification
failed, 2 usage error, 3 numeric guard (non-convergent truncation, size cap),
141 (128 + SIGPIPE) stdout closed early, as by ``| head``, with nothing on stderr.
Flags are parsed as plain numbers: the library holds every range rule and
raises ``ValueError`` before it builds anything, which exits 2 as a usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__, channelsim, regions
from .spectra import ConvergenceError, cloner_spectrum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_GUARD = 3
EXIT_PIPE = 141

_GUARD_ERRORS = (ConvergenceError, channelsim.SizeCapError, OverflowError)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _spec(args) -> regions.ChannelSpec:
    return regions.ChannelSpec(
        d=args.d, k=args.k, z=args.z, truncation_eps=args.eps, log_base=args.base
    )


def _meta(args, spec: regions.ChannelSpec) -> dict:
    if spec.z is None:
        horizon = tail_bound = "none"
    else:
        k, bound = spec.horizon_tail
        horizon, tail_bound = str(k), _fmt(bound)
    meta = {
        "tool": f"unruhcap {__version__}",
        "subcommand": args.subcommand,
        "d": str(spec.d),
        "k": "none" if spec.k is None else str(spec.k),
        "z": "none" if spec.z is None else _fmt(spec.z),
        "log_base": _fmt(spec.base),
        "truncation_eps": "none" if spec.z is None else _fmt(spec.truncation_eps),
        "K": horizon,
        "tail_bound": tail_bound,
    }
    if args.subcommand != "spectrum":  # a spectrum has no ensemble grid
        meta["grid"] = str(regions.sweep_resolution(spec.d, args.grid))
    meta["seed"] = str(args.seed)
    return meta


@contextlib.contextmanager
def _output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _emit_table(meta: dict, header: list[str], lines, args) -> None:
    """Write ``lines`` (CSV rows, each ending in a newline) as CSV, or their
    cells as JSON samples."""
    if args.format == "json":
        samples = [dict(zip(header, line[:-1].split(","))) for line in lines]
        _emit_json({"meta": meta, "samples": samples}, args.output)
        return
    with _output(args.output) as out:
        for key, value in meta.items():
            out.write(f"# {key}: {value}\n")
        out.write(",".join(header) + "\n")
        out.writelines(lines)


def _emit_json(payload: dict, output: str) -> None:
    with _output(output) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _mu_header(d: int) -> list[str]:
    return [f"mu_{i}" for i in range(1, d)]


def _sweep_lines(mu, *columns):
    """CSV lines of a sweep, one row at a time: mu_1..mu_{d-1}, then the
    columns, each cell formatted as ``_fmt`` does."""
    table = np.hstack([mu[:, :-1], *columns])
    template = ",".join(["%.12g"] * table.shape[1]) + "\n"
    for row in table:
        yield template % tuple(row.tolist())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    spec = _spec(args)
    lines = (f"{_fmt(v)},{m}\n" for v, m in cloner_spectrum(spec.d, spec.k).atoms)
    _emit_table(_meta(args, spec), ["value", "multiplicity"], lines, args)
    return EXIT_OK


def _cmd_curve(args) -> int:
    spec = _spec(args)
    curve = regions.cq_curve if args.subcommand == "cq-curve" else regions.ce_curve
    result = curve(spec, args.grid)
    on_hull = np.zeros((len(result.mu), 1))  # 0.0 and 1.0 format as "0" and "1"
    on_hull[list(result.hull_indices)] = 1.0
    header = _mu_header(spec.d) + ["rate_x", "rate_y", "on_hull"]
    _emit_table(_meta(args, spec), header, _sweep_lines(result.mu, result.rates, on_hull), args)
    return EXIT_OK


def _cmd_cqe_region(args) -> int:
    spec = _spec(args)
    mu, rates = regions.region_surface_cqe(spec, args.grid)
    meta = _meta(args, spec)
    for name, ray in regions.PROTOCOL_RAYS.items():
        meta[f"ray_{name}"] = " ".join(_fmt(v) for v in ray)
    header = _mu_header(spec.d) + ["b1_c2q", "b2_qe", "b3_cqe", "corner_c", "corner_q", "corner_e"]
    corners = np.column_stack(regions.cqe_corner(rates.T))
    _emit_table(meta, header, _sweep_lines(mu, rates, corners), args)
    return EXIT_OK


def _cmd_rps_region(args) -> int:
    spec = _spec(args)
    mu, rates = regions.rps_region(spec, args.grid)
    header = _mu_header(spec.d) + ["rp_bound", "ps_bound", "rps_bound"]
    _emit_table(_meta(args, spec), header, _sweep_lines(mu, rates), args)
    return EXIT_OK


def _cmd_dyncap(args) -> int:
    spec = _spec(args)
    weights = regions.CapacityWeights(args.lambda_w, args.mu_weight)
    result = regions.dynamic_capacity(spec, weights, args.grid)
    payload = {
        "meta": _meta(args, spec),
        "value": result.value,
        "argmax_mu": list(result.argmax.mu),
        "lambda": args.lambda_w,
        "mu_weight": args.mu_weight,
        "grid_best": result.grid_best,
        "family_gap": result.family_gap,
        "resolution": result.resolution,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.check == "hadamard":
        report = channelsim.verify_kraus(args.d, n_samples=args.samples, seed=args.seed)
    elif args.check == "cloner-equivalence":
        report = channelsim.verify_cloner_equivalence(
            args.d, args.k, n_samples=args.samples, seed=args.seed
        )
    else:
        report = channelsim.choi_ppt_check(args.d, args.k)
    payload = report.to_json()
    payload["tool"] = f"unruhcap {__version__}"
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, grid: bool = True) -> None:
    parser.add_argument("--eps", type=float, default=1e-8, help="truncation tail bound")
    parser.add_argument("--base", type=float, default=None, help="log base (default: d)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if grid:
        parser.add_argument("--grid", type=int, default=None, help="simplex lattice resolution")


def _add_channel_choice(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="cloner block index (cloner mode)")
    group.add_argument("--z", type=float, help="acceleration parameter (Unruh mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruhcap",
        description="Trade-off capacity regions of qudit cloners and the Unruh channel.",
    )
    parser.add_argument("--version", action="version", version=f"unruhcap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="cloner output spectrum table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_spectrum, z=None)

    for name, help_text in (
        ("cq-curve", "classical/quantum Pareto boundary sweep"),
        ("ce-curve", "classical/entanglement Pareto boundary sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=int, required=True)
        _add_channel_choice(p)
        _add_common(p)
        p.set_defaults(func=_cmd_curve)

    for name, help_text, func in (
        ("cqe-region", "CQE bound triples and corner cloud", _cmd_cqe_region),
        ("rps-region", "public/private/secret-key bound triples", _cmd_rps_region),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--z", type=float, required=True)
        _add_common(p)
        p.set_defaults(func=func, k=None)

    p = sub.add_parser("dyncap", help="maximize the weighted dynamic capacity objective")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--lambda", dest="lambda_w", type=float, required=True)
    p.add_argument("--mu-weight", dest="mu_weight", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dyncap, k=None)

    p = sub.add_parser("verify", help="matrix-oracle verification checks")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("hadamard", help="Kraus completeness/action/rank-one report")
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("cloner-equivalence", help="block-vs-cloner spectral report")
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("ppt", help="complement Choi partial-transpose report")
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # On the null device, the interpreter's last flush of stdout cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except _GUARD_ERRORS as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, allow_nan=False) + "\n")
        return EXIT_GUARD
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type checkers calm


if __name__ == "__main__":
    sys.exit(main())
