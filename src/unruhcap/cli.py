"""Command-line front end: sweeps, verification runs, bit-stable CSV/JSON.

Every output file starts with a self-describing header (dimension, channel
parameter, log base, truncation horizon and its certified tail bound, seed,
tool version); reals are written with 12 significant digits.  Identical
configuration and seed produce byte-identical files.

Exit codes: 0 all good (and all verifications passed), 1 a verification
failed, 2 usage error (an output path that cannot be written among them),
3 numeric guard (non-convergent truncation, size cap),
141 (128 + SIGPIPE) stdout closed early, as by ``| head``, with nothing on stderr.
Only the invoked subcommand's parser is built (``build_parser``), and it
offers only the flags its run reads.  Flags are parsed as plain numbers: the
library holds every range rule, the rule that exactly one of ``--k`` and
``--z`` is given, and the rule that ``--eps`` goes with ``--z`` alone, and
raises ``ValueError`` before it builds anything, which exits 2 as a usage
error of that subcommand (of the check, under ``verify``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__, regions
from .combinat import SizeCapError
from .spectra import ConvergenceError, cloner_spectrum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_GUARD = 3
EXIT_PIPE = 141

_GUARD_ERRORS = (ConvergenceError, SizeCapError, OverflowError)


_REAL = "%.12g"


def _fmt(x) -> str:
    return _REAL % float(x)


def _spec(args) -> regions.ChannelSpec:
    return regions.ChannelSpec(
        d=args.d, k=args.k, z=args.z, truncation_eps=args.eps, log_base=args.base
    )


def _meta(args, spec: regions.ChannelSpec) -> dict:
    if spec.z is None:
        eps = horizon = tail_bound = "none"
    else:
        k, bound = spec.horizon_tail
        eps, horizon, tail_bound = _fmt(spec.unruh_config().truncation_eps), str(k), _fmt(bound)
    meta = {
        "tool": f"unruhcap {__version__}",
        "subcommand": args.subcommand,
        "d": str(spec.d),
        "k": "none" if spec.k is None else str(spec.k),
        "z": "none" if spec.z is None else _fmt(spec.z),
        "log_base": _fmt(spec.base),
        "truncation_eps": eps,
        "K": horizon,
        "tail_bound": tail_bound,
    }
    if args.subcommand != "spectrum":  # a spectrum has no ensemble grid
        meta["grid"] = str(regions.sweep_resolution(spec.d, args.grid))
    meta["seed"] = str(args.seed)
    return meta


def _check_output(path: str) -> None:
    """``ValueError`` unless ``path`` ('-' is stdout) can be opened for
    writing; nothing is created or truncated."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if not path:
        reason = "the path is empty"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValueError(f"cannot write output {path!r}: {reason}")


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
    template = ",".join([_REAL] * table.shape[1]) + "\n"
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
        "lambda": weights.lambda_w,
        "mu_weight": weights.mu_w,
        "grid_best": result.grid_best,
        "family_gap": result.family_gap,
        "resolution": result.resolution,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import channelsim  # the matrix oracle; no sweep needs it

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

def _add_common(
    parser: argparse.ArgumentParser, *, sweep: bool = True, table: bool = True
) -> None:
    """``--base``, ``--seed`` and ``--output``; ``--eps`` and ``--grid`` for a
    sweep (a spectrum has no truncation and no grid); ``--format`` for a
    table (dyncap writes JSON only)."""
    if sweep:
        parser.add_argument("--eps", type=float, help="truncation tail bound (Unruh mode only)")
    parser.add_argument("--base", type=float, default=None, help="log base (default: d)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if sweep:
        parser.add_argument("--grid", type=int, default=None, help="simplex lattice resolution")


def _spectrum_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    _add_common(parser, sweep=False)
    parser.set_defaults(z=None, eps=None)


def _curve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--k", type=int, help="cloner block index (cloner mode; no --z, no --eps)")
    parser.add_argument("--z", type=float, help="acceleration parameter (Unruh mode; no --k)")
    _add_common(parser)


def _unruh_flags(parser: argparse.ArgumentParser, weights: bool = False) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--z", type=float, required=True)
    if weights:
        parser.add_argument("--lambda", dest="lambda_w", type=float, required=True)
        parser.add_argument("--mu-weight", dest="mu_weight", type=float, required=True)
    _add_common(parser, table=not weights)
    parser.set_defaults(k=None)


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    checks = parser.add_subparsers(dest="check", required=True)
    for name, help_text, ints, samples in (
        ("hadamard", "Kraus completeness/action/rank-one report", ("--d",), 100),
        ("cloner-equivalence", "block-vs-cloner spectral report", ("--d", "--k"), 20),
        ("ppt", "complement Choi partial-transpose report", ("--d", "--k"), None),
    ):
        check = checks.add_parser(name, help=help_text)
        for flag in ints:
            check.add_argument(flag, type=int, required=True)
        if samples is not None:
            check.add_argument("--samples", type=int, default=samples)
            check.add_argument("--seed", type=int, default=0)
        check.add_argument("--output", "-o", default="-")
        check.set_defaults(error=check.error)  # a refused value names the check


# name: (help line, adds the subcommand's flags to its parser, handler)
_SUBCOMMANDS = {
    "spectrum": ("cloner output spectrum table", _spectrum_flags, _cmd_spectrum),
    "cq-curve": ("classical/quantum Pareto boundary sweep", _curve_flags, _cmd_curve),
    "ce-curve": ("classical/entanglement Pareto boundary sweep", _curve_flags, _cmd_curve),
    "cqe-region": ("CQE bound triples and corner cloud", _unruh_flags, _cmd_cqe_region),
    "rps-region": ("public/private/secret-key bound triples", _unruh_flags, _cmd_rps_region),
    "dyncap": (
        "maximize the weighted dynamic capacity objective",
        lambda parser: _unruh_flags(parser, weights=True),
        _cmd_dyncap,
    ),
    "verify": ("matrix-oracle verification checks", _verify_flags, _cmd_verify),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the subcommand ``argv[0]`` names, alone, with prog
    ``unruhcap <name>`` (it parses ``argv[1:]``); else the top-level parser:
    ``-h``, ``--version`` and the list of subcommands, without their flags."""
    if argv and argv[0] in _SUBCOMMANDS:
        _, add_flags, func = _SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"unruhcap {argv[0]}")
        add_flags(parser)
        parser.set_defaults(subcommand=argv[0], func=func, error=parser.error)
        return parser
    parser = argparse.ArgumentParser(
        prog="unruhcap",
        description="Trade-off capacity regions of qudit cloners and the Unruh channel.",
    )
    parser.add_argument("--version", action="version", version=f"unruhcap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv[1:] if parser.get_default("subcommand") else argv)
    try:
        _check_output(args.output)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # On the null device, the interpreter's last flush of stdout cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:  # the destination, refused past _check_output
        args.error(f"cannot write output {args.output!r}: {exc.strerror or exc}")
        return 2  # unreachable; keeps type checkers calm
    except _GUARD_ERRORS as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, allow_nan=False) + "\n")
        return EXIT_GUARD
    except ValueError as exc:
        args.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type checkers calm


if __name__ == "__main__":
    sys.exit(main())
