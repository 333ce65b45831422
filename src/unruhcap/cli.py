"""Command-line front end: sweeps, verification runs, bit-stable CSV/JSON.

Every output file starts with a self-describing header (dimension, channel
parameter, log base, truncation horizon and its certified tail bound, seed,
tool version); reals are written with 12 significant digits.  Identical
configuration and seed produce byte-identical files.

Exit codes: 0 all good (and all verifications passed), 1 a verification
failed, 2 usage error, 3 numeric guard (non-convergent truncation, size cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__, channelsim, regions
from .spectra import ConvergenceError, UnruhConfig, cloner_spectrum, truncation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_GUARD = 3

_GUARD_ERRORS = (ConvergenceError, channelsim.SizeCapError, OverflowError)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _int_at_least(minimum: int, what: str):
    """argparse type for an integer ``what`` that must be >= ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value

    parse.__name__ = what  # argparse names the type in "invalid ... value"
    return parse


_dim = _int_at_least(2, "dimension")
_block = _int_at_least(1, "k")
_grid = _int_at_least(1, "grid resolution")
_samples = _int_at_least(1, "sample count")


def _accel(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("z must satisfy 0 <= z < 1")
    return value


def _eps(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return value


def _base(text: str) -> float:
    value = float(text)
    if not value > 1.0:
        raise argparse.ArgumentTypeError("log base must exceed 1")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Normalized per-run configuration shared by the sweep subcommands."""

    subcommand: str
    d: int
    k: int | None
    z: float | None
    grid: int
    truncation_eps: float
    log_base: float
    seed: int
    output: str
    fmt: str


def _run_config(args, subcommand: str) -> RunConfig:
    return RunConfig(
        subcommand=subcommand,
        d=args.d,
        k=args.k,
        z=args.z,
        grid=args.grid if args.grid is not None else regions.default_resolution(args.d),
        truncation_eps=args.eps,
        log_base=args.base if args.base is not None else float(args.d),
        seed=args.seed,
        output=args.output,
        fmt=args.format,
    )


def _channel_spec(cfg: RunConfig) -> regions.ChannelSpec:
    return regions.ChannelSpec(
        d=cfg.d, k=cfg.k, z=cfg.z, truncation_eps=cfg.truncation_eps, log_base=cfg.log_base
    )


def _unruh_config(cfg: RunConfig) -> UnruhConfig:
    return UnruhConfig(cfg.d, cfg.z, cfg.truncation_eps, cfg.log_base)


def _meta(cfg: RunConfig, horizon: int | None) -> dict:
    return {
        "tool": f"unruhcap {__version__}",
        "subcommand": cfg.subcommand,
        "d": str(cfg.d),
        "k": "none" if cfg.k is None else str(cfg.k),
        "z": "none" if cfg.z is None else _fmt(cfg.z),
        "log_base": _fmt(cfg.log_base),
        "truncation_eps": "none" if cfg.z is None else _fmt(cfg.truncation_eps),
        "K": "none" if horizon is None else str(horizon),
        "tail_bound": "none" if cfg.z is None else _fmt(truncation(_unruh_config(cfg))[1]),
        "grid": str(cfg.grid),
        "seed": str(cfg.seed),
    }


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_table(meta: dict, header: list[str], rows: list[tuple], cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        lines = [f"# {key}: {value}" for key, value in meta.items()]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
        _emit("\n".join(lines) + "\n", cfg.output)
    else:
        samples = [dict(zip(header, row)) for row in rows]
        payload = {"meta": meta, "samples": samples}
        _emit_json(payload, cfg.output)


def _emit_json(payload: dict, output: str) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", output)


def _mu_header(d: int) -> list[str]:
    return [f"mu_{i}" for i in range(1, d)]


def _mu_cells(params) -> list[str]:
    return [_fmt(x) for x in params.mu[:-1]]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    cfg = _run_config(args, "spectrum")
    spectrum = cloner_spectrum(cfg.d, cfg.k)
    rows = [(_fmt(v), str(m)) for v, m in spectrum.atoms]
    _emit_table(_meta(cfg, None), ["value", "multiplicity"], rows, cfg)
    return EXIT_OK


def _curve_rows(result: regions.CurveResult) -> list[tuple]:
    on_hull = set(result.hull_indices)
    rows = []
    for idx, sample in enumerate(result.samples):
        rows.append(
            (
                *_mu_cells(sample.ensemble),
                _fmt(sample.rates[0]),
                _fmt(sample.rates[1]),
                "1" if idx in on_hull else "0",
            )
        )
    return rows


def _cmd_curve(args, which: str) -> int:
    cfg = _run_config(args, which)
    spec = _channel_spec(cfg)
    result = regions.cq_curve(spec, cfg.grid) if which == "cq-curve" else regions.ce_curve(spec, cfg.grid)
    header = _mu_header(cfg.d) + ["rate_x", "rate_y", "on_hull"]
    _emit_table(_meta(cfg, result.samples[0].horizon), header, _curve_rows(result), cfg)
    return EXIT_OK


def _cmd_cqe_region(args) -> int:
    cfg = _run_config(args, "cqe-region")
    surface = regions.region_surface_cqe(_unruh_config(cfg), cfg.grid)
    meta = _meta(cfg, surface.samples[0].horizon)
    for name, ray in surface.rays.items():
        meta[f"ray_{name}"] = " ".join(_fmt(v) for v in ray)
    header = _mu_header(cfg.d) + ["b1_c2q", "b2_qe", "b3_cqe", "corner_c", "corner_q", "corner_e"]
    rows = []
    for sample in surface.samples:
        corner = regions.cqe_corner(sample.rates)
        rows.append(
            (
                *_mu_cells(sample.ensemble),
                *(_fmt(b) for b in sample.rates),
                *(_fmt(c) for c in corner),
            )
        )
    _emit_table(meta, header, rows, cfg)
    return EXIT_OK


def _cmd_rps_region(args) -> int:
    cfg = _run_config(args, "rps-region")
    samples = regions.rps_region(_unruh_config(cfg), cfg.grid)
    header = _mu_header(cfg.d) + ["rp_bound", "ps_bound", "rps_bound"]
    rows = [
        (*_mu_cells(s.ensemble), *(_fmt(b) for b in s.rates))
        for s in samples
    ]
    _emit_table(_meta(cfg, samples[0].horizon), header, rows, cfg)
    return EXIT_OK


def _cmd_dyncap(args) -> int:
    cfg = _run_config(args, "dyncap")
    result = regions.dynamic_capacity(
        _unruh_config(cfg),
        regions.CapacityWeights(args.lambda_w, args.mu_weight),
        cfg.grid,
    )
    payload = {
        "meta": _meta(cfg, result.horizon),
        "value": result.value,
        "argmax_mu": list(result.argmax.mu),
        "lambda": args.lambda_w,
        "mu_weight": args.mu_weight,
        "grid_best": result.grid_best,
        "resolution": result.resolution,
    }
    _emit_json(payload, cfg.output)
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
    parser.add_argument("--eps", type=_eps, default=1e-8, help="truncation tail bound")
    parser.add_argument("--base", type=_base, default=None, help="log base (default: d)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if grid:
        parser.add_argument("--grid", type=_grid, default=None, help="simplex lattice resolution")


def _add_channel_choice(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=_block, help="cloner block index (cloner mode)")
    group.add_argument("--z", type=_accel, help="acceleration parameter (Unruh mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruhcap",
        description="Trade-off capacity regions of qudit cloners and the Unruh channel.",
    )
    parser.add_argument("--version", action="version", version=f"unruhcap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="cloner output spectrum table")
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--k", type=_block, required=True)
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_spectrum, grid=None, z=None)

    for name, help_text in (
        ("cq-curve", "classical/quantum Pareto boundary sweep"),
        ("ce-curve", "classical/entanglement Pareto boundary sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=_dim, required=True)
        _add_channel_choice(p)
        _add_common(p)
        p.set_defaults(func=lambda a, which=name: _cmd_curve(a, which))

    p = sub.add_parser("cqe-region", help="CQE bound triples and corner cloud")
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--z", type=_accel, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_cqe_region, k=None)

    p = sub.add_parser("rps-region", help="public/private/secret-key bound triples")
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--z", type=_accel, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_rps_region, k=None)

    p = sub.add_parser("dyncap", help="maximize the weighted dynamic capacity objective")
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--z", type=_accel, required=True)
    p.add_argument("--lambda", dest="lambda_w", type=float, required=True)
    p.add_argument("--mu-weight", dest="mu_weight", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dyncap, k=None)

    p = sub.add_parser("verify", help="matrix-oracle verification checks")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("hadamard", help="Kraus completeness/action/rank-one report")
    v.add_argument("--d", type=_dim, required=True)
    v.add_argument("--samples", type=_samples, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("cloner-equivalence", help="block-vs-cloner spectral report")
    v.add_argument("--d", type=_dim, required=True)
    v.add_argument("--k", type=_block, required=True)
    v.add_argument("--samples", type=_samples, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("ppt", help="complement Choi partial-transpose report")
    v.add_argument("--d", type=_dim, required=True)
    v.add_argument("--k", type=_block, required=True)
    v.add_argument("--output", "-o", default="-")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _GUARD_ERRORS as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, allow_nan=False) + "\n")
        return EXIT_GUARD
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type checkers calm


if __name__ == "__main__":
    sys.exit(main())
