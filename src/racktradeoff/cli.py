"""Command line frontend: curves, points, comparisons, sweeps, verification.

All numeric output is exact ("p/q" strings) with decimal convenience columns
(12 significant digits, half-even) suffixed `_dec`. Output is byte-stable for
identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .config import SystemConfig, load_config, parse_and_validate
from .errors import EnumerationTooLarge, InvalidConfig, SchemaError
from .flowgraph import verify
from .threshold import (
    ThresholdCurve,
    extremal_points,
    rack_curve,
    reference_curve,
    repair_metrics,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


def _dec(value: Fraction) -> str:
    """Exact value rounded to 12 significant digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        out = Decimal(value.numerator) / Decimal(value.denominator)
    return str(out)


def _rat(value: Fraction) -> str:
    return str(value)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad argv; the contract reserves 2 for config errors
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="racktradeoff", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    curve = sub.add_parser("curve", help="emit one model's tradeoff curve")
    curve.add_argument("--config", required=True)
    curve.add_argument("--model", required=True, choices=["rack", "static", "basic"])
    curve.add_argument("--format", default="csv", choices=["csv", "json"])
    curve.add_argument("--table", default="knees", choices=["knees", "segments"])
    curve.add_argument("--out")

    points = sub.add_parser("points", help="emit the MSR and MBR points")
    points.add_argument("--config", required=True)
    points.add_argument("--model", required=True, choices=["rack"])
    points.add_argument("--out")

    compare = sub.add_parser("compare", help="emit several models' curves")
    compare.add_argument("--config", required=True)
    compare.add_argument("--models", required=True)
    compare.add_argument("--out")

    sweep = sub.add_parser("sweep", help="emit rack curves across tau values")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--model", required=True, choices=["rack"])
    sweep.add_argument("--tau", required=True)
    sweep.add_argument("--out")

    ver = sub.add_parser("verify", help="cross-check analytics against the flow-graph oracle")
    ver.add_argument("--config", required=True)
    ver.add_argument("--samples", required=True, type=int)
    ver.add_argument("--seed", required=True, type=int)
    ver.add_argument("--mode", required=True, choices=["structured", "exhaustive"])
    ver.add_argument("--out")
    return parser


def _knee_header(num_racks: int) -> str:
    cols = ["knee_index", "L_i", "beta_e", "beta_e_dec", "alpha", "alpha_dec"]
    for j in range(1, num_racks + 1):
        cols += [f"gamma_{j}", f"gamma_{j}_dec"]
    for j in range(1, num_racks + 1):
        cols += [f"cost_{j}", f"cost_{j}_dec"]
    return ",".join(cols)


def _knee_rows(curve: ThresholdCurve, cfg: SystemConfig) -> list[str]:
    rows = []
    for index, beta, alpha in curve.knees:
        metrics = repair_metrics(cfg, beta)
        cells = [str(index), _rat(curve.L.values[index]), _rat(beta), _dec(beta), _rat(alpha), _dec(alpha)]
        for g in metrics.gamma:
            cells += [_rat(g), _dec(g)]
        for c in metrics.cost:
            cells += [_rat(c), _dec(c)]
        rows.append(",".join(cells))
    return rows


_SEGMENT_HEADER = "segment_index,i,L_i,g_i,beta_lo,beta_hi,alpha_lo,alpha_hi"


def _segment_rows(curve: ThresholdCurve) -> list[str]:
    rows = []
    for pos, seg in enumerate(curve.segments):
        beta_hi = "inf" if seg.beta_hi is None else _rat(seg.beta_hi)
        alpha_hi = _rat(seg.alpha_at(seg.beta_hi)) if seg.beta_hi is not None else _rat(seg.alpha_at(seg.beta_lo))
        rows.append(
            ",".join(
                [
                    str(pos),
                    str(seg.index),
                    _rat(seg.coeff),
                    _rat(seg.g),
                    _rat(seg.beta_lo),
                    beta_hi,
                    _rat(seg.alpha_at(seg.beta_lo)),
                    alpha_hi,
                ]
            )
        )
    return rows


def _curve_csv(curve: ThresholdCurve, cfg: SystemConfig, table: str) -> str:
    if table == "segments":
        return "\n".join([_SEGMENT_HEADER] + _segment_rows(curve)) + "\n"
    return "\n".join([_knee_header(cfg.num_racks)] + _knee_rows(curve, cfg)) + "\n"


def _curve_json(curve: ThresholdCurve, cfg: SystemConfig, model: str) -> str:
    knees = []
    for index, beta, alpha in curve.knees:
        metrics = repair_metrics(cfg, beta)
        knees.append(
            {
                "knee_index": index,
                "L_i": _rat(curve.L.values[index]),
                "beta_e": _rat(beta),
                "beta_e_dec": _dec(beta),
                "alpha": _rat(alpha),
                "alpha_dec": _dec(alpha),
                "gamma": [_rat(g) for g in metrics.gamma],
                "cost": [_rat(c) for c in metrics.cost],
            }
        )
    segments = []
    for pos, seg in enumerate(curve.segments):
        segments.append(
            {
                "segment_index": pos,
                "i": seg.index,
                "L_i": _rat(seg.coeff),
                "g_i": _rat(seg.g),
                "beta_lo": _rat(seg.beta_lo),
                "beta_hi": None if seg.beta_hi is None else _rat(seg.beta_hi),
                "alpha_lo": _rat(seg.alpha_at(seg.beta_lo)),
            }
        )
    doc = {
        "model": model,
        "file_size": _rat(curve.M),
        "k": curve.k,
        "L": [_rat(c) for c in curve.L.values],
        "knees": knees,
        "segments": segments,
    }
    return json.dumps(doc, indent=2) + "\n"


def _model_curve(model: str, cfg: SystemConfig) -> ThresholdCurve:
    if model == "rack":
        return rack_curve(cfg)
    return reference_curve(model, cfg)


def _dominance_violation(
    rack: ThresholdCurve, static: ThresholdCurve, cfg: SystemConfig
) -> Optional[str]:
    # rack repairs are never more expensive than the static split at tau > 1
    if cfg.tau <= 1 or cfg.k <= cfg.cheap_degrees[0] + 1:
        return None
    static_by_index = {s.index: s for s in static.segments}
    for seg in rack.segments:
        other = static_by_index.get(seg.index)
        if other is not None and seg.beta_lo > other.beta_lo:
            return (
                f"dominance violated at segment {seg.index}: rack knee {seg.beta_lo} "
                f"> static knee {other.beta_lo}"
            )
    return None


def _cmd_curve(args: argparse.Namespace, cfg: SystemConfig, out: TextIO) -> int:
    curve = _model_curve(args.model, cfg)
    if args.format == "json":
        out.write(_curve_json(curve, cfg, args.model))
    else:
        out.write(_curve_csv(curve, cfg, args.table))
    return EXIT_OK


def _cmd_points(args: argparse.Namespace, cfg: SystemConfig, out: TextIO) -> int:
    curve = _model_curve(args.model, cfg)
    msr, mbr = extremal_points(curve, cfg)
    cols = ["point", "beta_e", "beta_e_dec", "alpha", "alpha_dec"]
    for j in range(1, cfg.num_racks + 1):
        cols += [f"gamma_{j}", f"gamma_{j}_dec"]
    for j in range(1, cfg.num_racks + 1):
        cols += [f"cost_{j}", f"cost_{j}_dec"]
    out.write(",".join(cols) + "\n")
    for name, point in (("msr", msr), ("mbr", mbr)):
        assert point.alpha is not None
        cells = [name, _rat(point.beta_e), _dec(point.beta_e), _rat(point.alpha), _dec(point.alpha)]
        for g in point.gamma:
            cells += [_rat(g), _dec(g)]
        for c in point.cost:
            cells += [_rat(c), _dec(c)]
        out.write(",".join(cells) + "\n")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace, cfg: SystemConfig, out: TextIO) -> int:
    models = args.models.split(",")
    for model in models:
        if model not in ("rack", "static", "basic"):
            raise SchemaError(f"unknown model {model!r}")
    curves = {model: _model_curve(model, cfg) for model in models}
    for model in models:
        out.write(f"# model={model}\n")
        out.write(_curve_csv(curves[model], cfg, "knees"))
    if "rack" in curves and "static" in curves:
        violation = _dominance_violation(curves["rack"], curves["static"], cfg)
        if violation is not None:
            print(f"mismatch: {violation}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, cfg: SystemConfig, out: TextIO) -> int:
    taus = []
    for token in args.tau.split(","):
        try:
            taus.append(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"invalid tau value {token!r}") from exc
    for tau in taus:
        swept = parse_and_validate(
            {
                "file_size": str(cfg.file_size),
                "k": cfg.k,
                "d": cfg.d,
                "tau": str(tau),
                "cheap_cost": str(cfg.cheap_cost),
                "expensive_cost": str(cfg.expensive_cost),
                "racks": [{"nodes": r.nodes, "cheap_degree": r.cheap_degree} for r in cfg.racks],
            }
        )
        out.write(f"# tau={tau}\n")
        out.write(_curve_csv(_model_curve(args.model, swept), swept, "knees"))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, cfg: SystemConfig, out: TextIO) -> int:
    report = verify(cfg, count=args.samples, seed=args.seed, mode=args.mode)
    out.write(f"samples: {len(report.samples)}\n")
    out.write(f"mismatches: {len(report.mismatches)}\n")
    for sample in report.mismatches:
        out.write(
            f"  beta_e={sample.beta_e} alpha={sample.alpha} "
            f"analytic={sample.analytic} oracle={sample.oracle}\n"
        )
    out.write(f"greedy_sum: {report.greedy_sum}\n")
    out.write(f"exhaustive_sum: {report.exhaustive_sum}\n")
    out.write(f"result: {'pass' if report.passed else 'fail'}\n")
    return EXIT_OK if report.passed else EXIT_MISMATCH


_COMMANDS = {
    "curve": _cmd_curve,
    "points": _cmd_points,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (SchemaError, InvalidConfig, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = _COMMANDS[args.subcommand]
    try:
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as sink:
                return handler(args, cfg, sink)
        return handler(args, cfg, sys.stdout)
    except (SchemaError, InvalidConfig) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationTooLarge as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
