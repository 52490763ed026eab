"""Command line entry point.

Subcommands mirror the experiment kinds: cluster, chains, singular, measure,
homological, verify.  Either load a full config with --config or assemble one
from flags; flags win over the loaded config.  Exit codes: 0 success,
1 failed assertion in the report, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, normalize, read_json, serialize
from .errors import (
    DeltaOutOfRange,
    GammaOutOfRange,
    ParseError,
    ToruskitError,
    UnknownSeries,
    ValidationError,
)
from .runner import atomic_write_json, emit_plot_data, run_experiment


def _gamma_grid(spec: str):
    # "a:b:steps" -> geometric grid from a to b with `steps` points
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError("--gamma-grid expects a:b:steps")
    a, b, steps = parts
    steps = int(steps)
    if steps < 2:
        raise ValidationError("--gamma-grid needs at least 2 steps")
    lo, hi = float(eval_fraction(a)), float(eval_fraction(b))
    if not 0 < lo < hi:
        raise ValidationError("--gamma-grid needs 0 < a < b")
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    return [repr(lo * ratio**i) for i in range(steps)]


def eval_fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def _add_globals(parser, suppress: bool) -> None:
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="full experiment config (JSON)", **kw)
    parser.add_argument("--seed", type=int, help="random seed", **kw)
    parser.add_argument("--out-dir", help="output directory", **kw)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the enumeration cache", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruskit",
        description="flat-torus spectral experiments: clustering, chains, "
                    "singular sites, frequency measures")
    _add_globals(parser, suppress=False)
    globals_after = argparse.ArgumentParser(add_help=False)
    _add_globals(globals_after, suppress=True)
    sub = parser.add_subparsers(dest="kind", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[globals_after], **kw))

    def common(sp):
        sp.add_argument("--lattice", help="lattice file (JSON with 'matrix')")
        sp.add_argument("--out", help="also write the report to this path")
        sp.add_argument("--plot", action="append", default=[],
                        help="emit a named CSV series (repeatable)")

    sp = sub.add_parser("cluster", help="build and verify a cluster partition")
    common(sp)
    sp.add_argument("--radius", type=int, help="box radius N")
    sp.add_argument("--delta", help="relation exponent, e.g. 1/100")
    sp.add_argument("--allow-delta-above-theorem", action="store_true")
    sp.add_argument("--edges-csv", action="store_true")

    sp = sub.add_parser("chains", help="maximal chain length vs gamma")
    common(sp)
    sp.add_argument("--radius", type=int)
    sp.add_argument("--gammas", help="comma list, e.g. 2,4,8,16")
    sp.add_argument("--cap", type=int, help="length cap (truncates search)")

    sp = sub.add_parser("singular", help="singular-site chains of a symbol")
    common(sp)
    sp.add_argument("--kind", dest="symbol", choices=["nlw", "nls"])
    sp.add_argument("--freq", help="frequency file (JSON)")
    sp.add_argument("--box", help="Nl,Nj radii")
    sp.add_argument("--gamma", type=int)
    sp.add_argument("--theta", help="symbol shift")

    sp = sub.add_parser("measure", help="excluded-lambda measure vs gamma")
    common(sp)
    sp.add_argument("--freq", help="frequency file (JSON)")
    sp.add_argument("--gamma-grid", help="a:b:steps geometric grid")
    sp.add_argument("--pmax", type=int)
    sp.add_argument("--mmax", type=int)
    sp.add_argument("--order", type=int, help="minor order g")
    sp.add_argument("--tau", type=int)
    sp.add_argument("--doublings", type=int)

    sp = sub.add_parser("homological", help="split and solve a block matrix")
    common(sp)
    sp.add_argument("--partition", help="partition file from `cluster`")
    sp.add_argument("--matrix", help="block matrix file (triplets)")
    sp.add_argument("--radius", type=int)
    sp.add_argument("--delta")
    sp.add_argument("--allow-delta-above-theorem", action="store_true")
    sp.add_argument("--entries", type=int, help="random entries when no matrix")

    sp = sub.add_parser("verify", help="randomized exact identity suite")
    common(sp)
    sp.add_argument("--dmin", type=int)
    sp.add_argument("--dmax", type=int)
    sp.add_argument("--trials", type=int, help="trial count for every family")
    return parser


def _assemble(args) -> dict:
    if args.config:
        raw = serialize(load_config(args.config))
    else:
        raw = {"kind": args.kind, "params": {}}
    raw["kind"] = args.kind
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out_dir is not None:
        raw["out_dir"] = args.out_dir
    if args.no_cache:
        raw["cache"] = False
    if getattr(args, "lattice", None):
        raw["lattice"] = read_json(args.lattice, "lattice")
    if getattr(args, "freq", None):
        raw["frequency"] = read_json(args.freq, "frequency")
    params = dict(raw.get("params") or {})
    k = args.kind
    if k in ("cluster", "chains", "homological") and args.radius is not None:
        params["box_radius"] = args.radius
    if k in ("cluster", "homological"):
        if args.delta is not None:
            params["delta"] = args.delta
        if args.allow_delta_above_theorem:
            params["allow_delta_above_theorem"] = True
    if k == "cluster" and args.edges_csv:
        params["edges_csv"] = True
    if k == "chains":
        if args.gammas:
            params["gammas"] = [int(x) for x in args.gammas.split(",")]
        if args.cap is not None:
            params["length_cap"] = args.cap
    if k == "singular":
        if args.symbol:
            params["symbol"] = args.symbol
        if args.box:
            nl, nj = args.box.split(",")
            params["ell_radius"], params["j_radius"] = int(nl), int(nj)
        if args.gamma is not None:
            params["gamma"] = args.gamma
        if args.theta is not None:
            freq = dict(raw.get("frequency") or {})
            freq["theta"] = args.theta
            raw["frequency"] = freq
    if k == "measure":
        if args.gamma_grid:
            params["gamma_grid"] = _gamma_grid(args.gamma_grid)
        if args.pmax is not None:
            params["p_max"] = args.pmax
        if args.mmax is not None:
            params["m_max"] = args.mmax
        if args.order is not None:
            params["g"] = args.order
        if args.tau is not None:
            params["tau"] = args.tau
        if args.doublings is not None:
            params["doublings"] = args.doublings
    if k == "homological":
        if args.partition:
            params["partition_file"] = args.partition
        if args.matrix:
            params["matrix_file"] = args.matrix
        if args.entries is not None:
            params["entries"] = args.entries
    if k == "verify":
        if args.dmin is not None:
            params["d_min"] = args.dmin
        if args.dmax is not None:
            params["d_max"] = args.dmax
        if args.trials is not None:
            for key in ("trials_compound", "trials_cauchy_binet",
                        "trials_gram", "trials_chain_det"):
                params[key] = args.trials
    raw["params"] = params
    return raw


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = normalize(_assemble(args))
        report = run_experiment(config)
    except (ParseError, ValidationError, DeltaOutOfRange, GammaOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToruskitError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    for check in report.body["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        detail = f" - {check['detail']}" if check.get("detail") else ""
        print(f"[{tag}] {check['name']}{detail}")
    if args.out:
        atomic_write_json(Path(args.out), report.to_dict())
    for series in args.plot:
        try:
            path = emit_plot_data(report, series, config.out_dir)
        except UnknownSeries as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    print(f"report: {Path(config.out_dir) / ('report-' + config.kind + '.json')}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
