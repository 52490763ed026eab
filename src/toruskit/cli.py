"""Command line entry point.

Subcommands mirror the experiment kinds: cluster, chains, singular, measure,
homological, verify.  Either load a full config with --config or assemble one
from flags; flags win over the loaded config.  Each flag's argparse ``dest``
is the config field it sets (``params.box_radius``, ``frequency.theta``,
``cache``); a flag whose converter returns a dict (``--box``, ``--trials``)
has its section as ``dest`` and sets every field in the dict.  A flag that
is not given is absent from the namespace.  Exit codes: 0 success, 1 failed
assertion in the report, 2 usage or config error, a malformed flag value
or an unwritable output path included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import exact
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


def _flag_type(expected: str):
    """Make a converter an argparse ``type=``: a value it refuses exits 2
    through argparse, naming the flag and ``expected``."""
    def wrap(convert):
        def parse(text):
            try:
                return convert(text)
            except (ValueError, OverflowError, ParseError) as exc:
                raise argparse.ArgumentTypeError(
                    f"expected {expected}, got {text!r}") from exc
        return parse
    return wrap


@_flag_type("a comma list of integers")
def _gammas(text: str) -> list:
    return [int(x) for x in text.split(",")]


@_flag_type("two integer radii Nl,Nj")
def _box(text: str) -> dict:
    nl, nj = text.split(",")
    return {"ell_radius": int(nl), "j_radius": int(nj)}


@_flag_type("an integer")
def _trials(text: str) -> dict:
    return dict.fromkeys(("trials_compound", "trials_cauchy_binet",
                          "trials_gram", "trials_chain_det"), int(text))


@_flag_type("a:b:steps with rationals 0 < a < b and steps >= 2")
def _gamma_grid(spec: str) -> list:
    # `steps` geometric points from a to b: the ends are a and b as typed,
    # read as in configs, and the points between them repr floats
    a, b, steps = spec.split(":")
    lo, hi = (float(exact.parse_rational(x, "--gamma-grid")) for x in (a, b))
    steps = int(steps)
    if steps < 2 or not 0 < lo < hi:
        raise ValueError(spec)
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    return [a, *(repr(lo * ratio**i) for i in range(1, steps - 1)), b]


def build_parser() -> argparse.ArgumentParser:
    # every parser leaves a flag that is not given out of the namespace
    unset = argparse.SUPPRESS
    globals_ = argparse.ArgumentParser(add_help=False, argument_default=unset)
    globals_.add_argument("--config", help="full experiment config (JSON)")
    globals_.add_argument("--seed", type=int, help="random seed")
    globals_.add_argument("--out-dir", dest="out_dir", help="output directory")
    globals_.add_argument("--no-cache", dest="cache", action="store_false",
                          help="disable the homological partition cache")
    parser = argparse.ArgumentParser(
        prog="toruskit", parents=[globals_], argument_default=unset,
        description="flat-torus spectral experiments: clustering, chains, "
                    "singular sites, frequency measures")
    sub = parser.add_subparsers(dest="kind", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[globals_],
                                    argument_default=unset, **kw))

    def add(kind, help):
        sp = sub.add_parser(kind, help=help)
        sp.add_argument("--lattice", help="lattice file (JSON with 'matrix')")
        sp.add_argument("--out", help="also write the report to this path")
        sp.add_argument("--plot", action="append", default=[],
                        help="emit a named CSV series (repeatable)")
        return sp

    def box_and_delta(sp):
        sp.add_argument("--radius", dest="params.box_radius", type=int,
                        help="box radius N")
        sp.add_argument("--delta", dest="params.delta",
                        help="relation exponent, e.g. 1/100")
        sp.add_argument("--allow-delta-above-theorem", action="store_true",
                        dest="params.allow_delta_above_theorem")

    sp = add("cluster", "build and verify a cluster partition")
    box_and_delta(sp)
    sp.add_argument("--edges-csv", dest="params.edges_csv", action="store_true")

    sp = add("chains", "maximal chain length vs gamma")
    sp.add_argument("--radius", dest="params.box_radius", type=int)
    sp.add_argument("--gammas", dest="params.gammas", type=_gammas,
                    help="comma list, e.g. 2,4,8,16")

    sp = add("singular", "singular-site chains of a symbol")
    sp.add_argument("--kind", dest="params.symbol", choices=["nlw", "nls"])
    sp.add_argument("--freq", help="frequency file (JSON)")
    sp.add_argument("--box", dest="params", type=_box, metavar="NL,NJ",
                    help="Nl,Nj radii")
    sp.add_argument("--gamma", dest="params.gamma", type=int)
    sp.add_argument("--theta", dest="frequency.theta", help="symbol shift")

    sp = add("measure", "excluded-lambda measure vs gamma")
    sp.add_argument("--freq", help="frequency file (JSON)")
    sp.add_argument("--gamma-grid", dest="params.gamma_grid", type=_gamma_grid,
                    help="a:b:steps geometric grid")
    sp.add_argument("--pmax", dest="params.p_max", type=int)
    sp.add_argument("--mmax", dest="params.m_max", type=int)
    sp.add_argument("--order", dest="params.g", type=int, help="minor order g")
    sp.add_argument("--tau", dest="params.tau", type=int)
    sp.add_argument("--doublings", dest="params.doublings", type=int)

    sp = add("homological", "split and solve a block matrix")
    sp.add_argument("--partition", dest="params.partition_file",
                    help="partition file from `cluster`")
    sp.add_argument("--matrix", dest="params.matrix_file",
                    help="block matrix file (triplets)")
    box_and_delta(sp)
    sp.add_argument("--entries", dest="params.entries", type=int,
                    help="random entries when no matrix")

    sp = add("verify", "randomized exact identity suite")
    sp.add_argument("--dmin", dest="params.d_min", type=int)
    sp.add_argument("--dmax", dest="params.d_max", type=int)
    sp.add_argument("--trials", dest="params", type=_trials, metavar="N",
                    help="trial count for every family")
    return parser


def _assemble(args) -> dict:
    given = vars(args)
    raw = (serialize(load_config(given["config"])) if "config" in given
           else {"params": {}})
    raw["kind"] = args.kind
    if "lattice" in given:
        raw["lattice"] = read_json(given["lattice"], "lattice")
    if "freq" in given:
        raw["frequency"] = read_json(given["freq"], "frequency")
    for dest, value in given.items():
        section, _, field = dest.partition(".")
        if section in ("params", "frequency"):
            block = raw.get(section) or {}
            # a section that is not an object is left for normalize to name
            if isinstance(block, dict):
                raw[section] = {**block, **(value if isinstance(value, dict)
                                            else {field: value})}
        elif dest in ("seed", "out_dir", "cache"):
            raw[dest] = value
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    out = getattr(args, "out", None)
    if out:
        try:
            atomic_write_json(Path(out), report.to_dict())
        except OSError as exc:
            print(f"error: --out: cannot write {out}: {exc}", file=sys.stderr)
            return 2
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
