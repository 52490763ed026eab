"""One benchmark process: set up a workload, then time run_experiment calls.

Started by ``run.py`` as a fresh interpreter with ``src`` on PYTHONPATH and
a private, empty ``TORUSKIT_CACHE``.  It prints ``ready`` once set-up is
done (the parent times interpreter start to that line as ``setup_s``) and
one JSON object as its last line.

Modes:
  timed      the first call, then one more call
  trace      one warm-up call, then untraced and traced calls alternating
             for ``--budget`` seconds
  fill       run once to fill the partition cache, used by set-up
  reference  print the output digest of one call per seed in ``--seeds``
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Cluster-box and singular-survey draw the lattice's off-diagonal shear from
# this set.  The two lattices are mirror images (j2 -> -j2), so a held-out
# seed is a different instance with the same site, link and search-expansion
# counts.  Shear 1/2 is left out: its chain search costs about ten times
# more per expansion than that of its mirror -1/2, so the seed would change
# the cost of the instance.
SHEARS = ("2/3", "-2/3")

DIGEST_KEYS = ("kind", "seed", "checks", "fitted", "data", "outputs")


def shear_of(name: str, seed: int):
    if name in ("cluster-box", "singular-survey"):
        return SHEARS[seed % len(SHEARS)]
    return None


def instance_key(name: str, seed: int) -> str:
    """Key of the recorded reference digest: the shear, else the seed."""
    return shear_of(name, seed) or str(seed)


def raw_config(name: str, seed: int, small: bool = False) -> dict:
    """The workload's config; ``small`` is the reduced size of the self-check."""
    shear = shear_of(name, seed)
    lattice = {"matrix": [["1", shear], ["0", "1"]]} if shear else None
    if name == "cluster-box":
        return {"kind": "cluster", "lattice": lattice, "cache": False,
                "params": {"box_radius": 6 if small else 28, "delta": "1/10",
                           "allow_delta_above_theorem": True,
                           "edges_csv": True}}
    if name == "singular-survey":
        return {"kind": "singular", "lattice": lattice,
                "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                              "mass": "1"},
                "params": {"symbol": "nls",
                           "ell_radius": 8 if small else 16,
                           "j_radius": 8 if small else 32, "gamma": 2,
                           "node_budget": 500 if small else 60000}}
    if name == "identities":
        params = {"d_min": 2, "d_max": 5}
        if small:
            params.update(d_max=3, trials_compound=4, trials_cauchy_binet=4,
                          trials_gram=4, trials_chain_det=4)
        return {"kind": "verify", "seed": seed, "params": params}
    if name == "homological-warm":
        return {"kind": "homological", "seed": seed, "cache": True,
                "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
                "params": {"box_radius": 8 if small else 32, "delta": "1/10",
                           "allow_delta_above_theorem": True,
                           "entries": 100 if small else 6000}}
    raise SystemExit(f"unknown workload {name!r}")


def uses_cache(name: str) -> bool:
    return name == "homological-warm"


def digest(report, out_dir: Path) -> str:
    """SHA-256 over the body without its config echo, plus the output files.

    The echo holds ``out_dir`` and ``threads``, which differ between runs
    of the same experiment; the files listed in ``outputs`` are part of
    what the experiment produced.
    """
    body = report.body
    h = hashlib.sha256(json.dumps({k: body[k] for k in DIGEST_KEYS},
                                  sort_keys=True,
                                  separators=(",", ":")).encode())
    for name in body["outputs"]:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def cache_state(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(path.iterdir())}


class Experiment:
    """A normalized config and the calls made with it in this process."""

    def __init__(self, runner, config, out_dir: Path):
        self.runner = runner
        self.config = config
        self.out_dir = out_dir
        self.digests = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def call(self) -> float:
        """Time one run_experiment call; check its report outside the timing."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = self.runner.run_experiment(self.config,
                                                out_dir=self.out_dir)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.failures.append(traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        failing = [c["name"] for c in report.body["checks"] if not c["passed"]]
        if failing:
            self.failed += 1
            self.failures.append(f"failing checks: {failing}")
        self.digests.append(digest(report, self.out_dir))
        return elapsed


def timed(experiment: Experiment) -> dict:
    first = experiment.call()
    return {"first_run_s": first, "run_s": [experiment.call()]}


def traced(experiment: Experiment, tracer, budget: float) -> dict:
    experiment.call()  # warm-up, as run_s excludes the first call
    plain, with_trace, per_call = [], [], []
    start = time.perf_counter()
    while not per_call or time.perf_counter() - start < budget:
        plain.append(experiment.call())
        tracer.install()
        try:
            with_trace.append(experiment.call())
        finally:
            tracer.uninstall()
        per_call.append(tracer.take())
    spans = per_call[-1]["spans"]
    for record in per_call:
        del record["spans"]
    return {"run_s": plain, "traced_run_s": with_trace, "per_call": per_call,
            "spans": spans}


def layer_metrics(per_call: list, setup_trace: dict, plain: list,
                  with_trace: list, counted) -> tuple[dict, list]:
    """Per-layer metrics of the traced calls and any count that varied."""
    unstable = []
    out = {}
    first = per_call[0]
    for name in first["calls"]:
        if len({c["calls"][name] for c in per_call}) > 1:
            unstable.append(f"{name}.calls")
        if name in counted:
            out[f"{name}.calls"] = first["calls"][name]
        out[f"{name}.self_s"] = statistics.median(c["self_s"][name]
                                                  for c in per_call)
    for name in first["counters"]:
        if len({c["counters"][name] for c in per_call}) > 1:
            unstable.append(name)
        out[name] = first["counters"][name]
    out["config.normalize.self_s"] = setup_trace["self_s"]["config.normalize"]
    out["runner.trace_overhead_s"] = (statistics.median(with_trace)
                                      - statistics.median(plain))
    return out, unstable


def write_spans(path: Path, names: list, spans: list) -> None:
    """Spans of one traced call: [name index, start us, end us, parent]."""
    origin = spans[0][1] if spans else 0.0
    rows = [[i, round((s - origin) * 1e6), round((e - origin) * 1e6), p]
            for i, s, e, p in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "spans": rows},
                               separators=(",", ":")))


def fill_cache(args) -> bool:
    """Fill the private cache from a separate process, as a first run would."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", "fill",
           "--work", str(args.work / "fill")]
    if args.small:
        cmd.append("--small")
    return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=170).returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "trace", "fill", "reference"))
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seeds", default="",
                        help="comma-separated seeds for --mode reference")
    parser.add_argument("--spans", type=Path,
                        help="where --mode trace writes the last call's spans")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from tracing import COUNTED, Tracer

        tracer = Tracer()
    import toruskit
    from toruskit import config, runner

    if tracer is not None:
        tracer.install()
    try:
        cfg = config.normalize(raw_config(args.workload, args.seed, args.small))
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_trace = tracer.take() if tracer is not None else None
    out_dir = args.work / "out"
    experiment = Experiment(runner, cfg, out_dir)

    if args.mode == "fill":
        experiment.call()
        print(json.dumps({"failures": experiment.failures}))
        return 1 if experiment.failures else 0
    if args.mode == "reference":
        result = {}
        for seed in args.seeds.split(","):
            one = Experiment(runner, config.normalize(
                raw_config(args.workload, int(seed), args.small)), out_dir)
            one.call()
            if one.failures:
                print(json.dumps({"failures": one.failures}))
                return 1
            result[instance_key(args.workload, int(seed))] = one.digests[0]
        print(json.dumps({"reference": result}))
        return 0

    cache = Path(os.environ["TORUSKIT_CACHE"])
    errors = []
    if uses_cache(args.workload) and not fill_cache(args):
        errors.append("the cache fill run failed")
    print("ready", flush=True)

    before = cache_state(cache)
    if uses_cache(args.workload) and not before:
        errors.append("cache fill left the private cache empty")
    if args.mode == "timed":
        result = timed(experiment)
    else:
        result = traced(experiment, tracer, args.budget)
        metrics, unstable = layer_metrics(result.pop("per_call"), setup_trace,
                                          result["run_s"],
                                          result["traced_run_s"], COUNTED)
        errors += [f"count {name} differs between traced calls"
                   for name in unstable]
        if uses_cache(args.workload) and (
                metrics["runner.cache_hits"] < 1
                or metrics["clusters.build_partition.calls"] != 0):
            errors.append("warm calls missed the partition cache")
        if not uses_cache(args.workload) and (
                metrics["runner.cache_hits"] or metrics["runner.cache_misses"]):
            errors.append("cache consulted by a workload with cache off")
        result["layers"] = metrics
        spans = result.pop("spans")
        if args.spans is not None:
            write_spans(args.spans, tracer.names, spans)
    if cache_state(cache) != before:
        errors.append("timed calls changed the partition cache")
    if len(set(experiment.digests)) > 1:
        errors.append("output digest differs between calls in one process")
    result.update(
        attempted=experiment.attempted,
        failed=experiment.failed,
        failures=experiment.failures[:3],
        errors=errors,
        digest=experiment.digests[0] if experiment.digests else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        toruskit_file=toruskit.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
