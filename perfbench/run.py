"""The toruskit benchmark: run_experiment workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cluster-box --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-check

Each run starts fresh single-threaded interpreters (``workload.py``), each
with its own empty partition cache, and prints the run record and then one
JSON object as its last line.  With ``--trace 0`` that object holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics of a separate traced process.  The workloads are described in
BENCHMARK.json.

``--self-check`` runs every workload once at a reduced size in both modes
and checks that the emitted metric names are exactly those of
BENCHMARK.json.  ``--write-reference`` records the output digests that
later runs are checked against.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workload import SHEARS, instance_key, shear_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

# A --trace 0 run starts fresh processes one after another until --seconds
# have passed, at least MIN_PROCESSES and at most MAX_PROCESSES of them.
# Each gives one sample of every end-to-end metric: its set-up, its first
# call and the call after it.  Samples from separate processes spread over
# the run steady the medians against the host's slow phases.
MIN_PROCESSES = 3
MAX_PROCESSES = 12
# A child that has not finished this long after its budget is killed.
CHILD_GRACE_S = 150
# Seeds recorded for the seeded workloads by --write-reference; the shear
# workloads have one instance per shear.
REFERENCE_SEEDS = range(0, 100)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), TORUSKIT_CACHE=str(cache),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args: list, work: Path, deadline: float) -> dict:
    """Start workload.py; return its result, with setup_s timed to ``ready``."""
    cache = work / "cache"
    cache.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--work", str(work),
           *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(cache), cwd=ROOT)
    try:
        lines = []
        setup_s = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"workload process timed out: {cmd}")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def versions() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def check_reference(workload: str, seed: int, digests: list,
                    small: bool) -> tuple[list, str]:
    """Errors from comparing the run's digests with the recorded one."""
    errors = []
    if len(set(digests)) > 1:
        errors.append("output digests differ between processes")
    if small or not digests:
        return errors, "not checked"
    table = json.loads(REFERENCE.read_text()).get(workload, {})
    expected = table.get(instance_key(workload, seed))
    if expected is None:
        return errors, "no recorded digest for this seed"
    if digests[0] != expected:
        errors.append(f"output digest {digests[0]} differs from the "
                      f"recorded {expected}")
    return errors, "matches recorded digest" if not errors else "mismatch"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple[dict, dict]:
    """Run the workload's processes; return the result line and the record."""
    bench = load_benchmark()
    if workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    # Set-up then imports cached bytecode, as from an installed package.
    compileall.compile_dir(str(SRC), quiet=1)
    deadline = time.monotonic() + seconds + CHILD_GRACE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed)]
    if small:
        common.append("--small")
    results = []
    try:
        if trace:
            spans = WORK / "spans" / f"{workload}-seed{seed}.json"
            results.append(run_child(
                common + ["--mode", "trace", "--budget", str(seconds),
                          "--spans", str(spans)], work / "p0", deadline))
        else:
            start = time.monotonic()
            while len(results) < MIN_PROCESSES or (
                    len(results) < MAX_PROCESSES
                    and time.monotonic() - start < seconds):
                results.append(run_child(common + ["--mode", "timed"],
                                         work / f"p{len(results)}", deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in results for e in r["errors"]]
    failures = [f for r in results for f in r["failures"]]
    digests = [r["digest"] for r in results if r["digest"]]
    ref_errors, reference = check_reference(workload, seed, digests, small)
    errors += ref_errors
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if ref_errors:
        failed = attempted
    for r in results:
        if not r["toruskit_file"].startswith(str(SRC)):
            errors.append(f"toruskit imported from {r['toruskit_file']}")

    if trace:
        values = results[0]["layers"]
        samples = {"traced calls": len(results[0]["traced_run_s"]),
                   "untraced calls": len(results[0]["run_s"])}
        wanted = bench["per_layer"]
    else:
        run_s = [s for r in results for s in r["run_s"]]
        values = {
            "run_s": statistics.median(run_s),
            "first_run_s": statistics.median(r["first_run_s"] for r in results),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        samples = {"run_s": len(run_s), "first_run_s": len(results),
                   "setup_s": len(results), "peak_rss_mb": len(results)}
        wanted = bench["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        errors.append("emitted metric names differ from BENCHMARK.json: "
                      f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "small": small, "samples": samples,
              "digest": digests[0] if digests else None,
              "reference": reference, "errors": errors,
              "failures": failures[:3], **versions()}
    if not trace:
        record["run_s_samples"] = run_s
        record["first_run_s_samples"] = [r["first_run_s"] for r in results]
    line = {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, record


def self_check() -> int:
    """Every workload once, reduced size, both modes; names must match."""
    ok = True
    for w in load_benchmark()["workloads"]:
        for trace in (False, True):
            line, record = measure(w["name"], 0, 0.5, trace, small=True)
            ok = ok and line["correct"]
            print(f"{w['name']:18s} trace={int(trace)} "
                  f"{'ok' if line['correct'] else 'FAILED'} {record['errors']}")
    return 0 if ok else 1


def write_reference() -> int:
    """Record the output digest of every shear instance and reference seed."""
    table = {}
    for w in load_benchmark()["workloads"]:
        name = w["name"]
        seeds = range(len(SHEARS)) if shear_of(name, 0) else REFERENCE_SEEDS
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = run_child(["--workload", name, "--mode", "reference",
                                "--seeds", ",".join(map(str, seeds))],
                               work, time.monotonic() + 3600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        table[name] = result["reference"]
        print(name, len(table[name]), "digests", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="toruskit benchmark (see the module docstring)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "toruskit" / "__init__.py").is_file():
        print(f"no toruskit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.write_reference:
        return write_reference()
    if not args.workload:
        parser.error("--workload is required")
    line, record = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
