#!/usr/bin/env python3
"""chargedgauss benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zeros_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:

  setup_s      median, over the run's fresh interpreters, of the time
               from spawning the interpreter to the inputs being ready
               (imports of chargedgauss, numpy, scipy, mpmath, and input
               generation);
  wall_s       median wall time of one pass over the workload's fixed,
               seed-generated job list, tracing off, each pass in a
               fresh process;
  peak_rss_mb  median peak resident memory of the processes that ran a
               pass.

It also prints failed_frac (failed jobs / jobs attempted).  With
``--trace 1`` it reports the per-layer metrics of one traced pass, and
the tracing overhead: that pass's wall time minus an untraced pass's,
each in a fresh process.

Every result, with the spans of a traced run and a record of the
machine, is written to perfbench/out/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0
# One BLAS thread (<= nproc): the box is shared, and a single thread keeps
# run-to-run spread down.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def spawn(mode, args, deadline):
    """Run worker.py to completion; returns (spawn time, its JSON)."""
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return t0, json.loads(out.decode().strip().splitlines()[-1])


def timed_runs(args, deadline):
    """Alternate a one-pass worker and a set-up-only worker until the next
    pair would end after --seconds (at least one pair).  Each worker is a
    fresh interpreter, so both give a set-up sample, and the samples of
    set-up and of passes interleave over the whole run: the shared
    machine's slow and fast phases, which last seconds, reach both."""
    res = {"setup_samples_s": [], "pass_s": [], "peak_rss_mb": [],
           "attempted": 0, "failures": []}
    start = time.monotonic()
    while True:
        t_pair = time.monotonic()
        t0, one = spawn("pass", args, deadline)
        res["setup_samples_s"].append(one["ready"] - t0)
        res["pass_s"].append(one["pass_s"])
        res["peak_rss_mb"].append(one["peak_rss_mb"])
        res["attempted"] += one["attempted"]
        res["failures"] += one["failures"]
        res["environment"] = one["environment"]
        t0, one = spawn("setup", args, deadline)
        res["setup_samples_s"].append(one["ready"] - t0)
        now = time.monotonic()
        if now - start + (now - t_pair) > args.seconds:
            return res


def machine():
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "blas_threads": int(BLAS_THREADS),
            "note": "shared machine: other tenants' load adds noise"}
    for path, key, field in (("/proc/meminfo", "mem_total", "MemTotal"),
                             ("/proc/cpuinfo", "cpu_model", "model name")):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(field):
                    info[key] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            info[key] = "unknown"
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = "unknown (not a git checkout)"
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chargedgauss" / "__init__.py").is_file():
        print(f"no chargedgauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            # both passes are the first in a fresh process, as in --trace 0
            _, plain = spawn("pass", args, deadline)
            _, res = spawn("traced", args, deadline)
            res["untraced_pass_s"] = plain["pass_s"]
            res["metrics"]["trace.overhead_s"] = (
                res["metrics"]["trace.wall_s"] - plain["pass_s"])
            metrics = {k: {"value": v, "unit": _unit(k)}
                       for k, v in res["metrics"].items()}
        else:
            res = timed_runs(args, deadline)
            values = {"setup_s": statistics.median(res["setup_samples_s"]),
                      "wall_s": statistics.median(res["pass_s"]),
                      "peak_rss_mb": statistics.median(res["peak_rss_mb"])}
            metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in values.items()}
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], len(res["failures"])
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), **res, **summary}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for job, reasons in res["failures"]:
        print(f"FAILED {job}: {'; '.join(reasons)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    print(json.dumps(summary))
    return 0


def _unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".calls", ".errors", ".jobs", "_points", "_nodes",
                      "not_converged")):
        return "count"
    return "1"


if __name__ == "__main__":
    sys.exit(main())
