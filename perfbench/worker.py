"""The measured process of one benchmark run; started by ``run.py``.

Modes:
  setup   import the package and its dependencies, generate the inputs,
          report the time they were ready, exit;
  pass    the same, then run the workload's job list once, tracing off;
  traced  the same, then one pass with tracing on, and per-layer metrics
          from its spans.

Prints one JSON object on stdout.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import chargedgauss  # noqa: E402
import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Run, make_inputs  # noqa: E402

# Per-layer metrics, in the order of BENCHMARK.json's "per_layer".  A
# layer the workload does not use reports 0.
SPANNED = (
    "planarquad.build_grid", "planarquad.cauchy_transform",
    "planarquad.cauchy_tail_split",
    "orthopoly.build_orthopolys", "orthopoly.compute_zeros",
    "orthopoly.evaluate", "orthopoly.one_point_function",
    "dbar.assemble_Y", "dbar.fd_order", "dbar.asymptotic_normalization",
    "dbar.uniqueness_crosscheck",
    "equilibrium.classify_support", "equilibrium.verify_equilibrium",
    "schwarz.zero_attractor_candidates", "schwarz.external_potential_compare",
    "schwarz.boundary_curve", "schwarz.critical_trajectories",
    "schwarz.effective_zero_density",
    "fekete.minimize", "fekete.discrepancy", "fekete.gradient_fd_check",
)
WITH_CHILDREN = ("bench.job", "dbar.fd_order", "dbar.asymptotic_normalization")
COUNTERS = (
    "planarquad.grid_nodes",
    "orthopoly.gram_residual_max", "orthopoly.zero_err_max",
    "orthopoly.zero_residual_reported_max",
    "dbar.fd_order_min", "dbar.slope_err_max", "dbar.orth_residual_max",
    "equilibrium.verify_points", "equilibrium.max_dev_on",
    "equilibrium.min_margin_off",
    "schwarz.boundary_curve.alloc_peak_mb", "schwarz.trajectory_points",
    "schwarz.trajectory_residual_max", "schwarz.potential_sup_err",
    "fekete.not_converged", "fekete.grad_norm_max", "fekete.energy",
    "fekete.max_annulus_discrepancy",
)
MODULES = ("planarquad", "orthopoly", "dbar", "equilibrium", "schwarz",
           "fekete")
PER_LAYER = (
    tuple(f"{name}.{kind}" for name in SPANNED for kind in ("s", "calls"))
    + tuple(f"{name}.self_s" for name in WITH_CHILDREN)
    + COUNTERS
    + tuple(f"{m}.errors" for m in MODULES)
    + ("bench.jobs", "trace.wall_s", "trace.overhead_s")
)


def run_pass(name, inputs, tracer):
    run = Run(tracer)
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    with ExitStack() as stack:
        for module, attr in workload.patches:
            stack.enter_context(tracer.patched(module, attr))
        workload.run_pass(inputs, run)
    return run, time.perf_counter() - t0


def traced(name, inputs):
    tracer = Tracer(True)
    run, wall = run_pass(name, inputs, tracer)
    summary = tracer.summarize()
    if run.last_zeros is not None:
        # reference zeros outside every span
        ops, zs = run.last_zeros
        ref = checks.reference_zeros(ops.hessenberg, zs.n)
        tracer.note_max("orthopoly.zero_err_max",
                        checks.zero_error(zs.zeros, ref))
    # trace.overhead_s is left to run.py, which has an untraced pass
    values = {**summary, **tracer.counters, "bench.jobs": run.attempted,
              "trace.wall_s": wall}
    metrics = {m: float(values.get(m, 0.0)) for m in PER_LAYER}
    return {"metrics": metrics, "spans": tracer.spans,
            "attempted": run.attempted, "failures": run.failures}


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("name"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    if SRC.resolve() not in Path(chargedgauss.__file__).resolve().parents:
        sys.exit(f"imported chargedgauss from {chargedgauss.__file__}, "
                 f"not from {SRC}")
    inputs = make_inputs(args.workload, args.seed)
    out = {"ready": time.monotonic()}
    if args.mode == "pass":
        run, wall = run_pass(args.workload, inputs, Tracer(False))
        out.update(pass_s=wall, attempted=run.attempted, failures=run.failures)
    elif args.mode == "traced":
        out.update(traced(args.workload, inputs))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["environment"] = environment()
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
