"""One benchmark child process: set up a workload, then run it in a closed loop.

Started by ``run.py`` with BLAS threads pinned to 1.  It prints ``READY``
once qtomo is imported and the inputs exist, runs iterations back to back
until ``--seconds`` is used up (at least a minimum number), checks every
output, and prints one JSON line with the raw measurements.  With
``--trace 1`` untraced and traced iterations alternate, so the tracing
overhead is measured in the same process.

Untraced iterations are bracketed by runs of the workload's fixed kernel
from ``reference.py``; an iteration's time divided by the mean of its two
kernel times is its time in reference units, which cancels the drift in
host speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_ITERATIONS = 3
MIN_TRACED = 2
# Stop even short of the minimum iterations, well inside the caller's timeout.
HARD_STOP_S = 120.0


def _layer_metrics(summary: dict, sweeps: int, workload) -> dict:
    def calls(*labels):
        return sum(summary.get(lab, {}).get("calls", 0) for lab in labels)

    def total(*labels):
        return sum(summary.get(lab, {}).get("total_s", 0.0) for lab in labels)

    def layer(prefix):
        spans = [v for lab, v in summary.items() if lab.startswith(prefix + ".")]
        return sum(v["calls"] for v in spans), sum(v["self_s"] for v in spans)

    project = "estimators.project_nonneg_simplex"
    eig = ("numpy.eigh", "numpy.eigvalsh")
    builders = [lab for lab in summary if "_observable" in lab]
    metrics = {
        "estimators.project_calls": calls(project),
        "estimators.project_s": total(project),
        "estimators.sweeps": sweeps,
        "estimators.projected_share": (
            calls(project) / workload.trial_points if workload.trial_points else 0.0
        ),
        "measurement.plan_builds": calls("measurement.MeasurementPlan"),
        "measurement.observable_builds": calls(*builders),
        "measurement.prob_calls": calls("measurement.outcome_probabilities"),
        "measurement.streams": calls("measurement.stream_rng"),
        "measurement.self_s": layer("measurement")[1],
        "simulation.self_s": layer("simulation")[1],
        "simulation.trial_points": workload.trial_points,
        "simulation.chunks": workload.chunks,
        "numpy.eig_calls": calls(*eig),
        "numpy.eig_s": total(*eig),
        "cli.self_s": layer("cli")[1],
    }
    for name in ("error_analysis", "states", "linalg"):
        metrics[f"{name}.calls"], metrics[f"{name}.self_s"] = layer(name)
    return metrics


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", help="CSV file for the last traced iteration's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import qtomo

    root = Path(args.root).resolve()
    if not Path(qtomo.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported qtomo from {qtomo.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from reference import Reference
    from spans import Tracer, boundary_targets

    workload = workloads.make(args.workload, args.seed, Path(args.workdir), root)
    print("READY", flush=True)
    if args.setup_only:
        # The host's speed right after set-up, which scales the set-up time.
        print(Reference("mixed").run()[0], flush=True)
        return 0

    tracer = Tracer(boundary_targets([workloads])) if args.trace else None
    reference = Reference(*workload.reference)
    walls = {False: [], True: []}
    cpus = []
    wall_ref, cpu_ref, ref_walls = [], [], []
    layer_runs = []
    attempted = failed = 0
    bytes_written = 0
    self_test = None
    started = time.perf_counter()
    deadline = started + args.seconds
    last = 0.0

    while True:
        traced = bool(tracer) and attempted % 2 == 1
        enough = len(walls[False]) >= MIN_ITERATIONS and (
            not tracer or len(walls[True]) >= MIN_TRACED
        )
        now = time.perf_counter()
        if (enough and now + last > deadline) or now - started > HARD_STOP_S:
            break
        began = time.perf_counter()
        attempted += 1
        try:
            if traced:
                tracer.clear()
                with tracer.installed():
                    t0, c0 = time.perf_counter(), time.process_time()
                    raw = workload.run()
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            else:
                if tracer:
                    tracer.clear()
                before = reference.run()
                t0, c0 = time.perf_counter(), time.process_time()
                raw = workload.run()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                after = reference.run()
            out = workload.read(raw)
            fails = workload.check(out)
            if tracer and not traced and len(tracer.label):
                fails.append("a traced name was not restored")
        except Exception:
            traceback.print_exc()
            fails = ["iteration raised"]
        if fails:
            failed += 1
            print(f"{args.workload}: check failed: {'; '.join(fails)}", file=sys.stderr)
        else:
            walls[traced].append(wall)
            if traced:
                layer_runs.append(_layer_metrics(tracer.summary(), tracer.sweeps, workload))
            else:
                cpus.append(cpu)
                wall_ref.append(2.0 * wall / (before[0] + after[0]))
                cpu_ref.append(2.0 * cpu / (before[1] + after[1]))
                ref_walls += [before[0], after[0]]
            bytes_written = out["bytes"]
            if self_test is None:
                cases = checks.corruptions(args.workload, out)
                missed = [what for what, bad in cases if not workload.check(bad)]
                self_test = {"cases": len(cases), "missed": missed}
        last = time.perf_counter() - began

    result = {
        "attempted": attempted,
        "failed": failed,
        "wall_s": walls[False],
        "cpu_s": cpus,
        "wall_ref": wall_ref,
        "cpu_ref": cpu_ref,
        "reference_s": ref_walls,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": workload.items,
        "sizes": workload.sizes,
        "numpy": numpy.__version__,
        "self_test": self_test or {"cases": 0, "missed": ["no passing output to corrupt"]},
    }
    if tracer:
        counts = [_counts(m) for m in layer_runs]
        merged = dict(layer_runs[0]) if layer_runs else {}
        for key in merged.keys() - _counts(merged).keys():
            merged[key] = statistics.median(m[key] for m in layer_runs)
        if walls[True] and walls[False]:
            merged["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
                walls[False]
            )
        merged["cli.bytes_written"] = bytes_written
        result["layers"] = merged
        result["counts_repeat"] = bool(counts) and all(c == counts[0] for c in counts)
        result["traced_wall_s"] = walls[True]
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
