"""qtomo benchmark: one closed-loop client per workload, end-to-end or traced.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload runs in fresh child processes with BLAS
threads pinned to 1 and ``workers=1``: several children only set up (import
qtomo and generate the inputs) to time set-up, then one child sets up and
runs the workload for ``--seconds``.  Times are reported in reference units
(see ``reference.py``), because the host's speed drifts.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones from a traced child.  Human-readable lines come first; the
last line of standard output is one JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pairs-k3-project", "pairs-k10-sample", "qubit-mse-mc", "compare-grid")
# Set-up is timed in this many fresh children per run.  Each then times the
# mixed reference kernel, and its set-up time is scaled to a host on which that
# kernel takes NOMINAL_REFERENCE_S, which cancels most of the host's drift.
SETUP_RUNS = 7
NOMINAL_REFERENCE_S = 0.25
SETUP_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """A child failed to start, report, or finish in time."""


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)


def _spawn(workload, seed, seconds, trace, workdir, running, setup_only=False, spans=None):
    """Start a worker; return it with its set-up time once it reports READY.

    The process is appended to ``running`` at once, so the caller can stop it
    whatever happens next.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", str(workdir),
        "--root", str(ROOT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    running.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        raise BenchError(f"{workload}: worker did not become ready")
    return proc, setup


def _finish(proc, timeout) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace) -> dict:
    """Time set-up in fresh children, then run one measuring child; return its report."""
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = None
    if trace:
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        spans = ROOT / ".perfbench_out" / f"spans-{workload}.csv"
    running = []
    try:
        setups, hosts = [], []
        for _ in range(SETUP_RUNS):
            proc, setup = _spawn(workload, seed, seconds, trace, workdir, running, setup_only=True)
            hosts.append(float(_finish(proc, SETUP_TIMEOUT_S).split()[-1]))
            setups.append(setup)
        proc, _ = _spawn(workload, seed, seconds, trace, workdir, running, spans=spans)
        lines = _finish(proc, CHILD_TIMEOUT_S).strip().splitlines()
        if not lines:
            raise BenchError(f"{workload}: worker printed no report")
        report = json.loads(lines[-1])
    finally:
        for proc in running:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if not report["wall_s"] or (trace and not report["layers"]):
        raise BenchError(f"{workload}: no iteration passed its check")
    report["setup_raw_s"] = setups
    report["setup_s"] = [s * NOMINAL_REFERENCE_S / h for s, h in zip(setups, hosts)]
    report["spans_file"] = str(spans.relative_to(ROOT)) if spans else None
    return report


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, reports) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": sorted({r["numpy"] for r in reports.values()}),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "blas_env": BLAS_ENV,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {name: r["sizes"] for name, r in reports.items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(report) -> dict:
    """The bounded metrics: times in reference units, set-up and memory."""
    wall_ref = statistics.median(report["wall_ref"])
    return {
        "items_per_ref": report["items"] / wall_ref,
        "wall_ref": wall_ref,
        "cpu_ref": statistics.median(report["cpu_ref"]),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
    }


def absolute(report) -> dict:
    """Times in seconds as measured; printed, not bounded, since the host drifts."""
    wall = statistics.median(report["wall_s"])
    return {
        "items_per_s": (report["items"] / wall, "1/s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(report["cpu_s"]), "s"),
        "reference_s": (statistics.median(report["reference_s"]), "s"),
        "setup_raw_s": (statistics.median(report["setup_raw_s"]), "s"),
    }


def describe(workload, report, metrics) -> list[str]:
    """Human-readable lines: every metric by name with its unit, then the checks."""
    lines = []
    for name, (value, unit) in metrics.items():
        text = f"[{workload}] {name} = {value:.6g} {unit}"
        samples = report.get(name)
        if isinstance(samples, list) and samples:
            q1, q3 = _quartiles(samples)
            text += f" (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})"
        lines.append(text)
    attempted, failed = report["attempted"], report["failed"]
    lines.append(f"[{workload}] error_rate = {failed / attempted:.6g} ({failed}/{attempted} failed)")
    st = report["self_test"]
    verdict = "all rejected" if not st["missed"] else f"MISSED {st['missed']}"
    lines.append(f"[{workload}] check self-test: {st['cases']} corrupted outputs, {verdict}")
    if "counts_repeat" in report:
        lines.append(f"[{workload}] trace counts repeat across iterations: {report['counts_repeat']}")
        lines.append(f"[{workload}] spans written to {report['spans_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so that children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qtomo" / "__init__.py").is_file():
        print(f"error: no qtomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be a nonnegative 64-bit integer", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports, results = {}, {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = True
    for name, report in reports.items():
        metrics = report["layers"] if args.trace else end_to_end(report)
        if set(metrics) != set(units):
            print(f"error: {name} measured {sorted(metrics)}, expected {sorted(units)}",
                  file=sys.stderr)
            return 1
        metrics = {m: metrics[m] for m in units}
        shown = {m: (v, units[m]) for m, v in metrics.items()}
        if not args.trace:
            shown.update(absolute(report))
        print("\n".join(describe(name, report, shown)))
        correct &= report["failed"] == 0 and not report["self_test"]["missed"]
        correct &= report.get("counts_repeat", True)
        results[name] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}

    print(json.dumps({"provenance": provenance(args, reports)}))
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}/{m}": v for w, ms in results.items() for m, v in ms.items()}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
