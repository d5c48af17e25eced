"""One-command benchmark: host speed of train, sv rollouts and sweeps, with exact checks.

Run from the repository root:

    python3 bench/run_bench.py                    # every workload, end-to-end metrics
    python3 bench/run_bench.py --trace 1          # every workload, per-layer spans
    python3 bench/run_bench.py --workload sv_batch --seed 3 --seconds 20 --trace 0

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). Without it, each workload runs in a
child process and a table plus a combined JSON line are printed.

A run repeats the workload's unit, one complete job, for ``--seconds`` and
``wall_s`` is the median unit time; the rollout workloads take a different
recorded input batch in each unit. Times are given in seconds at a fixed
reference host speed (see ``hostspeed``), and their host seconds go to
standard error. End-to-end metrics come from untraced runs. ``--trace 1``
instead runs the workload untraced for half the time and traced for the
other half, and reports per-layer spans (calls and self time per unit, in
host seconds with the speed samples taken out), ratios and the tracing
overhead at the reference speed. Host wall time is never mixed with the
simulated latency clock: ``sim_cost_per_step`` and ``success_rate`` come
from the traces alone and are checked exactly.

Exit codes: 0 all checks passed, 1 a check failed, 2 the benchmark could not
run (no ``src/specverify`` beside it, or a shipped data file was altered).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_IMPORT_S, HostClock, import_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: BLAS threads of the benchmark process and its children. One thread trains
#: faster than two at these matrix sizes and gives identical bytes.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 15  # fresh-process set-ups per run; the median is reported
DEFAULT_SECONDS = 25
#: Units whose simulated totals give ``success_rate`` and ``sim_cost_per_step``:
#: the first ones of a run, so the values depend on the seed alone.
EXACT_UNITS = 4


class CannotRun(Exception):
    """The benchmark lacks what it needs to run; no result is printed."""


def import_harness():
    package = SRC / "specverify"
    if not (package / "__init__.py").is_file():
        raise CannotRun(f"no specverify sources at {package}")
    sys.path.insert(0, str(SRC))
    import specverify
    from specverify import harness

    if Path(specverify.__file__).resolve().parent != package.resolve():
        raise CannotRun(f"imported specverify from {specverify.__file__}, not {package}")
    return harness


def load_golden(workloads) -> dict:
    golden = json.loads(workloads.GOLDEN.read_text())
    recorded = golden["verifier"]["sha256"]
    if workloads.sha256(workloads.PARAMS) != recorded:
        raise CannotRun(f"{workloads.PARAMS.name} does not match its recorded sha256")
    return golden


def measure_setup(workload) -> float:
    """Median set-up time of fresh processes, at the reference import speed.

    Each set-up is scaled by a numpy import timed right after it (see
    ``hostspeed``). The first pair only warms caches.
    """
    config = json.dumps(workload.config)
    host, times = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC), config],
                              capture_output=True, text=True, check=True, timeout=120)
        host.append(float(done.stdout.split()[-1]))
        times.append(host[-1] * REFERENCE_IMPORT_S / import_seconds())
    print(f"setup_s: median {statistics.median(host[1:]):.4f} host seconds", file=sys.stderr)
    return statistics.median(times[1:])


def run_units(workload, seconds: float, tally, clock: HostClock, recorder=None):
    """Run whole units while the next one is expected to fit in ``seconds``.

    Returns each unit's time at the reference host speed, its host seconds
    and what it simulated.
    """
    times, host, units = [], [], []
    start = time.perf_counter()
    while not host or time.perf_counter() - start + statistics.median(host) <= seconds:
        with clock:
            workload.run_unit()
        host.append(clock.host_s)
        times.append(clock.normalized_s)
        if recorder is not None:
            recorder.enabled = False
        workload.check(tally)
        units.append(workload.unit)
        if recorder is not None:
            recorder.enabled = True
    return times, host, units


def end_to_end(workload, seconds: float, tally) -> dict:
    setup_s = measure_setup(workload)
    workload.prepare()
    times, host, units = run_units(workload, seconds, tally, HostClock(workload.kernel))
    print(f"wall_s: median {statistics.median(host):.4f} host seconds", file=sys.stderr)
    wall = statistics.median(times)
    success_rate, sim_cost_per_step = workload.exact(units[:EXACT_UNITS])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "episodes_per_s": (statistics.median(u["episodes"] / t for t, u in zip(times, units)),
                           "1/s"),
        "steps_per_s": (statistics.median(u["steps"] / t for t, u in zip(times, units)), "1/s"),
        "epochs_per_s": (workload.epochs / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (success_rate, "ratio"),
        "sim_cost_per_step": (sim_cost_per_step, "sim_s/step"),
        "final_loss": (workload.final_loss, "L1"),
    }


def ratio(numerator, base) -> float:
    return numerator / base if base else 0.0


def per_layer(workload, seconds: float, tally) -> dict:
    from spans import SPAN_NAMES, SpanRecorder, span_metrics, span_units

    workload.prepare()
    plain, _, _ = run_units(workload, seconds / 2, tally, HostClock(workload.kernel))
    clock = HostClock(workload.kernel)
    recorder = SpanRecorder(clock=clock.now)
    recorder.install()
    try:
        workload.prepare()
        setup = recorder.take()
        traced, _, units = run_units(workload, seconds / 2, tally, clock, recorder)
        spans = recorder.take()
    finally:
        recorder.uninstall()
    for name in recorder.absent:
        print(f"span absent: {name}", file=sys.stderr)

    def windows(name):
        return [(setup.get(name), 1), (spans.get(name), len(traced))]

    metrics = {}
    for name in SPAN_NAMES:
        metrics.update(span_metrics(name, windows(name)))
    planned = span_units(windows("planner.plan")) or 0.0
    rows = span_units(windows("verifier.encode_batch")) or 0.0
    # What a traced unit simulated on average, as the spans count per unit.
    steps, decisions, accepted = (statistics.fmean(u[key] for u in units)
                                  for key in ("steps", "decisions", "accepted"))
    metrics.update({
        "planner.planned_actions": (planned, "count"),
        "planner.executed_actions": (steps, "count"),
        "planner.used_action_ratio": (ratio(steps, planned), "ratio"),
        "controller.decisions": (decisions, "count"),
        "controller.accept_ratio": (ratio(accepted, decisions), "ratio"),
        "verifier.sample_epochs": (workload.sample_epochs, "count"),
        "verifier.encoded_rows_per_sample_epoch":
            (ratio(rows, workload.sample_epochs), "ratio"),
        "tracing.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    return metrics


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "specverify").glob("*.py"))),
    }


def run_one(args) -> int:
    harness = import_harness()
    import workloads
    from checks import Tally

    golden = load_golden(workloads)
    out = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](harness, golden, out, args.seed)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args.seconds, tally)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    tally.report()
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 2
        env, result = json.loads(lines[-2])["environment"], json.loads(lines[-1])
        results[name] = result
        status = max(status, done.returncode)
        print(f"== {name}: correct={result['correct']} "
              f"failed {result['failed']} of {result['attempted']} operations")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    combined = {"environment": env, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workloads": results}
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per run; a unit that has started always finishes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end metrics")
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        return run_one(args) if args.workload else run_all(args)
    except CannotRun as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
