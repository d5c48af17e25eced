"""Self-tests of the benchmark's output checks and span recorder.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run_bench
import workloads
from checks import Tally, check_rows, check_trace_file, counters, parse_traces
from spans import SpanRecorder, span_metrics


@pytest.fixture(scope="module")
def harness():
    return run_bench.import_harness()


@pytest.fixture
def trace_file(harness, tmp_path):
    """Three sv episodes under the oracle verifier, then two open-loop ones."""
    def config(base_seed):
        return harness.config_from_dict({
            "verifier": {"kind": "oracle"}, "env": {"disturbance": {"level": "moderate"}},
            "planner": {"chunk_size": 4}, "batch": {"episodes": 3, "base_seed": base_seed}})

    traces = (harness.run_batch(config(0))
              + harness.run_batch(config(3), mode="open-loop", episodes=2))
    path = tmp_path / "traces.jsonl"
    harness.write_traces(path, traces)
    return path


def recorded(path):
    """Counters indexed by seed for ``path``, whose episodes have seeds 0, 1, ..."""
    return [counters(summary) for _, summary in parse_traces(path)]


def rewrite(path, edit):
    """Apply ``edit`` in place to the first record for which it returns True."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if edit(record):
            lines[i] = json.dumps(record, sort_keys=True)
            break
    else:
        raise AssertionError("no record to edit")
    path.write_text("\n".join(lines) + "\n")


def check(path, expected, count=5):
    tally = Tally()
    check_trace_file(path, expected, count, tally, "test")
    return tally


def test_clean_traces_pass(trace_file):
    tally = check(trace_file, recorded(trace_file))
    assert (tally.attempted, tally.failed) == (5, 0), tally.faults


def test_tampered_simulated_time_fails(trace_file):
    expected = recorded(trace_file)

    def tamper(record):
        if record["type"] != "summary":
            return False
        record["simulated_inference_time"] += 1e-9
        return True

    rewrite(trace_file, tamper)
    tally = check(trace_file, expected)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert "accounting identity" in tally.faults[0]


def test_flipped_accept_fails(trace_file):
    expected = recorded(trace_file)

    def flip(record):
        if record["type"] != "decision":
            return False
        record["accept"] = not record["accept"]
        return True

    rewrite(trace_file, flip)
    tally = check(trace_file, expected)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert "decision rule" in tally.faults[0]


def test_counters_differing_from_the_record_fail(trace_file):
    expected = recorded(trace_file)
    expected[1] = [expected[1][0], expected[1][1] + 1] + expected[1][2:]
    tally = check(trace_file, expected)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert "!= recorded" in tally.faults[0]


def test_missing_episodes_count_as_failed(trace_file):
    tally = check(trace_file, recorded(trace_file), count=7)
    assert (tally.attempted, tally.failed) == (7, 2)


def test_report_rows_compare_as_a_set():
    rows = [{"mode": "sv", "chunk_size": k, "tau": 0.2, "success_rate": 1.0} for k in (1, 4)]
    tally = Tally()
    check_rows(list(reversed(rows)), rows, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    changed = [dict(rows[0], success_rate=0.5), rows[1]]
    tally = Tally()
    check_rows(changed, rows, tally)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: (inner(), inner()))
    outer()
    spans = recorder.take()
    assert spans["outer"].self_s == 5.0 and list(spans["outer"].durations) == [10.0]
    assert spans["inner"].self_s == 5.0 and list(spans["inner"].durations) == [3.0, 2.0]
    metrics = span_metrics("inner", [(spans["inner"], 2)])
    assert metrics["inner.calls"] == (1.0, "count")
    assert metrics["inner.self_s"] == (2.5, "s")
    assert recorder.take()["outer"].self_s == 0.0


def test_wraps_every_binding_and_restores(harness):
    import specverify
    from specverify import env, planner, verifier

    original, step = env.expert_action, env.ToyEnv.step
    recorder = SpanRecorder()
    recorder.install()
    try:
        for module in (env, planner, verifier):
            assert module.expert_action is not original
        cfg = harness.config_from_dict({"verifier": {"kind": "oracle"},
                                        "batch": {"episodes": 1}})
        harness.run_batch(cfg)
        spans = recorder.take()
        assert len(spans["env.expert_action"].durations) > 0
        assert len(spans["planner.plan"].durations) > 0
        assert spans["planner.plan"].units >= len(spans["planner.plan"].durations)
        assert len(spans["core.values"].durations) > 0
        assert recorder.absent == []
        assert env.ToyEnv.step is not step
    finally:
        recorder.uninstall()
    for module in (env, planner, verifier):
        assert module.expert_action is original
    assert specverify.ToyEnv.step is step


def test_missing_targets_are_reported_absent(harness):
    recorder = SpanRecorder()
    recorder.install(targets=(("env.gone", "env", "gone"),
                              ("env.NoClass.step", "env", "NoClass.step"),
                              ("nomodule.f", "nomodule", "f")))
    recorder.uninstall()
    assert recorder.absent == ["env.gone", "env.NoClass.step", "nomodule.f"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run_bench.BENCH), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / "bench" / "run_bench.py"),
                           "--workload", "sv_batch", "--seed", "0", "--seconds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no specverify sources" in done.stderr


def test_normalize_scales_by_kernel_speed():
    assert hostspeed.normalize(3.0, [0.5, 0.5], 0.5) == pytest.approx(3.0)
    assert hostspeed.normalize(3.0, [1.0, 0.5], 0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_host_clock_takes_its_samples_out_and_restores_the_handler(kernel):
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.HostClock(kernel, interval=0.01) as clock:
        while time.perf_counter() - start < 0.2:
            pass
    elapsed = time.perf_counter() - start
    assert len(clock.samples) >= 5
    assert clock.spent >= sum(clock.samples) > 0
    assert clock.host_s == pytest.approx(elapsed - clock.spent, abs=0.01)
    assert clock.normalized_s == pytest.approx(
        hostspeed.normalize(clock.host_s, clock.samples, clock.reference_s))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_spans_inside_a_phase_leave_the_samples_out():
    clock = hostspeed.HostClock(interval=0.005)
    recorder = SpanRecorder(clock=clock.now)

    def busy():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass

    span = recorder.wrap("busy", busy)
    with clock:
        span()
    duration = recorder.take()["busy"].durations[0]
    assert clock.spent > 0.01
    assert duration == pytest.approx(clock.host_s, abs=0.005)


def test_a_phase_shorter_than_the_interval_is_sampled_after_it():
    with hostspeed.HostClock(interval=10.0) as clock:
        pass
    assert len(clock.samples) == 1 and clock.normalized_s >= 0.0


def test_runs_cycle_through_every_batch_from_the_seed():
    assert workloads.cycle(5, 8) == [5, 6, 7, 0, 1, 2, 3, 4]
    assert workloads.cycle(13, 8) == workloads.cycle(5, 8)
