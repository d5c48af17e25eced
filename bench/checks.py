"""Output checks on persisted episode traces and summary rows.

Every check reads the line-delimited trace format (step and decision records,
then one summary record per episode), so it sees exactly what a reader of the
artifacts sees. Each episode or row checked is one attempted operation; an
operation with any fault counts once as failed.
"""
from __future__ import annotations

import json
import sys

SV_MODES = frozenset({"sv", "sv-without-context", "sv-without-observation"})

#: Per-episode simulated counters compared with the recorded values.
COUNTERS = ("success", "heavy_calls", "verifier_calls", "executed_steps", "replans")

#: Absolute slack on the cost bounds, as in the acceptance suite.
BOUND_SLACK = 1e-12

KEEP_FAULTS = 20  # faults kept for the log


class Tally:
    """Attempted and failed operations, with the first few faults kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def record(self, what: str, faults) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            if len(self.faults) < KEEP_FAULTS:
                self.faults.append(f"{what}: {'; '.join(faults)}")

    def report(self) -> None:
        for fault in self.faults:
            print(f"check failed: {fault}", file=sys.stderr)


def parse_traces(path):
    """(records, summary) per episode, in file order."""
    episodes, block = [], []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("type") == "summary":
                episodes.append((block, record))
                block = []
            else:
                block.append(record)
    if block:
        raise ValueError(f"{path}: trailing records without a summary")
    return episodes


def cost_bounds(mode: str, t_heavy: float, t_verify: float, k: int):
    """Sharp per-step simulated-cost bounds of a trace, or None for other modes.

    In sv modes a chunk's head executes unverified, so a fully executed K-chunk
    costs (t_heavy + (K-1) t_verify)/K per step; open-loop never verifies.
    """
    if mode in SV_MODES:
        return (t_heavy + (k - 1) * t_verify) / k, t_heavy + t_verify
    if mode == "open-loop":
        return t_heavy / k, t_heavy
    return None


def trace_faults(records, summary) -> list[str]:
    """Invariant violations of one episode trace."""
    try:
        t_heavy, t_verify = summary["t_heavy"], summary["t_verify"]
        heavy, verify = summary["heavy_calls"], summary["verifier_calls"]
        steps, sim = summary["executed_steps"], summary["simulated_inference_time"]
        mode, k, tau = summary["mode"], summary["chunk_size"], summary["tau"]
        faults = []
        if sim != heavy * t_heavy + verify * t_verify:
            faults.append("accounting identity")
        if steps != sum(1 for r in records if r["type"] == "step"):
            faults.append("executed_steps != step records")
        bounds = cost_bounds(mode, t_heavy, t_verify, k)
        if bounds is None or steps < 1 or not (
                bounds[0] - BOUND_SLACK <= sim / steps <= bounds[1] + BOUND_SLACK):
            faults.append("cost bounds")
        for r in records:
            if r["type"] == "decision" and (tau is None or r["accept"] != (r["score"] <= tau)):
                faults.append(f"decision rule at step {r['step']}")
                break
        return faults
    except (KeyError, TypeError) as exc:
        return [f"malformed trace ({exc!r})"]


def counters(summary) -> list[int]:
    return [int(summary[name]) for name in COUNTERS]


def check_trace_file(path, expected, count: int, tally: Tally, label: str) -> list:
    """Check every trace in ``path`` against invariants and recorded counters.

    ``expected`` is the recorded counter list indexed by episode seed and
    ``count`` the number of episodes the file must hold. Returns the parsed
    (records, summary) pairs.
    """
    episodes = parse_traces(path)
    for records, summary in episodes:
        seed = summary.get("seed")
        faults = trace_faults(records, summary)
        if not isinstance(seed, int) or not 0 <= seed < len(expected):
            faults.append(f"no recorded counters for seed {seed!r}")
        elif not faults and counters(summary) != expected[seed]:
            faults.append(f"counters {counters(summary)} != recorded {expected[seed]}")
        tally.record(f"{label} seed {seed}", faults)
    for _ in range(count - len(episodes)):
        tally.record(label, ["missing episode"])
    return episodes


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def check_rows(report_rows, sweep_rows, tally: Tally) -> None:
    """The report must reproduce the sweep's rows exactly, in any order."""
    expected = {row_key(r) for r in sweep_rows}
    seen = set()
    for row in report_rows:
        key = row_key(row)
        seen.add(key)
        tally.record(f"report row {row.get('mode')} K={row.get('chunk_size')} "
                     f"tau={row.get('tau')} {row.get('disturbance')}",
                     [] if key in expected else ["not among the sweep rows"])
    for _ in expected - seen:
        tally.record("report", ["sweep row missing from the report"])
