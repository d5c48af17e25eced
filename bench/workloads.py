"""The benchmark's three batch jobs, driven through the CLI's public entry points.

Each workload is a closed loop with a single client: one job ("unit") runs to
completion before the next starts. ``run_unit`` is the timed phase; ``check``
runs untimed after each unit and reads back what the unit produced.

Inputs come from the workload seed. The rollout jobs split their recorded
episode seeds into batches of one unit each; a run starts at batch seed mod
``batches`` and cycles through the batches in order, so a run measures many
different inputs and every input has recorded per-episode counters to be
checked against. ``train`` runs sv episodes of slot seed mod SLOTS.
"""
from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from checks import Tally, check_rows, check_trace_file

DATA = Path(__file__).resolve().parent / "data"
PARAMS = DATA / "verifier.json"
GOLDEN = DATA / "golden.json"

SLOTS = 8
# Units of a second or a few, so that a run holds many and reports their median.
SV_EPISODES = 200      # sv_batch: episodes per unit
SV_BATCHES = 24        # sv_batch: recorded units, episode seeds 0..4799
EVAL_EPISODES = 600    # train: sv episodes run with the newly trained verifier
SWEEP_EPISODES = 40    # sweep_report: episodes per grid cell and per reference
SWEEP_BATCHES = 8      # sweep_report: recorded units, episode seeds 0..319 per cell

TRAIN_CONFIG = {"env": {"disturbance": {"level": "moderate"}}}


def sv_config(params: str, base_seed: int, episodes: int) -> dict:
    """`run --mode sv --chunk-size 16 --tau 0.2 --disturbance moderate --params ...`"""
    return {"env": {"disturbance": {"level": "moderate"}},
            "planner": {"chunk_size": 16},
            "controller": {"mode": "sv", "tau": 0.2},
            "verifier": {"params_path": params},
            "batch": {"episodes": episodes, "base_seed": base_seed}}


def sweep_config(params: str, base_seed: int, episodes: int) -> dict:
    """`sweep --params ...` over the default grid."""
    return {"verifier": {"params_path": params},
            "batch": {"episodes": episodes, "base_seed": base_seed}}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rollout_stats(episodes) -> dict:
    """Simulated totals of parsed (records, summary) episode traces."""
    decisions = [r for records, _ in episodes for r in records if r["type"] == "decision"]
    return {"episodes": len(episodes),
            "steps": sum(s["executed_steps"] for _, s in episodes),
            "successes": sum(bool(s["success"]) for _, s in episodes),
            "sim_time": sum(s["simulated_inference_time"] for _, s in episodes),
            "decisions": len(decisions),
            "accepted": sum(bool(r["accept"]) for r in decisions)}


def cycle(seed: int, batches: int) -> list[int]:
    """The order in which a run of ``seed`` takes the recorded batches."""
    return [(seed + k) % batches for k in range(batches)]


class Workload:
    """One batch job.

    ``configs`` are the experiment configs a CLI call of the job builds, one
    per batch in the order the run takes them; ``cfgs`` are their parsed
    forms and ``config`` is the first. After a checked unit, ``unit`` holds what
    that unit simulated (see ``rollout_stats``). ``epochs`` is passes over the
    whole input per unit, ``sample_epochs`` the training samples times epochs
    one unit trains on, and ``final_loss`` the final training loss of the
    verifier the job ends up using. ``kernel`` names the ``hostspeed`` kernel
    that samples the host's speed while a unit runs: the kind of code the job
    spends its time in.
    """

    name = ""
    epochs = 1
    sample_epochs = 0
    kernel = "interpreter"

    def __init__(self, harness, golden: dict, out: Path, seed: int, configs: list):
        self.h = harness
        self.golden = golden
        self.out = out
        self.slot = seed % SLOTS
        self.config = configs[0]
        self.cfgs = [harness.config_from_dict(c) for c in configs]
        self.cfg = self.cfgs[0]
        self.position = 0
        self.unit = None
        self.final_loss = golden["verifier"]["final_loss"]

    def prepare(self) -> None:
        """In-process set-up before the timed units; the next unit takes the first batch."""
        self.position = 0

    def next_cfg(self):
        cfg = self.cfgs[self.position % len(self.cfgs)]
        self.position += 1
        return cfg

    def run_unit(self) -> None:
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        raise NotImplementedError

    def exact(self, units: list[dict]) -> tuple[float, float]:
        """``success_rate`` and ``sim_cost_per_step`` over checked units."""
        total = {key: sum(u[key] for u in units)
                 for key in ("successes", "episodes", "sim_time", "steps")}
        return total["successes"] / total["episodes"], total["sim_time"] / total["steps"]

    def _check_sv(self, traces, tally: Tally, label: str) -> dict:
        path = self.out / f"{label}.jsonl"
        self.h.write_traces(path, traces)
        episodes = check_trace_file(path, self.golden["sv_batch"]["counters"],
                                    len(traces), tally, label)
        path.unlink()
        return rollout_stats(episodes)


class Train(Workload):
    """Default `train --disturbance moderate`: collect, then train 800 epochs.

    The job's own rollouts are the open-loop collection, whose size is
    recorded. The check compares the result with the shipped file and runs the
    new verifier on sv episodes; those give ``success_rate`` and
    ``sim_cost_per_step``.
    """

    name = "train"
    kernel = "blas"

    def __init__(self, harness, golden, out, seed):
        super().__init__(harness, golden, out, seed, [TRAIN_CONFIG])
        rec = golden["verifier"]
        self.epochs = self.cfg.verifier.training.epochs
        self.sample_epochs = rec["samples"] * self.epochs
        self.unit = {"episodes": rec["collection_episodes"],
                     "steps": rec["collection_steps"], "decisions": 0, "accepted": 0}
        self.eval = None
        self.result = None

    def run_unit(self) -> None:
        self.result = self.h.train_from_config(self.cfg)

    def check(self, tally: Tally) -> None:
        from specverify.verifier import save_verifier

        rec = self.golden["verifier"]
        report, encoder = self.result
        self.result = None
        self.final_loss = report.losses[-1]
        params = self.out / "verifier.json"
        save_verifier(params, encoder, report.params)
        faults = []
        if len(report.losses) != self.epochs + 1:
            faults.append(f"{len(report.losses)} losses for {self.epochs} epochs")
        if self.final_loss != rec["final_loss"]:
            faults.append(f"final_loss {self.final_loss!r} != recorded {rec['final_loss']!r}")
        if sha256(params) != rec["sha256"]:
            faults.append("trained parameters differ from the shipped file")
        tally.record("train", faults)

        cfg = self.h.config_from_dict(
            sv_config(str(params), self.slot * EVAL_EPISODES, EVAL_EPISODES))
        self.eval = self._check_sv(self.h.run_batch(cfg), tally, "train_eval")

    def exact(self, units: list[dict]) -> tuple[float, float]:
        return super().exact([self.eval])


class SvBatch(Workload):
    """`run --mode sv --chunk-size 16 --tau 0.2 --disturbance moderate` on fixed params."""

    name = "sv_batch"

    def __init__(self, harness, golden, out, seed):
        super().__init__(harness, golden, out, seed,
                         [sv_config(str(PARAMS), b * SV_EPISODES, SV_EPISODES)
                          for b in cycle(seed, SV_BATCHES)])
        self.traces = None

    def prepare(self) -> None:
        super().prepare()
        self.verifier = self.h.build_verifier(self.cfg)

    def run_unit(self) -> None:
        self.traces = self.h.run_batch(self.next_cfg(), verifier=self.verifier)

    def check(self, tally: Tally) -> None:
        traces, self.traces = self.traces, None
        self.unit = self._check_sv(traces, tally, "sv_batch")


class SweepReport(Workload):
    """`sweep` over the default grid, then `report` over the traces it wrote."""

    name = "sweep_report"

    def __init__(self, harness, golden, out, seed):
        super().__init__(harness, golden, out, seed,
                         [sweep_config(str(PARAMS), b * SWEEP_EPISODES, SWEEP_EPISODES)
                          for b in cycle(seed, SWEEP_BATCHES)])
        self.traces_dir = out / "traces"
        self.rows = self.report_rows = None

    def run_unit(self) -> None:
        h = self.h
        shutil.rmtree(self.traces_dir, ignore_errors=True)
        self.traces_dir.mkdir(parents=True)
        self.rows, cells, references = h.run_sweep(self.next_cfg())
        for name, traces in cells.items():
            h.write_traces(self.traces_dir / f"{name}.jsonl", traces)
        for level, traces in references.items():
            h.write_traces(self.traces_dir / f"reference_{level}.jsonl", traces)
        del cells, references
        # `report`: rebuild the table from the trace files alone.
        files = sorted(self.traces_dir.glob("*.jsonl"))
        refs = {p.stem.removeprefix("reference_"): h.read_traces(p)
                for p in files if p.stem.startswith("reference_")}
        self.report_rows = []
        for path in files:
            if path.stem.startswith("reference_"):
                continue
            traces = h.read_traces(path)
            level = path.stem.rsplit("_", 1)[-1]
            first = traces[0]
            self.report_rows.append(h.aggregate(traces, refs[level], label={
                "mode": first.mode, "chunk_size": first.chunk_size,
                "tau": first.tau, "disturbance": level}))

    def check(self, tally: Tally) -> None:
        recorded = self.golden["sweep_report"]["cells"]
        names = {p.stem for p in self.traces_dir.glob("*.jsonl")}
        episodes = []
        for name in sorted(names | set(recorded)):
            if name not in names or name not in recorded:
                tally.record(f"cell {name}", ["cell not in both the sweep and the record"])
                continue
            episodes += check_trace_file(self.traces_dir / f"{name}.jsonl", recorded[name],
                                         SWEEP_EPISODES, tally, name)
        check_rows(self.report_rows, self.rows, tally)
        self.unit = rollout_stats(episodes)


WORKLOADS = {w.name: w for w in (Train, SvBatch, SweepReport)}
