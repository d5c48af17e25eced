"""Plan-execute-verify-replan episode executor with latency accounting.

Runs a batch of episodes in lockstep, each in the selected mode:

* ``sv``: plan a chunk, execute its first action unverified, then verify each
  subsequent planned action against the lightweight reference; on deviation
  above tau, abort the chunk suffix and replan from the current state.
* ``open-loop``: execute every chunk fully, no verification.
* ``verifier-only``: one initial plan, then execute the verifier's reference
  action every step (no replanning).
* ``sv-without-context`` / ``sv-without-observation``: sv with the respective
  verifier input zeroed.

At each control step, one verifier call serves every episode that verifies
at that step. All planner/verifier calls are charged, per episode, to a
simulated clock; the identity
``simulated_inference_time == heavy_calls*T_heavy + verifier_calls*T_verify``
holds on every trace.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .core import ActionSpace, ConfigurationError, deviation_score
from .env import ToyEnv


@dataclass(frozen=True)
class LatencyModel:
    t_heavy: float = 1.373
    t_verify: float = 0.081
    t_ctrl: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if (value := getattr(self, f.name)) < 0:
                raise ConfigurationError(f"{f.name}: must be nonnegative, got {value}")
        if self.t_verify > self.t_heavy:
            raise ConfigurationError("t_verify: must not exceed t_heavy")


@dataclass(frozen=True)
class ThresholdConfig:
    tau: float = 0.2
    max_replans: int = 32

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ConfigurationError(f"tau: must lie in (0, 1), got {self.tau}")
        if self.max_replans < 1:
            raise ConfigurationError(f"max_replans: must be >= 1, got {self.max_replans}")


class ControllerMode(str, Enum):
    SV = "sv"
    OPEN_LOOP = "open-loop"
    VERIFIER_ONLY = "verifier-only"
    SV_NO_CONTEXT = "sv-without-context"
    SV_NO_OBSERVATION = "sv-without-observation"

    @property
    def is_sv(self) -> bool:
        return self in (ControllerMode.SV, ControllerMode.SV_NO_CONTEXT,
                        ControllerMode.SV_NO_OBSERVATION)

    @property
    def needs_verifier(self) -> bool:
        return self is not ControllerMode.OPEN_LOOP


@dataclass(frozen=True)
class Decision:
    accept: bool
    score: float  # normalized deviation in [0, 1]


def decide(planned: np.ndarray, reference: np.ndarray, space: ActionSpace, tau: float):
    """Binary execution rule: accept iff the normalized deviation is <= tau.
    Matching rows of planned and reference actions give one Decision per row."""
    if not (0.0 < tau < 1.0):
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    score = deviation_score(planned, reference, space)
    if planned.ndim == 1:
        return Decision(accept=score <= tau, score=score)
    return [Decision(accept=s <= tau, score=s) for s in score]


#: EpisodeTrace fields, and LatencyModel fields, written to the summary line.
_SUMMARY_FIELDS = ("seed", "mode", "chunk_size", "tau", "heavy_calls", "verifier_calls",
                   "executed_steps", "replans", "guard_hit", "success",
                   "steps_before_replan", "completed_chunk_lengths")
_LATENCY_FIELDS = ("t_heavy", "t_verify", "t_ctrl")


@dataclass(eq=False)
class EpisodeTrace:
    """Full per-step record of one episode plus the derived counters."""

    seed: int
    mode: str
    chunk_size: int
    tau: float | None
    latency: LatencyModel
    records: list = field(default_factory=list)
    heavy_calls: int = 0
    verifier_calls: int = 0
    executed_steps: int = 0
    replans: int = 0
    guard_hit: bool = False
    success: bool = False
    steps_before_replan: list = field(default_factory=list)
    completed_chunk_lengths: list = field(default_factory=list)

    @property
    def simulated_inference_time(self) -> float:
        return (self.heavy_calls * self.latency.t_heavy
                + self.verifier_calls * self.latency.t_verify)

    def to_jsonl(self) -> str:
        summary = {k: getattr(self, k) for k in _SUMMARY_FIELDS}
        summary.update({k: getattr(self.latency, k) for k in _LATENCY_FIELDS},
                       type="summary", simulated_inference_time=self.simulated_inference_time)
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records + [summary])

    @classmethod
    def from_records(cls, records: list) -> "EpisodeTrace":
        """Rebuild a trace from its parsed records, the summary record last,
        checking the summary's step count, verifier calls (sv modes) and
        simulated time against the records and the accounting identity."""
        summary = records[-1]
        if summary.get("type") != "summary":
            raise ConfigurationError("trace lacks a summary record")
        missing = [k for k in _SUMMARY_FIELDS + _LATENCY_FIELDS if k not in summary]
        if missing:
            raise ConfigurationError(f"summary record lacks {missing}")
        trace = cls(latency=LatencyModel(**{k: summary[k] for k in _LATENCY_FIELDS}),
                    records=records[:-1], **{k: summary[k] for k in _SUMMARY_FIELDS})
        kinds = Counter(r.get("type") for r in trace.records)
        checks = {"executed_steps": kinds["step"]}
        if ControllerMode(trace.mode).is_sv:
            checks["verifier_calls"] = kinds["decision"]
        checks["simulated_inference_time"] = trace.simulated_inference_time
        for name, expected in checks.items():
            if summary.get(name) != expected:
                raise ConfigurationError(
                    f"summary {name} is {summary.get(name)!r}, expected {expected!r}")
        return trace


def _state_hash(state) -> str:
    payload = repr((list(state.agent_pos), list(state.object_pos),
                    list(state.goal_pos), state.gripper, state.step))
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def cost_bounds(latency: LatencyModel, chunk_size: int):
    """Best/worst-case amortized per-step inference cost for chunk size K."""
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be >= 1")
    return (latency.t_heavy / chunk_size + latency.t_verify,
            latency.t_heavy + latency.t_verify)


def _episode(env: ToyEnv, planner, mode: ControllerMode, threshold: ThresholdConfig,
             trace: EpisodeTrace):
    """One episode's loop, filling ``trace``, as a generator: it yields each
    verification request ``(obs, context, true_state, planned_action)`` and
    is sent the answer, the Decision in the sv modes and the reference action
    in verifier-only. It returns at success, horizon exhaustion, or the
    replan guard."""
    horizon = env.config.horizon
    obs = env.reset()
    goal = env.state.goal_pos

    def execute(action: np.ndarray):
        nonlocal obs
        record = {
            "type": "step",
            "step": env.state.step,
            "state_hash": _state_hash(env.state),
            "action": action.tolist(),
        }
        obs = env.step(action)
        trace.executed_steps += 1
        trace.records.append(record)

    def plan():
        trace.heavy_calls += 1
        return planner.plan(obs, goal, max_len=horizon - env.state.step)

    if mode is ControllerMode.VERIFIER_ONLY:
        out = plan()
        execute(out.chunk[0])
        while not env.success() and env.state.step < horizon:
            trace.verifier_calls += 1
            execute((yield obs, out.context, env.state, None))
    else:  # sv and its input ablations; open-loop is sv with verification off
        verify = mode.is_sv
        while not env.success() and env.state.step < horizon:
            out = plan()
            execute(out.chunk[0])
            executed_in_chunk = 1
            aborted = False
            for i in range(1, len(out.chunk)):
                if env.success() or env.state.step >= horizon:
                    break
                if verify:
                    trace.verifier_calls += 1
                    decision = yield obs, out.context, env.state, out.chunk[i]
                    trace.records.append({
                        "type": "decision",
                        "step": env.state.step,
                        "accept": decision.accept,
                        "score": decision.score,
                    })
                    if not decision.accept:
                        if trace.replans >= threshold.max_replans:
                            trace.guard_hit = True
                        else:
                            trace.replans += 1
                            trace.steps_before_replan.append(executed_in_chunk)
                        aborted = True
                        break
                execute(out.chunk[i])
                executed_in_chunk += 1
            if trace.guard_hit:
                break
            if not aborted:
                trace.completed_chunk_lengths.append(executed_in_chunk)

    trace.success = env.success()


def _advance(episode, answer=None):
    """The episode's next request after ``answer``, or None once it has ended."""
    try:
        return episode.send(answer)
    except StopIteration:
        return None


def run_episodes(envs, planner, verifier, mode: ControllerMode,
                 threshold: ThresholdConfig, latency: LatencyModel) -> list:
    """Run one episode per env in lockstep, returning their traces in order.

    Each control step advances every live episode to its next verification
    request; one ``verifier.reference`` call on the stacked rows and one
    ``decide`` over them serve all of these requests. The env and planner stay
    per episode, so each episode draws and computes exactly as it would alone.
    """
    mode = ControllerMode(mode)
    if mode.needs_verifier and verifier is None:
        raise ConfigurationError(f"mode {mode.value} requires a verifier")
    if len({env.geom for env in envs}) > 1:
        raise ConfigurationError("episodes run together must share one geometry")
    traces = [EpisodeTrace(seed=env.seed, mode=mode.value, chunk_size=planner.chunk_size,
                           tau=threshold.tau if mode.is_sv else None, latency=latency)
              for env in envs]
    episodes = [_episode(env, planner, mode, threshold, trace)
                for env, trace in zip(envs, traces)]
    live = [(ep, request) for ep in episodes if (request := _advance(ep)) is not None]
    zero_ctx = mode is ControllerMode.SV_NO_CONTEXT
    zero_obs = mode is ControllerMode.SV_NO_OBSERVATION
    space = envs[0].geom.action_space() if envs else None
    while live:
        obs, context, states, planned = zip(*(request for _, request in live))
        refs = verifier.reference(np.stack(obs), np.stack(context), true_state=states,
                                  zero_context=zero_ctx, zero_observation=zero_obs)
        answers = (refs if mode is ControllerMode.VERIFIER_ONLY
                   else decide(np.stack(planned), refs, space, threshold.tau))
        live = [(ep, request) for (ep, _), answer in zip(live, answers)
                if (request := _advance(ep, answer)) is not None]
    return traces


def run_episode(env: ToyEnv, planner, verifier, mode: ControllerMode,
                threshold: ThresholdConfig, latency: LatencyModel) -> EpisodeTrace:
    """Run one episode to success, horizon exhaustion, or the replan guard."""
    return run_episodes([env], planner, verifier, mode, threshold, latency)[0]
