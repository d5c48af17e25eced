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
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import ActionSpace, ConfigurationError, deviation_score, is_finite_number, named
from .env import ToyEnv, render_observations


@dataclass(frozen=True)
class LatencyModel:
    t_heavy: float = 1.373
    t_verify: float = 0.081
    t_ctrl: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if not is_finite_number(value := getattr(self, f.name)):
                raise ConfigurationError(f"{f.name}: expected a finite float, got {value!r}")
            if value < 0:
                raise ConfigurationError(f"{f.name}: must be nonnegative, got {value}")
        if self.t_heavy == 0:  # every episode plans, so the mean inference time is positive
            raise ConfigurationError(f"t_heavy: must be positive, got {self.t_heavy}")
        if self.t_verify > self.t_heavy:
            raise ConfigurationError("t_verify: must not exceed t_heavy")


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
class ControllerConfig:
    """Mode, replan threshold, replan guard and simulated latencies, checked here once."""

    mode: str = "sv"
    tau: float = 0.2
    max_replans: int = 32
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        named("mode", ControllerMode, self.mode)
        if not (0.0 < self.tau < 1.0):
            raise ConfigurationError(f"tau: must lie in (0, 1), got {self.tau}")
        if self.max_replans < 1:
            raise ConfigurationError(f"max_replans: must be >= 1, got {self.max_replans}")


class Decision(NamedTuple):
    accept: bool
    score: float  # normalized deviation in [0, 1]


def decide(planned: np.ndarray, reference: np.ndarray, space: ActionSpace, tau: float):
    """Binary execution rule: accept iff the normalized deviation is <= tau.
    Matching rows of planned and reference actions give one Decision per row."""
    score = deviation_score(planned, reference, space)
    if planned.ndim == 1:
        return Decision(score <= tau, score)
    return [Decision(s <= tau, s) for s in score]


#: EpisodeTrace fields, and LatencyModel fields, written to the summary line.
_SUMMARY_FIELDS = ("seed", "mode", "chunk_size", "tau", "heavy_calls", "verifier_calls",
                   "executed_steps", "replans", "guard_hit", "success",
                   "steps_before_replan", "completed_chunk_lengths")
_LATENCY_FIELDS = ("t_heavy", "t_verify", "t_ctrl")
#: ``json.dumps(r, sort_keys=True)`` without building an encoder per call; it
#: writes the summary line and a non-finite float.
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_float(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity, -Infinity."""
    return repr(x) if math.isfinite(x) else _encode(x)


# The two record lines, each ``json.dumps(r, sort_keys=True)`` spelled out: keys
# in sorted order, json's separators, a finite float as its repr (what json
# writes for one; ``format(x, "")`` is that repr too). A state hash is hex, so
# it needs no escaping. A verifier-only step executes the verifier's clamped
# row, and clipping passes NaN through, so a non-finite action is spelled as
# json spells it.
def _step_line(r: dict) -> str:
    a0, a1, a2 = action = r["action"]
    if not (math.isfinite(a0) and math.isfinite(a1) and math.isfinite(a2)):
        a0, a1, a2 = map(_json_float, action)
    return (f'{{"action": [{a0}, {a1}, {a2}], "state_hash": "{r["state_hash"]}", '
            f'"step": {r["step"]}, "type": "step"}}\n')


def _decision_line(r: dict) -> str:
    return (f'{{"accept": {"true" if r["accept"] else "false"}, '
            f'"score": {_json_float(r["score"])}, "step": {r["step"]}, "type": "decision"}}\n')


_RECORD_LINE = {"step": _step_line, "decision": _decision_line}

#: json's numbers; a bool is neither, though Python counts it an int.
_NUMBER = frozenset((int, float))

#: Summary fields by what the engine writes in them. The mode and tau, and the
#: latencies, are checked on their own.
_SUMMARY_TYPES = (
    (("seed", "heavy_calls", "verifier_calls", "executed_steps", "replans"), "an int >= 0",
     lambda v: type(v) is int and v >= 0),
    (("chunk_size",), "an int >= 1", lambda v: type(v) is int and v >= 1),
    (("guard_hit", "success"), "a bool", lambda v: type(v) is bool),
    (("steps_before_replan", "completed_chunk_lengths"), "a list of ints >= 1",
     lambda v: type(v) is list and all(type(x) is int and x >= 1 for x in v)),
)


def _step_writable(r: dict) -> bool:
    """Keys type, step, state_hash and action only: an int step, a hash of
    ASCII letters and digits (the writer does not escape it) and a list of
    three numbers, which may be non-finite."""
    hash_, action = r.get("state_hash"), r.get("action")
    return (len(r) == 4 and type(r.get("step")) is int and type(hash_) is str
            and hash_.isascii() and hash_.isalnum() and type(action) is list
            and len(action) == 3 and type(action[0]) in _NUMBER
            and type(action[1]) in _NUMBER and type(action[2]) in _NUMBER)


def _decision_writable(r: dict) -> bool:
    """Keys type, step, accept and score only: an int step, a bool and a number."""
    return (len(r) == 4 and type(r.get("step")) is int and type(r.get("accept")) is bool
            and type(r.get("score")) in _NUMBER)


#: Per record type: whether a decoded record of that type has exactly the keys
#: and value types its line writer above takes, so it is written back as read.
RECORD_CHECKS = {"step": _step_writable, "decision": _decision_writable}


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
        lines = [_RECORD_LINE[r["type"]](r) for r in self.records]
        lines.append(_encode(summary) + "\n")
        return "".join(lines)

    @classmethod
    def from_summary(cls, summary: dict, records: list, steps: int, decisions: int,
                     latencies: dict) -> "EpisodeTrace":
        """Rebuild a trace from its summary record and the ``records`` before
        it, of which ``steps`` are step and ``decisions`` decision records. Each
        summary field must hold what the engine writes there (``_SUMMARY_TYPES``;
        tau in (0, 1) in the sv modes, null in the others). The summary's step
        count, verifier calls (sv modes) and simulated time are checked against
        the records and against the accounting identity.

        ``latencies`` holds one LatencyModel per distinct latency triple for
        the traces read together. Its key is the triple's reprs, so 1 and 1.0,
        or 0.0 and -0.0, get models of their own and are written back as read.
        """
        missing = [k for k in _SUMMARY_FIELDS + _LATENCY_FIELDS if k not in summary]
        if missing:
            raise ConfigurationError(f"summary record lacks {missing}")
        for names, expected, holds in _SUMMARY_TYPES:
            for name in names:
                if not holds(summary[name]):
                    raise ConfigurationError(
                        f"summary {name}: expected {expected}, got {summary[name]!r}")
        mode, tau = ControllerMode(summary["mode"]), summary["tau"]
        if not (type(tau) is float and 0.0 < tau < 1.0 if mode.is_sv else tau is None):
            expected = "a float in (0, 1)" if mode.is_sv else "null"
            raise ConfigurationError(f"summary tau: expected {expected} in mode {mode.value}, "
                                     f"got {tau!r}")
        key = tuple(repr(summary[k]) for k in _LATENCY_FIELDS)
        latency = latencies.get(key)
        if latency is None:
            latency = latencies[key] = LatencyModel(**{k: summary[k] for k in _LATENCY_FIELDS})
        trace = cls(latency=latency, records=records,
                    **{k: summary[k] for k in _SUMMARY_FIELDS})
        checks = {"executed_steps": steps}
        if mode.is_sv:
            checks["verifier_calls"] = decisions
        checks["simulated_inference_time"] = trace.simulated_inference_time
        for name, expected in checks.items():
            if summary.get(name) != expected:
                raise ConfigurationError(
                    f"summary {name} is {summary.get(name)!r}, expected {expected!r}")
        return trace


def _state_hash(state, goal: str, memo: list | None = None) -> str:
    """sha1 of ``repr((list(a), list(o), list(g), gripper, step))``; goal is repr(list(g)).

    ``memo``, one episode's ``[object, text]`` pair, saves formatting the
    object: its text is reused while the state holds the very object of the
    previous call (a free object that did not drift), and is the agent's text
    when the object is the agent's own pair (held). Nothing changes a
    position in place, so the same object has the same text.
    """
    agent, obj = state.agent_pos, state.object_pos
    agent_text = f"[{agent[0]!r}, {agent[1]!r}]"
    if obj is agent:
        obj_text = agent_text
    elif memo is not None and obj is memo[0]:
        obj_text = memo[1]
    else:
        obj_text = f"[{obj[0]!r}, {obj[1]!r}]"
    if memo is not None:
        memo[0], memo[1] = obj, obj_text
    payload = f"({agent_text}, {obj_text}, {goal}, {state.gripper!r}, {state.step!r})"
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def _episode(env: ToyEnv, planner, mode: ControllerMode, max_replans: int,
             trace: EpisodeTrace):
    """One episode's loop, filling ``trace``, as a generator: it yields each
    verification request ``(context, true_state, planned_action)`` and is sent
    the answer, the Decision in the sv modes and the reference action (a float
    list) in verifier-only. It returns at success, horizon exhaustion, or the
    replan guard."""
    horizon = env.config.horizon
    env.reset()
    goal = repr(list(env.state.goal_pos))
    memo = [None, ""]

    def execute(action):
        state = env.state
        record = {
            "type": "step",
            "step": state.step,
            "state_hash": _state_hash(state, goal, memo),
            "action": list(action),
        }
        env.step(action)
        trace.executed_steps += 1
        trace.records.append(record)

    def plan():
        trace.heavy_calls += 1
        return planner.plan(env.state, max_len=horizon - env.state.step)

    if mode is ControllerMode.VERIFIER_ONLY:
        out = plan()
        execute(out.chunk[0])
        while not env.success() and env.state.step < horizon:
            trace.verifier_calls += 1
            execute((yield out.context, env.state, None))
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
                    decision = yield out.context, env.state, out.chunk[i]
                    trace.records.append({
                        "type": "decision",
                        "step": env.state.step,
                        "accept": decision.accept,
                        "score": decision.score,
                    })
                    if not decision.accept:
                        if trace.replans >= max_replans:
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


def run_episodes(envs, planner, verifier, config: ControllerConfig) -> list:
    """Run one episode per env in lockstep, returning their traces in order.

    Each control step advances every live episode to its next verification
    request; the observations of the requesting states are rendered there, as
    one array, and one ``verifier.reference`` call on those rows and one
    ``decide`` over them serve all of these requests. The env and planner stay
    per episode, so each episode draws and computes exactly as it would alone.
    """
    mode = ControllerMode(config.mode)
    if mode.needs_verifier and verifier is None:
        raise ConfigurationError(f"mode {mode.value} requires a verifier")
    if len({env.geom for env in envs}) > 1:
        raise ConfigurationError("episodes run together must share one geometry")
    traces = [EpisodeTrace(seed=env.seed, mode=mode.value, chunk_size=planner.chunk_size,
                           tau=config.tau if mode.is_sv else None, latency=config.latency)
              for env in envs]
    episodes = [_episode(env, planner, mode, config.max_replans, trace)
                for env, trace in zip(envs, traces)]
    live = [(ep, request) for ep in episodes if (request := _advance(ep)) is not None]
    zero_ctx = mode is ControllerMode.SV_NO_CONTEXT
    zero_obs = mode is ControllerMode.SV_NO_OBSERVATION
    space = envs[0].geom.action_space() if envs else None
    while live:
        context, states, planned = zip(*(request for _, request in live))
        refs = verifier.reference(render_observations(states), np.array(context),
                                  true_state=states, zero_context=zero_ctx,
                                  zero_observation=zero_obs)
        answers = (refs.tolist() if mode is ControllerMode.VERIFIER_ONLY
                   else decide(np.array(planned), refs, space, config.tau))
        live = [(ep, request) for (ep, _), answer in zip(live, answers)
                if (request := _advance(ep, answer)) is not None]
    return traces
