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
holds on every trace. A trace is plain data: its step and decision records
are dicts, and ``harness`` owns the file format they are written in.
"""
from __future__ import annotations

import hashlib
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
