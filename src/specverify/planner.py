"""Macro-planner: a nominal-dynamics rollout of the expert policy.

One planner call emits an open-loop action chunk of up to K steps plus a
fixed-width planning-context vector summarizing the scene and the plan's
predicted end state. The planner itself is stateless; latency and call counts
are charged by the controller's accounting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError
from .env import (EnvState, Geometry, expert_action, is_success,
                  state_from_observation, transition)

#: Minimum context width: the informative prefix below occupies 12 entries.
_CONTEXT_BASE_WIDTH = 12

#: The expert's action once the task is done (``-0.0`` entries compare equal).
_STAY = (0.0, 0.0, 0.0)


def _same_place(a: EnvState, b: EnvState) -> bool:
    """Equal positions and gripper, bit for bit: 0.0 and -0.0 differ."""
    return a.gripper == b.gripper and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a.agent_pos + a.object_pos, b.agent_pos + b.object_pos))


@dataclass(frozen=True, eq=False)
class PlannerOutput:
    chunk: np.ndarray    # (length, action_dim), one planned action per row
    context: np.ndarray  # (context_width,)


class NominalRolloutPlanner:
    """Rolls the expert policy forward under disturbance-free dynamics."""

    kind = "nominal-rollout"

    def __init__(self, geometry: Geometry, chunk_size: int, context_width: int = 16):
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size: must be >= 1, got {chunk_size}")
        if context_width < _CONTEXT_BASE_WIDTH:
            raise ConfigurationError(
                f"context_width: must be >= {_CONTEXT_BASE_WIDTH}, got {context_width}")
        self.geom = geometry
        self.chunk_size = chunk_size
        self.context_width = context_width

    def plan(self, obs: np.ndarray, goal,
             max_len: int | None = None) -> PlannerOutput:
        """Produce a chunk of min(K, max_len) expert actions plus the context.

        The goal position is the task knowledge the observation lacks; the toy
        world has a single task family, so the task needs nothing else.
        """
        state = state_from_observation(obs, goal)
        length = self.chunk_size if max_len is None else max(1, min(self.chunk_size, max_len))
        actions = []
        rollout = state
        while len(actions) < length:
            a = expert_action(rollout, self.geom)
            actions.append(a)
            after = transition(rollout, a, self.geom)
            if a == _STAY and _same_place(after, rollout):
                # A fixed point: expert_action ignores the step counter, so
                # every later step repeats this action and this state.
                actions += [a] * (length - len(actions))
            rollout = after
        return PlannerOutput(chunk=np.array(actions),
                             context=self._context_vector(state, rollout))

    def _context_vector(self, start: EnvState, end: EnvState) -> np.ndarray:
        (ox, oy), (gx, gy) = end.object_pos, end.goal_pos
        vec = np.zeros(self.context_width)
        vec[:_CONTEXT_BASE_WIDTH] = [
            *start.goal_pos, *start.object_pos, *start.agent_pos, float(start.gripper),
            *end.agent_pos, float(end.gripper), float(is_success(end, self.geom)),
            # numpy's norm, not the scalar one: this value reaches the verifier,
            # and numpy's fused dot rounds differently in the last bit.
            float(np.linalg.norm([ox - gx, oy - gy])),
        ]
        return vec


def make_planner(kind: str, geometry: Geometry, chunk_size: int,
                 context_width: int = 16) -> NominalRolloutPlanner:
    if kind != "nominal-rollout":
        raise ConfigurationError(f"kind: unknown planner kind {kind!r}")
    return NominalRolloutPlanner(geometry, chunk_size, context_width)
