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
from .env import EnvState, Geometry, is_success, nominal_rollout, squared_distance

#: Minimum context width: the informative prefix below occupies 12 entries.
_CONTEXT_BASE_WIDTH = 12


@dataclass(frozen=True, eq=False)
class PlannerOutput:
    chunk: tuple         # one planned (dx, dy, grasp) float triple per step
    context: np.ndarray  # (context_width,)


class NominalRolloutPlanner:
    """Rolls the expert policy forward under disturbance-free dynamics."""

    def __init__(self, geometry: Geometry, chunk_size: int, context_width: int = 16):
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size: must be >= 1, got {chunk_size}")
        if context_width < _CONTEXT_BASE_WIDTH:
            raise ConfigurationError(
                f"context_width: must be >= {_CONTEXT_BASE_WIDTH}, got {context_width}")
        self.geom = geometry
        self.chunk_size = chunk_size
        self.context_width = context_width
        self._pad = [0.0] * (context_width - _CONTEXT_BASE_WIDTH)

    def plan(self, state: EnvState, max_len: int | None = None) -> PlannerOutput:
        """Produce a chunk of min(K, max_len) expert actions, rolled out by
        ``env.nominal_rollout``, plus the context of its start and end states."""
        length = self.chunk_size if max_len is None else max(1, min(self.chunk_size, max_len))
        chunk, end = nominal_rollout(state, self.geom, length)
        return PlannerOutput(chunk=chunk, context=self._context_vector(state, end))

    def _context_vector(self, start: EnvState, end: EnvState) -> np.ndarray:
        agent, obj, goal, gripper, _ = start
        end_agent, (ox, oy), (gx, gy), end_gripper, _ = end
        return np.array([
            *goal, *obj, *agent, float(gripper),
            *end_agent, float(end_gripper), float(is_success(end, self.geom)),
            math.sqrt(squared_distance(ox - gx, oy - gy)),
        ] + self._pad)


def make_planner(kind: str, geometry: Geometry, chunk_size: int,
                 context_width: int = 16) -> NominalRolloutPlanner:
    if kind != "nominal-rollout":
        raise ConfigurationError(f"kind: unknown planner kind {kind!r}")
    return NominalRolloutPlanner(geometry, chunk_size, context_width)
