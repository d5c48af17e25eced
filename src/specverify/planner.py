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
from .env import (GRIPPER_HOLDING, GRIPPER_OPEN, EnvState, Geometry, _clip, _excess,
                  is_success)

#: Minimum context width: the informative prefix below occupies 12 entries.
_CONTEXT_BASE_WIDTH = 12

#: The expert's action once the task is done.
_STAY = (0.0, 0.0, 0.0)


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
        """Produce a chunk of min(K, max_len) expert actions plus the context.

        The rollout is ``expert_action`` then ``transition`` without
        disturbances, step after step, written out on local floats so that no
        state tuple is built per step; the tests hold it to those two
        functions bit for bit.
        """
        length = self.chunk_size if max_len is None else max(1, min(self.chunk_size, max_len))
        geom = self.geom
        # A config may give ints; a chunk holds floats, as the trace writes them.
        bound, wall = float(geom.step_bound), float(geom.world_size)
        grasp_radius, success_radius = geom.grasp_radius, geom.success_radius
        (ax, ay), (ox, oy), goal, gripper, step = state
        gx, gy = goal
        actions = []
        for _ in range(length):
            # expert_action
            if gripper == GRIPPER_HOLDING:
                tx, ty, radius = gx, gy, success_radius
            elif gripper == GRIPPER_OPEN and _excess(ox - gx, oy - gy, success_radius) <= 0.0:
                # Solved: the expert stays. A stay step only clips the agent
                # (turning -0.0 into 0.0), and a second clip moves no bit, so
                # the rest of the chunk stays too.
                actions += [_STAY] * (length - len(actions))
                ax, ay = _clip(ax + 0.0, 0.0, wall), _clip(ay + 0.0, 0.0, wall)
                break
            else:
                tx, ty, radius = ox, oy, grasp_radius
            if _excess(tx - ax, ty - ay, radius) <= 0.0:  # release at the goal, grasp at the object
                action = (0.0, 0.0, 1.0)
            else:
                action = (_clip(tx - ax, -bound, bound), _clip(ty - ay, -bound, bound), 0.0)
            actions.append(action)
            # transition without disturbances
            dx, dy, grasp = action
            ax, ay = _clip(ax + dx, 0.0, wall), _clip(ay + dy, 0.0, wall)
            if gripper == GRIPPER_HOLDING:
                ox, oy = ax, ay
            if grasp > 0.5:
                if gripper == GRIPPER_HOLDING:
                    gripper = GRIPPER_OPEN
                elif _excess(ax - ox, ay - oy, grasp_radius) <= 0.0:
                    ox, oy, gripper = ax, ay, GRIPPER_HOLDING
        end = EnvState((ax, ay), (ox, oy), goal, gripper, step + length)
        return PlannerOutput(chunk=tuple(actions), context=self._context_vector(state, end))

    def _context_vector(self, start: EnvState, end: EnvState) -> np.ndarray:
        agent, obj, goal, gripper, _ = start
        end_agent, (ox, oy), (gx, gy), end_gripper, _ = end
        d = np.array([ox - gx, oy - gy])
        return np.array([
            *goal, *obj, *agent, float(gripper),
            *end_agent, float(end_gripper), float(is_success(end, self.geom)),
            # np.linalg.norm's formula bit for bit, as it reaches the verifier
            math.sqrt(d.dot(d)),
        ] + self._pad)


def make_planner(kind: str, geometry: Geometry, chunk_size: int,
                 context_width: int = 16) -> NominalRolloutPlanner:
    if kind != "nominal-rollout":
        raise ConfigurationError(f"kind: unknown planner kind {kind!r}")
    return NominalRolloutPlanner(geometry, chunk_size, context_width)
