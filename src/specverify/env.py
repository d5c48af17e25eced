"""Toy 2-D reach-grasp-place environment with configurable disturbances.

The world is a continuous square. The agent moves in bounded per-step
displacements, can grasp the object when close enough, and succeeds when the
object has been released within a radius of the goal. Disturbances (actuation
noise, object drift, grasp failure) each consume an independent seeded RNG
stream so that toggling one source never shifts the draws of another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ActionSpace, ConfigurationError

GRIPPER_OPEN = 0
GRIPPER_HOLDING = 1

#: Layout of the observation feature vector, one row of render_observations:
#: [agent_x, agent_y, object_x, object_y,
#:  object_x - agent_x, object_y - agent_y, gripper_flag]
#: The goal position is deliberately absent: the planner reads it from the env
#: state, and the planning context carries it to the verifier.
OBS_DIM = 7

#: ToyEnv._sample_initial_state draws positions in [0.2, world_size - 0.2]^2
#: and the goal at least 0.7 from the object. An object at the centre of that
#: box has a goal to draw only if the box's half-diagonal exceeds 0.7; in a
#: smaller world the goal's rejection loop can run forever.
_MIN_WORLD_SIZE = 2 * 0.2 + 0.7 * math.sqrt(2.0)


@dataclass(frozen=True)
class Geometry:
    """World geometry shared by the environment and the nominal planner model."""

    world_size: float = 2.0
    step_bound: float = 0.25
    grasp_radius: float = 0.08
    success_radius: float = 0.1

    def __post_init__(self):
        for name in ("world_size", "step_bound", "grasp_radius", "success_radius"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.world_size <= _MIN_WORLD_SIZE:
            raise ConfigurationError(
                f"world_size: must exceed {_MIN_WORLD_SIZE:.4f}, so that every object "
                f"position has a goal 0.7 away, got {self.world_size}")
        b = self.step_bound
        object.__setattr__(self, "_space", ActionSpace(lower=[-b, -b, 0.0], upper=[b, b, 1.0]))

    def action_space(self) -> ActionSpace:
        return self._space


@dataclass(frozen=True)
class DisturbanceConfig:
    actuation_noise_sigma: float = 0.0
    object_drift_prob: float = 0.0
    object_drift_magnitude: float = 0.0
    grasp_failure_prob: float = 0.0

    def __post_init__(self):
        for name in ("object_drift_prob", "grasp_failure_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"{name}: must lie in [0, 1], got {p}")
        for name in ("actuation_noise_sigma", "object_drift_magnitude"):
            v = getattr(self, name)
            if v < 0:
                raise ConfigurationError(f"{name}: must be nonnegative, got {v}")

    @classmethod
    def moderate(cls) -> "DisturbanceConfig":
        return cls(
            actuation_noise_sigma=0.02,
            object_drift_prob=0.15,
            object_drift_magnitude=0.12,
            grasp_failure_prob=0.2,
        )

    @classmethod
    def from_level(cls, level: str) -> "DisturbanceConfig":
        levels = {"off": cls, "moderate": cls.moderate}
        if level not in levels:
            raise ConfigurationError(f"unknown disturbance level {level!r}; options: {sorted(levels)}")
        return levels[level]()


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: int = 40
    geometry: Geometry = field(default_factory=Geometry)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError(f"horizon: must be >= 1, got {self.horizon}")


class EnvState(NamedTuple):
    """Positions are (x, y) float pairs; arrays appear only in observations."""

    agent_pos: tuple
    object_pos: tuple
    goal_pos: tuple
    gripper: int
    step: int


def render_observations(states) -> np.ndarray:
    """One row per state, each its feature vector (see OBS layout above)."""
    return np.array([[ax, ay, ox, oy, ox - ax, oy - ay, float(gripper)]
                     for (ax, ay), (ox, oy), _, gripper, _ in states])


def render_observation(state: EnvState) -> np.ndarray:
    """Deterministic feature-vector rendering of one state."""
    return render_observations((state,))[0]


def _clip(v: float, lo: float, hi: float) -> float:
    """np.clip of one float, signed zeros and NaN included."""
    return lo if v < lo else hi if v > hi else v


def _excess(dx: float, dy: float, radius: float) -> float:
    """A float with the sign of ``np.linalg.norm([dx, dy]) - radius``. numpy's
    norm fuses a multiply-add, so it can differ from ``sqrt(dx*dx + dy*dy)`` in
    the last bit; within rounding of the radius, numpy decides."""
    d2, r2 = dx * dx + dy * dy, radius * radius
    if abs(d2 - r2) > 1e-9 * r2:
        return d2 - r2
    return float(np.linalg.norm([dx, dy])) - radius


def is_success(state: EnvState, geom: Geometry) -> bool:
    """Object placed within the success radius of the goal, gripper released."""
    _, (ox, oy), (gx, gy), gripper, _ = state
    return gripper == GRIPPER_OPEN and _excess(ox - gx, oy - gy, geom.success_radius) <= 0.0


def expert_action(state: EnvState, geom: Geometry) -> tuple:
    """Phase-appropriate greedy action: approach, grasp, carry, release.

    Deterministic function of the state, as a (dx, dy, grasp) float triple;
    each movement component is clamped to the per-step bound, so the agent
    lands exactly on targets in the disturbance-free environment.
    """
    (ax, ay), (ox, oy), (gx, gy), gripper, _ = state
    if gripper == GRIPPER_HOLDING:
        tx, ty, radius = gx, gy, geom.success_radius
    elif gripper == GRIPPER_OPEN and _excess(ox - gx, oy - gy, geom.success_radius) <= 0.0:
        return (0.0, 0.0, 0.0)  # is_success: stay
    else:
        tx, ty, radius = ox, oy, geom.grasp_radius
    if _excess(tx - ax, ty - ay, radius) <= 0.0:
        return (0.0, 0.0, 1.0)  # release at the goal, grasp at the object
    b = geom.step_bound
    return (_clip(tx - ax, -b, b), _clip(ty - ay, -b, b), 0.0)


def transition(state: EnvState, action, geom: Geometry, noise=None,
               grasp_ok=None, drift=None) -> EnvState:
    """One control step; without disturbance draws, the nominal dynamics that
    ``NominalRolloutPlanner.plan`` repeats on local floats.

    The environment passes its draws: ``noise`` is added to the move,
    ``grasp_ok()`` is called only on a grasp attempt within reach (so the grasp
    stream draws lazily), and a ``drift`` shift moves a free object or
    dislodges a held one (it slips out of the gripper and lands offset).
    """
    (ax, ay), obj, goal, gripper, step = state
    dx, dy, grasp = action
    if noise is not None:
        dx, dy = dx + noise[0], dy + noise[1]
    wall = float(geom.world_size)
    agent = (_clip(ax + dx, 0.0, wall), _clip(ay + dy, 0.0, wall))
    if gripper == GRIPPER_HOLDING:
        obj = agent
    if grasp > 0.5:
        if gripper == GRIPPER_HOLDING:
            gripper = GRIPPER_OPEN
        elif (_excess(agent[0] - obj[0], agent[1] - obj[1], geom.grasp_radius) <= 0.0
              and (grasp_ok is None or grasp_ok())):
            gripper = GRIPPER_HOLDING
            obj = agent
    if drift is not None:
        obj = (_clip(obj[0] + drift[0], 0.0, wall), _clip(obj[1] + drift[1], 0.0, wall))
        gripper = GRIPPER_OPEN
    return EnvState(agent, obj, goal, gripper, step + 1)


class ToyEnv:
    """Single-owner mutable environment; distinct instances are independent.

    The episode seed is split into four named sub-streams (initial state,
    actuation noise, object drift, grasp failure) so disturbance sources draw
    independently. A disabled source gets no generator. Uniform draws take
    ``random()`` and scale it: numpy's ``uniform(low, high)`` is
    ``low + (high - low) * random()``, from the same stream position.
    """

    def __init__(self, config: EpisodeConfig, seed: int,
                 initial_state: EnvState | None = None):
        self.config = config
        self.geom = config.geometry
        self.seed = seed
        self.initial_state = initial_state
        dist = config.disturbance
        # Stream i is child i of SeedSequence(seed).spawn(4), made only if in use.
        used = (True, dist.actuation_noise_sigma > 0, dist.object_drift_prob > 0,
                dist.grasp_failure_prob > 0)
        self._rng_init, self._rng_actuation, self._rng_drift, self._rng_grasp = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) if on else None
            for i, on in enumerate(used))
        self.state: EnvState | None = None

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> None:
        """Start an episode from the constructor-supplied state or a freshly
        sampled one. Observations are rendered from ``state`` where they are
        read (``render_observations``)."""
        self.state = self.initial_state or self._sample_initial_state()

    def _sample_initial_state(self) -> EnvState:
        lo, rng = 0.2, self._rng_init
        span = (self.geom.world_size - lo) - lo  # uniform(lo, hi)'s hi - lo

        def point():
            x, y = rng.random(2).tolist()
            return (lo + span * x, lo + span * y)

        # Rejection-sample object and goal so the phases are non-degenerate;
        # each loop draws at least once, as a point is 0 away from itself.
        agent = obj = point()
        while _excess(obj[0] - agent[0], obj[1] - agent[1], 0.6) < 0.0:
            obj = point()
        goal = obj
        while _excess(goal[0] - obj[0], goal[1] - obj[1], 0.7) < 0.0:
            goal = point()
        return EnvState(agent, obj, goal, GRIPPER_OPEN, 0)

    # -- dynamics ------------------------------------------------------------

    def step(self, action) -> None:
        """Advance one control step, applying configured disturbances."""
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        dist = self.config.disturbance
        noise = drift = None
        if self._rng_actuation is not None:
            noise = self._rng_actuation.normal(0.0, dist.actuation_noise_sigma, size=2).tolist()
        if self._rng_drift is not None and self._rng_drift.random() < dist.object_drift_prob:
            angle = 0.0 + 2.0 * math.pi * self._rng_drift.random()
            m = dist.object_drift_magnitude
            drift = (m * math.cos(angle), m * math.sin(angle))
        grasp_ok = self._grasp_succeeds if self._rng_grasp is not None else None
        self.state = transition(self.state, tuple(map(float, action)), self.geom,
                                noise, grasp_ok, drift)

    def _grasp_succeeds(self) -> bool:
        return self._rng_grasp.random() >= self.config.disturbance.grasp_failure_prob

    def success(self) -> bool:
        return self.state is not None and is_success(self.state, self.geom)
