"""Toy 2-D reach-grasp-place environment with configurable disturbances.

The world is a continuous square. The agent moves in bounded per-step
displacements, can grasp the object when close enough, and succeeds when the
object has been released within a radius of the goal. Disturbances (actuation
noise, object drift, grasp failure) each consume an independent seeded RNG
stream so that toggling one source never shifts the draws of another.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .core import ActionSpace, ConfigurationError, named

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
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise ConfigurationError(f"{name}: must be positive and finite, got {value}")
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
    disturbance_level: str | None = None  # the named level the disturbance equals

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError(f"horizon: must be >= 1, got {self.horizon}")
        # A level names the disturbance only while it equals that level's fields.
        if self.disturbance_level is not None and self.disturbance != named(
                "disturbance_level", DisturbanceConfig.from_level, self.disturbance_level):
            object.__setattr__(self, "disturbance_level", None)

    def episode_config(self, disturbance: DisturbanceConfig | None = None) -> "EpisodeConfig":
        """This config, or a copy under ``disturbance``."""
        return self if disturbance is None else replace(self, disturbance=disturbance)


class EnvState(NamedTuple):
    """Positions are (x, y) float pairs; arrays appear only in observations."""

    agent_pos: tuple
    object_pos: tuple
    goal_pos: tuple
    gripper: int
    step: int


def render_observations(states) -> np.ndarray:
    """One row per state, each its feature vector (see OBS layout above)."""
    flat = []
    for (ax, ay), (ox, oy), _, gripper, _ in states:
        flat += (ax, ay, ox, oy, ox - ax, oy - ay, float(gripper))
    return np.array(flat).reshape(-1, OBS_DIM)


def _clip(v: float, lo: float, hi: float) -> float:
    """np.clip of one float, signed zeros and NaN included."""
    return lo if v < lo else hi if v > hi else v


def squared_distance(dx: float, dy: float) -> float:
    """``fma(dy, dy, dx*dx)``, the 2-element ``ddot`` of ``np.linalg.norm``
    under OpenBLAS's ``SkylakeX`` kernel, without BLAS, so every host gets its
    bits: Dekker's split makes ``p + err == dy*dy`` exactly unless it
    underflows, and ``math.fsum`` rounds once. Sums beyond 1e300 add plainly."""
    xx, p = dx * dx, dy * dy
    if not xx + p < 1e300:
        return xx + p
    c = 134217729.0 * dy  # 2**27 + 1
    hi = c - (c - dy)
    lo = dy - hi
    return math.fsum((xx, p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo))


def _excess(dx: float, dy: float, radius: float) -> float:
    """A float with the sign of ``sqrt(squared_distance(dx, dy)) - radius``.
    The plain ``dx*dx + dy*dy`` can differ from that in the last bit, so
    within rounding of the radius the exact formula decides."""
    d2, r2 = dx * dx + dy * dy, radius * radius
    if abs(d2 - r2) > 1e-9 * r2:
        return d2 - r2
    return math.sqrt(squared_distance(dx, dy)) - radius


def is_success(state: EnvState, geom: Geometry) -> bool:
    """Object placed within the success radius of the goal, gripper released."""
    _, (ox, oy), (gx, gy), gripper, _ = state
    return gripper == GRIPPER_OPEN and _excess(ox - gx, oy - gy, geom.success_radius) <= 0.0


def nominal_rollout(state: EnvState, geom: Geometry, length: int) -> tuple:
    """``(actions, end_state)``: the expert policy's one definition, rolled
    out ``length`` steps from ``state`` under disturbance-free dynamics.

    The expert approaches, grasps, carries, releases, then stays; each action
    is a (dx, dy, grasp) float triple whose move is clamped to the step bound,
    so the agent lands exactly on targets. Each step is ``transition`` without
    draws on local floats, building no state tuple; the tests hold the two
    together bit for bit."""
    # A config may give ints; an action holds floats, as the trace writes them.
    bound, wall = float(geom.step_bound), float(geom.world_size)
    grasp_radius, success_radius = geom.grasp_radius, geom.success_radius
    (ax, ay), (ox, oy), goal, gripper, step = state
    gx, gy = goal
    actions = []
    for _ in range(length):
        if gripper == GRIPPER_HOLDING:
            tx, ty, radius = gx, gy, success_radius
        elif gripper == GRIPPER_OPEN and _excess(ox - gx, oy - gy, success_radius) <= 0.0:
            # Solved: the expert stays. A stay step only clips the agent
            # (turning -0.0 into 0.0), and a second clip moves no bit, so
            # the rest of the rollout stays too.
            actions += [(0.0, 0.0, 0.0)] * (length - len(actions))
            ax, ay = _clip(ax + 0.0, 0.0, wall), _clip(ay + 0.0, 0.0, wall)
            break
        else:
            tx, ty, radius = ox, oy, grasp_radius
        if _excess(tx - ax, ty - ay, radius) <= 0.0:  # release at the goal, grasp at the object
            action = (0.0, 0.0, 1.0)
        else:
            action = (_clip(tx - ax, -bound, bound), _clip(ty - ay, -bound, bound), 0.0)
        actions.append(action)
        dx, dy, grasp = action
        ax, ay = _clip(ax + dx, 0.0, wall), _clip(ay + dy, 0.0, wall)
        if gripper == GRIPPER_HOLDING:
            ox, oy = ax, ay
        if grasp > 0.5:
            if gripper == GRIPPER_HOLDING:
                gripper = GRIPPER_OPEN
            elif _excess(ax - ox, ay - oy, grasp_radius) <= 0.0:
                ox, oy, gripper = ax, ay, GRIPPER_HOLDING
    return tuple(actions), EnvState((ax, ay), (ox, oy), goal, gripper, step + length)


def expert_action(state: EnvState, geom: Geometry) -> tuple:
    """The expert's action at ``state``: the first of ``nominal_rollout``'s."""
    return nominal_rollout(state, geom, 1)[0][0]


def transition(state: EnvState, action, geom: Geometry, noise=None,
               grasp_ok=None, drift=None) -> EnvState:
    """One control step, with the environment's disturbance draws;
    ``nominal_rollout`` writes the same move without them.

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


# -- random streams -----------------------------------------------------------

#: numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 32  # values a stream draws per numpy call


def _stream_words(seeds, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)``
    of each seed in [0, 2**32) and key, as an array (seeds, keys, 4): numpy's
    mixing of the entropy [seed, 0, 0, 0, key], on wrapping uint32 arrays."""
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        x = _MIX_MULT_L * x - _MIX_MULT_R * y
        return x ^ x >> 16

    pool = [hashmix(np.array(seeds, np.uint32)[:, None])]
    pool += [hashmix(np.zeros(1, np.uint32)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    pool = [mix(word, hashmix(np.array(keys, np.uint32))) for word in pool]
    const = _INIT_B
    words = [hashmix(pool[i % 4], _MULT_B) for i in range(8)]
    return np.stack(words, axis=-1).view(np.uint64)  # little-endian, as numpy's view


@functools.cache
def _words_seed():
    """An ``ISeedSequence`` handing ``PCG64`` its words, defined at first use:
    importing the package loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return WordsSeed


def _generators(dist: DisturbanceConfig, seeds) -> list:
    """Per seed, its streams (init, actuation, drift, grasp): stream i is
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))``, None for a disabled
    source. Int seeds in [0, 2**32) are seeded by one ``_stream_words`` pass,
    any other by SeedSequence."""
    used = (True, dist.actuation_noise_sigma > 0, dist.object_drift_prob > 0,
            dist.grasp_failure_prob > 0)
    keys = [i for i, on in enumerate(used) if on]
    fast = [type(seed) is int and 0 <= seed < 2**32 for seed in seeds]
    words = iter(_stream_words([seed for seed, f in zip(seeds, fast) if f], keys))
    make, out = _words_seed(), []
    for seed, f in zip(seeds, fast):
        seqs = (map(make, next(words)) if f
                else (np.random.SeedSequence(seed, spawn_key=(i,)) for i in keys))
        rngs = map(np.random.Generator, map(np.random.PCG64, seqs))  # as default_rng
        out.append(tuple(next(rngs) if on else None for on in used))
    return out


def _blocks(draw):
    """The values of ``draw(_BLOCK)`` one at a time, a block drawn as the last
    runs out: numpy fills a block draw by draw, so these are one ``draw()``'s
    per value, in order."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, repeat(_BLOCK))))


class ToyEnv:
    """Single-owner mutable environment; distinct instances are independent.

    The episode seed is split into four named sub-streams (initial state,
    actuation noise, object drift, grasp failure) so disturbance sources draw
    independently; a disabled source gets no generator, and each stream is
    read through ``_blocks``. Uniform draws take ``random()`` and scale it:
    numpy's ``uniform(low, high)`` is ``low + (high - low) * random()``.
    """

    def __init__(self, config: EpisodeConfig, seed: int,
                 initial_state: EnvState | None = None, *, generators: tuple | None = None):
        self.config = config
        self.geom = config.geometry
        self.seed = seed
        self.initial_state = initial_state
        dist = config.disturbance
        init, actuation, drift, grasp = generators or _generators(dist, [seed])[0]
        self._init = _blocks(init.random)
        self._noise = actuation and _blocks(
            functools.partial(actuation.normal, 0.0, dist.actuation_noise_sigma))
        self._drift = drift and _blocks(drift.random)
        self._grasp = grasp = grasp and _blocks(grasp.random)
        p = dist.grasp_failure_prob
        self._grasp_ok = grasp and (lambda: next(grasp) >= p)
        self.state: EnvState | None = None
        self._success = False

    @classmethod
    def batch(cls, config: EpisodeConfig, seeds) -> list:
        """One env per seed, drawing as ``ToyEnv(config, seed)`` does."""
        seeds = list(seeds)
        return [cls(config, seed, generators=generators) for seed, generators
                in zip(seeds, _generators(config.disturbance, seeds))]

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> None:
        """Start an episode from the constructor-supplied state or a freshly
        sampled one. Observations are rendered from ``state`` where they are
        read (``render_observations``)."""
        self.state = self.initial_state or self._sample_initial_state()
        self._success = is_success(self.state, self.geom)

    def _sample_initial_state(self) -> EnvState:
        lo, draws = 0.2, self._init
        span = (self.geom.world_size - lo) - lo  # uniform(lo, hi)'s hi - lo

        def point():
            return (lo + span * next(draws), lo + span * next(draws))

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
        dx, dy, grasp = action
        dist = self.config.disturbance
        noise = drift = None
        if self._noise is not None:
            noise = (next(self._noise), next(self._noise))
        if self._drift is not None and next(self._drift) < dist.object_drift_prob:
            angle = 0.0 + 2.0 * math.pi * next(self._drift)
            m = dist.object_drift_magnitude
            drift = (m * math.cos(angle), m * math.sin(angle))
        self.state = transition(self.state, (float(dx), float(dy), float(grasp)), self.geom,
                                noise, self._grasp_ok, drift)
        self._success = is_success(self.state, self.geom)

    def success(self) -> bool:
        return self._success
