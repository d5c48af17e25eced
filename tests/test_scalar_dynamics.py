"""The scalar dynamics kernel against the numpy formulas it replaced.

The env and the nominal planner run on Python floats. These properties hold
``transition``, ``expert_action``, ``is_success`` and ``plan`` bit for bit to
the float64-array formulas written out below, on states that include the
walls, the grasp and success radii within one ulp, held objects and any step
counter. The reference planner decodes the rendered observation, so ``plan``
from the env state is checked to lose nothing against it. ``plan`` writes the
expert and the step out on local floats; it is also held to the loop of
``expert_action`` and ``transition`` calls it replaced, fixed-point padding
included. The trace's state hash, which formats the floats itself, is held to
the repr of the state's lists.
The env draws through ``Generator.random``, in blocks; it is held state for
state to the one-at-a-time ``uniform()`` draws it replaced, the initial-state
sampler included.
"""
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specverify.controller import _state_hash
from specverify.env import (GRIPPER_HOLDING, GRIPPER_OPEN, DisturbanceConfig,
                            EnvState, EpisodeConfig, Geometry, ToyEnv, _excess,
                            expert_action, is_success, render_observations,
                            transition)
from specverify.planner import NominalRolloutPlanner

GEOM = Geometry()


# -- the array formulas; a state is (agent, object, goal, gripper) -----------


def np_is_success(agent, obj, goal, gripper):
    dist = float(np.linalg.norm(obj - goal))
    return dist <= GEOM.success_radius and gripper == GRIPPER_OPEN


def np_expert_action(agent, obj, goal, gripper):
    space = GEOM.action_space()
    bound = GEOM.step_bound
    if gripper == GRIPPER_HOLDING:
        delta = goal - agent
        if float(np.linalg.norm(delta)) <= GEOM.success_radius:
            return space.clamp([0.0, 0.0, 1.0])
        move = np.clip(delta, -bound, bound)
        return space.clamp([move[0], move[1], 0.0])
    if np_is_success(agent, obj, goal, gripper):
        return space.clamp([0.0, 0.0, 0.0])
    delta = obj - agent
    if float(np.linalg.norm(delta)) <= GEOM.grasp_radius:
        return space.clamp([0.0, 0.0, 1.0])
    move = np.clip(delta, -bound, bound)
    return space.clamp([move[0], move[1], 0.0])


def np_transition(agent, obj, goal, gripper, action, noise=None, grasp_ok=None, drift=None):
    dx, dy, grasp = action
    if noise is not None:
        dx, dy = dx + noise[0], dy + noise[1]
    agent = np.clip(agent + [dx, dy], 0.0, GEOM.world_size)
    obj = agent.copy() if gripper == GRIPPER_HOLDING else obj.copy()
    if grasp > 0.5:
        if gripper == GRIPPER_HOLDING:
            gripper = GRIPPER_OPEN
        elif (float(np.linalg.norm(agent - obj)) <= GEOM.grasp_radius
              and (grasp_ok is None or grasp_ok())):
            gripper = GRIPPER_HOLDING
            obj = agent.copy()
    if drift is not None:
        obj = np.clip(obj + np.asarray(drift), 0.0, GEOM.world_size)
        gripper = GRIPPER_OPEN
    return agent, obj, goal, gripper


def np_plan(obs, goal, chunk_size, context_width):
    start = (obs[0:2], obs[2:4], np.asarray(goal, dtype=np.float64), int(round(obs[6])))
    actions, end = [], start
    for _ in range(chunk_size):
        a = np_expert_action(*end)
        actions.append(a)
        end = np_transition(*end, a)
    base = np.concatenate([
        start[2], start[1], start[0], [float(start[3])], end[0], [float(end[3])],
        [float(np_is_success(*end)), float(np.linalg.norm(end[1] - end[2]))],
    ])
    context = np.zeros(context_width)
    context[:base.size] = base
    return np.array(actions), context


def _same_place(a: EnvState, b: EnvState) -> bool:
    """Equal positions and gripper, bit for bit: 0.0 and -0.0 differ."""
    return a.gripper == b.gripper and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a.agent_pos + a.object_pos, b.agent_pos + b.object_pos))


def loop_plan(planner: NominalRolloutPlanner, state: EnvState, max_len=None):
    """``plan`` as a loop of ``expert_action`` and ``transition`` calls: at a
    fixed point (the expert stays and the state moves no bit) the chunk is
    padded with the stay action. Returns the chunk and the context."""
    length = (planner.chunk_size if max_len is None
              else max(1, min(planner.chunk_size, max_len)))
    actions, rollout = [], state
    while len(actions) < length:
        a = expert_action(rollout, planner.geom)
        actions.append(a)
        after = transition(rollout, a, planner.geom)
        if a == (0.0, 0.0, 0.0) and _same_place(after, rollout):
            actions += [a] * (length - len(actions))
        rollout = after
    return tuple(actions), planner._context_vector(state, rollout)


# -- states ------------------------------------------------------------------


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def same_state(state: EnvState, arrays) -> bool:
    agent, obj, goal, gripper = arrays
    floats = (*state.agent_pos, *state.object_pos, *state.goal_pos)
    return (all(type(v) is float for v in floats)  # the trace hash reprs them
            and bits(state.agent_pos) == bits(agent) and bits(state.object_pos) == bits(obj)
            and bits(state.goal_pos) == bits(goal) and state.gripper == gripper)


coordinates = st.one_of(st.sampled_from([0.0, -0.0, GEOM.world_size]),
                        st.floats(0.0, GEOM.world_size))
points = st.tuples(coordinates, coordinates)


@st.composite
def near(draw, centre, radius):
    """A point one ulp inside, on, or one ulp outside ``radius`` of ``centre``."""
    r = draw(st.sampled_from([math.nextafter(radius, 0.0), radius,
                              math.nextafter(radius, math.inf)]))
    angle = draw(st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                           st.floats(0.0, 2.0 * math.pi)))
    return (centre[0] + r * math.cos(angle), centre[1] + r * math.sin(angle))


@st.composite
def env_states(draw):
    goal = draw(points)
    edge = draw(st.sampled_from(["none", "grasp", "success"]))
    holding = draw(st.booleans())
    agent = draw(points)
    if edge == "success":  # the held agent, or the free object, at the success radius
        obj = draw(near(goal, GEOM.success_radius))
        if holding:
            agent = obj
    elif edge == "grasp":
        obj = draw(near(agent, GEOM.grasp_radius))
    else:
        obj = draw(points)
    if holding:
        obj = agent
    gripper = GRIPPER_HOLDING if holding else GRIPPER_OPEN
    step = draw(st.integers(0, 39))  # the planner must not read it
    return EnvState(agent_pos=agent, object_pos=obj, goal_pos=goal, gripper=gripper, step=step)


def arrays_of(state: EnvState):
    return (np.array(state.agent_pos), np.array(state.object_pos),
            np.array(state.goal_pos), state.gripper)


moves = st.one_of(st.sampled_from([-GEOM.step_bound, -0.0, GEOM.step_bound]),
                  st.floats(-GEOM.step_bound, GEOM.step_bound))
actions = st.tuples(moves, moves, st.sampled_from([0.0, 1.0]))
noises = st.none() | st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)).map(list)
drifts = st.none() | st.floats(0.0, 2.0 * math.pi).map(
    lambda a: (0.12 * math.cos(a), 0.12 * math.sin(a)))


# -- properties --------------------------------------------------------------


class TestMatchesArrayFormulas:
    @settings(max_examples=300, deadline=None)
    @given(env_states(), actions, noises, drifts, st.booleans())
    def test_transition(self, state, action, noise, drift, grasp_ok):
        grasps = ([], [])

        def grasp_draw(log):  # logs each draw of the grasp stream and answers grasp_ok
            return lambda: log.append(True) or grasp_ok

        got = transition(state, action, GEOM, noise, grasp_draw(grasps[0]), drift)
        want = np_transition(*arrays_of(state), np.array(action), noise,
                             grasp_draw(grasps[1]), drift)
        assert same_state(got, want)
        assert grasps[0] == grasps[1]  # the grasp stream draws exactly as before
        nominal = transition(state, action, GEOM)
        assert same_state(nominal, np_transition(*arrays_of(state), np.array(action)))

    @settings(max_examples=300, deadline=None)
    @given(env_states())
    def test_expert_action_and_success(self, state):
        arrays = arrays_of(state)
        action = expert_action(state, GEOM)
        assert all(type(v) is float for v in action)
        assert bits(action) == bits(np_expert_action(*arrays))
        assert is_success(state, GEOM) == np_is_success(*arrays)

    @settings(max_examples=200, deadline=None)
    @given(env_states(), st.sampled_from([1, 4, 16]), st.sampled_from([12, 16, 20]))
    def test_plan_chunk_and_context(self, state, chunk_size, context_width):
        out = NominalRolloutPlanner(GEOM, chunk_size, context_width).plan(state)
        chunk, context = np_plan(render_observations((state,))[0], state.goal_pos,
                                 chunk_size, context_width)
        assert all(type(a) is tuple and len(a) == 3 and all(type(v) is float for v in a)
                   for a in out.chunk)
        assert np.array(out.chunk).shape == chunk.shape
        assert np.array(out.chunk).tobytes() == chunk.tobytes()
        assert out.context.tobytes() == context.tobytes()


@settings(max_examples=300, deadline=None)
@given(env_states(), st.sampled_from([1, 4, 16]), st.sampled_from([None, 1, 2, 5, 16, 39]))
# solved with the agent at x -0.0, which the first stay step turns into 0.0
@example(EnvState(agent_pos=(-0.0, 1.0), object_pos=(1.5, 1.5), goal_pos=(1.5, 1.5),
                  gripper=GRIPPER_OPEN, step=0), 16, None)
# holding, at the success radius exactly: numpy's norm decides the release
@example(EnvState(agent_pos=(0.1, 0.0), object_pos=(0.1, 0.0), goal_pos=(0.0, 0.0),
                  gripper=GRIPPER_HOLDING, step=0), 16, None)
# one ulp inside the grasp radius (a grasp), and one ulp outside (a move first)
@example(EnvState(agent_pos=(0.0, 0.5), object_pos=(math.nextafter(0.08, 0.0), 0.5),
                  goal_pos=(1.5, 1.5), gripper=GRIPPER_OPEN, step=3), 4, None)
@example(EnvState(agent_pos=(0.0, 0.5), object_pos=(math.nextafter(0.08, 1.0), 0.5),
                  goal_pos=(1.5, 1.5), gripper=GRIPPER_OPEN, step=3), 4, 2)
def test_plan_matches_the_step_loop(state, chunk_size, max_len):
    """The float rollout makes the chunk and the context of the
    ``expert_action``/``transition`` loop, bit for bit and as floats."""
    planner = NominalRolloutPlanner(GEOM, chunk_size)
    out = planner.plan(state, max_len)
    chunk, context = loop_plan(planner, state, max_len)
    assert all(type(a) is tuple and all(type(v) is float for v in a) for a in out.chunk)
    assert len(out.chunk) == len(chunk)
    assert bits(out.chunk) == bits(chunk)
    assert out.context.tobytes() == context.tobytes()


@settings(max_examples=300, deadline=None)
@given(env_states())
@example(EnvState(agent_pos=(-0.0, GEOM.world_size), object_pos=(-0.0, GEOM.world_size),
                  goal_pos=(GEOM.world_size, -0.0), gripper=GRIPPER_HOLDING, step=39))
def test_state_hash_is_sha1_of_state_repr(state):
    """The hash formats each float with repr, as the repr of the state's lists
    does, and takes the goal's text once per episode."""
    payload = repr((list(state.agent_pos), list(state.object_pos),
                    list(state.goal_pos), state.gripper, state.step))
    want = hashlib.sha1(payload.encode()).hexdigest()[:16]
    assert _state_hash(state, repr(list(state.goal_pos))) == want


def test_radius_edge_matches_numpy_norm():
    """Within an ulp of a radius, where a scalar norm and numpy's disagree on
    about one draw in 200, the grasp and success tests still agree with
    ``np.linalg.norm``."""
    rng = np.random.default_rng(0)
    for radius in (GEOM.grasp_radius, GEOM.success_radius):
        rs = np.array([math.nextafter(radius, 0.0), radius, math.nextafter(radius, math.inf)])
        for _ in range(5000):
            agent = tuple(rng.uniform(0.2, 1.8, size=2).tolist())
            r, angle = float(rng.choice(rs)), rng.uniform(0.0, 2.0 * math.pi)
            obj = (agent[0] + r * math.cos(angle), agent[1] + r * math.sin(angle))
            free = EnvState(agent_pos=agent, object_pos=obj, goal_pos=agent,
                            gripper=GRIPPER_OPEN, step=0)
            assert bits(expert_action(free, GEOM)) == bits(np_expert_action(*arrays_of(free)))
            assert is_success(free, GEOM) == np_is_success(*arrays_of(free))


# -- the env's draws against numpy's uniform() ---------------------------------


def stream(seed, i):
    """Stream i of an episode seed, as ``ToyEnv`` makes it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def np_initial_state(rng, world_size, points=None):
    """The old sampler; each point it draws is appended to ``points``."""
    lo, hi = 0.2, world_size - 0.2

    def draw():
        p = rng.uniform(lo, hi, size=2)
        if points is not None:
            points.append(p)
        return p

    agent = draw()
    while True:
        obj = draw()
        if np.linalg.norm(obj - agent) >= 0.6:
            break
    while True:
        goal = draw()
        if np.linalg.norm(goal - obj) >= 0.7:
            break
    return agent, obj, goal, GRIPPER_OPEN


class UniformEnv:
    """The env as it drew with ``uniform()``, on the array formulas; it counts
    the drift events and the grasp draws."""

    def __init__(self, dist: DisturbanceConfig, seed: int):
        self.dist = dist
        self.init = stream(seed, 0)
        self.actuation, self.drift, self.grasp = (
            stream(seed, i) if on else None for i, on in
            enumerate((dist.actuation_noise_sigma > 0, dist.object_drift_prob > 0,
                       dist.grasp_failure_prob > 0), 1))
        self.arrays = np_initial_state(self.init, GEOM.world_size)
        self.drifts = self.grasp_draws = 0

    def grasp_ok(self):
        self.grasp_draws += 1
        return self.grasp.uniform() >= self.dist.grasp_failure_prob

    def step(self, action):
        noise = drift = None
        if self.actuation is not None:
            noise = self.actuation.normal(0.0, self.dist.actuation_noise_sigma, size=2).tolist()
        if self.drift is not None and self.drift.uniform() < self.dist.object_drift_prob:
            self.drifts += 1
            angle = self.drift.uniform(0.0, 2.0 * math.pi)
            m = self.dist.object_drift_magnitude
            drift = (m * math.cos(angle), m * math.sin(angle))
        grasp_ok = self.grasp_ok if self.grasp is not None else None
        self.arrays = np_transition(*self.arrays, np.asarray(action, dtype=np.float64),
                                    noise, grasp_ok, drift)


@pytest.mark.parametrize("noise,drift,grasp", itertools.product((False, True), repeat=3))
def test_env_draws_match_uniform(noise, drift, grasp):
    """``random()`` in place of ``uniform()``, and draws in blocks, move no
    state: under an action script (the expert's action, with a grasp every
    third step) the env matches the old draws state for state, and each
    stream has taken as many values as the old one drew."""
    dist = DisturbanceConfig(actuation_noise_sigma=0.3 if noise else 0.0,
                             object_drift_prob=0.9 if drift else 0.0,
                             object_drift_magnitude=0.12,
                             grasp_failure_prob=0.7 if grasp else 0.0)
    drifts = grasp_draws = 0
    for seed in range(30):
        env, old = ToyEnv(EpisodeConfig(disturbance=dist), seed), UniformEnv(dist, seed)
        env.reset()
        assert same_state(env.state, old.arrays)
        for t in range(40):
            action = expert_action(env.state, GEOM)
            if t % 3 == 2:
                action = (action[0], action[1], 1.0)
            env.step(np.array(action))
            old.step(action)
            assert same_state(env.state, old.arrays) and env.state.step == t + 1
        # Each stream has reached the old one's position: the next value the
        # env would take is the old stream's next draw.
        for got, want, draw in (
                (env._noise, old.actuation, lambda r: r.normal(0.0, dist.actuation_noise_sigma)),
                (env._drift, old.drift, lambda r: r.random()),
                (env._grasp, old.grasp, lambda r: r.random())):
            assert (got is None) == (want is None)
            assert got is None or next(got) == draw(want)
        drifts, grasp_draws = drifts + old.drifts, grasp_draws + old.grasp_draws
    assert (drifts > 0) == drift and (grasp_draws > 0) == grasp


@pytest.mark.parametrize("world_size", [2.0, 1.5])
def test_initial_state_matches_uniform(world_size):
    """The sampled initial state is the old array formula's, draw for draw; in
    a 1.5-wide world the 0.6 and 0.7 rejection loops run often and near the
    edge of the box."""
    config = EpisodeConfig(geometry=Geometry(world_size=world_size))
    points = []
    for seed in range(500):
        env, rng = ToyEnv(config, seed), stream(seed, 0)
        env.reset()
        assert same_state(env.state, np_initial_state(rng, world_size, points))
        assert env.state.step == 0
        assert next(env._init) == rng.random()  # the init stream took as many values
    assert len(points) > 3 * 500  # some loops rejected a draw


def test_rejection_edge_matches_numpy_norm():
    """The initial state's separation tests, ``norm >= 0.6`` and ``>= 0.7``,
    agree with ``np.linalg.norm`` within an ulp of the separation."""
    rng = np.random.default_rng(1)
    for separation in (0.6, 0.7):
        rs = [math.nextafter(separation, 0.0), separation, math.nextafter(separation, math.inf)]
        for _ in range(5000):
            r, angle = float(rng.choice(rs)), rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = r * math.cos(angle), r * math.sin(angle)
            want = float(np.linalg.norm(np.array([dx, dy]))) >= separation
            assert (_excess(dx, dy, separation) >= 0.0) == want
