"""The scalar dynamics kernel against the numpy formulas it replaced.

The env and the nominal planner run on Python floats. These properties hold
``transition``, ``expert_action``, ``is_success`` and ``plan`` bit for bit to
the float64-array formulas written out below, on states that include the
walls, the grasp and success radii within one ulp, held objects and any step
counter. The reference planner decodes the rendered observation, so ``plan``
from the env state is checked to lose nothing against it. The trace's state
hash, which formats the floats itself, is held to the repr of the state's lists.
"""
import hashlib
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specverify.controller import _state_hash
from specverify.env import (GRIPPER_HOLDING, GRIPPER_OPEN, EnvState, Geometry,
                            expert_action, is_success, render_observation,
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
        chunk, context = np_plan(render_observation(state), state.goal_pos,
                                 chunk_size, context_width)
        assert out.chunk.dtype == np.float64 and out.chunk.shape == chunk.shape
        assert out.chunk.tobytes() == chunk.tobytes()
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
