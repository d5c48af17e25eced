"""Planner tests: chunk construction, prefix consistency, context contents."""
import numpy as np
import pytest

from specverify.core import ConfigurationError
from specverify.env import (GRIPPER_HOLDING, EnvState, EpisodeConfig, Geometry,
                            ToyEnv, _excess, transition)
from specverify import planner as planner_module
from specverify.planner import NominalRolloutPlanner, make_planner


class TestConstruction:
    def test_factory(self, geometry):
        p = make_planner("nominal-rollout", geometry, chunk_size=8)
        assert p.chunk_size == 8

    def test_unknown_kind(self, geometry):
        with pytest.raises(ConfigurationError):
            make_planner("mpc", geometry, chunk_size=8)

    def test_invalid_chunk_size(self, geometry):
        with pytest.raises(ConfigurationError):
            NominalRolloutPlanner(geometry, chunk_size=0)

    def test_context_width_floor(self, geometry):
        with pytest.raises(ConfigurationError):
            NominalRolloutPlanner(geometry, chunk_size=4, context_width=4)


class TestPlanning:
    def test_chunk_length_and_boundary(self, geometry):
        planner = NominalRolloutPlanner(geometry, chunk_size=6)
        state = EnvState(agent_pos=[0.2, 0.2], object_pos=[1.0, 1.0],
                         goal_pos=[1.8, 1.8], gripper=0, step=3)
        out = planner.plan(state)
        assert len(out.chunk) == 6
        assert np.array(out.chunk).shape == (6, 3)

    def test_max_len_truncates(self, geometry):
        planner = NominalRolloutPlanner(geometry, chunk_size=16)
        state = EnvState(agent_pos=[0.2, 0.2], object_pos=[1.0, 1.0],
                         goal_pos=[1.8, 1.8], gripper=0, step=0)
        out = planner.plan(state, max_len=5)
        assert len(out.chunk) == 5

    def test_prefix_consistency(self, geometry):
        """A shorter chunk from the same state is a prefix of a longer one."""
        state = EnvState(agent_pos=[0.3, 0.4], object_pos=[1.1, 0.9],
                         goal_pos=[1.7, 1.6], gripper=0, step=0)
        short = NominalRolloutPlanner(geometry, chunk_size=4).plan(state)
        long = NominalRolloutPlanner(geometry, chunk_size=10).plan(state)
        np.testing.assert_array_equal(short.chunk, long.chunk[:4])

    def test_open_loop_chunk_solves_clean_episode(self, geometry):
        """Executing the planned chunk under nominal dynamics lands the rollout
        exactly where the plan predicted, including task completion."""
        cfg = EpisodeConfig(horizon=40, geometry=geometry)
        env = ToyEnv(cfg, seed=21)
        env.reset()
        planner = NominalRolloutPlanner(geometry, chunk_size=40)
        out = planner.plan(env.state)
        rollout = env.state
        for a in out.chunk:
            env.step(a)
            rollout = transition(rollout, a, geometry)
            np.testing.assert_allclose(env.state.agent_pos, rollout.agent_pos)
        assert env.success()

    def test_context_prefix_holds_goal_and_scene(self, geometry):
        planner = NominalRolloutPlanner(geometry, chunk_size=4, context_width=16)
        state = EnvState(agent_pos=[0.3, 0.4], object_pos=[1.1, 0.9],
                         goal_pos=[1.7, 1.6], gripper=0, step=0)
        vec = planner.plan(state).context
        assert vec.size == 16
        np.testing.assert_allclose(vec[0:2], state.goal_pos)
        np.testing.assert_allclose(vec[2:4], state.object_pos)
        np.testing.assert_allclose(vec[4:6], state.agent_pos)

    def test_one_dim_chunk_shape(self, geometry):
        """Hand-checked 1-D motion: carrying from x=0 toward x=1 with bound
        0.25 plans three 0.25-steps then a release."""
        geom = Geometry(success_radius=0.25)
        planner = NominalRolloutPlanner(geom, chunk_size=4)
        state = EnvState(agent_pos=[0.0, 1.0], object_pos=[0.0, 1.0],
                         goal_pos=[1.0, 1.0], gripper=GRIPPER_HOLDING, step=0)
        out = planner.plan(state)
        assert out.chunk == ((0.25, 0.0, 0.0), (0.25, 0.0, 0.0),
                             (0.25, 0.0, 0.0), (0.0, 0.0, 1.0))

    def test_int_geometry_plans_floats(self):
        """A config may give an int bound or world size; the chunk still holds
        floats, which the trace writes as floats."""
        planner = NominalRolloutPlanner(Geometry(world_size=2, step_bound=1), chunk_size=8)
        state = EnvState(agent_pos=(0.2, 0.2), object_pos=(1.9, 0.2),
                         goal_pos=(0.2, 1.9), gripper=0, step=0)
        out = planner.plan(state)
        assert out.chunk[0] == (1.0, 0.0, 0.0)
        assert all(type(v) is float for a in out.chunk for v in a)

    @pytest.mark.parametrize("agent_x", (0.5, -0.0))
    def test_solved_state_stops_rolling_out(self, geometry, monkeypatch, agent_x):
        """From a solved state the rollout pads the chunk with its stay
        action after one step, from ``-0.0`` too (the step turns it into
        ``0.0``, which a second step keeps). Each rolled-out step tests the
        success radius once, so rolling out the whole chunk would make 16
        radius tests."""
        calls = []
        monkeypatch.setattr(planner_module, "_excess",
                            lambda *args: calls.append(args) or _excess(*args))
        state = EnvState(agent_pos=(agent_x, 1.0), object_pos=(1.5, 1.5),
                         goal_pos=(1.5, 1.5), gripper=0, step=0)
        out = NominalRolloutPlanner(geometry, chunk_size=16).plan(state)
        assert len(calls) == 1
        assert out.chunk == ((0.0, 0.0, 0.0),) * 16
