"""Planner tests: chunk construction, prefix consistency, context contents."""
import numpy as np
import pytest

from specverify.core import ConfigurationError
from specverify.env import (GRIPPER_HOLDING, EnvState, EpisodeConfig, Geometry,
                            ToyEnv, render_observation, transition)
from specverify import planner as planner_module
from specverify.planner import NominalRolloutPlanner, make_planner


def plan_from(planner, state):
    return planner.plan(render_observation(state), state.goal_pos)


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
        out = plan_from(planner, state)
        assert len(out.chunk) == 6
        assert out.chunk.shape == (6, 3)

    def test_max_len_truncates(self, geometry):
        planner = NominalRolloutPlanner(geometry, chunk_size=16)
        state = EnvState(agent_pos=[0.2, 0.2], object_pos=[1.0, 1.0],
                         goal_pos=[1.8, 1.8], gripper=0, step=0)
        out = planner.plan(render_observation(state), state.goal_pos, max_len=5)
        assert len(out.chunk) == 5

    def test_prefix_consistency(self, geometry):
        """A shorter chunk from the same state is a prefix of a longer one."""
        state = EnvState(agent_pos=[0.3, 0.4], object_pos=[1.1, 0.9],
                         goal_pos=[1.7, 1.6], gripper=0, step=0)
        short = plan_from(NominalRolloutPlanner(geometry, chunk_size=4), state)
        long = plan_from(NominalRolloutPlanner(geometry, chunk_size=10), state)
        np.testing.assert_array_equal(short.chunk, long.chunk[:4])

    def test_open_loop_chunk_solves_clean_episode(self, geometry):
        """Executing the planned chunk under nominal dynamics lands the rollout
        exactly where the plan predicted, including task completion."""
        cfg = EpisodeConfig(horizon=40, geometry=geometry)
        env = ToyEnv(cfg, seed=21)
        env.reset()
        planner = NominalRolloutPlanner(geometry, chunk_size=40)
        out = plan_from(planner, env.state)
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
        vec = plan_from(planner, state).context
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
        out = plan_from(planner, state)
        moves = out.chunk.tolist()
        assert moves == [[0.25, 0.0, 0.0], [0.25, 0.0, 0.0],
                         [0.25, 0.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("agent_x", (0.5, -0.0))
    def test_solved_state_stops_rolling_out(self, geometry, monkeypatch, agent_x):
        """From a solved state the rollout reaches a fixed point and pads the
        chunk with its stay action: one nominal step, or two from ``-0.0``,
        which the first step turns into ``0.0``."""
        calls = []
        monkeypatch.setattr(planner_module, "transition",
                            lambda *args: calls.append(args) or transition(*args))
        state = EnvState(agent_pos=(agent_x, 1.0), object_pos=(1.5, 1.5),
                         goal_pos=(1.5, 1.5), gripper=0, step=0)
        out = plan_from(NominalRolloutPlanner(geometry, chunk_size=16), state)
        assert len(calls) == (1 if agent_x == 0.5 else 2)
        assert out.chunk.tolist() == [[0.0, 0.0, 0.0]] * 16
