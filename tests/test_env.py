"""Environment tests: determinism, expert completeness, disturbance streams."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specverify import env as env_module
from specverify.core import ConfigurationError
from specverify.env import (GRIPPER_HOLDING, GRIPPER_OPEN, OBS_DIM,
                            DisturbanceConfig, EnvState, EpisodeConfig,
                            Geometry, ToyEnv, _generators, _stream_words,
                            expert_action, is_success, render_observations,
                            transition)


def make_state(agent, obj, goal, gripper=GRIPPER_OPEN, step=0):
    return EnvState(agent_pos=agent, object_pos=obj, goal_pos=goal,
                    gripper=gripper, step=step)


class TestConfigs:
    def test_moderate_level(self):
        d = DisturbanceConfig.from_level("moderate")
        assert d.object_drift_prob > 0 and d.actuation_noise_sigma > 0

    def test_off_level_is_default(self):
        assert DisturbanceConfig.from_level("off") == DisturbanceConfig()

    def test_unknown_level(self):
        with pytest.raises(ConfigurationError):
            DisturbanceConfig.from_level("extreme")

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            DisturbanceConfig(object_drift_prob=1.5)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            Geometry(step_bound=0.0)

    @pytest.mark.parametrize("bound", (math.nan, math.inf))
    def test_non_finite_step_bound(self, bound):
        """The step bound spans the action box, and only here is it checked."""
        with pytest.raises(ConfigurationError, match="step_bound: must be positive and finite"):
            Geometry(step_bound=bound)

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            EpisodeConfig(horizon=0)


class TestObservation:
    def test_layout(self, geometry):
        state = make_state([0.5, 0.25], [1.0, 1.5], [0.1, 0.2])
        obs = render_observations((state,))[0]
        assert obs.shape == (OBS_DIM,)
        np.testing.assert_allclose(obs, [0.5, 0.25, 1.0, 1.5, 0.5, 1.25, 0.0])

    def test_goal_not_observable(self):
        """Two states differing only in goal render to identical observations."""
        s1 = make_state([0.5, 0.5], [1.0, 1.0], [0.2, 0.2])
        s2 = make_state([0.5, 0.5], [1.0, 1.0], [1.8, 1.8])
        np.testing.assert_array_equal(render_observations((s1,))[0],
                                      render_observations((s2,))[0])


class TestSuccessAndExpert:
    def test_success_requires_open_gripper(self, geometry):
        near = make_state([1.0, 1.0], [1.0, 1.05], [1.0, 1.0])
        assert is_success(near, geometry)
        held = make_state([1.0, 1.05], [1.0, 1.05], [1.0, 1.0],
                          gripper=GRIPPER_HOLDING)
        assert not is_success(held, geometry)

    def test_success_radius_boundary(self, geometry):
        on_edge = make_state([1.0, 1.0], [geometry.success_radius, 0.0],
                             [0.0, 0.0])
        assert is_success(on_edge, geometry)

    def test_expert_phases(self, geometry):
        far = make_state([0.0, 0.0], [1.0, 0.0], [2.0, 0.0])
        a = expert_action(far, geometry)
        np.testing.assert_allclose(a, [0.25, 0.0, 0.0])

        at_object = make_state([1.0, 0.0], [1.0, 0.0], [2.0, 0.0])
        np.testing.assert_allclose(expert_action(at_object, geometry),
                                   [0.0, 0.0, 1.0])

        carrying = make_state([1.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                              gripper=GRIPPER_HOLDING)
        np.testing.assert_allclose(expert_action(carrying, geometry),
                                   [0.25, 0.0, 0.0])

        at_goal = make_state([2.0, 0.0], [2.0, 0.0], [2.0, 0.0],
                             gripper=GRIPPER_HOLDING)
        np.testing.assert_allclose(expert_action(at_goal, geometry),
                                   [0.0, 0.0, 1.0])

    def test_expert_noop_after_success(self, geometry):
        done = make_state([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(expert_action(done, geometry),
                                   [0.0, 0.0, 0.0])

    def test_expert_completes_every_clean_episode(self):
        """Closed-loop expert reaches success well within the horizon on a
        grid of 50 random disturbance-free episodes."""
        cfg = EpisodeConfig(horizon=40)
        for seed in range(50):
            env = ToyEnv(cfg, seed=seed)
            env.reset()
            steps = 0
            while not env.success() and steps < cfg.horizon:
                env.step(expert_action(env.state, env.geom))
                steps += 1
            assert env.success(), f"seed {seed} failed after {steps} steps"
            assert steps <= 20


class TestDynamics:
    def test_nominal_step_matches_clean_env(self):
        """transition without disturbance draws is the nominal step the planner
        rolls out; a disturbance-free env follows it exactly."""
        cfg = EpisodeConfig(horizon=40)
        env = ToyEnv(cfg, seed=11)
        env.reset()
        for _ in range(15):
            a = expert_action(env.state, env.geom)
            predicted = transition(env.state, a, env.geom)
            env.step(a)
            np.testing.assert_allclose(env.state.agent_pos, predicted.agent_pos)
            np.testing.assert_allclose(env.state.object_pos, predicted.object_pos)
            assert env.state.gripper == predicted.gripper

    def test_held_object_moves_with_agent(self, geometry):
        state = make_state([0.5, 0.5], [0.5, 0.5], [1.5, 1.5],
                           gripper=GRIPPER_HOLDING)
        nxt = transition(state, np.array([0.2, 0.1, 0.0]), geometry)
        np.testing.assert_allclose(nxt.object_pos, nxt.agent_pos)

    def test_grasp_requires_proximity(self, geometry):
        state = make_state([0.5, 0.5], [1.0, 0.5], [1.5, 1.5])
        nxt = transition(state, np.array([0.0, 0.0, 1.0]), geometry)
        assert nxt.gripper == GRIPPER_OPEN

    def test_world_bounds_clip(self, geometry):
        state = make_state([0.0, 0.0], [1.0, 1.0], [1.5, 1.5])
        nxt = transition(state, np.array([-0.25, -0.25, 0.0]), geometry)
        np.testing.assert_allclose(nxt.agent_pos, [0.0, 0.0])

    def test_grasp_draw_only_on_attempt_within_reach(self, geometry):
        """The grasp stream draws lazily: grasp_ok runs only when a grasp is
        attempted within reach, and a failed draw leaves the gripper open."""
        calls = []

        def grasp_ok():
            calls.append(True)
            return False

        far = make_state([0.5, 0.5], [1.0, 0.5], [1.5, 1.5])
        near = make_state([1.0, 0.5], [1.0, 0.5], [1.5, 1.5])
        transition(far, np.array([0.0, 0.0, 1.0]), geometry, grasp_ok=grasp_ok)
        transition(near, np.array([0.1, 0.0, 0.0]), geometry, grasp_ok=grasp_ok)
        assert calls == []
        nxt = transition(near, np.array([0.0, 0.0, 1.0]), geometry, grasp_ok=grasp_ok)
        assert calls == [True] and nxt.gripper == GRIPPER_OPEN

    def test_noise_and_drift_draws(self, geometry):
        held = make_state([0.5, 0.5], [0.5, 0.5], [1.5, 1.5], gripper=GRIPPER_HOLDING)
        nxt = transition(held, np.array([0.1, 0.0, 0.0]), geometry,
                         noise=np.array([0.05, -0.05]), drift=np.array([0.0, 0.25]))
        np.testing.assert_allclose(nxt.agent_pos, [0.65, 0.45])
        np.testing.assert_allclose(nxt.object_pos, [0.65, 0.7])
        assert nxt.gripper == GRIPPER_OPEN

    def test_state_fields_cannot_be_assigned(self):
        state = make_state((0.5, 0.5), (1.0, 0.5), (1.5, 1.5))
        for name in EnvState._fields:
            with pytest.raises(AttributeError):
                setattr(state, name, state.step)

    def test_step_before_reset_raises(self):
        env = ToyEnv(EpisodeConfig(), seed=0)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(3))


class TestSeededStreams:
    def test_identical_seeds_replay_bitwise(self):
        cfg = EpisodeConfig(disturbance=DisturbanceConfig.moderate())
        histories = []
        for _ in range(2):
            env = ToyEnv(cfg, seed=123)
            env.reset()
            states = []
            for _ in range(30):
                env.step(expert_action(env.state, env.geom))
                # repr round-trips a float exactly and tells -0.0 from 0.0
                states.append(repr((env.state.agent_pos, env.state.object_pos,
                                    env.state.gripper)))
            histories.append(states)
        assert histories[0] == histories[1]

    def test_distinct_seeds_differ(self):
        cfg = EpisodeConfig(disturbance=DisturbanceConfig.moderate())
        finals = set()
        for seed in range(5):
            env = ToyEnv(cfg, seed=seed)
            env.reset()
            finals.add(env.state.agent_pos)
        assert len(finals) == 5

    def test_disturbance_streams_independent(self):
        """Toggling actuation noise must not shift the drift stream's draws:
        with noise off and on, the same seed produces drift events at the
        same steps (agent paths differ, drift decisions do not)."""
        def drift_steps(sigma):
            cfg = EpisodeConfig(disturbance=DisturbanceConfig(
                actuation_noise_sigma=sigma, object_drift_prob=0.3,
                object_drift_magnitude=0.2))
            env = ToyEnv(cfg, seed=77)
            env.reset()
            events = []
            for t in range(25):
                before = env.state.object_pos
                held = env.state.gripper == GRIPPER_HOLDING
                env.step(np.zeros(3))
                if not held and not np.allclose(env.state.object_pos, before):
                    events.append(t)
            return events

        assert drift_steps(0.0) == drift_steps(0.05)

    @pytest.mark.parametrize("noise,drift,grasp", itertools.product((False, True), repeat=3))
    def test_streams_made_only_for_enabled_sources(self, noise, drift, grasp):
        """Each made stream draws as child i of SeedSequence(seed).spawn(4):
        init 0, actuation 1, drift 2, grasp 3. A disabled source has none."""
        cfg = EpisodeConfig(disturbance=DisturbanceConfig(
            actuation_noise_sigma=0.02 if noise else 0.0,
            object_drift_prob=0.15 if drift else 0.0, object_drift_magnitude=0.12,
            grasp_failure_prob=0.2 if grasp else 0.0))
        env = ToyEnv(cfg, seed=41)
        streams = (env._init, env._noise, env._drift, env._grasp)
        children = np.random.SeedSequence(41).spawn(4)
        for i, (on, values, child) in enumerate(zip((True, noise, drift, grasp), streams,
                                                    children)):
            if not on:
                assert values is None
                continue
            want = np.random.default_rng(child)
            want = want.normal(0.0, 0.02, 200) if i == 1 else want.random(200)
            assert [next(values) for _ in range(200)] == want.tolist()  # past one block

    def test_drift_dislodges_held_object(self):
        cfg = EpisodeConfig(disturbance=DisturbanceConfig(
            object_drift_prob=1.0, object_drift_magnitude=0.2))
        env = ToyEnv(cfg, seed=5, initial_state=make_state(
            [0.5, 0.5], [0.5, 0.5], [1.5, 1.5], gripper=GRIPPER_HOLDING))
        env.reset()
        env.step(np.zeros(3))
        assert env.state.gripper == GRIPPER_OPEN
        assert np.linalg.norm(np.subtract(env.state.object_pos, env.state.agent_pos)) > 0.1

    def test_initial_state_separations(self):
        for seed in range(20):
            env = ToyEnv(EpisodeConfig(), seed=seed)
            env.reset()
            s = env.state
            assert np.linalg.norm(np.subtract(s.object_pos, s.agent_pos)) >= 0.6
            assert np.linalg.norm(np.subtract(s.goal_pos, s.object_pos)) >= 0.7
            assert s.gripper == GRIPPER_OPEN


class TestBatchSeeding:
    """``ToyEnv.batch`` seeds its envs' streams in one pass over the seeds
    below 2**32; each stream must be the generator an env alone makes."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    @example([0, 1, 2**31, 2**32 - 1])
    def test_words_and_states_match_seed_sequence(self, seeds):
        words = _stream_words(seeds, [0, 1, 2, 3])
        assert words.shape == (len(seeds), 4, 4) and words.dtype == np.uint64
        generators = _generators(DisturbanceConfig.moderate(), seeds)
        for seed, row, streams in zip(seeds, words, generators):
            for i, (got, rng) in enumerate(zip(row, streams)):
                want = np.random.SeedSequence(seed, spawn_key=(i,))
                assert got.tolist() == want.generate_state(4, np.uint64).tolist()
                assert rng.bit_generator.state == np.random.default_rng(want).bit_generator.state

    def test_seeds_from_two_words_up_take_the_fallback(self, monkeypatch):
        passed = []

        def recording(seeds, keys):
            passed.append(list(seeds))
            return _stream_words(seeds, keys)

        monkeypatch.setattr(env_module, "_stream_words", recording)
        seeds = [2**32, 7, 2**40 + 3, 2**32 - 1]
        generators = _generators(DisturbanceConfig.moderate(), seeds)
        assert passed == [[7, 2**32 - 1]]
        for seed, streams in zip(seeds, generators):
            for i, rng in enumerate(streams):
                want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("dist", [
        DisturbanceConfig(), DisturbanceConfig.moderate(),
        DisturbanceConfig(object_drift_prob=0.9, object_drift_magnitude=0.12,
                          grasp_failure_prob=0.7)], ids=("off", "moderate", "no_noise"))
    def test_batch_envs_draw_as_envs_alone(self, dist):
        """Under an action script with a grasp every third step, an env of a
        batch goes through the states of the env alone, and its streams end
        at the same positions."""
        cfg = EpisodeConfig(disturbance=dist)
        seeds = [0, 1, 5, 2**31, 2**32 - 1, 2**32, 2**33 + 9]
        for seed, env in zip(seeds, ToyEnv.batch(cfg, seeds)):
            alone = ToyEnv(cfg, seed)
            env.reset()
            alone.reset()
            for t in range(40):
                assert repr(env.state) == repr(alone.state)
                assert env.success() == alone.success()
                action = expert_action(env.state, env.geom)
                env.step(action[:2] + (1.0 if t % 3 == 2 else action[2],))
                alone.step(action[:2] + (1.0 if t % 3 == 2 else action[2],))
            for got, want in zip((env._init, env._noise, env._drift, env._grasp),
                                 (alone._init, alone._noise, alone._drift, alone._grasp)):
                assert (got is None) == (want is None)
                assert got is None or next(got) == next(want)
