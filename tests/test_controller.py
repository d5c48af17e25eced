"""Controller tests: decision rule, cost model, episode loop, traces."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.core import ActionSpace, ConfigurationError, ContractViolation
from specverify.controller import (ControllerMode, EpisodeTrace, LatencyModel,
                                   ThresholdConfig, cost_bounds, decide, run_episode,
                                   run_episodes)
from specverify.env import (GRIPPER_HOLDING, DisturbanceConfig, EnvState,
                            EpisodeConfig, Geometry, ToyEnv)
from specverify.planner import NominalRolloutPlanner
from specverify.verifier import OracleVerifier


SPACE = ActionSpace(lower=[-0.25, -0.25, 0.0], upper=[0.25, 0.25, 1.0])


class ConstantVerifier:
    """Stub whose reference never matches any expert action: the grasp
    component 0.5 is at least 0.5 away from the expert's {0, 1}. One row per
    observation row."""

    def reference(self, obs, context, true_state=None, **_ignored):
        return np.tile([0.123, -0.117, 0.5], (len(obs), 1))


class TestConfigs:
    def test_latency_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(t_heavy=-1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(t_heavy=0.1, t_verify=0.2)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdConfig(tau=0.0)
        with pytest.raises(ConfigurationError):
            ThresholdConfig(tau=1.0)
        with pytest.raises(ConfigurationError):
            ThresholdConfig(max_replans=0)

    def test_mode_flags(self):
        assert ControllerMode.SV.is_sv
        assert ControllerMode.SV_NO_CONTEXT.is_sv
        assert not ControllerMode.OPEN_LOOP.is_sv
        assert not ControllerMode.OPEN_LOOP.needs_verifier
        assert ControllerMode.VERIFIER_ONLY.needs_verifier


class TestDecide:
    def test_identical_actions_accept(self):
        a = np.array([0.1, 0.1, 0.0])
        d = decide(a, a, SPACE, tau=0.2)
        assert d.accept and d.score == 0.0

    def test_saturated_deviation_rejects(self):
        planned = np.array([0.25, 0.25, 1.0])
        reference = np.array([-0.25, -0.25, 0.0])
        d = decide(planned, reference, SPACE, tau=0.9)
        assert d.score == 1.0 and not d.accept

    def test_boundary_score_accepts(self):
        # raw 0.4 over range sum 2.0 is exactly tau = 0.2
        planned = np.array([0.0, 0.0, 0.4])
        reference = np.array([0.0, 0.0, 0.0])
        d = decide(planned, reference, SPACE, tau=0.2)
        assert d.score == pytest.approx(0.2)
        assert d.accept

    def test_invalid_tau(self):
        a = np.zeros(3)
        with pytest.raises(ConfigurationError):
            decide(a, a, SPACE, tau=1.5)

    @settings(max_examples=200)
    @given(st.lists(st.floats(-0.25, 0.25), min_size=2, max_size=2), st.data())
    def test_pointwise_tau_monotonicity(self, move, data):
        planned = SPACE.clamp(move + [data.draw(st.floats(0, 1))])
        reference = SPACE.clamp(
            [data.draw(st.floats(-0.25, 0.25)) for _ in range(2)]
            + [data.draw(st.floats(0, 1))])
        t1 = data.draw(st.floats(0.01, 0.98))
        t2 = data.draw(st.floats(0.01, 0.98))
        lo, hi = min(t1, t2), max(t1, t2)
        if decide(planned, reference, SPACE, lo).accept:
            assert decide(planned, reference, SPACE, hi).accept


class TestDecideRows:
    """``decide`` on matching rows, as the lockstep engine calls it."""

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from((1, 2, 7, 64, 200)), st.integers(0, 2**32 - 1),
           st.floats(0.01, 0.99))
    def test_rows_match_pairs(self, n, seed, tau):
        rng = np.random.default_rng(seed)
        planned = SPACE.clamp(rng.uniform([-0.4, -0.4, -0.2], [0.4, 0.4, 1.2], (n, 3)))
        reference = SPACE.clamp(rng.uniform([-0.4, -0.4, -0.2], [0.4, 0.4, 1.2], (n, 3)))
        reference[::3] = planned[::3]  # some exact matches, score 0
        rows = decide(planned, reference, SPACE, tau)
        pairs = [decide(p, r, SPACE, tau) for p, r in zip(planned, reference)]
        assert rows == pairs
        assert all(type(d.score) is float and type(d.accept) is bool for d in rows)

    def test_non_finite_row_raises(self):
        planned = np.zeros((5, 3))
        reference = np.zeros((5, 3))
        reference[3, 1] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            decide(planned, reference, SPACE, tau=0.2)


class TestCostModel:
    def test_reported_latency_example(self):
        lat = LatencyModel(t_heavy=1.373, t_verify=0.081)
        lo, hi = cost_bounds(lat, 64)
        assert abs(lo - (1.373 / 64 + 0.081)) < 1e-9
        assert abs(hi - 1.454) < 1e-9

    def test_degenerate_chunk(self):
        lat = LatencyModel(t_heavy=1.0, t_verify=0.1)
        lo, hi = cost_bounds(lat, 1)
        assert lo == hi == pytest.approx(1.1)

    def test_free_verifier(self):
        lat = LatencyModel(t_heavy=1.0, t_verify=0.0)
        assert cost_bounds(lat, 4) == (pytest.approx(0.25), pytest.approx(1.0))

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            cost_bounds(LatencyModel(), 0)

    def test_per_step_cost_accounting(self):
        tr = EpisodeTrace(seed=0, mode="open-loop", chunk_size=4, tau=None,
                          latency=LatencyModel(t_heavy=1.0, t_verify=0.1))
        tr.heavy_calls, tr.executed_steps = 1, 4
        assert tr.simulated_inference_time / tr.executed_steps == pytest.approx(0.25)


def clean_env(horizon=40, seed=0, disturbance=None):
    cfg = EpisodeConfig(horizon=horizon,
                        disturbance=disturbance or DisturbanceConfig())
    return ToyEnv(cfg, seed=seed)


def run(env, mode, *, chunk_size=16, tau=0.2, max_replans=32, verifier=None,
        latency=None):
    planner = NominalRolloutPlanner(env.geom, chunk_size=chunk_size)
    if verifier is None and ControllerMode(mode).needs_verifier:
        verifier = OracleVerifier(env.geom)
    return run_episode(env, planner, verifier, ControllerMode(mode),
                       ThresholdConfig(tau=tau, max_replans=max_replans),
                       latency or LatencyModel())


class TestEpisodeLoop:
    def test_one_dim_oracle_scenario(self):
        geom = Geometry(success_radius=0.25)
        start = EnvState(agent_pos=[0.0, 1.0], object_pos=[0.0, 1.0],
                         goal_pos=[1.0, 1.0], gripper=GRIPPER_HOLDING, step=0)
        env = ToyEnv(EpisodeConfig(horizon=8, geometry=geom), seed=0,
                     initial_state=start)
        planner = NominalRolloutPlanner(geom, chunk_size=4)
        tr = run_episode(env, planner, OracleVerifier(geom), ControllerMode.SV,
                         ThresholdConfig(), LatencyModel())
        assert (tr.success, tr.executed_steps, tr.heavy_calls,
                tr.verifier_calls, tr.replans) == (True, 4, 1, 3, 0)

    def test_missing_verifier_rejected(self):
        env = clean_env()
        planner = NominalRolloutPlanner(env.geom, chunk_size=4)
        with pytest.raises(ConfigurationError):
            run_episode(env, planner, None, ControllerMode.SV,
                        ThresholdConfig(), LatencyModel())

    def test_mixed_geometries_rejected(self):
        """One decide serves a whole tick, so a batch shares one action space."""
        envs = [clean_env(), ToyEnv(EpisodeConfig(geometry=Geometry(step_bound=0.5)), seed=1)]
        planner = NominalRolloutPlanner(envs[0].geom, chunk_size=4)
        with pytest.raises(ConfigurationError):
            run_episodes(envs, planner, OracleVerifier(envs[0].geom), ControllerMode.SV,
                         ThresholdConfig(), LatencyModel())

    def test_clean_oracle_never_replans(self):
        for seed in range(10):
            tr = run(clean_env(seed=seed), "sv")
            assert tr.success and tr.replans == 0 and tr.guard_hit is False

    def test_open_loop_full_horizon_accounting(self):
        lat = LatencyModel(t_heavy=1.373, t_verify=0.081)
        tr = run(clean_env(horizon=40, seed=1), "open-loop", chunk_size=40,
                 latency=lat)
        assert tr.heavy_calls == 1 and tr.verifier_calls == 0
        assert tr.simulated_inference_time == pytest.approx(1.373)

    def test_forced_replan_degenerate(self):
        """Score always exceeds tau: one heavy call per executed step until
        success or the guard trips."""
        tr = run(clean_env(seed=0), "sv", verifier=ConstantVerifier(),
                 max_replans=64)
        assert tr.heavy_calls == tr.executed_steps
        assert tr.replans == tr.heavy_calls - 1
        assert tr.verifier_calls == tr.replans
        assert all(s == 1 for s in tr.steps_before_replan)

    def test_replan_guard_ends_episode(self):
        tr = run(clean_env(seed=0), "sv", verifier=ConstantVerifier(),
                 max_replans=3)
        assert tr.guard_hit and tr.replans == 3
        assert tr.executed_steps == 4

    def test_verifier_only_plans_once(self):
        tr = run(clean_env(seed=2), "verifier-only")
        assert tr.heavy_calls == 1
        # oracle reference equals the expert, so this is closed-loop expert play
        assert tr.success
        assert tr.verifier_calls == tr.executed_steps - 1

    def test_chunk_indexing_invariant(self):
        """Per chunk: at most K-1 decisions, and the head action of each chunk
        executes without a decision record at its step."""
        env = clean_env(seed=3, disturbance=DisturbanceConfig.moderate())
        tr = run(env, "sv", chunk_size=8)
        decision_steps = [r["step"] for r in tr.records if r["type"] == "decision"]
        step_records = [r["step"] for r in tr.records if r["type"] == "step"]
        # first executed step of the episode is a chunk head
        assert step_records[0] not in decision_steps
        assert len(decision_steps) == tr.verifier_calls
        assert tr.verifier_calls <= tr.executed_steps - tr.heavy_calls + tr.replans + 1

    def test_accounting_identity(self):
        env = clean_env(seed=5, disturbance=DisturbanceConfig.moderate())
        tr = run(env, "sv", chunk_size=8)
        expected = (tr.heavy_calls * tr.latency.t_heavy
                    + tr.verifier_calls * tr.latency.t_verify)
        assert tr.simulated_inference_time == expected

    def test_bound_membership_sharp(self):
        """Each chunk head executes unverified, so the sharp lower bound is
        t_heavy/K + t_verify*(1 - 1/K); the upper bound is unchanged."""
        lat = LatencyModel(t_heavy=1.373, t_verify=0.081)
        for seed in range(20):
            env = clean_env(seed=seed, disturbance=DisturbanceConfig.moderate())
            tr = run(env, "sv", chunk_size=8, latency=lat)
            lo, hi = cost_bounds(lat, 8)
            cost = tr.simulated_inference_time / tr.executed_steps
            assert lo - lat.t_verify / 8 - 1e-12 <= cost <= hi + 1e-12


class TestTraces:
    def test_replay_bitwise(self):
        def once():
            env = clean_env(seed=9, disturbance=DisturbanceConfig.moderate())
            return run(env, "sv", chunk_size=8).to_jsonl()

        assert once() == once()

    def test_jsonl_round_trip(self):
        env = clean_env(seed=4, disturbance=DisturbanceConfig.moderate())
        tr = run(env, "sv", chunk_size=8)
        back = EpisodeTrace.from_records([json.loads(line)
                                          for line in tr.to_jsonl().splitlines()])
        assert back.to_jsonl() == tr.to_jsonl()
        assert back.simulated_inference_time == tr.simulated_inference_time

    def test_missing_summary_rejected(self):
        with pytest.raises(ValueError):
            EpisodeTrace.from_records([{"type": "step", "step": 0}])
