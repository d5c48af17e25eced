"""Verifier tests: frozen encoder, forward maps, training, persistence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.controller import ControllerConfig, run_episodes
from specverify.core import ConfigurationError
from specverify.env import OBS_DIM, DisturbanceConfig, EpisodeConfig, ToyEnv, expert_action
from specverify.planner import NominalRolloutPlanner
from specverify.verifier import (ObservationEncoder, OracleVerifier,
                                 TrainedVerifier, VerifierParams, _fused,
                                 build_training_set, load_verifier,
                                 loss_and_grads, mean_l1_loss, save_verifier,
                                 train_verifier)

from helpers import flat, with_flat


@pytest.fixture(scope="module")
def encoder():
    return ObservationEncoder.create(OBS_DIM, 64, seed=0)


@pytest.fixture(scope="module")
def clean_samples(geometry):
    planner = NominalRolloutPlanner(geometry, chunk_size=16)
    cfg = EpisodeConfig(horizon=40, geometry=geometry)
    return build_training_set(cfg, planner, episodes=12, seed=3)


class TestEncoder:
    def test_width_floor(self):
        with pytest.raises(ConfigurationError):
            ObservationEncoder.create(OBS_DIM, 16, seed=0)

    def test_identity_block(self, encoder):
        np.testing.assert_array_equal(encoder.weights[:OBS_DIM],
                                      0.5 * np.eye(OBS_DIM))
        np.testing.assert_array_equal(encoder.bias[:OBS_DIM], np.zeros(OBS_DIM))

    def test_ramp_block(self, encoder):
        """Each ramp row has one sharp weight at its coordinate and a bias
        placing the transition at the configured shift."""
        row = OBS_DIM
        for i in range(OBS_DIM):
            for shift in ObservationEncoder.RAMP_SHIFTS:
                w = encoder.weights[row]
                assert w[i] == ObservationEncoder.RAMP_SCALE
                assert np.count_nonzero(w) == 1
                assert encoder.bias[row] == pytest.approx(
                    -ObservationEncoder.RAMP_SCALE * shift)
                row += 1

    def test_encode_bounded_and_deterministic(self, encoder):
        obs = np.linspace(0, 2, OBS_DIM)
        v1 = encoder.encode_batch(obs)
        v2 = encoder.encode_batch(obs)
        assert v1.shape == (encoder.width,)
        np.testing.assert_array_equal(v1, v2)
        assert np.all(np.abs(v1) <= 1.0)

    def test_encode_batch_matches_single(self, encoder):
        """Rows of a matrix agree with one-vector calls up to rounding (a
        multi-row product is not bit-identical to a matrix-vector one)."""
        rng = np.random.default_rng(4)
        obs_matrix = rng.uniform(0, 2, size=(5, OBS_DIM))
        batch = encoder.encode_batch(obs_matrix)
        for i in range(5):
            np.testing.assert_allclose(batch[i], encoder.encode_batch(obs_matrix[i]))

    def test_encode_into_columns_of_wider_buffer(self, encoder):
        """Training encodes straight into the leading columns of the fused
        input: the same bits as a fresh result and as the plain formula, and
        the columns after them are left alone."""
        obs = np.random.default_rng(5).uniform(0, 2, size=(300, OBS_DIM))
        buf = np.full((300, encoder.width + 3), 7.0)
        out = encoder.encode_batch(obs, out=buf[:, :encoder.width])
        assert np.shares_memory(out, buf)
        plain = np.tanh(obs @ encoder.weights.T + encoder.bias)
        assert buf[:, :encoder.width].tobytes() == plain.tobytes()
        assert encoder.encode_batch(obs).tobytes() == plain.tobytes()
        assert np.all(buf[:, encoder.width:] == 7.0)

    def test_same_seed_same_encoder(self):
        a = ObservationEncoder.create(OBS_DIM, 64, seed=9)
        b = ObservationEncoder.create(OBS_DIM, 64, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)


class TestForward:
    def test_fuse_and_predict_shapes(self, encoder, geometry):
        params = VerifierParams.create(encoder.width, 16, 32, 3, seed=1)
        x = np.zeros(encoder.width + 16)
        assert _fused(params, x).shape == (32,)
        assert _fused(params, np.stack([x] * 5)).shape == (5, 32)
        ver = TrainedVerifier(encoder, params, geometry.action_space())
        assert ver.reference(np.zeros(OBS_DIM), np.zeros(16)).shape == (3,)

    def test_prediction_clamped_to_space(self, encoder, geometry):
        space = geometry.action_space()
        params = VerifierParams.create(encoder.width, 4, 8, 3, seed=1)
        params.b_head[:] = [99.0, -99.0, 99.0]
        action = TrainedVerifier(encoder, params, space).reference(
            np.linspace(0, 1, OBS_DIM), np.ones(4))
        np.testing.assert_allclose(action, [0.25, -0.25, 1.0])

    @pytest.mark.parametrize("zero_context,zero_observation",
                             ((False, False), (True, False), (False, True)))
    def test_reference_matches_per_vector_formula(self, encoder, geometry,
                                                  zero_context, zero_observation):
        """The shared fusion layer gives inference the same bits as the
        per-vector formula written out here, on 1,000 random inputs."""
        space = geometry.action_space()
        rng = np.random.default_rng(11)
        params = VerifierParams.create(encoder.width, 16, 128, 3, seed=7)
        params.b_fuse[:] = rng.normal(0.0, 0.5, params.fused_width)
        params.b_head[:] = rng.normal(0.0, 0.1, 3)
        ver = TrainedVerifier(encoder, params, space)
        for _ in range(1000):
            obs = rng.uniform(-0.5, 2.5, OBS_DIM)
            ctx = rng.normal(size=16)
            visual = np.tanh(encoder.weights @ obs + encoder.bias)
            if zero_observation:
                visual = np.zeros_like(visual)
            fused_in = np.concatenate([visual, np.zeros(16) if zero_context else ctx])
            fused = np.tanh(params.w_fuse @ fused_in + params.b_fuse)
            expected = space.clamp(params.w_head @ fused + params.b_head)
            got = ver.reference(obs, ctx, zero_context=zero_context,
                                zero_observation=zero_observation)
            assert got.tobytes() == expected.tobytes()


class TestBatchedReference:
    """One forward over stacked rows, as the lockstep engine calls it, gives
    each row the bits of its own one-vector call at every batch size."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((1, 2, 7, 64, 200)),
           st.sampled_from(((False, False), (True, False), (False, True))),
           st.integers(0, 2**32 - 1))
    def test_rows_match_one_vector_calls(self, encoder, geometry, n, zeroed, seed):
        zero_context, zero_observation = zeroed
        rng = np.random.default_rng(seed)
        params = VerifierParams.create(encoder.width, 16, 128, 3, seed=seed % 997)
        params.b_fuse[:] = rng.normal(0.0, 0.5, params.fused_width)
        params.b_head[:] = rng.normal(0.0, 0.1, 3)
        ver = TrainedVerifier(encoder, params, geometry.action_space())
        obs = rng.uniform(-0.5, 2.5, (n, OBS_DIM))
        ctx = rng.normal(size=(n, 16))
        flags = {"zero_context": zero_context, "zero_observation": zero_observation}
        rows = ver.reference(obs, ctx, **flags)
        assert rows.shape == (n, 3)
        for i in range(n):
            assert rows[i].tobytes() == ver.reference(obs[i], ctx[i], **flags).tobytes()

    def test_oracle_rows_are_expert_actions(self, geometry):
        states = []
        for seed in range(5):
            env = ToyEnv(EpisodeConfig(geometry=geometry), seed=seed)
            env.reset()
            states.append(env.state)
        rows = OracleVerifier(geometry).reference(None, None, true_state=states)
        assert rows.tolist() == [list(expert_action(s, geometry)) for s in states]


class TestDataset:
    def test_sample_count_short_horizon(self, geometry):
        """One disturbance-free episode, K=4, horizon 8: two full chunks, each
        contributing the 3 non-head steps, so exactly 6 samples."""
        planner = NominalRolloutPlanner(geometry, chunk_size=4)
        cfg = EpisodeConfig(horizon=8, geometry=geometry)
        samples = build_training_set(cfg, planner, episodes=1, seed=0)
        assert len(samples) == 6

    def test_first_boundary_only(self, geometry):
        planner = NominalRolloutPlanner(geometry, chunk_size=4)
        cfg = EpisodeConfig(horizon=40, geometry=geometry)
        samples = build_training_set(cfg, planner, episodes=1, seed=0,
                                     boundaries="first")
        assert len(samples) == 3

    def test_stops_at_success(self, geometry):
        """Clean episodes need at most ~15 steps, so the per-episode sample
        count stays far below the horizon."""
        planner = NominalRolloutPlanner(geometry, chunk_size=16)
        cfg = EpisodeConfig(horizon=40, geometry=geometry)
        samples = build_training_set(cfg, planner, episodes=1, seed=0)
        assert len(samples) < 16

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 16), horizon=st.integers(1, 40),
           level=st.sampled_from(["off", "moderate"]), seed=st.integers(0, 2**16),
           episodes=st.integers(1, 4))
    def test_collection_equals_an_open_loop_batch(self, geometry, k, horizon, level, seed,
                                                  episodes):
        """Every executed action after a chunk's head is one sample, as in an
        open-loop batch on the same seeds; with boundaries="first", those of
        each episode's first chunk."""
        cfg = EpisodeConfig(horizon=horizon, geometry=geometry,
                            disturbance=DisturbanceConfig.from_level(level))
        planner = NominalRolloutPlanner(geometry, chunk_size=k)
        traces = run_episodes(ToyEnv.batch(cfg, range(seed, seed + episodes)), planner, None,
                              ControllerConfig(mode="open-loop"))
        samples = build_training_set(cfg, planner, episodes, seed)
        first = build_training_set(cfg, planner, episodes, seed, boundaries="first")
        assert len(samples) == sum(t.executed_steps - t.heavy_calls for t in traces)
        assert len(first) == sum(t.completed_chunk_lengths[0] - 1 for t in traces)

    def test_targets_are_expert_actions(self, geometry, clean_samples):
        for s in clean_samples[:40]:
            assert s[2].shape == (3,)
            assert np.all(np.abs(s[2][:2]) <= geometry.step_bound)


class TestTraining:
    def test_loss_decreases(self, encoder, clean_samples):
        report = train_verifier(clean_samples, encoder, epochs=40,
                                learning_rate=0.02, hidden_width=64, seed=1)
        assert report.losses[-1] < report.losses[0]
        assert len(report.losses) == 41

    def test_zero_learning_rate_is_constant(self, encoder, clean_samples):
        report = train_verifier(clean_samples[:64], encoder, epochs=5,
                                learning_rate=0.0, hidden_width=16, seed=1)
        assert len(set(report.losses)) == 1

    def test_encoder_untouched_by_training(self, clean_samples):
        enc = ObservationEncoder.create(OBS_DIM, 64, seed=0)
        before = (enc.weights.copy(), enc.bias.copy())
        train_verifier(clean_samples[:100], enc, epochs=10, learning_rate=0.05,
                       hidden_width=32, seed=1)
        np.testing.assert_array_equal(enc.weights, before[0])
        np.testing.assert_array_equal(enc.bias, before[1])

    def test_deterministic_given_seed(self, encoder, clean_samples):
        r1 = train_verifier(clean_samples[:80], encoder, epochs=5,
                            learning_rate=0.02, hidden_width=16, seed=2)
        r2 = train_verifier(clean_samples[:80], encoder, epochs=5,
                            learning_rate=0.02, hidden_width=16, seed=2)
        np.testing.assert_array_equal(flat(r1.params), flat(r2.params))
        assert r1.losses == r2.losses

    def test_single_sample_overfit(self, encoder, clean_samples):
        """Sign gradients oscillate at an amplitude set by the learning rate,
        so the staged schedule shrinks the rate to drive the loss down."""
        one = clean_samples[:1]
        r = train_verifier(one, encoder, epochs=600, learning_rate=0.01,
                           hidden_width=32, seed=1)
        r = train_verifier(one, encoder, epochs=600, learning_rate=1e-4,
                           hidden_width=32, seed=1, init=r.params)
        assert min(r.losses) < 1e-2

    def test_warm_start_does_not_mutate_init(self, encoder, clean_samples):
        init = VerifierParams.create(encoder.width, 16, 16, 3, seed=5)
        before = flat(init).copy()
        train_verifier(clean_samples[:64], encoder, epochs=3, learning_rate=0.05,
                       hidden_width=16, seed=1, init=init)
        np.testing.assert_array_equal(flat(init), before)

    def test_empty_samples_rejected(self, encoder):
        with pytest.raises(ConfigurationError):
            train_verifier([], encoder)

    @staticmethod
    def fused(encoder, samples):
        obs, ctx, tgt = (np.stack(c) for c in zip(*samples))
        return np.concatenate([encoder.encode_batch(obs), ctx], axis=1), tgt

    def test_gradient_matches_finite_differences(self, encoder, clean_samples):
        x, tgt = self.fused(encoder, clean_samples[:8])
        rng = np.random.default_rng(12)
        params = VerifierParams.create(encoder.width, x.shape[1] - encoder.width,
                                       16, 3, seed=8)
        _, grads = loss_and_grads(params, x, tgt)
        theta = flat(params)
        for _ in range(5):
            d = rng.normal(size=theta.size)
            d /= np.linalg.norm(d)
            eps = 1e-6
            lp, _ = loss_and_grads(with_flat(params, theta + eps * d), x, tgt)
            lm, _ = loss_and_grads(with_flat(params, theta - eps * d), x, tgt)
            num = (lp - lm) / (2 * eps)
            ana = float(flat(grads) @ d)
            assert abs(num - ana) <= 1e-6 * max(1.0, abs(num))

    def test_forward_only_loss_matches_loss_and_grads(self, encoder, clean_samples):
        """The epoch loss is the same float as the training step's loss and as
        the plain two-layer formula, whether the hidden layer goes to a fresh
        array or a reused buffer."""
        x, tgt = self.fused(encoder, clean_samples)
        params = VerifierParams.create(encoder.width, x.shape[1] - encoder.width,
                                       32, 3, seed=4)
        params.b_fuse[:] = np.linspace(-0.5, 0.5, params.fused_width)
        z = np.tanh(x @ params.w_fuse.T + params.b_fuse)
        pred = z @ params.w_head.T + params.b_head
        expected = float(np.abs(pred - tgt).sum() / x.shape[0])
        assert loss_and_grads(params, x, tgt)[0] == expected
        assert mean_l1_loss(params, x, tgt) == expected
        buffer = np.full((x.shape[0], params.fused_width), np.nan)
        assert mean_l1_loss(params, x, tgt, buffer) == expected
        assert mean_l1_loss(params, x, tgt, buffer) == expected


class TestInferencePolicies:
    def test_trained_verifier_ablation_switches(self, encoder, geometry):
        params = VerifierParams.create(encoder.width, 16, 16, 3, seed=1)
        ver = TrainedVerifier(encoder, params, geometry.action_space())
        obs = np.linspace(0, 1, OBS_DIM)
        ctx = np.linspace(0, 1, 16)
        full = ver.reference(obs, ctx)
        no_ctx = ver.reference(obs, ctx, zero_context=True)
        no_obs = ver.reference(obs, ctx, zero_observation=True)
        assert not np.array_equal(full, no_ctx)
        assert not np.array_equal(full, no_obs)

    def test_oracle_requires_state(self, geometry):
        with pytest.raises(ConfigurationError):
            OracleVerifier(geometry).reference(None, None)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path, encoder, geometry):
        params = VerifierParams.create(encoder.width, 16, 24, 3, seed=6)
        path = tmp_path / "verifier.json"
        save_verifier(path, encoder, params)
        enc2, params2 = load_verifier(path)
        np.testing.assert_array_equal(enc2.weights, encoder.weights)
        np.testing.assert_array_equal(enc2.bias, encoder.bias)
        np.testing.assert_array_equal(flat(params2), flat(params))

    @pytest.mark.parametrize("damage", ("nan", "truncated_row", "header_mismatch",
                                        "cut_file", "missing_array"))
    def test_damaged_file_rejected(self, params_file, damage):
        """Every array is checked against the header widths and for finite
        values, so a bad file fails at load instead of mid-episode."""
        load_verifier(params_file())
        with pytest.raises(ConfigurationError):
            load_verifier(params_file(damage))

    def test_version_check(self, tmp_path, encoder):
        params = VerifierParams.create(encoder.width, 16, 24, 3, seed=6)
        path = tmp_path / "verifier.json"
        save_verifier(path, encoder, params)
        import json
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_verifier(path)
