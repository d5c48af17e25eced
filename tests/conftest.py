"""Shared fixtures: geometry, planners, and a session-scoped trained verifier.

Training the verifier takes tens of seconds, so the acceptance and trend tests
share a single instance trained under moderate disturbances.
"""
import json

import pytest

from specverify.env import OBS_DIM, DisturbanceConfig, EpisodeConfig, Geometry
from specverify.harness import ExperimentConfig, build_verifier
from specverify.verifier import ObservationEncoder, VerifierParams, save_verifier


@pytest.fixture(scope="session")
def geometry():
    return Geometry()


@pytest.fixture(scope="session")
def moderate_config():
    """Default experiment config with moderate disturbances enabled."""
    base = ExperimentConfig()
    env = EpisodeConfig(horizon=base.env.horizon, geometry=base.env.geometry,
                        disturbance=DisturbanceConfig.moderate(),
                        disturbance_level="moderate")
    return ExperimentConfig(env=env, planner=base.planner, verifier=base.verifier,
                            controller=base.controller, batch=base.batch,
                            sweep=base.sweep, reference=base.reference)


@pytest.fixture(scope="session")
def trained_verifier(moderate_config):
    """Verifier trained once per session on the moderate-disturbance config."""
    return build_verifier(moderate_config)


@pytest.fixture
def params_file(tmp_path):
    """Factory: save untrained parameters, optionally damaged in one named way."""
    def make(damage=None, context_width=16):
        path = tmp_path / "verifier.json"
        encoder = ObservationEncoder.create(OBS_DIM, 64, seed=0)
        save_verifier(path, encoder, VerifierParams.create(encoder.width, context_width, 24, 3))
        if damage == "cut_file":
            path.write_text(path.read_text()[:-100])
            return path
        payload = json.loads(path.read_text())
        if damage == "nan":
            payload["w_fuse"][0][0] = float("nan")
        elif damage == "truncated_row":
            payload["w_head"][1] = payload["w_head"][1][:-1]
        elif damage == "header_mismatch":
            payload["hidden_width"] += 1
        elif damage == "missing_array":
            del payload["b_head"]
        path.write_text(json.dumps(payload))
        return path
    return make
