"""Golden digests: sha256 of trace files and trained parameters.

A refactor that keeps every float operation and every RNG draw in order leaves
these bytes unchanged. The oracle traces, the training samples and the configs
compute nothing through BLAS, and one test checks them under a second OpenBLAS
kernel. The trained traces, ``verifier.json`` and the loss curve go through
matrix products, whose bits depend on the kernel OpenBLAS picks for the CPU;
they were recorded under ``SkylakeX``, as the bench's trained-file check was.
Changing a digest changes a check: say which one changed and why in CHANGES.md.
"""
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specverify.controller import run_episodes
from specverify.env import ToyEnv
from specverify.harness import (config_from_dict, read_traces, run_batch, save_config,
                                train_from_config, write_traces)
from specverify.planner import make_planner
from specverify.verifier import OracleVerifier, build_training_set, save_verifier

from helpers import blas_core_name

MODES = ("sv", "open-loop", "verifier-only", "sv-without-context",
         "sv-without-observation")
ORACLE_EPISODES = 20
TRAINED_EPISODES = 30

#: Oracle-verifier batches, keyed "<mode>_K<k>_<disturbance level>".
ORACLE_DIGESTS = {
    "sv_K1_off":
        "53193e47548c86032f3e6daaf707ca6bae92437ab191b265b5cfff8f121ba3b1",
    "open-loop_K1_off":
        "a6a7bd807381e31061bd094d0b9675c61a297f3a5f3a9ca37e72015e46ee0eb2",
    "verifier-only_K1_off":
        "dbf6c352a5594342d4e9628363976c79d91585b5d32c6669ca32347db7ce0ba2",
    "sv-without-context_K1_off":
        "458bae384add3e9f4a71e76eaf258dcc2337efa612e29cdf29ee93a03c244ad2",
    "sv-without-observation_K1_off":
        "7dd78ce4c1638d8b5148e9e009b44554f105a41793ebf6ff81500eabab88a3be",
    "sv_K4_off":
        "7b654cdfdef8d07f9e45ae0774bfbb9287935921857e2bbe1daf3bcdfddb6fb3",
    "open-loop_K4_off":
        "d43040f2b225e4e8c1afc28baccd0644513a12f1298d41926f29fa3f69381257",
    "verifier-only_K4_off":
        "daa33148c35cba7003b982f1cde795ce95820d844f1677ec82a74de51ab8083e",
    "sv-without-context_K4_off":
        "409114fde44332b396eef24bae43ea65b493f125ec39d66df2bc36a07b8cca39",
    "sv-without-observation_K4_off":
        "d779a917c703e2808fccf18cd8404fa95df10a85423f36840b016e42bde92dde",
    "sv_K16_off":
        "37c343dad66d47b7de00bf65d1326bdd271905db7fedb2febcec8236323ff391",
    "open-loop_K16_off":
        "d2d24c60847eba4ef1135fafdcfa48b3f214df11090ab00b3a8f87b5b9b57378",
    "verifier-only_K16_off":
        "aec1a63b8fc68cf1fc75c8a3c965d85bd01b2a27f5c748fdb66f17e19f4989f9",
    "sv-without-context_K16_off":
        "cef660e65c335549fae8df89e9fa7007e1aaa45eadb3708d8b049c41ef8ca982",
    "sv-without-observation_K16_off":
        "e3ae052b1d1afef4bfbd25ee1ebc40a1ef033d7f06aea8e8cd8af5df59b22819",
    "sv_K1_moderate":
        "0067516b46f5844da46ef87ec29ae7064156dff12e13590f169991d14ff2cc87",
    "open-loop_K1_moderate":
        "c201e94d5c80b94d335e673ac755a1b1c45d6db6a90a7ab9a0fb61fc2a4ccc36",
    "verifier-only_K1_moderate":
        "a77ea84cfc9fc145545388bbde5949c1ecfc9028ad3c454b71ed3d263a32df53",
    "sv-without-context_K1_moderate":
        "66a9eeae4d9a5d9e24142e8c226b882713520d9ac91b65e57979a1084e04c9b4",
    "sv-without-observation_K1_moderate":
        "57c7ac08e1837c86f397fe99a9bcccaf1347edafb6245a219a81f8427d1f7cc4",
    "sv_K4_moderate":
        "98e26a67f8f45118a2e7956e6a6cffd5bc3a0e2161474eac3235a211b091dc31",
    "open-loop_K4_moderate":
        "3b4d1e217391653a5227446babd36d6d4448d41b580148c26ab4b008c91a358b",
    "verifier-only_K4_moderate":
        "03a7be18516b3d46e252de502c30ac13da38e367327226c9d3d55a3d88b352f8",
    "sv-without-context_K4_moderate":
        "290540bfa79a4c719f0e58ac25510c08ac699849228ef64fea0d5d52ad98d4a3",
    "sv-without-observation_K4_moderate":
        "df8459d22634136b989712262544b8ccfc7a5c2eb12b133571919ff6511c2239",
    "sv_K16_moderate":
        "cfe25fd59eb86fb092038054aadd2c5cac97b38dcc5e9d80efaa0f0ed9c75d65",
    "open-loop_K16_moderate":
        "0b3120974322366b3b9cf69dfa8f3cab5a363ea30b599ffaae4f4175aaad4afe",
    "verifier-only_K16_moderate":
        "0833cdc9885c52ac097fee19566b032d1c08dd9f723b7c3747a3bd4bde9971f5",
    "sv-without-context_K16_moderate":
        "0e78ef8983a7fa4da0df8a07d17bfa5b411916076d3e26e89884bfdee700a0ec",
    "sv-without-observation_K16_moderate":
        "9f1b500431fdf28e671334e4a69e155017f66b7898975fe3e6c0d3ca0da17d84",
}

#: Batches under the session-trained verifier, moderate disturbance, K=16.
TRAINED_DIGESTS = {
    "sv":
        "776b473f179a6b5c508c939197db84f0d6a6ff71adaf1efecd5c425b14600505",
    "sv-without-context":
        "5e8bd89a24426fe253484e3bf84f0c0df7bca9a58882efafdf2a3e36bf5158b6",
    "sv-without-observation":
        "f6be8b0d1b61b7265e2637065ea4c3805d2048851d3fbd2d9a0f717306323a69",
}

VERIFIER_JSON_DIGEST = (
    "e7170909b92efdd44e1479331d98f8e1366f3263e1b95e86a580aa2d1d13ed3d")

#: float64 bytes of ``TrainReport.losses`` from a short moderate-disturbance
#: training run (20 episodes, 40 epochs).
LOSS_CURVE_DIGEST = (
    "729d4e920ca46e3e541097e999280064eaf20759f9b913c63507977abaaa8758")

#: float64 bytes of the observation, context and target columns of
#: ``build_training_set`` under moderate disturbance at K=4 (10 episodes from
#: seed 0), keyed by ``boundaries``.
SAMPLES_DIGESTS = {
    "all": "c9c7f1ffcdcecf052f8eb54d20e6fb1cfc2328f52fd08abad5de096f76993495",
    "first": "c95884e8a1e0db3a9ee2a4e5ed887d9068bf49ad30bdb3332828320a3ed535eb",
}

#: ``save_config`` output (the ``config_used.yaml`` of a run) for four valid
#: configs, each given as the mapping a YAML file would hold.
CONFIG_FILES = {
    "default": ({}, "e6d10978cd877b63db91c00a7b6f261b84978be82e2d52dd1eb12339c1244dd3"),
    "moderate": (
        {"env": {"disturbance": {"level": "moderate"}}},
        "eb99fcd9f4b7b4fc48cb7d19645f153d24a54d31e477d52cabf5fd5927bc91e2"),
    # The override makes the disturbance custom, so the file says `level: null`.
    "moderate_drift_override": (
        {"env": {"horizon": 30, "world_size": 3.0,
                 "disturbance": {"level": "moderate", "object_drift_prob": 0.3}}},
        "bd119cff4bf5b9b80f592573a045a1fd66c80f57dc3f24fa7930cfa20356a4e7"),
    "oracle_overrides": (
        {"verifier": {"kind": "oracle",
                      "training": {"epochs": 50, "boundaries": "first",
                                   "disturbance_level": "off"}},
         "controller": {"tau": 0.3, "latency": {"t_heavy": 2.0, "t_verify": 0.1}},
         "sweep": {"chunk_sizes": [2, 8], "taus": [0.3], "modes": ["sv", "open-loop"]},
         "reference": {"chunk_size": 8}},
        "722e84a63135b9d660d7ab8763bb8071b6efc8a3a10e1da06d7512aa638ea182"),
}


def gemm_note() -> str:
    return (f"this digest goes through BLAS matrix products and was recorded under "
            f"OpenBLAS's SkylakeX kernel; this process runs {blas_core_name()}")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def traces_digest(tmp_path, traces) -> str:
    """sha256 of the written file, which must pass every check ``read_traces``
    makes and be written back from what it reads with the same bytes."""
    path, again = tmp_path / "traces.jsonl", tmp_path / "again.jsonl"
    write_traces(path, traces)
    write_traces(again, read_traces(path))
    assert again.read_bytes() == path.read_bytes()
    return sha256(path)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", (1, 4, 16))
@pytest.mark.parametrize("level", ("off", "moderate"))
def test_oracle_trace_digest(tmp_path, mode, k, level):
    cfg = config_from_dict({"verifier": {"kind": "oracle"},
                            "env": {"disturbance": {"level": level}},
                            "batch": {"episodes": ORACLE_EPISODES}})
    traces = run_batch(cfg, mode=mode, chunk_size=k)
    assert traces_digest(tmp_path, traces) == ORACLE_DIGESTS[f"{mode}_K{k}_{level}"]


@pytest.mark.parametrize("mode", ("sv", "sv-without-context", "sv-without-observation"))
def test_trained_trace_digest(tmp_path, moderate_config, trained_verifier, mode):
    traces = run_batch(moderate_config, mode=mode, verifier=trained_verifier,
                       episodes=TRAINED_EPISODES)
    assert traces_digest(tmp_path, traces) == TRAINED_DIGESTS[mode], gemm_note()


@pytest.mark.parametrize("verifier_kind", ("oracle", "trained"))
@pytest.mark.parametrize("mode", MODES)
def test_batch_matches_episodes_run_alone(tmp_path, moderate_config, trained_verifier,
                                          verifier_kind, mode):
    """Each seed's trace has the same bytes whether its episode runs alone
    (N=1) or inside a 200-episode lockstep batch that shares verifier calls."""
    cfg = moderate_config
    verifier = (trained_verifier if verifier_kind == "trained"
                else OracleVerifier(cfg.env.geometry))
    batch = run_batch(cfg, mode=mode, verifier=verifier, episodes=200)
    planner = make_planner(cfg.planner.kind, cfg.env.geometry, cfg.planner.chunk_size,
                           cfg.planner.context_width)
    controller = replace(cfg.controller, mode=mode)
    alone = [run_episodes([ToyEnv(cfg.env.episode_config(), seed=t.seed)], planner, verifier,
                          controller)[0] for t in batch]
    assert [t.seed for t in alone] == list(range(200))
    assert traces_digest(tmp_path, alone) == traces_digest(tmp_path, batch)


def test_trained_parameter_file_digest(tmp_path, trained_verifier):
    path = tmp_path / "verifier.json"
    save_verifier(path, trained_verifier.encoder, trained_verifier.params)
    assert sha256(path) == VERIFIER_JSON_DIGEST, gemm_note()


def test_loss_curve_digest():
    cfg = config_from_dict({"env": {"disturbance": {"level": "moderate"}},
                            "verifier": {"training": {"episodes": 20, "epochs": 40}}})
    report, _ = train_from_config(cfg)
    assert len(report.losses) == 41
    losses = np.asarray(report.losses, dtype=np.float64)
    assert hashlib.sha256(losses.tobytes()).hexdigest() == LOSS_CURVE_DIGEST, gemm_note()


@pytest.mark.parametrize("boundaries", sorted(SAMPLES_DIGESTS))
def test_training_samples_digest(boundaries):
    cfg = config_from_dict({"env": {"disturbance": {"level": "moderate"}}})
    planner = make_planner(cfg.planner.kind, cfg.env.geometry, 4, cfg.planner.context_width)
    samples = build_training_set(cfg.env.episode_config(), planner, episodes=10, seed=0,
                                 boundaries=boundaries)
    digest = hashlib.sha256()
    for column in zip(*samples):
        array = np.stack(column)
        assert array.dtype == np.float64
        digest.update(array.tobytes())
    assert digest.hexdigest() == SAMPLES_DIGESTS[boundaries]


@pytest.mark.parametrize("name", sorted(CONFIG_FILES))
def test_config_file_digest(tmp_path, name):
    data, digest = CONFIG_FILES[name]
    path = tmp_path / "config_used.yaml"
    save_config(config_from_dict(data), path)
    assert sha256(path) == digest


#: Exit status of the child below when OpenBLAS did not take the Haswell kernel.
NOT_HASWELL = 10


def test_digests_without_gemm_hold_under_haswell():
    """The oracle traces, the training samples and the configs keep their
    digests under the ``Haswell`` kernel, which a CPU without AVX-512 gets:
    one child process runs those tests with ``OPENBLAS_CORETYPE=Haswell``."""
    if blas_core_name() is None:
        pytest.skip("numpy's OpenBLAS cannot name its kernel")
    root = Path(__file__).resolve().parent.parent
    args = ["-q", "-p", "no:cacheprovider", str(Path(__file__).resolve()), "-k",
            "oracle_trace_digest or training_samples_digest or config_file_digest"]
    child = (f"import sys\nfrom helpers import blas_core_name\n"
             f"if blas_core_name() != 'Haswell':\n    sys.exit({NOT_HASWELL})\n"
             f"import pytest\nsys.exit(pytest.main({args!r}))\n")
    pythonpath = os.pathsep.join(filter(None, (str(root / "src"), str(root / "tests"),
                                               os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", child], cwd=root, capture_output=True,
                         text=True, timeout=600,
                         env={**os.environ, "OPENBLAS_CORETYPE": "Haswell",
                              "PYTHONPATH": pythonpath})
    if run.returncode == NOT_HASWELL:
        pytest.skip("OpenBLAS did not take the Haswell kernel on this CPU")
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    ran = len(ORACLE_DIGESTS) + len(SAMPLES_DIGESTS) + len(CONFIG_FILES)
    assert f"\n{ran} passed," in run.stdout, run.stdout[-3000:]
