"""End-to-end CLI tests through main() with oracle-verifier configs."""
import contextlib
import signal

import yaml

import pytest

from specverify.cli import main
from specverify.verifier import load_verifier

from helpers import edit_summary


def write_config(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


@contextlib.contextmanager
def time_budget(seconds: float):
    """Raise TimeoutError inside the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("train", "run", "sweep", "report"):
        assert sub in out


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "batch": {"episodes": 5},
    })
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--output-dir", str(out)])
    assert code == 0
    assert (out / "traces.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config_used.yaml").exists()
    assert capsys.readouterr().out.startswith("mode,chunk_size,tau,")


def test_run_mode_override_without_verifier(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--mode", "open-loop", "--episodes", "5",
                 "--output-dir", str(out)])
    assert code == 0
    text = (out / "summary.csv").read_text()
    assert text.splitlines()[1].startswith("open-loop,")


def test_run_open_loop_row_matches_report(tmp_path, capsys):
    """An open-loop row has no tau, in `run` as in `report` over its traces."""
    out = tmp_path / "out"
    assert main(["run", "--mode", "open-loop", "--episodes", "3",
                 "--disturbance", "off", "--output-dir", str(out)]) == 0
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.startswith("open-loop,16,,off,3,")
    traces = tmp_path / "traces"
    traces.mkdir()
    (out / "traces.jsonl").rename(traces / "open-loop_off.jsonl")
    (out / "reference_traces.jsonl").rename(traces / "reference_off.jsonl")
    capsys.readouterr()
    assert main(["report", "--traces-dir", str(traces)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == row


def test_sweep_and_report_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "batch": {"episodes": 4},
        "sweep": {"chunk_sizes": [4], "taus": [0.2],
                  "disturbance_levels": ["off"], "modes": ["sv"]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
    sweep_lines = set((out / "sweep.csv").read_text().strip().splitlines())
    capsys.readouterr()
    assert main(["report", "--traces-dir", str(out / "traces")]) == 0
    report_lines = set(capsys.readouterr().out.strip().splitlines())
    assert report_lines == sweep_lines


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_heavy_latency_exits_2(tmp_path, capsys, command):
    """The speed-up divides by the mean inference time, which a zero t_heavy
    would make zero: the config is rejected before anything is written."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "batch": {"episodes": 3},
        "controller": {"latency": {"t_heavy": 0.0, "t_verify": 0.0}},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "controller.latency.t_heavy" in capsys.readouterr().err
    assert not out.exists()


def test_world_too_small_for_a_goal_exits_2(tmp_path, capsys):
    """In a 1.2-wide world an object near the centre of the start box has no
    point 0.7 away to put the goal on, so sampling a start state could spin
    forever: the world size is rejected before anything is written."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "env": {"world_size": 1.2},
    })
    out = tmp_path / "out"
    with time_budget(20):
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "configuration error: env.world_size: must exceed" in capsys.readouterr().err
    assert not out.exists()


def test_world_just_above_the_limit_runs_to_the_end(tmp_path, capsys):
    """Just above the smallest accepted size the goal's draw is rare near the
    centre, but every start state is still found quickly."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "env": {"world_size": 1.4},
        "batch": {"episodes": 20},
    })
    with time_budget(20):
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_report_rejects_cell_without_level(tmp_path, capsys):
    """A `run` directory names its files `traces` and `reference_traces`:
    `traces` is no disturbance level, so no row is labelled with it."""
    out = tmp_path / "out"
    assert main(["run", "--mode", "open-loop", "--episodes", "3",
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--traces-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {out / 'traces.jsonl'}: ")
    assert "'traces'" in captured.err


def test_train_saves_loadable_params(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"training": {"episodes": 2, "epochs": 2}},
    })
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--output-dir", str(out)]) == 0
    encoder, params = load_verifier(out / "verifier.json")
    assert params.action_dim == 3
    assert "loss" in capsys.readouterr().out


@pytest.mark.parametrize("verifier,path", [
    ({"hidden_width": 0}, "verifier.hidden_width"),
    ({"encoder_width": 8}, "verifier.encoder_width"),
    ({"training": {"learning_rate": -1.0}}, "verifier.training.learning_rate"),
    ({"training": {"episodes": 0}}, "verifier.training.episodes"),
], ids=["hidden_width", "encoder_width", "learning_rate", "episodes"])
def test_train_rejects_unusable_verifier_settings(tmp_path, capsys, verifier, path):
    """Settings that would save parameters `run --params` rejects, train by
    gradient ascent, or fail after the output directory is made are rejected
    up front, with their dotted path."""
    training = {"episodes": 1, "epochs": 1, **verifier.get("training", {})}
    cfg = write_config(tmp_path / "cfg.yaml", {"verifier": {**verifier, "training": training}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("axis,values,shown", [
    ("taus", [0.2, 0.2], "0.2"), ("modes", ["sv", "sv"], "'sv'"),
    ("chunk_sizes", [4, 4], "4"), ("disturbance_levels", ["off", "off"], "'off'"),
], ids=["taus", "modes", "chunk_sizes", "disturbance_levels"])
def test_sweep_rejects_repeated_axis_value(tmp_path, capsys, axis, values, shown):
    """A repeated value would write two cells to one trace file, so `report`
    could not rebuild the table."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"}, "batch": {"episodes": 3}, "sweep": {axis: values},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: sweep.{axis}: duplicate value {shown}\n"
    assert not out.exists()


def test_sweep_rejects_empty_axis(tmp_path, capsys):
    """An empty axis is a configuration error, found before any output is written."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"}, "batch": {"episodes": 3}, "sweep": {"taus": []},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: sweep.taus: must be nonempty\n"
    assert not out.exists()


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", {"controller": {"tau": 2.0}})
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECVERIFY_OUTPUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "batch": {"episodes": 3},
    })
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "summary.csv").exists()


@pytest.mark.parametrize("damage", ("nan", "truncated_row", "header_mismatch", "cut_file"))
def test_damaged_params_file_exit_code(tmp_path, capsys, params_file, damage):
    """A bad parameter file is a configuration error (exit 2), never a table
    of silently rejected decisions."""
    code = main(["run", "--params", str(params_file(damage)), "--episodes", "2",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_params_file_must_fit_config(tmp_path, capsys, params_file):
    code = main(["run", "--params", str(params_file(context_width=20)), "--episodes", "2",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "do not fit this config" in capsys.readouterr().err


def test_rerun_from_saved_config_keeps_disturbance_level(tmp_path):
    first = tmp_path / "first"
    assert main(["run", "--mode", "open-loop", "--disturbance", "moderate",
                 "--episodes", "3", "--output-dir", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["run", "--config", str(first / "config_used.yaml"),
                 "--output-dir", str(second)]) == 0
    row = (second / "summary.csv").read_text().splitlines()[1]
    assert row.split(",")[3] == "moderate"
    assert (second / "summary.csv").read_text() == (first / "summary.csv").read_text()


def test_run_reference_keeps_disturbance_overrides(tmp_path):
    """The speed-up baseline runs under the configured disturbance, overrides
    included: an open-loop K=4 run is its own reference, byte for byte."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "env": {"disturbance": {"level": "moderate", "object_drift_prob": 0.9}},
        "controller": {"mode": "open-loop"},
        "planner": {"chunk_size": 4},
        "batch": {"episodes": 20},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    assert ((out / "reference_traces.jsonl").read_bytes()
            == (out / "traces.jsonl").read_bytes())
    row = dict(zip(*(line.split(",") for line in
                     (out / "summary.csv").read_text().splitlines())))
    assert float(row["speedup"]) == 1.0


def test_mode_flag_validated_with_dotted_path(tmp_path, capsys):
    assert main(["run", "--mode", "mpc", "--output-dir", str(tmp_path)]) == 2
    assert "controller.mode" in capsys.readouterr().err


def test_overridden_level_labelled_custom(tmp_path):
    """A level whose fields are overridden no longer names the disturbance:
    the row reads custom and the saved config writes no level."""
    cfg = write_config(tmp_path / "cfg.yaml", {
        "env": {"disturbance": {"level": "moderate", "object_drift_prob": 0.9}},
        "controller": {"mode": "open-loop"},
        "batch": {"episodes": 2},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.split(",")[3] == "custom"
    saved = yaml.safe_load((out / "config_used.yaml").read_text())
    assert saved["env"]["disturbance"]["level"] is None
    assert saved["env"]["disturbance"]["object_drift_prob"] == 0.9


#: Summary edits that keep the accounting identity but break another check.
SUMMARY_EDITS = {
    "summary_extra_key": lambda s: s.update(note="edited"),
    "replan_entry_added": lambda s: s["steps_before_replan"].append(1),
    "heavy_calls_zero": lambda s: s.update(heavy_calls=0),
}


@pytest.mark.parametrize("damage", ("malformed_json", "summary_missing_field",
                                    "summary_wrong_type", "summary_disagrees",
                                    "empty_file", "directory_named_jsonl", "not_utf8",
                                    "latency_nan", "latency_bool", "summary_extra_key",
                                    "decision_flipped", "replan_entry_added",
                                    "heavy_calls_zero"))
def test_report_rejects_damaged_trace_file(tmp_path, capsys, damage):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "verifier": {"kind": "oracle"},
        "batch": {"episodes": 2},
        "sweep": {"chunk_sizes": [4], "taus": [0.2],
                  "disturbance_levels": ["off"], "modes": ["sv"]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
    path = out / "traces" / "sv_K4_tau0.2_off.jsonl"
    text = path.read_text()
    if damage == "malformed_json":
        text = "{" + text
    elif damage == "summary_missing_field":
        text = text.replace('"executed_steps"', '"executed"')
    elif damage == "summary_disagrees":
        text = text.replace('"executed_steps": ', '"executed_steps": 1')
    elif damage == "empty_file":
        text = ""
    elif damage == "summary_wrong_type":
        text = text.replace('"t_heavy": 1.373', '"t_heavy": "slow"')
    elif damage == "latency_nan":
        text = text.replace('"t_ctrl": 0.1', '"t_ctrl": NaN')
    elif damage == "latency_bool":
        text = text.replace('"t_ctrl": 0.1', '"t_ctrl": true')
    elif damage == "decision_flipped":
        text = text.replace('"accept": true', '"accept": false', 1)
    elif damage in SUMMARY_EDITS:  # the simulated time still matches the counters
        lines = text.splitlines(keepends=True)
        edit_summary(lines, SUMMARY_EDITS[damage])
        text = "".join(lines)
    if damage == "directory_named_jsonl":
        path.unlink()
        path.mkdir()
    elif damage == "not_utf8":
        path.write_bytes(b"\xff" + text.encode())
    else:
        path.write_text(text)
    capsys.readouterr()
    assert main(["report", "--traces-dir", str(out / "traces")]) == 2
    assert f"configuration error: {path}:" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(tmp_path) in err
