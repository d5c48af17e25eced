"""Harness tests: config schema, batch determinism, aggregation, sweeps."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specverify.cli import main
from specverify.core import ConfigurationError
from specverify.harness import (CSV_COLUMNS, ExperimentConfig, aggregate,
                                config_from_dict, config_to_dict, load_config,
                                read_traces, reference_batch, rows_to_csv, run_batch,
                                run_sweep, save_config, trace_text, write_traces)
from specverify.controller import ControllerMode, EpisodeTrace, LatencyModel

from helpers import edit_summary


def oracle_config(**env_overrides) -> ExperimentConfig:
    data = {"verifier": {"kind": "oracle"}, "batch": {"episodes": 10}}
    if env_overrides:
        data["env"] = env_overrides
    return config_from_dict(data)


#: Malformed configs, each with the dotted path its error must begin with.
MALFORMED_CONFIGS = [
    ({"sweep": {"chunk_sizes": [0]}}, "sweep.chunk_sizes"),
    ({"sweep": {"taus": [0]}}, "sweep.taus"),
    ({"reference": {"chunk_size": 0}}, "reference.chunk_size"),
    ({"sweep": {"taus": 0.2}}, "sweep.taus"),
    ({"env": [1, 2]}, "env"),
    ({"planner": {"chunk_size": "16"}}, "planner.chunk_size"),
    ({"env": {"horizon": "40"}}, "env.horizon"),
    ({"reference": {"mode": "mpc"}}, "reference.mode"),
    ({"batch": {"episodes": 0}}, "batch.episodes"),
    ({"planner": {"chunk_size": True}}, "planner.chunk_size"),
    ({"verifier": {"training": {"boundaries": "bogus"}}}, "verifier.training.boundaries"),
    ({"verifier": {"training": {"disturbance_level": "bogus"}}},
     "verifier.training.disturbance_level"),
    ({"controller": {"latency": {"t_ctrl": float("nan")}}}, "controller.latency.t_ctrl"),
    ({"controller": {"latency": {"t_verify": True}}}, "controller.latency.t_verify"),
    ({"verifier": {"training": {"episodes": 0}}}, "verifier.training.episodes"),
]


@pytest.mark.parametrize("data,path", MALFORMED_CONFIGS)
def test_malformed_config_names_dotted_path(data, path):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(path)}\b"):
        config_from_dict(data)


@pytest.mark.parametrize("data,path", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(tmp_path, capsys, data, path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"configuration error: {path}" in capsys.readouterr().err


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.planner.chunk_size == 16
        assert cfg.controller.tau == 0.2
        assert cfg.batch.episodes == 200
        assert cfg.controller.max_replans == 32
        assert cfg.sweep.taus == (0.1, 0.2, 0.4)

    def test_empty_sections_read_as_defaults(self):
        assert config_from_dict({"env": None, "planner": None,
                                 "verifier": {"training": None}}) == ExperimentConfig()

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigurationError, match="controller"):
            config_from_dict({"controller": {"tau": 1.5}})

    def test_unknown_key_reported_with_path(self):
        with pytest.raises(ConfigurationError, match="planner"):
            config_from_dict({"planner": {"chunk": 4}})

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"controller": {"mode": "mpc"}})

    def test_unknown_verifier_kind(self):
        with pytest.raises(ConfigurationError, match="verifier.kind"):
            config_from_dict({"verifier": {"kind": "transformer"}})

    def test_disturbance_level_expansion(self):
        cfg = config_from_dict({"env": {"disturbance": {"level": "moderate"}}})
        assert cfg.env.disturbance.object_drift_prob > 0

    def test_level_with_override(self):
        cfg = config_from_dict({"env": {"disturbance": {
            "level": "moderate", "object_drift_prob": 0.5}}})
        assert cfg.env.disturbance.object_drift_prob == 0.5

    def test_version_check(self):
        with pytest.raises(ConfigurationError, match="version"):
            config_from_dict({"version": 99})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match=re.escape(str(tmp_path))):
            load_config(tmp_path)

    def test_unreadable_params_path(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"verifier:\n  params_path: {tmp_path / 'missing.json'}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "configuration error: verifier.params_path: cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_params_flag(self, tmp_path, capsys):
        """--params is checked like the same value in a config file."""
        out = tmp_path / "out"
        assert main(["run", "--params", str(tmp_path / "missing.json"),
                     "--output-dir", str(out)]) == 2
        assert "configuration error: verifier.params_path: cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict({"controller": {"tau": 0.3},
                                "env": {"disturbance": {"level": "moderate"}}})
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        again = load_config(path)
        assert again == cfg
        assert again.env.disturbance_level == "moderate"
        assert config_to_dict(again) == config_to_dict(cfg)


class TestRunBatch:
    def test_deterministic(self):
        cfg = oracle_config()
        a = run_batch(cfg)
        b = run_batch(cfg)
        assert [trace_text(t) for t in a] == [trace_text(t) for t in b]

    def test_open_loop_clean_success(self):
        cfg = config_from_dict({"batch": {"episodes": 20},
                                "planner": {"chunk_size": 40}})
        traces = run_batch(cfg, mode="open-loop")
        assert all(t.success for t in traces)

    def test_seed_layout(self):
        cfg = config_from_dict({"verifier": {"kind": "oracle"},
                                "batch": {"episodes": 3, "base_seed": 50}})
        traces = run_batch(cfg)
        assert [t.seed for t in traces] == [50, 51, 52]


class TestAggregate:
    def test_single_trace_accounting(self):
        tr = EpisodeTrace(seed=0, mode="sv", chunk_size=4, tau=0.2,
                          latency=LatencyModel(t_heavy=1.0, t_verify=0.1))
        tr.heavy_calls, tr.verifier_calls, tr.executed_steps = 1, 3, 4
        tr.success = True
        tr.completed_chunk_lengths = [4]
        row = aggregate([tr], [tr])
        assert row["mean_inference_time"] == pytest.approx(1.3)
        assert row["success_rate"] == 1.0
        assert row["speedup"] == pytest.approx(1.0)

    def test_self_reference_speedup_one(self):
        traces = run_batch(oracle_config())
        row = aggregate(traces, traces)
        assert row["speedup"] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate([], [])

    def test_count_mismatch_rejected(self):
        traces = run_batch(oracle_config())
        with pytest.raises(ConfigurationError):
            aggregate(traces, traces[:-1])

    def test_recompute_from_raw_matches(self, tmp_path):
        cfg = oracle_config(disturbance={"level": "moderate"})
        traces = run_batch(cfg)
        path = tmp_path / "traces.jsonl"
        write_traces(path, traces)
        reloaded = read_traces(path)
        assert aggregate(reloaded, reloaded) == aggregate(traces, traces)

    def test_labels_come_from_traces(self):
        """Mode, chunk size and tau come from the traces; ``label`` adds the rest."""
        traces = run_batch(oracle_config(), mode="open-loop", chunk_size=4, episodes=3)
        row = aggregate(traces, traces, label={"disturbance": "off"})
        assert (row["mode"], row["chunk_size"], row["tau"], row["disturbance"]) == \
            ("open-loop", 4, None, "off")

    def test_mixed_traces_rejected(self):
        cfg = oracle_config()
        traces = (run_batch(cfg, tau=0.2, episodes=2)
                  + run_batch(cfg, tau=0.4, episodes=2))
        with pytest.raises(ConfigurationError, match="one row needs one"):
            aggregate(traces, traces)

    def test_csv_rendering(self):
        traces = run_batch(oracle_config())
        row = aggregate(traces, traces,
                        label={"mode": "sv", "chunk_size": 16, "tau": 0.2,
                               "disturbance": "off"})
        text = rows_to_csv([row])
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("sv,16,0.2,off,10,")


class TestSweep:
    def test_degenerate_cell_matches_direct_run(self):
        cfg = config_from_dict({
            "verifier": {"kind": "oracle"},
            "batch": {"episodes": 5},
            "sweep": {"chunk_sizes": [4], "taus": [0.2],
                      "disturbance_levels": ["off"], "modes": ["sv"]},
        })
        rows, cells, references = run_sweep(cfg)
        assert len(rows) == 1
        direct = run_batch(cfg, mode="sv", chunk_size=4, tau=0.2,
                           disturbance_level="off")
        ref = references["off"]
        assert rows[0] == aggregate(direct, ref, label={
            "mode": "sv", "chunk_size": 4, "tau": 0.2, "disturbance": "off"})
        assert [trace_text(t) for t in cells["sv_K4_tau0.2_off"]] == \
            [trace_text(t) for t in direct]

    @pytest.mark.parametrize("overrides", [
        {},
        {"sweep": {"modes": ["sv", "sv-without-context"]}},
        {"reference": {"chunk_size": 1}},
        {"sweep": {"modes": ["verifier-only", "open-loop", "sv"]}},
    ], ids=["default_grid", "two_sv_modes", "reference_K1", "other_modes"])
    def test_one_step_cells_match_direct_runs(self, overrides):
        """A sweep runs each level's K=1 batch once and relabels it for the
        other K=1 cells; each has the bytes of its own direct run."""
        cfg = config_from_dict({"verifier": {"kind": "oracle"}, "batch": {"episodes": 4},
                                **overrides})
        _, cells, references = run_sweep(cfg)
        checked = 0
        for level in cfg.sweep.disturbance_levels:
            assert [trace_text(t) for t in references[level]] == \
                [trace_text(t) for t in reference_batch(cfg, level)]
            for mode in cfg.sweep.modes:
                for tau in cfg.sweep.taus if ControllerMode(mode).is_sv else (None,):
                    direct = run_batch(cfg, mode=mode, chunk_size=1, tau=tau,
                                       disturbance_level=level)
                    name = f"{mode}_K1" + (f"_tau{tau}" if tau else "") + f"_{level}"
                    assert [trace_text(t) for t in cells[name]] == \
                        [trace_text(t) for t in direct]
                    checked += 1
        assert checked == sum("_K1_" in name for name in cells)

    def test_default_grid_runs_sixteen_batches(self, monkeypatch):
        """2 levels x (a reference, one K=1 batch, 3 taus at K=4 and at K=16)."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("chunk_size"))
            return run_batch(*args, **kwargs)

        monkeypatch.setattr("specverify.harness.run_batch", counting)
        run_sweep(config_from_dict({"verifier": {"kind": "oracle"}, "batch": {"episodes": 2}}))
        assert len(calls) == 16
        assert calls.count(1) == 2

    def test_cells_share_no_lists(self):
        cfg = config_from_dict({"verifier": {"kind": "oracle"}, "batch": {"episodes": 3},
                                "sweep": {"modes": ["sv", "open-loop"]},
                                "reference": {"chunk_size": 1}})
        _, cells, references = run_sweep(cfg)
        traces = [t for group in (*cells.values(), *references.values()) for t in group]
        lists = [getattr(t, name) for t in traces
                 for name in ("records", "steps_before_replan", "completed_chunk_lengths")]
        assert len({id(x) for x in lists}) == len(lists) == 3 * len(traces)

    def test_empty_axes_rejected(self):
        """An empty axis is rejected where the sweep settings are made."""
        sweep = oracle_config().sweep
        for axis in ("chunk_sizes", "taus", "disturbance_levels", "modes"):
            with pytest.raises(ConfigurationError, match=rf"^sweep\.{axis}: must be nonempty$"):
                config_from_dict({"sweep": {axis: []}})
            with pytest.raises(ConfigurationError, match=rf"^{axis}: must be nonempty$"):
                replace(sweep, **{axis: ()})


class TestTraceFiles:
    def test_trailing_records_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "step", "step": 0}\n')
        with pytest.raises(ValueError):
            read_traces(path)

    @pytest.fixture
    def trace_file(self, tmp_path):
        """Two oracle episodes written to disk; returns (path, lines)."""
        path = tmp_path / "traces.jsonl"
        write_traces(path, run_batch(oracle_config(), episodes=2))
        return path, path.read_text().splitlines(keepends=True)

    def test_trailing_records_name_file_and_line(self, trace_file):
        path, lines = trace_file
        path.write_text("".join(lines + lines[:1]))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{len(lines) + 1}: trailing"):
            read_traces(path)

    def test_malformed_json_names_file_and_line(self, trace_file):
        path, lines = trace_file
        lines[3] = lines[3][:-5] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match=rf"{re.escape(str(path))}:4: "):
            read_traces(path)

    def test_summary_missing_field_names_file_and_line(self, trace_file):
        path, lines = trace_file
        end = next(i for i, line in enumerate(lines) if '"summary"' in line)
        lines[end] = lines[end].replace('"replans"', '"replanz"')
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{end + 1}: .*replans"):
            read_traces(path)

    @pytest.mark.parametrize("field", ("executed_steps", "verifier_calls",
                                       "simulated_inference_time"))
    def test_summary_disagreeing_with_records_names_file_and_line(self, trace_file, field):
        """Each counter a summary stores is re-checked on read: the step count
        and the verifier calls against the records, the simulated time against
        the accounting identity, exactly (one ulp off fails)."""
        path, lines = trace_file
        end = next(i for i, line in enumerate(lines) if '"summary"' in line)
        summary = json.loads(lines[end])
        assert summary["mode"] == "sv"
        if field == "simulated_inference_time":
            summary[field] = float(np.nextafter(summary[field], np.inf))
        else:
            summary[field] += 1
        lines[end] = json.dumps(summary, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{end + 1}: summary {field} is"):
            read_traces(path)

    @pytest.mark.parametrize("field,value,named", [
        ("seed", -5, "seed"), ("seed", 5.5, "seed"), ("seed", True, "seed"),
        ("mode", "open-loop", "tau"),  # an sv trace's tau, in a mode that has none
        ("chunk_size", 0, "chunk_size"), ("chunk_size", "16", "chunk_size"),
        ("tau", 1.5, "tau"), ("tau", "x", "tau"), ("tau", None, "tau"),
        ("heavy_calls", float, "heavy_calls"), ("verifier_calls", float, "verifier_calls"),
        ("executed_steps", float, "executed_steps"), ("replans", -1, "replans"),
        ("replans", True, "replans"), ("guard_hit", 0, "guard_hit"), ("success", 3, "success"),
        ("steps_before_replan", [0], "steps_before_replan"),
        ("completed_chunk_lengths", [True], "completed_chunk_lengths"),
        ("completed_chunk_lengths", "16", "completed_chunk_lengths"),
    ], ids=("seed_negative", "seed_float", "seed_bool", "mode_without_tau", "chunk_size_zero",
            "chunk_size_string", "tau_above_one", "tau_string", "tau_null_in_sv",
            "heavy_calls_float", "verifier_calls_float", "executed_steps_float",
            "replans_negative", "replans_bool", "guard_hit_int", "success_int",
            "steps_before_replan_zero", "chunk_lengths_bool", "chunk_lengths_string"))
    def test_rejects_summary_values_the_engine_never_writes(self, trace_file, field, value,
                                                             named):
        """Each summary field must hold what the engine writes there: a
        summary with ``"success": 3`` would give a success rate of 3. A float
        counter equal to the count passes the accounting checks, so it is the
        type check that rejects it."""
        path, lines = trace_file
        end = next(i for i, line in enumerate(lines) if '"summary"' in line)
        summary = json.loads(lines[end])
        summary[field] = value(summary[field]) if callable(value) else value
        lines[end] = json.dumps(summary, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{end + 1}: summary {named}: expected"):
            read_traces(path)

    @pytest.mark.parametrize("damage", ("record_over_two_lines", "two_records_on_a_line"))
    def test_rejects_records_not_one_per_line(self, trace_file, damage):
        """The in-place parse takes a value only where it fills its line;
        otherwise the line alone is decoded, with json's own message."""
        path, lines = trace_file
        if damage == "record_over_two_lines":
            lines[1:2] = lines[1].split(", ", 1)
            lines[1] += ",\n"
        else:
            lines[1:3] = [lines[1][:-1] + " " + lines[2]]
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(lines[1])
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:2: {re.escape(str(want.value))}$"):
            read_traces(path)

    @pytest.mark.parametrize("line", [
        '\ufeff{"type": "step", "step": 0}',  # BOM
        '{"type": "step", "step": 0} {}',  # trailing data
        '{"type": "step", "st',  # truncated
        "", "[1, 2]", '"step"', "null", "7",  # blank, and not an object
    ])
    def test_rejects_the_lines_json_loads_rejects(self, trace_file, line):
        path, lines = trace_file
        try:
            parsed = json.loads(line)
        except ValueError:
            pass
        else:
            assert not isinstance(parsed, dict)
        path.write_text("".join(lines[:2] + [line + "\n"] + lines[2:]))
        with pytest.raises(ConfigurationError, match=rf"{re.escape(str(path))}:3: "):
            read_traces(path)

    @pytest.mark.parametrize("kind", [[], ["step"], {}, {"step": 1}, "stop", None])
    def test_rejects_other_record_types(self, trace_file, kind):
        path, lines = trace_file
        record = json.dumps({"type": kind, "step": 0}) if kind is not None else '{"step": 0}'
        path.write_text("".join(lines[:2] + [record + "\n"] + lines[2:]))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:3: unknown record type"):
            read_traces(path)

    @pytest.mark.parametrize("kind,damage", [
        ("step", lambda r: r.pop("action")),
        ("step", lambda r: r.update(extra=0)),
        ("step", lambda r: r.update(actoin=r.pop("action"))),
        ("decision", lambda r: r.update(score=True)),
        ("step", lambda r: r.update(step=str(r["step"]))),
        ("step", lambda r: r.update(action=r["action"][:2])),
        ("step", lambda r: r.update(state_hash='0"1')),  # written back unescaped
        ("decision", lambda r: r.update(accept=1)),
    ], ids=("dropped_key", "extra_key", "renamed_key", "bool_score", "string_step", "two_item_action",
            "quote_in_hash", "int_accept"))
    def test_rejects_records_the_writer_cannot_write_back(self, trace_file, kind, damage):
        """A step or decision record needs the writer's keys and value types;
        without them, it would fail or change when it is written back."""
        path, lines = trace_file
        at = next(i for i, line in enumerate(lines) if f'"type": "{kind}"' in line)
        record = json.loads(lines[at])
        damage(record)
        lines[at] = json.dumps(record, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{at + 1}: {kind} record"):
            read_traces(path)

    @pytest.mark.parametrize("mode,edit,named", [
        ("sv", lambda s: s.update(note="edited"),
         r"summary record lacks \[\], has unknown keys \['note'\]"),
        ("sv", lambda s: s["steps_before_replan"].append(1), "summary replans is"),
        ("verifier-only", lambda s: s.update(verifier_calls=s["verifier_calls"] - 1),
         "summary verifier_calls is"),
        ("open-loop", lambda s: s.update(verifier_calls=1), "summary verifier_calls is"),
        ("sv", lambda s: s.update(heavy_calls=0), "summary heavy_calls is"),
        ("open-loop", lambda s: s.update(heavy_calls=s["executed_steps"] + 1),
         "summary heavy_calls is"),
        ("verifier-only", lambda s: s.update(heavy_calls=2), "summary heavy_calls is"),
    ], ids=("extra_key", "replan_entry_added", "verifier_only_verifier_calls",
            "open_loop_verifier_calls", "heavy_calls_zero", "heavy_calls_above_steps",
            "verifier_only_heavy_calls"))
    def test_rejects_summaries_that_break_an_invariant(self, tmp_path, mode, edit, named):
        """One edit per rule, with the simulated time kept equal to the
        accounting identity: the summary has exactly the writer's keys, one
        replan per ``steps_before_replan`` entry, the mode's verifier calls, and
        heavy calls between ceil(steps / K) and the steps (one in verifier-only)."""
        path = tmp_path / "traces.jsonl"
        write_traces(path, run_batch(oracle_config(), mode=mode, episodes=2))
        lines = path.read_text().splitlines(keepends=True)
        end = edit_summary(lines, edit)
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{end + 1}: {named}"):
            read_traces(path)

    def test_rejects_decisions_against_the_rule(self, trace_file, tmp_path):
        """In the sv modes a decision accepts iff its score is <= tau: a
        flipped ``accept`` fails, a score equal to tau accepted passes. The
        other modes verify nothing, so a decision record there fails."""
        path, lines = trace_file
        at = next(i for i, line in enumerate(lines) if '"decision"' in line)
        end = next(i for i, line in enumerate(lines) if '"summary"' in line)
        decision, tau = json.loads(lines[at]), json.loads(lines[end])["tau"]

        def put(lines, at, record, drop=1):
            return "".join(lines[:at] + [json.dumps(record, sort_keys=True) + "\n"]
                           + lines[at + drop:])

        path.write_text(put(lines, at, dict(decision, accept=True, score=tau)))
        read_traces(path)
        path.write_text(put(lines, at, dict(decision, accept=not decision["accept"])))
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(path))}:{end + 1}: decision record"):
            read_traces(path)
        open_loop = tmp_path / "open_loop.jsonl"
        write_traces(open_loop, run_batch(oracle_config(), mode="open-loop", episodes=2))
        lines = open_loop.read_text().splitlines(keepends=True)
        end = next(i for i, line in enumerate(lines) if '"summary"' in line)
        open_loop.write_text(put(lines, 1, decision, drop=0))  # one more line before the summary
        with pytest.raises(ConfigurationError,
                           match=rf"{re.escape(str(open_loop))}:{end + 2}: decision record"):
            read_traces(open_loop)

    def test_latencies_written_back_as_read(self, tmp_path):
        """Traces that differ only in how a latency is spelled (1 or 1.0,
        0.0 or -0.0) keep their spelling through a read and a write."""
        traces = []
        for latency in ({"t_heavy": 1}, {"t_heavy": 1.0}, {"t_ctrl": 0.0}, {"t_ctrl": -0.0}):
            cfg = config_from_dict({"verifier": {"kind": "oracle"},
                                    "controller": {"latency": latency}})
            traces += run_batch(cfg, episodes=2)
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        write_traces(first, traces)
        for spelling in ('"t_heavy": 1,', '"t_heavy": 1.0,', '"t_ctrl": 0.0,', '"t_ctrl": -0.0,'):
            assert spelling in first.read_text()
        write_traces(again, read_traces(first))
        assert again.read_bytes() == first.read_bytes()

    def test_accepts_the_lines_json_loads_accepts(self, trace_file):
        """Whitespace around a record, which json.loads skips, changes nothing."""
        path, lines = trace_file
        want = [trace_text(t) for t in read_traces(path)]
        path.write_text("".join(f" \t{line[:-1]} \n" for line in lines))
        assert [trace_text(t) for t in read_traces(path)] == want


def _damaged(text: str, edit: str, at: int) -> str:
    """``text`` with one edit at line (or byte) ``at``, wrapped to its size."""
    lines = text.splitlines(keepends=True)
    i = at % len(lines)
    if edit == "truncate":
        return text[:at % len(text)]
    if edit == "drop_line":
        return "".join(lines[:i] + lines[i + 1:])
    if edit == "duplicate_line":
        return "".join(lines[:i + 1] + lines[i:])
    if edit == "swap_lines":
        i = at % (len(lines) - 1)
        return "".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:])
    record = json.loads(lines[i])  # drop_key
    del record[sorted(record)[at % len(record)]]
    return "".join(lines[:i] + [json.dumps(record, sort_keys=True) + "\n"] + lines[i + 1:])


@settings(max_examples=80, deadline=None)
@example(seed=0, mode="sv", k=4, level="off", edit="truncate", at=-1)  # cut the final newline
@given(seed=st.integers(0, 2**16), mode=st.sampled_from([m.value for m in ControllerMode]),
       k=st.sampled_from([1, 2, 4, 16]), level=st.sampled_from(["off", "moderate"]),
       edit=st.sampled_from(["truncate", "drop_line", "duplicate_line", "swap_lines",
                             "drop_key"]),
       at=st.integers(0, 2**16))
def test_damaged_file_rejected_or_written_back_as_damaged(tmp_path_factory, seed, mode, k,
                                                          level, edit, at):
    """One edit to a written trace file: ``read_traces`` names the file in a
    ConfigurationError, or returns traces that write back to the damaged
    bytes. A swap of two different adjacent lines always raises. Any other
    exception fails the test."""
    cfg = config_from_dict({"verifier": {"kind": "oracle"}, "batch": {"base_seed": seed},
                            "env": {"horizon": 12, "disturbance": {"level": level}}})
    path = tmp_path_factory.mktemp("damage") / "traces.jsonl"
    write_traces(path, run_batch(cfg, mode=mode, chunk_size=k, episodes=2))
    text = path.read_text()
    damaged = _damaged(text, edit, at)
    path.write_text(damaged)
    try:
        traces = read_traces(path)
    except ConfigurationError as exc:
        assert str(exc).startswith(str(path))
    else:
        assert edit != "swap_lines" or damaged == text
        write_traces(path, traces)
        assert path.read_text() == damaged
