"""Experiment driver: configs, seeded batches, sweeps, aggregation, trace files.

Configs are YAML with a version field, read by one walk over the config
dataclasses' fields. Each dataclass checks its values in ``__post_init__``, so
``dataclasses.replace`` runs the same checks; their errors begin with the
field name, and the walk prefixes the section's dotted path. The trace file
format is defined here once, and its reader re-checks every record and episode.
All outputs (trace files, CSV tables) are byte-deterministic given the config.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from json.scanner import make_scanner
from typing import get_args, get_origin, get_type_hints

import yaml

from .controller import (ControllerConfig, ControllerMode, EpisodeTrace, LatencyModel,
                         run_episodes)
from .core import ConfigurationError, is_finite_number, named
from .env import OBS_DIM, DisturbanceConfig, EpisodeConfig, Geometry, ToyEnv
from .planner import make_planner
from .verifier import (BOUNDARIES, ObservationEncoder, OracleVerifier,
                       TrainedVerifier, build_training_set, load_verifier,
                       train_verifier)

CONFIG_VERSION = 1

CSV_COLUMNS = [
    "mode", "chunk_size", "tau", "disturbance", "episodes",
    "success_rate", "mean_heavy_calls", "mean_verifier_calls",
    "mean_inference_time", "speedup", "mean_executed_steps", "mean_replans",
    "mean_steps_before_replan", "mean_steps_before_replan_events_only",
    "guard_hits",
]


@dataclass(frozen=True)
class TrainingConfig:
    episodes: int = 120
    epochs: int = 800
    learning_rate: float = 0.02
    batch_size: int = 64
    seed: int = 1
    boundaries: str = "all"
    disturbance_level: str | None = None  # None = same as env

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigurationError(f"episodes: must be >= 1, got {self.episodes}")
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning_rate: must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.boundaries not in BOUNDARIES:
            raise ConfigurationError(
                f"boundaries: must be one of {BOUNDARIES}, got {self.boundaries!r}")
        if self.disturbance_level is not None:
            named("disturbance_level", DisturbanceConfig.from_level, self.disturbance_level)


@dataclass(frozen=True)
class VerifierConfig:
    kind: str = "trained"  # trained | oracle
    encoder_width: int = 64
    hidden_width: int = 128
    encoder_seed: int = 0
    params_path: str | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if self.kind not in ("trained", "oracle"):
            raise ConfigurationError(f"kind: unknown kind {self.kind!r}")
        named("encoder_width", ObservationEncoder.check_width, OBS_DIM, self.encoder_width)
        if self.hidden_width < 1:
            raise ConfigurationError(f"hidden_width: must be >= 1, got {self.hidden_width}")


@dataclass(frozen=True)
class PlannerConfig:
    kind: str = "nominal-rollout"
    chunk_size: int = 16
    context_width: int = 16

    def __post_init__(self):
        make_planner(self.kind, Geometry(), self.chunk_size, self.context_width)


@dataclass(frozen=True)
class BatchConfig:
    episodes: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigurationError(f"episodes: must be >= 1, got {self.episodes}")


@dataclass(frozen=True)
class SweepConfig:
    chunk_sizes: tuple[int, ...] = (1, 4, 16)
    taus: tuple[float, ...] = (0.1, 0.2, 0.4)
    disturbance_levels: tuple[str, ...] = ("off", "moderate")
    modes: tuple[str, ...] = ("sv",)

    def __post_init__(self):
        for f in fields(self):  # a repeated value would overwrite its cell's trace file
            values = getattr(self, f.name)
            if not values:
                raise ConfigurationError(f"{f.name}: must be nonempty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigurationError(f"{f.name}: duplicate value {value!r}")
        for k in self.chunk_sizes:
            named("chunk_sizes", PlannerConfig, chunk_size=k)
        for tau in self.taus:
            named("taus", ControllerConfig, tau=tau)
        for level in self.disturbance_levels:
            named("disturbance_levels", DisturbanceConfig.from_level, level)
        for mode in self.modes:
            named("modes", ControllerMode, mode)


@dataclass(frozen=True)
class ReferenceConfig:
    """Open-loop baseline used as the denominator of the speed-up metric."""

    mode: str = "open-loop"
    chunk_size: int = 4

    def __post_init__(self):
        named("mode", ControllerMode, self.mode)
        PlannerConfig(chunk_size=self.chunk_size)


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = CONFIG_VERSION
    env: EpisodeConfig = field(default_factory=EpisodeConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ConfigurationError(f"version: unsupported config version {self.version!r}")


# ---------------------------------------------------------------------------
# Config files: one walk over the dataclass fields
# ---------------------------------------------------------------------------


_EXPECTED = {int: "a nonnegative int", float: "a finite float", str: "a string"}


def _typed(tp, value, where: str):
    """``value`` checked against the field annotation ``tp``; a list becomes a
    tuple. Every int in a config is a count, size, seed or version, so none is
    negative."""
    if type(None) in get_args(tp):  # X | None
        if value is None:
            return None
        tp = get_args(tp)[0]
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if (not is_finite_number(value) if tp is float else
            isinstance(value, bool) or not isinstance(value, tp) or tp is int and value < 0):
        raise ConfigurationError(f"{where}: expected {_EXPECTED[tp]}, got {value!r}")
    return value


def _apply(section, data, path: str):
    """``section`` (a config dataclass) with the YAML mapping ``data`` applied.

    Each value is checked against its field's annotation and nested sections
    recurse; unknown keys are rejected, and every error begins with the dotted
    path of the value it concerns.
    """
    if not isinstance(data, (dict, type(None))):
        raise ConfigurationError(f"{path or 'config root'}: expected a mapping, got {data!r}")
    data = dict(data or {})  # an empty YAML section reads as None
    hints = get_type_hints(type(section))
    if isinstance(section, EpisodeConfig):  # these two fields have no key of their own
        section = _apply_env_spelling(section, data, path)
        del hints["geometry"], hints["disturbance_level"]
    changes = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigurationError(f"{where}: unknown key")
        current = getattr(section, key)
        changes[key] = (_apply(current, value, where) if is_dataclass(current)
                        else _typed(hints[key], value, where))
    try:
        return replace(section, **changes)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}.{exc}" if path else str(exc)) from exc


# The two places where the YAML spelling of ``env`` is not one-to-one with
# EpisodeConfig: Geometry's fields sit directly under ``env``, and
# ``env.disturbance.level`` is stored as ``disturbance_level`` and seeds the
# disturbance fields, which the explicit ones then override.
_GEOMETRY_KEYS = frozenset(f.name for f in fields(Geometry))


def _apply_env_spelling(env: EpisodeConfig, data: dict, path: str) -> EpisodeConfig:
    """Apply, and remove from ``data``, the geometry keys and the level."""
    geometry = {k: data.pop(k) for k in _GEOMETRY_KEYS & data.keys()}
    env = replace(env, geometry=_apply(env.geometry, geometry, path))
    disturbance = data.get("disturbance")
    if isinstance(disturbance, dict) and "level" in disturbance:
        data["disturbance"] = {k: v for k, v in disturbance.items() if k != "level"}
        where = f"{path}.disturbance.level"
        level = _typed(str | None, disturbance["level"], where)
        seed = (DisturbanceConfig() if level is None
                else named(where, DisturbanceConfig.from_level, level))
        env = replace(env, disturbance=seed, disturbance_level=level)
    return env


def config_to_dict(value):
    """The YAML form of a config (or of any value in it), spelled as
    ``config_from_dict`` reads it."""
    if not is_dataclass(value):
        return list(value) if isinstance(value, tuple) else value
    data = {f.name: config_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, EpisodeConfig):
        data.update(data.pop("geometry"))
        data["disturbance"]["level"] = data.pop("disturbance_level")
    return data


def config_from_dict(data) -> ExperimentConfig:
    return _apply(ExperimentConfig(), data, "")


def override_config(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """``cfg`` with ``{dotted path: value}`` applied and checked as in a file."""
    data = {}
    for dotted, value in overrides.items():
        *sections, key = dotted.split(".")
        reduce(lambda node, name: node.setdefault(name, {}), sections, data)[key] = value
    return _apply(cfg, data, "")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def build_verifier(cfg: ExperimentConfig):
    """Load, train, or construct the verifier named by the config."""
    geom = cfg.env.geometry
    if cfg.verifier.kind == "oracle":
        return OracleVerifier(geom)
    space = geom.action_space()
    if cfg.verifier.params_path:
        encoder, params = load_verifier(cfg.verifier.params_path)
        widths = (encoder.obs_dim, params.input_width - encoder.width, params.action_dim)
        if widths != (OBS_DIM, cfg.planner.context_width, space.lower.size):
            raise ConfigurationError(
                f"{cfg.verifier.params_path}: observation/context/action widths {widths} "
                f"do not fit this config")
        return TrainedVerifier(encoder, params, space)
    report, encoder = train_from_config(cfg)
    return TrainedVerifier(encoder, report.params, space)


def train_from_config(cfg: ExperimentConfig):
    """Collect a dataset and train verifier parameters per the config."""
    tcfg = cfg.verifier.training
    disturbance = (DisturbanceConfig.from_level(tcfg.disturbance_level)
                   if tcfg.disturbance_level else cfg.env.disturbance)
    episode_cfg = cfg.env.episode_config(disturbance)
    planner = make_planner(cfg.planner.kind, cfg.env.geometry,
                           cfg.planner.chunk_size, cfg.planner.context_width)
    samples = build_training_set(episode_cfg, planner, tcfg.episodes, tcfg.seed,
                                 boundaries=tcfg.boundaries)
    encoder = ObservationEncoder.create(OBS_DIM, cfg.verifier.encoder_width,
                                        seed=cfg.verifier.encoder_seed)
    report = train_verifier(samples, encoder, epochs=tcfg.epochs,
                            learning_rate=tcfg.learning_rate,
                            batch_size=tcfg.batch_size,
                            hidden_width=cfg.verifier.hidden_width, seed=tcfg.seed)
    return report, encoder


def run_batch(cfg: ExperimentConfig, *, mode: str | None = None,
              chunk_size: int | None = None, tau: float | None = None,
              disturbance_level: str | None = None, verifier=None,
              episodes: int | None = None):
    """Run the configured episode count with seeds base_seed + index, all in
    one lockstep batch."""
    controller = replace(cfg.controller, mode=cfg.controller.mode if mode is None else mode,
                         tau=cfg.controller.tau if tau is None else tau)
    if verifier is None and ControllerMode(controller.mode).needs_verifier:
        verifier = build_verifier(cfg)
    disturbance = (cfg.env.disturbance if disturbance_level is None
                   else DisturbanceConfig.from_level(disturbance_level))
    episode_cfg = cfg.env.episode_config(disturbance)
    planner = make_planner(cfg.planner.kind, cfg.env.geometry,
                           cfg.planner.chunk_size if chunk_size is None else chunk_size,
                           cfg.planner.context_width)
    n = episodes if episodes is not None else cfg.batch.episodes
    envs = ToyEnv.batch(episode_cfg, range(cfg.batch.base_seed, cfg.batch.base_seed + n))
    return run_episodes(envs, planner, verifier, controller)


# ---------------------------------------------------------------------------
# Aggregation and trace files
# ---------------------------------------------------------------------------


def _mean(xs):
    return sum(xs) / len(xs)


def aggregate(traces, reference_traces, label: dict | None = None) -> dict:
    """One metrics row, labelled with the mode, chunk size and tau the traces
    share, then with ``label``. steps_before_replan mixes replan events with
    the completed chunk lengths of episodes that never replanned; the
    events-only variant is emitted alongside."""
    if not traces or not reference_traces:
        raise ConfigurationError("aggregate requires nonempty trace sets")
    if len(traces) != len(reference_traces):
        raise ConfigurationError("reference set must share the episode count")
    cells = {(t.mode, t.chunk_size, t.tau) for t in traces}
    if len(cells) > 1:
        raise ConfigurationError(
            f"one row needs one (mode, chunk_size, tau), got {sorted(cells, key=str)}")
    (mode, chunk_size, tau), = cells
    mixed = []
    events_only = []
    for tr in traces:
        events_only.extend(tr.steps_before_replan)
        mixed.extend(tr.steps_before_replan)
        if not tr.steps_before_replan:
            mixed.extend(tr.completed_chunk_lengths)
    row = {
        "mode": mode, "chunk_size": chunk_size, "tau": tau,
        "episodes": len(traces),
        "success_rate": sum(t.success for t in traces) / len(traces),
        "mean_heavy_calls": _mean([t.heavy_calls for t in traces]),
        "mean_verifier_calls": _mean([t.verifier_calls for t in traces]),
        "mean_inference_time": _mean([t.simulated_inference_time for t in traces]),
        "mean_executed_steps": _mean([t.executed_steps for t in traces]),
        "mean_replans": _mean([t.replans for t in traces]),
        "mean_steps_before_replan": _mean(mixed) if mixed else None,
        "mean_steps_before_replan_events_only":
            _mean(events_only) if events_only else None,
        "guard_hits": sum(t.guard_hit for t in traces),
    }
    ref_time = _mean([t.simulated_inference_time for t in reference_traces])
    row["speedup"] = ref_time / row["mean_inference_time"]
    if label:
        row.update(label)
    return row


def rows_to_csv(rows) -> str:
    """Deterministic CSV rendering of metrics rows."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".10g")
        return str(v)

    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(fmt(row.get(c)) for c in CSV_COLUMNS) + "\n")
    return out.getvalue()


#: ``json.dumps(r, sort_keys=True)`` without building an encoder per call; it
#: writes the summary line and a non-finite float.
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_float(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity, -Infinity."""
    return repr(x) if math.isfinite(x) else _encode(x)


# The two record lines, each ``json.dumps(r, sort_keys=True)`` spelled out: keys
# in sorted order, json's separators, a finite float as its repr (what json
# writes for one; ``format(x, "")`` is that repr too). A state hash is hex, so
# it needs no escaping. A verifier-only step executes the verifier's clamped
# row, and clipping passes NaN through, so a non-finite action is spelled as
# json spells it.
def _step_line(r: dict) -> str:
    a0, a1, a2 = action = r["action"]
    if not (math.isfinite(a0) and math.isfinite(a1) and math.isfinite(a2)):
        a0, a1, a2 = map(_json_float, action)
    return (f'{{"action": [{a0}, {a1}, {a2}], "state_hash": "{r["state_hash"]}", '
            f'"step": {r["step"]}, "type": "step"}}\n')


def _decision_line(r: dict) -> str:
    return (f'{{"accept": {"true" if r["accept"] else "false"}, '
            f'"score": {_json_float(r["score"])}, "step": {r["step"]}, "type": "decision"}}\n')


#: json's numbers; a bool is neither, though Python counts it an int.
_NUMBER = frozenset((int, float))


def _step_writable(r: dict) -> bool:
    """Keys type, step, state_hash and action only: an int step, a hash of
    ASCII letters and digits (the writer does not escape it) and a list of
    three numbers, which may be non-finite."""
    hash_, action = r.get("state_hash"), r.get("action")
    return (len(r) == 4 and type(r.get("step")) is int and type(hash_) is str
            and hash_.isascii() and hash_.isalnum() and type(action) is list
            and len(action) == 3 and type(action[0]) in _NUMBER
            and type(action[1]) in _NUMBER and type(action[2]) in _NUMBER)


def _decision_writable(r: dict) -> bool:
    """Keys type, step, accept and score only: an int step, a bool and a number."""
    return (len(r) == 4 and type(r.get("step")) is int and type(r.get("accept")) is bool
            and type(r.get("score")) in _NUMBER)


#: Per record type: its line writer, and whether a decoded record has exactly
#: the keys and value types that writer takes, so it is written back as read.
_RECORDS = {"step": (_step_line, _step_writable),
            "decision": (_decision_line, _decision_writable)}

_COUNT = ("an int >= 0", lambda v: type(v) is int and v >= 0)
_FLAG = ("a bool", lambda v: type(v) is bool)
_LENGTHS = ("a list of ints >= 1",
            lambda v: type(v) is list and all(type(x) is int and x >= 1 for x in v))

#: The EpisodeTrace fields a summary line holds, each with what the engine
#: writes there; mode and tau (None) are checked together. The line also holds
#: the LatencyModel fields, the simulated time and its type.
_SUMMARY = {
    "seed": _COUNT, "mode": None, "tau": None, "guard_hit": _FLAG, "success": _FLAG,
    "chunk_size": ("an int >= 1", lambda v: type(v) is int and v >= 1),
    "heavy_calls": _COUNT, "verifier_calls": _COUNT, "executed_steps": _COUNT, "replans": _COUNT,
    "steps_before_replan": _LENGTHS, "completed_chunk_lengths": _LENGTHS,
}
_LATENCY = tuple(f.name for f in fields(LatencyModel))
_SUMMARY_KEYS = frozenset((*_SUMMARY, *_LATENCY, "simulated_inference_time", "type"))


def trace_text(trace: EpisodeTrace) -> str:
    """One episode's lines: its step and decision records, then its summary."""
    summary = {k: getattr(trace, k) for k in _SUMMARY}
    summary.update({k: getattr(trace.latency, k) for k in _LATENCY}, type="summary",
                   simulated_inference_time=trace.simulated_inference_time)
    return "".join([_RECORDS[r["type"]][0](r) for r in trace.records]) + _encode(summary) + "\n"


def write_traces(path, traces) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(trace_text, traces))


def _closed_episode(summary: dict, records: list, latencies: dict) -> EpisodeTrace:
    """The trace that ``summary`` closes, over the ``records`` before it.

    The summary must have exactly the writer's keys, each holding what the
    engine writes there (``_SUMMARY``; tau in (0, 1) in the sv modes, null in
    the others). Then the paper's invariants are re-checked: each record's
    step counts the step records before it, each decision accepts iff its
    score is <= tau (sv modes; other modes have no decisions), the step count
    and verifier calls agree with the records and the mode, one replan per
    ``steps_before_replan`` entry, heavy calls within the chunk bounds, and the
    simulated time equals the accounting identity.

    ``latencies`` holds one LatencyModel per distinct latency triple for the
    traces read together. Its key is the triple's reprs, so 1 and 1.0, or 0.0
    and -0.0, get models of their own and are written back as read.
    """
    if summary.keys() != _SUMMARY_KEYS:
        raise ConfigurationError(f"summary record lacks {sorted(_SUMMARY_KEYS - summary.keys())}, "
                                 f"has unknown keys {sorted(summary.keys() - _SUMMARY_KEYS)}")
    for name, check in _SUMMARY.items():
        if check is not None and not check[1](summary[name]):
            raise ConfigurationError(f"summary {name}: expected {check[0]}, got {summary[name]!r}")
    mode, tau = ControllerMode(summary["mode"]), summary["tau"]
    sv, verifier_only = mode.is_sv, mode is ControllerMode.VERIFIER_ONLY
    if not (type(tau) is float and 0.0 < tau < 1.0 if sv else tau is None):
        raise ConfigurationError(f"summary tau: expected {'a float in (0, 1)' if sv else 'null'} "
                                 f"in mode {mode.value}, got {tau!r}")
    decisions, steps = [r for r in records if r["type"] == "decision"], 0
    for n, r in enumerate(records):
        if r["step"] != steps:
            raise ConfigurationError(f"record {n} of the episode has step {r['step']}, not {steps}")
        steps += r["type"] == "step"
    broken = [r["step"] for r in decisions if not sv or r["accept"] is not (r["score"] <= tau)]
    if broken:
        raise ConfigurationError(f"decision records at steps {broken} break the rule "
                                 f"accept == (score <= tau) in mode {mode.value}")
    key = tuple(repr(summary[k]) for k in _LATENCY)
    if (latency := latencies.get(key)) is None:
        latency = latencies[key] = LatencyModel(**{k: summary[k] for k in _LATENCY})
    trace = EpisodeTrace(latency=latency, records=records, **{k: summary[k] for k in _SUMMARY})
    checks = {"executed_steps": steps,
              "verifier_calls": len(decisions) if sv else steps - 1 if verifier_only else 0,
              "replans": len(trace.steps_before_replan),
              "simulated_inference_time": trace.simulated_inference_time}
    for name, expected in checks.items():
        if summary[name] != expected:
            raise ConfigurationError(f"summary {name} is {summary[name]!r}, expected {expected!r}")
    low, high = (1, 1) if verifier_only else (-(-steps // trace.chunk_size), steps)
    if not low <= (heavy := trace.heavy_calls) <= high:
        raise ConfigurationError(f"summary heavy_calls is {heavy}, expected {low} to {high}")
    return trace


#: ``json.loads`` of a text line, without its per-call argument handling, and
#: json's C scanner, which parses the one value at an offset of a text.
_decoder = json.JSONDecoder()
_decode, _scan = _decoder.decode, make_scanner(_decoder)


def read_traces(path):
    """Traces from a file written by ``write_traces``. Each line is parsed
    once: in place in the file's text when its value ends at the line's
    newline, as the writer writes it, else by ``_decode`` of the line alone,
    which accepts and rejects what ``json.loads`` does. A step or decision
    record must have the writer's keys and value types (``_RECORDS``), and a
    summary record closes its episode (``_closed_episode``). A damaged or
    empty file, a last line without its newline, or a record of another type
    raises ConfigurationError naming the file (and the line)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not text
        raise ConfigurationError(f"{path}: cannot read: {getattr(exc, 'strerror', exc)}") from exc
    text = "".join(lines)
    traces, records, latencies, end = [], [], {}, 0
    for number, line in enumerate(lines, 1):
        start, end = end, end + len(line)
        try:
            try:
                record, stop = _scan(text, start)
            except (StopIteration, ValueError):  # no value at the line's start
                stop = None
            if stop != end - line.endswith("\n"):  # not one value that fills the line
                record = _decode(line)
            kind = record.get("type")
            if kind == "summary":
                traces.append(_closed_episode(record, records, latencies))
                records = []
                continue
            if not (type(kind) is str and kind in _RECORDS):
                raise ConfigurationError(f"unknown record type {kind!r}")
            if not _RECORDS[kind][1](record):
                raise ConfigurationError(
                    f"{kind} record lacks the keys or value types its writer takes: {record!r}")
            records.append(record)
        except (ValueError, AttributeError, TypeError) as exc:  # not an object; wrong type
            raise ConfigurationError(f"{path}:{number}: {exc}") from exc
    if records:
        raise ConfigurationError(f"{path}:{number}: trailing records without a summary line")
    if not traces:
        raise ConfigurationError(f"{path}: holds no traces")
    if not text.endswith("\n"):  # written back, the last line would gain one
        raise ConfigurationError(f"{path}:{number}: the last line lacks its newline")
    return traces


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def reference_batch(cfg: ExperimentConfig, disturbance_level: str | None = None):
    """Open-loop baseline batch; without a level it runs under the configured
    disturbance, explicit overrides included."""
    return run_batch(cfg, mode=cfg.reference.mode, chunk_size=cfg.reference.chunk_size,
                     disturbance_level=disturbance_level)


def _one_step(mode: ControllerMode, k: int) -> bool:
    """A chunk of one action has no step to verify, so at K=1 every mode but
    verifier-only runs the same episodes; only the mode and tau labels differ."""
    return k == 1 and mode is not ControllerMode.VERIFIER_ONLY


def _relabelled(traces, mode: str, tau):
    """Copies of ``traces`` labelled with another mode and tau, each with its
    own lists; the records themselves are shared, and never changed."""
    return [replace(t, mode=mode, tau=tau, records=list(t.records),
                    steps_before_replan=list(t.steps_before_replan),
                    completed_chunk_lengths=list(t.completed_chunk_lengths))
            for t in traces]


def run_sweep(cfg: ExperimentConfig):
    """Cartesian product of sweep axes; returns (rows, cells, references).

    cells maps cell-name -> traces; references maps disturbance level -> the
    reference-baseline traces used for that level's speed-up column. Each
    level runs its K=1 batch (see ``_one_step``) once, the reference included:
    the other cells it serves get relabelled copies.
    """
    verifier = None
    if any(ControllerMode(m).needs_verifier for m in cfg.sweep.modes):
        verifier = build_verifier(cfg)
    rows, cells, references = [], {}, {}
    for level in cfg.sweep.disturbance_levels:
        references[level] = reference_batch(cfg, level)
        one_step = (references[level] if _one_step(ControllerMode(cfg.reference.mode),
                                                    cfg.reference.chunk_size) else None)
        for mode in cfg.sweep.modes:
            mode_e = ControllerMode(mode)
            for k in cfg.sweep.chunk_sizes:
                taus = cfg.sweep.taus if mode_e.is_sv else (None,)
                for tau in taus:
                    if one_step is not None and _one_step(mode_e, k):
                        traces = _relabelled(one_step, mode, tau)
                    else:
                        traces = run_batch(cfg, mode=mode, chunk_size=k, tau=tau,
                                           disturbance_level=level, verifier=verifier)
                        if _one_step(mode_e, k):
                            one_step = traces
                    name = f"{mode}_K{k}" + (f"_tau{tau}" if tau is not None else "") \
                        + f"_{level}"
                    cells[name] = traces
                    rows.append(aggregate(traces, references[level],
                                          label={"disturbance": level}))
    return rows, cells, references
