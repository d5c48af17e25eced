"""Experiment driver: config loading, seeded batches, sweeps, aggregation.

Configs are YAML with a version field, read by one walk over the config
dataclasses' fields. Each dataclass checks its values in ``__post_init__``, so
``dataclasses.replace`` runs the same checks; their errors begin with the
field name, and the walk prefixes the section's dotted path. All outputs
(line-delimited trace files, CSV summary tables) are byte-deterministic given
the same config.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import get_args, get_origin, get_type_hints

import yaml

from .controller import (ControllerMode, EpisodeTrace, LatencyModel,
                         ThresholdConfig, run_episodes)
from .core import ConfigurationError
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


def _named(name: str, check, *args, **kwargs):
    """Run an existing check; its error, or an unknown enum value, names ``name``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


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
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.boundaries not in BOUNDARIES:
            raise ConfigurationError(
                f"boundaries: must be one of {BOUNDARIES}, got {self.boundaries!r}")
        if self.disturbance_level is not None:
            _named("disturbance_level", DisturbanceConfig.from_level, self.disturbance_level)


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


@dataclass(frozen=True)
class PlannerConfig:
    kind: str = "nominal-rollout"
    chunk_size: int = 16
    context_width: int = 16

    def __post_init__(self):
        make_planner(self.kind, Geometry(), self.chunk_size, self.context_width)


@dataclass(frozen=True)
class ControllerConfig:
    mode: str = "sv"
    tau: float = 0.2
    max_replans: int = 32
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        _named("mode", ControllerMode, self.mode)
        ThresholdConfig(tau=self.tau, max_replans=self.max_replans)


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
        for k in self.chunk_sizes:
            _named("chunk_sizes", PlannerConfig, chunk_size=k)
        for tau in self.taus:
            _named("taus", ThresholdConfig, tau=tau)
        for level in self.disturbance_levels:
            _named("disturbance_levels", DisturbanceConfig.from_level, level)
        for mode in self.modes:
            _named("modes", ControllerMode, mode)


@dataclass(frozen=True)
class ReferenceConfig:
    """Open-loop baseline used as the denominator of the speed-up metric."""

    mode: str = "open-loop"
    chunk_size: int = 4

    def __post_init__(self):
        _named("mode", ControllerMode, self.mode)
        PlannerConfig(chunk_size=self.chunk_size)


@dataclass(frozen=True)
class EnvSection:
    horizon: int = 40
    geometry: Geometry = field(default_factory=Geometry)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    disturbance_level: str | None = None

    def __post_init__(self):
        self.episode_config()  # checks the horizon
        # A level names the disturbance only while it equals that level's fields.
        if self.disturbance_level is not None and self.disturbance != _named(
                "disturbance_level", DisturbanceConfig.from_level, self.disturbance_level):
            object.__setattr__(self, "disturbance_level", None)

    def episode_config(self, disturbance: DisturbanceConfig | None = None) -> EpisodeConfig:
        return EpisodeConfig(horizon=self.horizon, geometry=self.geometry,
                             disturbance=disturbance or self.disturbance)


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = CONFIG_VERSION
    env: EnvSection = field(default_factory=EnvSection)
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
    accepted = (int, float) if tp is float else tp
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or tp is float and not math.isfinite(value) or tp is int and value < 0):
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
    if isinstance(section, EnvSection):  # these two fields have no key of their own
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
# EnvSection: Geometry's fields sit directly under ``env``, and
# ``env.disturbance.level`` is stored as ``disturbance_level`` and seeds the
# disturbance fields, which the explicit ones then override.
_GEOMETRY_KEYS = frozenset(f.name for f in fields(Geometry))


def _apply_env_spelling(env: EnvSection, data: dict, path: str) -> EnvSection:
    """Apply, and remove from ``data``, the geometry keys and the level."""
    geometry = {k: data.pop(k) for k in _GEOMETRY_KEYS & data.keys()}
    env = replace(env, geometry=_apply(env.geometry, geometry, path))
    disturbance = data.get("disturbance")
    if isinstance(disturbance, dict) and "level" in disturbance:
        data["disturbance"] = {k: v for k, v in disturbance.items() if k != "level"}
        where = f"{path}.disturbance.level"
        level = _typed(str | None, disturbance["level"], where)
        seed = (DisturbanceConfig() if level is None
                else _named(where, DisturbanceConfig.from_level, level))
        env = replace(env, disturbance=seed, disturbance_level=level)
    return env


def config_to_dict(value):
    """The YAML form of a config (or of any value in it), spelled as
    ``config_from_dict`` reads it."""
    if not is_dataclass(value):
        return list(value) if isinstance(value, tuple) else value
    data = {f.name: config_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, EnvSection):
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
    cfg = config_from_dict(data)
    if cfg.verifier.params_path:
        try:
            open(cfg.verifier.params_path).close()
        except OSError as exc:
            raise ConfigurationError(
                f"verifier.params_path: cannot read {cfg.verifier.params_path}: {exc}") from exc
    return cfg


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
        if widths != (OBS_DIM, cfg.planner.context_width, space.dim):
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
    mode = ControllerMode(cfg.controller.mode if mode is None else mode)
    if verifier is None and mode.needs_verifier:
        verifier = build_verifier(cfg)
    disturbance = (cfg.env.disturbance if disturbance_level is None
                   else DisturbanceConfig.from_level(disturbance_level))
    episode_cfg = cfg.env.episode_config(disturbance)
    planner = make_planner(cfg.planner.kind, cfg.env.geometry,
                           cfg.planner.chunk_size if chunk_size is None else chunk_size,
                           cfg.planner.context_width)
    threshold = ThresholdConfig(tau=cfg.controller.tau if tau is None else tau,
                                max_replans=cfg.controller.max_replans)
    n = episodes if episodes is not None else cfg.batch.episodes
    envs = [ToyEnv(episode_cfg, seed=cfg.batch.base_seed + i) for i in range(n)]
    return run_episodes(envs, planner, verifier, mode, threshold, cfg.controller.latency)


# ---------------------------------------------------------------------------
# Aggregation
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


def write_traces(path, traces) -> None:
    with open(path, "w") as fh:
        for tr in traces:
            fh.write(tr.to_jsonl())


def read_traces(path):
    """Traces from a file written by ``write_traces``; each line is parsed once
    and a summary record closes its episode, whose counters are re-checked
    against its records. A damaged or empty file raises ConfigurationError
    naming the file (and the line)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not text
        raise ConfigurationError(f"{path}: cannot read: {getattr(exc, 'strerror', exc)}") from exc
    traces, records = [], []
    for number, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
            if records[-1].get("type") == "summary":
                traces.append(EpisodeTrace.from_records(records))
                records = []
        except (ValueError, AttributeError, TypeError) as exc:  # not an object; wrong type
            raise ConfigurationError(f"{path}:{number}: {exc}") from exc
    if records:
        raise ConfigurationError(f"{path}:{number}: trailing records without a summary line")
    if not traces:
        raise ConfigurationError(f"{path}: holds no traces")
    return traces


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def reference_batch(cfg: ExperimentConfig, disturbance_level: str | None = None):
    """Open-loop baseline batch; without a level it runs under the configured
    disturbance, explicit overrides included."""
    return run_batch(cfg, mode=cfg.reference.mode,
                     chunk_size=cfg.reference.chunk_size,
                     disturbance_level=disturbance_level, verifier=None)


def run_sweep(cfg: ExperimentConfig):
    """Cartesian product of sweep axes; returns (rows, cells, references).

    cells maps cell-name -> traces; references maps disturbance level -> the
    reference-baseline traces used for that level's speed-up column.
    """
    if not (cfg.sweep.chunk_sizes and cfg.sweep.taus
            and cfg.sweep.disturbance_levels and cfg.sweep.modes):
        raise ConfigurationError("sweep axes must be nonempty")
    verifier = None
    if any(ControllerMode(m).needs_verifier for m in cfg.sweep.modes):
        verifier = build_verifier(cfg)
    rows, cells, references = [], {}, {}
    for level in cfg.sweep.disturbance_levels:
        references[level] = reference_batch(cfg, level)
        for mode in cfg.sweep.modes:
            mode_e = ControllerMode(mode)
            for k in cfg.sweep.chunk_sizes:
                taus = cfg.sweep.taus if mode_e.is_sv else (None,)
                for tau in taus:
                    traces = run_batch(cfg, mode=mode, chunk_size=k, tau=tau,
                                       disturbance_level=level,
                                       verifier=verifier if mode_e.needs_verifier else None)
                    name = f"{mode}_K{k}" + (f"_tau{tau}" if tau is not None else "") \
                        + f"_{level}"
                    cells[name] = traces
                    rows.append(aggregate(traces, references[level],
                                          label={"disturbance": level}))
    return rows, cells, references
