"""Experiment driver: config loading, seeded batches, sweeps, aggregation.

Configs are YAML with a version field; every invalid field is reported with
its dotted path. All outputs (line-delimited trace files, CSV summary tables)
are byte-deterministic given the same config.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import yaml

from .controller import (ControllerMode, EpisodeTrace, LatencyModel,
                         ThresholdConfig, run_episode)
from .core import ConfigurationError
from .env import OBS_DIM, DisturbanceConfig, EpisodeConfig, Geometry, ToyEnv
from .planner import make_planner
from .verifier import (ObservationEncoder, OracleVerifier, TrainedVerifier,
                       build_training_set, load_verifier, train_verifier)

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


@dataclass(frozen=True)
class VerifierConfig:
    kind: str = "trained"  # trained | oracle
    encoder_width: int = 64
    hidden_width: int = 128
    encoder_seed: int = 0
    params_path: str | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)


@dataclass(frozen=True)
class PlannerConfig:
    kind: str = "nominal-rollout"
    chunk_size: int = 16
    context_width: int = 16


@dataclass(frozen=True)
class ControllerConfig:
    mode: str = "sv"
    tau: float = 0.2
    max_replans: int = 32
    latency: LatencyModel = field(default_factory=LatencyModel)


@dataclass(frozen=True)
class BatchConfig:
    episodes: int = 200
    base_seed: int = 0


@dataclass(frozen=True)
class SweepConfig:
    chunk_sizes: tuple = (1, 4, 16)
    taus: tuple = (0.1, 0.2, 0.4)
    disturbance_levels: tuple = ("off", "moderate")
    modes: tuple = ("sv",)


@dataclass(frozen=True)
class ReferenceConfig:
    """Open-loop baseline used as the denominator of the speed-up metric."""

    mode: str = "open-loop"
    chunk_size: int = 4


@dataclass(frozen=True)
class EnvSection:
    horizon: int = 40
    geometry: Geometry = field(default_factory=Geometry)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    disturbance_level: str | None = None

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


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _build(section_cls, raw: dict, path: str, converters: dict | None = None):
    converters = converters or {}
    kwargs = {}
    for key, value in raw.items():
        if key in converters:
            value = converters[key](value, f"{path}.{key}")
        kwargs[key] = value
    try:
        return section_cls(**kwargs)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse_disturbance(raw, path: str) -> tuple:
    """Returns (DisturbanceConfig, level_or_None); a named level seeds the
    explicit fields and explicit fields override it."""
    if raw is None:
        return DisturbanceConfig(), None
    raw = dict(raw)
    level = raw.pop("level", None)
    base = DisturbanceConfig.from_level(level) if level else DisturbanceConfig()
    allowed = {"actuation_noise_sigma", "object_drift_prob",
               "object_drift_magnitude", "grasp_failure_prob"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return replace(base, **raw), level
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    data = dict(data)
    version = data.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigurationError(f"version: unsupported config version {version!r}")

    env_raw = dict(data.pop("env", {}) or {})
    disturbance, level = _parse_disturbance(env_raw.pop("disturbance", None),
                                            "env.disturbance")
    geom_keys = {"world_size", "step_bound", "grasp_radius", "success_radius"}
    geom_raw = {k: env_raw.pop(k) for k in list(env_raw) if k in geom_keys}
    geometry = _build(Geometry, geom_raw, "env")
    env_section = _build(EnvSection,
                         {**env_raw, "geometry": geometry, "disturbance": disturbance,
                          "disturbance_level": level},
                         "env")

    planner = _build(PlannerConfig, dict(data.pop("planner", {}) or {}), "planner")

    verifier_raw = dict(data.pop("verifier", {}) or {})
    training = _build(TrainingConfig, dict(verifier_raw.pop("training", {}) or {}),
                      "verifier.training")
    verifier = _build(VerifierConfig, {**verifier_raw, "training": training}, "verifier")
    if verifier.kind not in ("trained", "oracle"):
        raise ConfigurationError(f"verifier.kind: unknown kind {verifier.kind!r}")

    controller_raw = dict(data.pop("controller", {}) or {})
    latency = _build(LatencyModel, dict(controller_raw.pop("latency", {}) or {}),
                     "controller.latency")
    controller = _build(ControllerConfig, {**controller_raw, "latency": latency},
                        "controller")
    try:
        ControllerMode(controller.mode)
    except ValueError as exc:
        raise ConfigurationError(f"controller.mode: {exc}") from exc
    try:
        ThresholdConfig(tau=controller.tau, max_replans=controller.max_replans)
    except ConfigurationError as exc:
        raise ConfigurationError(f"controller: {exc}") from exc

    batch = _build(BatchConfig, dict(data.pop("batch", {}) or {}), "batch")
    sweep_raw = {k: tuple(v) for k, v in (data.pop("sweep", {}) or {}).items()}
    sweep = _build(SweepConfig, sweep_raw, "sweep")
    try:
        for lvl in sweep.disturbance_levels:
            DisturbanceConfig.from_level(lvl)
        for m in sweep.modes:
            ControllerMode(m)
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"sweep: {exc}") from exc
    reference = _build(ReferenceConfig, dict(data.pop("reference", {}) or {}), "reference")
    output_dir = data.pop("output_dir", "results")
    if data:
        raise ConfigurationError(f"unknown top-level keys {sorted(data)}")

    return ExperimentConfig(version=version, env=env_section, planner=planner,
                            verifier=verifier, controller=controller, batch=batch,
                            sweep=sweep, reference=reference, output_dir=output_dir)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "version": cfg.version,
        "env": {
            "horizon": cfg.env.horizon,
            "world_size": cfg.env.geometry.world_size,
            "step_bound": cfg.env.geometry.step_bound,
            "grasp_radius": cfg.env.geometry.grasp_radius,
            "success_radius": cfg.env.geometry.success_radius,
            "disturbance": {
                "level": cfg.env.disturbance_level,
                "actuation_noise_sigma": cfg.env.disturbance.actuation_noise_sigma,
                "object_drift_prob": cfg.env.disturbance.object_drift_prob,
                "object_drift_magnitude": cfg.env.disturbance.object_drift_magnitude,
                "grasp_failure_prob": cfg.env.disturbance.grasp_failure_prob,
            },
        },
        "planner": {"kind": cfg.planner.kind, "chunk_size": cfg.planner.chunk_size,
                    "context_width": cfg.planner.context_width},
        "verifier": {
            "kind": cfg.verifier.kind,
            "encoder_width": cfg.verifier.encoder_width,
            "hidden_width": cfg.verifier.hidden_width,
            "encoder_seed": cfg.verifier.encoder_seed,
            "params_path": cfg.verifier.params_path,
            "training": {
                "episodes": cfg.verifier.training.episodes,
                "epochs": cfg.verifier.training.epochs,
                "learning_rate": cfg.verifier.training.learning_rate,
                "batch_size": cfg.verifier.training.batch_size,
                "seed": cfg.verifier.training.seed,
                "boundaries": cfg.verifier.training.boundaries,
                "disturbance_level": cfg.verifier.training.disturbance_level,
            },
        },
        "controller": {
            "mode": cfg.controller.mode,
            "tau": cfg.controller.tau,
            "max_replans": cfg.controller.max_replans,
            "latency": {"t_heavy": cfg.controller.latency.t_heavy,
                        "t_verify": cfg.controller.latency.t_verify,
                        "t_ctrl": cfg.controller.latency.t_ctrl},
        },
        "batch": {"episodes": cfg.batch.episodes, "base_seed": cfg.batch.base_seed},
        "sweep": {"chunk_sizes": list(cfg.sweep.chunk_sizes),
                  "taus": list(cfg.sweep.taus),
                  "disturbance_levels": list(cfg.sweep.disturbance_levels),
                  "modes": list(cfg.sweep.modes)},
        "reference": {"mode": cfg.reference.mode,
                      "chunk_size": cfg.reference.chunk_size},
        "output_dir": cfg.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from exc
    cfg = config_from_dict(data or {})
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
    """Run the configured episode count with seeds base_seed + index."""
    mode = ControllerMode(mode or cfg.controller.mode)
    if verifier is None and mode.needs_verifier:
        verifier = build_verifier(cfg)
    disturbance = (DisturbanceConfig.from_level(disturbance_level)
                   if disturbance_level else cfg.env.disturbance)
    episode_cfg = cfg.env.episode_config(disturbance)
    planner = make_planner(cfg.planner.kind, cfg.env.geometry,
                           chunk_size or cfg.planner.chunk_size,
                           cfg.planner.context_width)
    threshold = ThresholdConfig(tau=tau or cfg.controller.tau,
                                max_replans=cfg.controller.max_replans)
    n = episodes if episodes is not None else cfg.batch.episodes
    traces = []
    for i in range(n):
        env = ToyEnv(episode_cfg, seed=cfg.batch.base_seed + i)
        traces.append(run_episode(env, planner, verifier, mode, threshold,
                                  cfg.controller.latency))
    return traces


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _mean(xs):
    return sum(xs) / len(xs)


def aggregate(traces, reference_traces, label: dict | None = None) -> dict:
    """One metrics row. steps_before_replan mixes replan events with the
    completed chunk lengths of episodes that never replanned; the events-only
    variant is emitted alongside."""
    if not traces or not reference_traces:
        raise ConfigurationError("aggregate requires nonempty trace sets")
    if len(traces) != len(reference_traces):
        raise ConfigurationError("reference set must share the episode count")
    mixed = []
    events_only = []
    for tr in traces:
        events_only.extend(tr.steps_before_replan)
        mixed.extend(tr.steps_before_replan)
        if not tr.steps_before_replan:
            mixed.extend(tr.completed_chunk_lengths)
    row = {
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
    traces = []
    block = []
    with open(path) as fh:
        for line in fh:
            block.append(line)
            if '"type": "summary"' in line or '"type":"summary"' in line:
                traces.append(EpisodeTrace.from_jsonl("".join(block)))
                block = []
    if block:
        raise ValueError(f"{path}: trailing records without a summary line")
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
                    rows.append(aggregate(traces, references[level], label={
                        "mode": mode, "chunk_size": k, "tau": tau,
                        "disturbance": level}))
    return rows, cells, references
