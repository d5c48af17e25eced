"""Command-line entry point: train / run / sweep / report subcommands.

Each override flag names one dotted config path and is checked exactly as the
same value in a config file; SPECVERIFY_OUTPUT sets the default output
directory root. Exit codes: 0 success, 2 configuration error, 1 contract
violation.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import ConfigurationError, ContractViolation, named
from .env import DisturbanceConfig
from .harness import (ExperimentConfig, aggregate, load_config, override_config,
                      read_traces, reference_batch, rows_to_csv, run_batch,
                      run_sweep, save_config, train_from_config, write_traces)
from .verifier import save_verifier

#: Flags that override one config value each: (flag, type, dotted config path).
OVERRIDES = (
    ("--episodes", int, "batch.episodes"),
    ("--base-seed", int, "batch.base_seed"),
    ("--mode", str, "controller.mode"),
    ("--tau", float, "controller.tau"),
    ("--chunk-size", int, "planner.chunk_size"),
    ("--disturbance", str, "env.disturbance.level"),
    ("--params", str, "verifier.params_path"),
)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {path: getattr(args, path) for _, _, path in OVERRIDES}
    overrides["output_dir"] = args.output_dir or os.environ.get("SPECVERIFY_OUTPUT") or None
    cfg = override_config(cfg, {k: v for k, v in overrides.items() if v is not None})
    if cfg.verifier.params_path:
        try:
            open(cfg.verifier.params_path).close()
        except OSError as exc:
            raise ConfigurationError(
                f"verifier.params_path: cannot read {cfg.verifier.params_path}: {exc}") from exc
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_train(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    report, encoder = train_from_config(cfg)
    params_path = out / "verifier.json"
    save_verifier(params_path, encoder, report.params)
    print(f"trained on {cfg.verifier.training.episodes} episodes: "
          f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}")
    print(f"saved parameters to {params_path}")
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    traces = run_batch(cfg)
    reference = reference_batch(cfg)
    write_traces(out / "traces.jsonl", traces)
    write_traces(out / "reference_traces.jsonl", reference)
    row = aggregate(traces, reference,
                    label={"disturbance": cfg.env.disturbance_level or "custom"})
    csv_text = rows_to_csv([row])
    (out / "summary.csv").write_text(csv_text)
    save_config(cfg, out / "config_used.yaml")
    print(csv_text, end="")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    rows, cells, references = run_sweep(cfg)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for name, traces in cells.items():
        write_traces(traces_dir / f"{name}.jsonl", traces)
    for level, traces in references.items():
        write_traces(traces_dir / f"reference_{level}.jsonl", traces)
    csv_text = rows_to_csv(rows)
    (out / "sweep.csv").write_text(csv_text)
    save_config(cfg, out / "config_used.yaml")
    print(csv_text, end="")
    return 0


def cmd_report(args) -> int:
    """Recompute the summary table purely from persisted raw trace files."""
    traces_dir = Path(args.traces_dir)
    if not traces_dir.is_dir():
        raise ConfigurationError(f"traces dir not found: {traces_dir}")
    references = {}
    cells = {}
    for path in sorted(traces_dir.glob("*.jsonl")):
        if path.stem.startswith("reference_"):
            references[path.stem.removeprefix("reference_")] = read_traces(path)
        else:  # a cell is named ``..._<level>``
            named(str(path), DisturbanceConfig.from_level, path.stem.rsplit("_", 1)[-1])
            cells[path.stem] = read_traces(path)
    rows = []
    for name, traces in cells.items():
        level = name.rsplit("_", 1)[-1]
        if level not in references:
            raise ConfigurationError(f"no reference traces for cell {name}")
        rows.append(aggregate(traces, references[level], label={"disturbance": level}))
    print(rows_to_csv(rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specverify",
        description="Speculative-verification control experiments: macro-planner "
                    "chunks, lightweight verification, deviation-triggered replanning.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
            ("train", cmd_train, "collect a dataset, train the verifier, save params"),
            ("run", cmd_run, "run one configuration and write traces + summary"),
            ("sweep", cmd_sweep, "run the configured (mode, K, tau, disturbance) grid")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="YAML experiment config (defaults apply if omitted)")
        p.add_argument("--output-dir", help="output root (default: $SPECVERIFY_OUTPUT or "
                                            "the config value)")
        for flag, kind, path in OVERRIDES:
            p.add_argument(flag, type=kind, dest=path, help=f"override {path}")
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="recompute summary tables from raw trace files")
    p.add_argument("--traces-dir", required=True, help="directory of .jsonl trace files")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
