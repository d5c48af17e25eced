"""Command-line entry point: train / run / sweep / report subcommands.

Flags mirror config fields and override them; SPECVERIFY_OUTPUT sets the
default output directory root. Exit codes: 0 success, 2 configuration error,
1 runtime error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .core import ConfigurationError, ContractViolation
from .harness import (ExperimentConfig, aggregate, build_verifier, config_from_dict,
                      load_config, read_traces, reference_batch, rows_to_csv,
                      run_batch, run_sweep, save_config, train_from_config,
                      write_traces)
from .verifier import save_verifier


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML experiment config (defaults apply if omitted)")
    p.add_argument("--output-dir", help="output root (default: config value or "
                                        "$SPECVERIFY_OUTPUT)")
    p.add_argument("--episodes", type=int, help="override batch.episodes")
    p.add_argument("--base-seed", type=int, help="override batch.base_seed")
    p.add_argument("--mode", help="override controller.mode")
    p.add_argument("--tau", type=float, help="override controller.tau")
    p.add_argument("--chunk-size", type=int, help="override planner.chunk_size")
    p.add_argument("--disturbance", help="override disturbance level (off|moderate)")
    p.add_argument("--params", help="override verifier.params_path")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else config_from_dict({})
    if args.episodes is not None:
        cfg = replace(cfg, batch=replace(cfg.batch, episodes=args.episodes))
    if args.base_seed is not None:
        cfg = replace(cfg, batch=replace(cfg.batch, base_seed=args.base_seed))
    if args.mode is not None:
        cfg = replace(cfg, controller=replace(cfg.controller, mode=args.mode))
    if args.tau is not None:
        cfg = replace(cfg, controller=replace(cfg.controller, tau=args.tau))
    if args.chunk_size is not None:
        cfg = replace(cfg, planner=replace(cfg.planner, chunk_size=args.chunk_size))
    if args.params is not None:
        cfg = replace(cfg, verifier=replace(cfg.verifier, params_path=args.params))
    if args.disturbance is not None:
        from .env import DisturbanceConfig
        cfg = replace(cfg, env=replace(
            cfg.env, disturbance=DisturbanceConfig.from_level(args.disturbance),
            disturbance_level=args.disturbance))
    out = args.output_dir or os.environ.get("SPECVERIFY_OUTPUT") or cfg.output_dir
    return replace(cfg, output_dir=out)


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
    verifier = None
    from .controller import ControllerMode
    if ControllerMode(cfg.controller.mode).needs_verifier:
        verifier = build_verifier(cfg)
    traces = run_batch(cfg, verifier=verifier)
    level = cfg.env.disturbance_level
    reference = reference_batch(cfg)
    write_traces(out / "traces.jsonl", traces)
    write_traces(out / "reference_traces.jsonl", reference)
    row = aggregate(traces, reference, label={
        "mode": cfg.controller.mode, "chunk_size": cfg.planner.chunk_size,
        "tau": cfg.controller.tau, "disturbance": level or "custom"})
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
        else:
            cells[path.stem] = read_traces(path)
    rows = []
    for name, traces in cells.items():
        level = name.rsplit("_", 1)[-1]
        if level not in references:
            raise ConfigurationError(f"no reference traces for cell {name}")
        first = traces[0]
        rows.append(aggregate(traces, references[level], label={
            "mode": first.mode, "chunk_size": first.chunk_size,
            "tau": first.tau, "disturbance": level}))
    print(rows_to_csv(rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specverify",
        description="Speculative-verification control experiments: macro-planner "
                    "chunks, lightweight verification, deviation-triggered replanning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="collect a dataset, train the verifier, save params")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("run", help="run one configuration and write traces + summary")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run the configured (mode, K, tau, disturbance) grid")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

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
