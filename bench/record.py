"""Record the benchmark's shipped data: the verifier parameter file and golden values.

Run from the repository root: ``python3 bench/record.py``. It trains the
default moderate verifier (``specverify train --disturbance moderate``) into
``bench/data/verifier.json`` and records in ``bench/data/golden.json``:

* the file's sha256, the training's final loss, sample count and the size of
  its collection rollouts;
* per-episode counters (success, heavy calls, verifier calls, executed steps,
  replans) for every episode seed any workload runs, for ``sv_batch`` and
  for each cell of ``sweep_report``.

Re-recording changes what the benchmark checks: do it only when a change to
the simulated behaviour is intended, and say so where the change is recorded.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import run_bench
import workloads
from checks import counters


def episode_counters(traces) -> list:
    return [counters({"success": t.success, "heavy_calls": t.heavy_calls,
                      "verifier_calls": t.verifier_calls,
                      "executed_steps": t.executed_steps, "replans": t.replans})
            for t in traces]


def main() -> None:
    for var in run_bench.BLAS_VARS:
        os.environ[var] = run_bench.BLAS_THREADS
    h = run_bench.import_harness()
    from specverify.planner import make_planner
    from specverify.verifier import build_training_set, save_verifier

    workloads.DATA.mkdir(exist_ok=True)
    cfg = h.config_from_dict(workloads.TRAIN_CONFIG)
    report, encoder = h.train_from_config(cfg)
    save_verifier(workloads.PARAMS, encoder, report.params)
    tcfg = cfg.verifier.training
    samples = len(build_training_set(
        cfg.env.episode_config(), make_planner(cfg.planner.kind, cfg.env.geometry,
                                               cfg.planner.chunk_size),
        tcfg.episodes, tcfg.seed))

    # The collection executes chunks open-loop over training seeds
    # seed..seed+episodes-1, like an open-loop batch at the planner's chunk
    # size; every executed action after a chunk's head is one sample.
    collect = replace(cfg, batch=replace(cfg.batch, episodes=tcfg.episodes,
                                         base_seed=tcfg.seed))
    traces = h.run_batch(collect, mode="open-loop")
    steps = sum(t.executed_steps for t in traces)
    if steps - sum(t.heavy_calls for t in traces) != samples:
        raise SystemExit("collection no longer matches an open-loop batch")
    print(f"trained: final loss {report.losses[-1]!r}, {samples} samples, {steps} steps",
          file=sys.stderr)

    params = str(workloads.PARAMS)
    n_sv = max(workloads.SV_BATCHES * workloads.SV_EPISODES,
               workloads.SLOTS * workloads.EVAL_EPISODES)
    sv = h.run_batch(h.config_from_dict(workloads.sv_config(params, 0, n_sv)))
    n_sweep = workloads.SWEEP_BATCHES * workloads.SWEEP_EPISODES
    _, cells, references = h.run_sweep(
        h.config_from_dict(workloads.sweep_config(params, 0, n_sweep)))
    cells.update({f"reference_{level}": t for level, t in references.items()})

    golden = {
        "verifier": {"sha256": workloads.sha256(workloads.PARAMS),
                     "final_loss": report.losses[-1],
                     "samples": samples,
                     "collection_episodes": tcfg.episodes,
                     "collection_steps": steps},
        "sv_batch": {"counters": episode_counters(sv)},
        "sweep_report": {"cells": {name: episode_counters(t)
                                   for name, t in sorted(cells.items())}},
    }
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
