"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Exact formula and mechanism checks run at tight tolerances; statistical trend
checks run on seeded episode batches large enough for the margins tested.
Criterion 2's lower cost bound is the sharp one implied by the execution loop:
each chunk's first action executes unverified, so a fully executed K-chunk
costs (t_heavy + (K-1) t_verify)/K per step, i.e. the nominal lower bound
minus t_verify/K. The nominal bound itself assumes a verifier call on every
step.
"""
from dataclasses import replace

import numpy as np
import pytest

from specverify.controller import ControllerConfig, LatencyModel, decide, run_episodes
from specverify.core import ActionSpace
from specverify.env import (GRIPPER_HOLDING, EnvState, EpisodeConfig, Geometry,
                            ToyEnv)
from specverify.harness import aggregate, config_from_dict, run_batch
from specverify.planner import NominalRolloutPlanner
from specverify.verifier import (ObservationEncoder, OracleVerifier,
                                 VerifierParams, build_training_set,
                                 loss_and_grads, train_verifier)

from helpers import cost_bounds, flat, with_flat


def report(number: int, description: str, passed: bool):
    verdict = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number}] {verdict}: {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def trend_batches(moderate_config, trained_verifier):
    """Seeded 200-episode batches shared by the trend criteria (7 and 8)."""
    cfg = moderate_config
    budget = replace(cfg, controller=replace(cfg.controller, max_replans=8))
    batches = {
        "sv": run_batch(cfg, mode="sv", verifier=trained_verifier),
        "open_loop": run_batch(cfg, mode="open-loop"),
        "closed_loop": run_batch(cfg, mode="sv", chunk_size=1,
                                 verifier=trained_verifier),
        "sv_budget": run_batch(budget, mode="sv", verifier=trained_verifier),
        "verifier_only": run_batch(budget, mode="verifier-only",
                                   verifier=trained_verifier),
        "no_context": run_batch(budget, mode="sv-without-context",
                                verifier=trained_verifier),
        "no_observation": run_batch(budget, mode="sv-without-observation",
                                    verifier=trained_verifier),
    }
    return batches


def success_rate(traces):
    return sum(t.success for t in traces) / len(traces)


def mean(xs):
    return sum(xs) / len(xs)


def test_criterion_1_cost_bound_arithmetic():
    lat = LatencyModel(t_heavy=1.373, t_verify=0.081)
    lo, hi = cost_bounds(lat, 64)
    ok = abs(lo - (1.373 / 64 + 0.081)) < 1e-9 and abs(hi - 1.454) < 1e-9
    report(1, "cost bounds at the reported latencies, K=64, within 1e-9", ok)


def test_criterion_2_accounting_identity():
    lat = LatencyModel(t_heavy=1.373, t_verify=0.081)
    threshold_grid = (0.1, 0.2, 0.4)
    chunk_grid = (1, 4, 16)
    levels = ("off", "moderate")
    episodes = 0
    ok = True
    for level in levels:
        cfg = config_from_dict({
            "verifier": {"kind": "oracle"},
            "env": {"disturbance": {"level": level}},
        })
        geom = cfg.env.geometry
        episode_cfg = cfg.env.episode_config()
        for k in chunk_grid:
            planner = NominalRolloutPlanner(geom, chunk_size=k)
            for tau in threshold_grid:
                for i in range(56):
                    env = ToyEnv(episode_cfg, seed=1000 + i)
                    tr = run_episodes([env], planner, OracleVerifier(geom),
                                      ControllerConfig(tau=tau, latency=lat))[0]
                    episodes += 1
                    identity = (tr.simulated_inference_time
                                == tr.heavy_calls * lat.t_heavy
                                + tr.verifier_calls * lat.t_verify)
                    lo, hi = cost_bounds(lat, k)
                    cost = tr.simulated_inference_time / tr.executed_steps
                    member = (lo - lat.t_verify / k - 1e-12 <= cost
                              <= hi + 1e-12)
                    ok = ok and identity and member
    report(2, f"accounting identity and cost-bound membership on {episodes} "
              "sv episodes across the default grid", ok and episodes >= 1000)


def test_criterion_3_decision_rule_properties():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(10_000):
        dim = int(rng.integers(1, 5))
        lower = rng.uniform(-1.0, 0.0, size=dim)
        upper = lower + rng.uniform(0.1, 2.0, size=dim)
        space = ActionSpace(lower=lower, upper=upper)
        planned = space.clamp(rng.uniform(lower - 0.5, upper + 0.5))
        reference = space.clamp(rng.uniform(lower - 0.5, upper + 0.5))
        tau = float(rng.uniform(0.01, 0.99))

        d = decide(planned, reference, space, tau)
        ok = ok and 0.0 <= d.score <= 1.0

        # independent scalar re-evaluation with plain Python arithmetic
        raw = sum(abs(float(p) - float(r))
                  for p, r in zip(planned, reference))
        span = sum(float(u) - float(l) for l, u in zip(lower, upper))
        expected_accept = min(1.0, raw / span) <= tau
        ok = ok and d.accept == expected_accept

        # boundary case: a threshold equal to the score accepts
        if 0.0 < d.score < 1.0:
            ok = ok and decide(planned, reference, space, d.score).accept

        # pointwise monotonicity in tau
        tau2 = float(rng.uniform(tau, 0.999))
        if d.accept:
            ok = ok and decide(planned, reference, space, tau2).accept
    report(3, "10,000 random decision tuples: range, boundary, monotonicity, "
              "independent re-evaluation", ok)


def test_criterion_4_algorithm_oracle_scenario():
    geom = Geometry(success_radius=0.25)
    start = EnvState(agent_pos=[0.0, 1.0], object_pos=[0.0, 1.0],
                     goal_pos=[1.0, 1.0], gripper=GRIPPER_HOLDING, step=0)
    env = ToyEnv(EpisodeConfig(horizon=8, geometry=geom), seed=0,
                 initial_state=start)
    planner = NominalRolloutPlanner(geom, chunk_size=4)
    tr = run_episodes([env], planner, OracleVerifier(geom), ControllerConfig())[0]
    fields = (tr.success, tr.executed_steps, tr.heavy_calls, tr.verifier_calls,
              tr.replans)
    report(4, "hand-simulated 1-D scenario: success at step 4, one plan, "
              "three verifications, no replans", fields == (True, 4, 1, 3, 0))


def test_criterion_5_gradient_check(geometry):
    planner = NominalRolloutPlanner(geometry, chunk_size=16)
    samples = build_training_set(EpisodeConfig(geometry=geometry), planner,
                                 episodes=4, seed=3)
    encoder = ObservationEncoder.create(samples[0][0].size,
                                        64, seed=0)
    obs, ctx, tgt = (np.stack(c) for c in zip(*samples[:16]))
    x = np.concatenate([encoder.encode_batch(obs), ctx], axis=1)
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    while checked < 100:
        params = VerifierParams.create(encoder.width, ctx.shape[1], 32, 3,
                                       seed=int(rng.integers(1 << 30)))
        # skip tie points where the L1 subgradient is ambiguous
        z = np.tanh(x @ params.w_fuse.T + params.b_fuse)
        pred = z @ params.w_head.T + params.b_head
        if np.min(np.abs(pred - tgt)) < 1e-4:
            continue
        _, grads = loss_and_grads(params, x, tgt)
        theta = flat(params)
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        eps = 1e-6
        lp, _ = loss_and_grads(with_flat(params, theta + eps * d), x, tgt)
        lm, _ = loss_and_grads(with_flat(params, theta - eps * d), x, tgt)
        num = (lp - lm) / (2 * eps)
        ana = float(flat(grads) @ d)
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-12))
        checked += 1
    report(5, f"analytic vs central-difference gradients at 100 non-tie "
              f"points, worst relative error {worst:.2e}", worst < 1e-4)


def test_criterion_6_training_efficacy(geometry):
    planner = NominalRolloutPlanner(geometry, chunk_size=16)
    samples = build_training_set(EpisodeConfig(geometry=geometry), planner,
                                 episodes=60, seed=3)
    encoder = ObservationEncoder.create(samples[0][0].size,
                                        64, seed=0)
    enc_before = (encoder.weights.copy(), encoder.bias.copy())
    rep = train_verifier(samples, encoder, epochs=300, learning_rate=0.02,
                         batch_size=64, hidden_width=128, seed=1)
    big_enough = len(samples) >= 500
    converged = rep.losses[-1] < 0.25 * rep.losses[0]

    one = samples[:1]
    r = train_verifier(one, encoder, epochs=800, learning_rate=0.01,
                       hidden_width=64, seed=1)
    r = train_verifier(one, encoder, epochs=800, learning_rate=1e-4,
                       hidden_width=64, seed=1, init=r.params)
    r = train_verifier(one, encoder, epochs=400, learning_rate=1e-6,
                       hidden_width=64, seed=1, init=r.params)
    overfit = min(r.losses) < 1e-3

    frozen = (np.array_equal(encoder.weights, enc_before[0])
              and np.array_equal(encoder.bias, enc_before[1]))
    report(6, f"clean-data loss {rep.losses[0]:.3f} -> {rep.losses[-1]:.3f} "
              f"on {len(samples)} samples; single-sample loss "
              f"{min(r.losses):.2e}; encoder frozen",
           big_enough and converged and overfit and frozen)


def test_criterion_7_efficiency_trend(trend_batches):
    sv = trend_batches["sv"]
    ol = trend_batches["open_loop"]
    cl = trend_batches["closed_loop"]
    sv_succ, ol_succ = success_rate(sv), success_rate(ol)
    sv_heavy = mean([t.heavy_calls for t in sv])
    cl_heavy = mean([t.heavy_calls for t in cl])
    sv_time = mean([t.simulated_inference_time for t in sv])
    ol_time = mean([t.simulated_inference_time for t in ol])
    cl_time = mean([t.simulated_inference_time for t in cl])
    ok = (sv_succ >= ol_succ + 0.15
          and sv_heavy <= 0.5 * cl_heavy
          and ol_time < sv_time < cl_time)
    report(7, f"success {sv_succ:.2f} vs open-loop {ol_succ:.2f}; heavy calls "
              f"{sv_heavy:.2f} vs closed-loop {cl_heavy:.2f}; time "
              f"{ol_time:.1f} < {sv_time:.1f} < {cl_time:.1f}", ok)


def test_criterion_8_ablation_trends(moderate_config, trained_verifier,
                                     trend_batches):
    sv_succ = success_rate(trend_batches["sv_budget"])
    vo_succ = success_rate(trend_batches["verifier_only"])
    nc_succ = success_rate(trend_batches["no_context"])
    no_succ = success_rate(trend_batches["no_observation"])
    a = vo_succ < sv_succ - 0.20
    b = nc_succ < sv_succ and no_succ < sv_succ

    steps = []
    for tau in (0.1, 0.2, 0.4):
        traces = run_batch(moderate_config, mode="sv", tau=tau,
                           verifier=trained_verifier, episodes=100)
        row = aggregate(traces, traces)
        steps.append(row["mean_steps_before_replan"])
    c = steps[0] <= steps[1] <= steps[2]
    report(8, f"verifier-only {vo_succ:.2f} vs sv {sv_succ:.2f}; ablations "
              f"{nc_succ:.2f}/{no_succ:.2f}; steps before replan "
              f"{steps[0]:.2f} <= {steps[1]:.2f} <= {steps[2]:.2f}",
           a and b and c)


def test_criterion_9_determinism(tmp_path):
    from specverify.cli import main

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "verifier:\n  kind: oracle\n"
        "batch:\n  episodes: 10\n"
        "env:\n  disturbance:\n    level: moderate\n")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path),
                     "--output-dir", str(out)]) == 0
        # config_used.yaml embeds the per-run output path; the criterion
        # covers the trace and table artifacts
        names = ("traces.jsonl", "reference_traces.jsonl", "summary.csv")
        outputs.append({n: (out / n).read_bytes() for n in names})
    report(9, "repeated run produces byte-identical trace and table files",
           outputs[0] == outputs[1])
