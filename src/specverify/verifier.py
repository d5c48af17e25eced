"""Lightweight verifier: encode the observation, fuse with the planning
context, and predict a closed-loop reference action.

The observation encoder is a frozen random-feature map (affine + tanh) and is
never touched by training; only the fusion layer and the prediction head are
trainable. Training minimizes mean L1 loss against expert actions with plain
mini-batch gradient descent (subgradient 0 at ties).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import ActionSpace, ConfigurationError
from .env import EpisodeConfig, ToyEnv, expert_action

PARAMS_FORMAT_VERSION = 1

#: Which chunks of a collection episode give training samples.
BOUNDARIES = ("all", "first")


@dataclass(frozen=True, eq=False)
class ObservationEncoder:
    """Frozen affine-plus-tanh map from observation vectors to visual features."""

    weights: np.ndarray
    bias: np.ndarray

    #: Shifted sharp-ramp bank: per input coordinate, one tanh ramp centered at
    #: each shift. Pairs of these act as box-indicator building blocks, letting
    #: the trainable layer isolate small neighborhoods (e.g. "offset near zero")
    #: that smooth random features cannot carve out.
    RAMP_SHIFTS = (-0.12, -0.05, 0.05, 0.12)
    RAMP_SCALE = 40.0

    @classmethod
    def create(cls, obs_dim: int, width: int, seed: int = 0) -> "ObservationEncoder":
        """Frozen feature bank: a scaled-identity block keeping a near-linear
        copy of the observation, a sharp shifted-ramp block per coordinate, and
        random tanh features filling the remaining rows."""
        n_ramp = obs_dim * len(cls.RAMP_SHIFTS)
        if width < obs_dim + n_ramp:
            raise ConfigurationError(
                f"encoder width must be >= {obs_dim + n_ramp} for obs dim {obs_dim}")
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(obs_dim), size=(width, obs_dim))
        b = rng.normal(0.0, 0.1, size=width)
        w[:obs_dim] = 0.5 * np.eye(obs_dim)
        b[:obs_dim] = 0.0
        row = obs_dim
        for i in range(obs_dim):
            for shift in cls.RAMP_SHIFTS:
                w[row] = 0.0
                w[row, i] = cls.RAMP_SCALE
                b[row] = -cls.RAMP_SCALE * shift
                row += 1
        return cls(weights=w, bias=b)

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.weights.shape[1]

    def encode_batch(self, obs: np.ndarray) -> np.ndarray:
        """Features of one observation vector, or of each row (last axis) of
        an array of them."""
        return np.tanh(obs @ self.weights.T + self.bias)


@dataclass(eq=False)
class VerifierParams:
    """Trainable parameters: fusion layer and prediction head."""

    w_fuse: np.ndarray  # (hidden, visual_width + context_width)
    b_fuse: np.ndarray  # (hidden,)
    w_head: np.ndarray  # (action_dim, hidden)
    b_head: np.ndarray  # (action_dim,)

    @classmethod
    def create(cls, visual_width: int, context_width: int, hidden_width: int,
               action_dim: int, seed: int = 1) -> "VerifierParams":
        rng = np.random.default_rng(seed)
        in_w = visual_width + context_width
        return cls(
            w_fuse=rng.normal(0.0, 1.0 / np.sqrt(in_w), size=(hidden_width, in_w)),
            b_fuse=np.zeros(hidden_width),
            w_head=rng.normal(0.0, 1.0 / np.sqrt(hidden_width), size=(action_dim, hidden_width)),
            b_head=np.zeros(action_dim),
        )

    @property
    def fused_width(self) -> int:
        return self.w_fuse.shape[0]

    @property
    def input_width(self) -> int:
        return self.w_fuse.shape[1]

    @property
    def action_dim(self) -> int:
        return self.w_head.shape[0]

    def copy(self) -> "VerifierParams":
        return VerifierParams(self.w_fuse.copy(), self.b_fuse.copy(),
                              self.w_head.copy(), self.b_head.copy())


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerifierSample:
    observation: np.ndarray
    context: np.ndarray
    target: np.ndarray  # expert action at the true state


@dataclass(eq=False)
class TrainReport:
    losses: list  # full-dataset mean L1 loss before training, then per epoch
    params: VerifierParams


def _as_matrices(samples):
    obs = np.stack([s.observation for s in samples])
    ctx = np.stack([s.context for s in samples])
    tgt = np.stack([s.target for s in samples])
    return obs, ctx, tgt


def _fused(params: VerifierParams, x: np.ndarray, out=None) -> np.ndarray:
    """Fusion layer of one fused (visual, context) input, or of each row of a
    matrix of them (into ``out`` if given)."""
    z = np.matmul(x, params.w_fuse.T, out=out)
    z += params.b_fuse
    return np.tanh(z, out=z)


def _forward(params: VerifierParams, x: np.ndarray, tgt: np.ndarray, out=None):
    """Hidden layer (into ``out`` if given), prediction error and mean L1 loss."""
    z = _fused(params, x, out)
    diff = z @ params.w_head.T + params.b_head - tgt
    return z, diff, float(np.abs(diff).sum() / x.shape[0])


def loss_and_grads(params: VerifierParams, x: np.ndarray, tgt: np.ndarray):
    """Mean per-sample L1 loss and analytic gradients (tie subgradient 0)."""
    z, diff, loss = _forward(params, x, tgt)
    g = np.sign(diff) / x.shape[0]
    d_w_head = g.T @ z
    d_b_head = g.sum(axis=0)
    dz = g @ params.w_head
    dpre = dz * (1.0 - z * z)
    d_w_fuse = dpre.T @ x
    d_b_fuse = dpre.sum(axis=0)
    grads = VerifierParams(d_w_fuse, d_b_fuse, d_w_head, d_b_head)
    return loss, grads


def mean_l1_loss(params: VerifierParams, x: np.ndarray, tgt: np.ndarray,
                 out: np.ndarray | None = None) -> float:
    """Forward-only mean L1 loss; ``out`` is a reusable (n, hidden) buffer."""
    return _forward(params, x, tgt, out)[2]


def train_verifier(samples, encoder: ObservationEncoder, *, epochs: int = 150,
                   learning_rate: float = 0.05, batch_size: int = 64,
                   hidden_width: int = 64, seed: int = 1,
                   init: VerifierParams | None = None) -> TrainReport:
    """Mini-batch gradient descent on the mean L1 objective.

    The read-only encoder runs once; mini-batches are rows of the fused input.
    Returns the loss trajectory (entry 0 = loss before any update) and the
    trained parameters.
    """
    if not samples:
        raise ConfigurationError("training requires a nonempty sample list")
    obs, ctx, tgt = _as_matrices(samples)
    x = np.concatenate([encoder.encode_batch(obs), ctx], axis=1)
    params = (init.copy() if init is not None else
              VerifierParams.create(encoder.width, ctx.shape[1], hidden_width,
                                    tgt.shape[1], seed=seed))
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    hidden = np.empty((n, params.fused_width))
    losses = [mean_l1_loss(params, x, tgt, hidden)]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = loss_and_grads(params, x[idx], tgt[idx])
            params.w_fuse -= learning_rate * grads.w_fuse
            params.b_fuse -= learning_rate * grads.b_fuse
            params.w_head -= learning_rate * grads.w_head
            params.b_head -= learning_rate * grads.b_head
        losses.append(mean_l1_loss(params, x, tgt, hidden))
    return TrainReport(losses=losses, params=params)


def build_training_set(config: EpisodeConfig, planner, episodes: int, seed: int,
                       boundaries: str = "all"):
    """Collect (observation, context, expert target) triples from open-loop runs.

    Chunks execute fully open-loop under the configured disturbances; at each
    within-chunk step t in 1..K-1 the pre-step observation is paired with the
    chunk's context and the expert action at the true current state. With
    boundaries="first" only each episode's first chunk contributes samples.
    """
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    if boundaries not in BOUNDARIES:
        raise ConfigurationError(f"boundaries must be 'all' or 'first', got {boundaries!r}")
    geom = config.geometry
    samples = []
    for ep in range(episodes):
        env = ToyEnv(config, seed=seed + ep)
        obs = env.reset()
        while env.state.step < config.horizon and not env.success():
            out = planner.plan(obs, env.state.goal_pos,
                               max_len=config.horizon - env.state.step)
            for i, action in enumerate(out.chunk):
                if env.success():
                    break
                if i >= 1:
                    samples.append(VerifierSample(observation=obs, context=out.context,
                                                  target=np.array(expert_action(env.state, geom))))
                obs = env.step(action)
            if boundaries == "first":
                break
    return samples


# ---------------------------------------------------------------------------
# Inference-time policies handed to the controller
# ---------------------------------------------------------------------------


class TrainedVerifier:
    """Bundles the frozen encoder and trained parameters for episode runs."""

    def __init__(self, encoder: ObservationEncoder, params: VerifierParams,
                 space: ActionSpace):
        self.encoder = encoder
        self.params = params
        self.space = space

    def reference(self, obs: np.ndarray, context: np.ndarray, true_state=None,
                  zero_context: bool = False, zero_observation: bool = False) -> np.ndarray:
        """Head of the fusion layer, clamped into the action space, for one
        observation and context or for each matching row of them; widths were
        checked where the parameters entered (``load_verifier`` and the
        harness's ``build_verifier``).

        Rows are stacked as (n, 1, width), so each layer is n matrix-vector
        products: a row gets the same bits as a one-vector call, whatever the
        batch size, where one matrix product would round differently.
        """
        rows = obs.reshape(-1, 1, obs.shape[-1])
        context = context.reshape(rows.shape[0], 1, -1)
        visual = (np.zeros((rows.shape[0], 1, self.encoder.width)) if zero_observation
                  else self.encoder.encode_batch(rows))
        if zero_context:
            context = np.zeros_like(context)
        fused = _fused(self.params, np.concatenate([visual, context], axis=2))
        ref = self.space.clamp(fused @ self.params.w_head.T + self.params.b_head)
        return ref.reshape(obs.shape[:-1] + (-1,))


class OracleVerifier:
    """Reference = expert action at the true state; isolates mechanism from learning."""

    def __init__(self, geometry):
        self.geom = geometry

    def reference(self, obs, context, true_state=None, **_ignored) -> np.ndarray:
        """One row per state of the sequence ``true_state``: its expert action."""
        if true_state is None:
            raise ConfigurationError("oracle verifier needs the true environment states")
        return np.array([expert_action(state, self.geom) for state in true_state])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_verifier(path, encoder: ObservationEncoder, params: VerifierParams) -> None:
    """Write encoder + params to a versioned JSON file (exact float round-trip)."""
    payload = {
        "version": PARAMS_FORMAT_VERSION,
        "obs_dim": encoder.obs_dim,
        "visual_width": encoder.width,
        "context_width": params.input_width - encoder.width,
        "hidden_width": params.fused_width,
        "action_dim": params.action_dim,
        "encoder_weights": encoder.weights.tolist(),
        "encoder_bias": encoder.bias.tolist(),
        "w_fuse": params.w_fuse.tolist(),
        "b_fuse": params.b_fuse.tolist(),
        "w_head": params.w_head.tolist(),
        "b_head": params.b_head.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_verifier(path):
    """Read encoder + params, checking every array's shape against the header
    and every value for finiteness; a bad file raises ConfigurationError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read verifier file {path}: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != PARAMS_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported verifier file version {version!r}")
    header = [payload.get(k) for k in ("obs_dim", "visual_width", "context_width",
                                       "hidden_width", "action_dim")]
    if not all(type(v) is int and v > 0 for v in header):
        raise ConfigurationError(f"{path}: header widths must be positive integers, got {header}")
    obs_dim, visual, context, hidden, action = header
    shapes = {"encoder_weights": (visual, obs_dim), "encoder_bias": (visual,),
              "w_fuse": (hidden, visual + context), "b_fuse": (hidden,),
              "w_head": (action, hidden), "b_head": (action,)}
    arrays = {}
    for key, shape in shapes.items():
        try:
            arr = np.asarray(payload[key], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: {key} is not a numeric array: {exc}") from exc
        if arr.shape != shape:
            raise ConfigurationError(f"{path}: {key} has shape {arr.shape}, header says {shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError(f"{path}: {key} has non-finite entries")
        arrays[key] = arr
    encoder = ObservationEncoder(weights=arrays.pop("encoder_weights"),
                                 bias=arrays.pop("encoder_bias"))
    return encoder, VerifierParams(**arrays)
