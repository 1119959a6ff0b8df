"""Sequence regression network built from scratch: one LSTM layer, linear head.

Cell (gate order i, f, g, o within the stacked 4h dimension):

    z = W x_t + U h_{t-1} + b
    i = sigmoid(z_i)   f = sigmoid(z_f)   g = tanh(z_g)   o = sigmoid(z_o)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)
    y_t = Wy h_t + by

Gradients come from full (non-truncated) backpropagation through time; the
optimizer is Adam with bias correction. Everything runs in float64 so the
finite-difference gradient checks are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config
from .rng import Rng


class TrainingError(RuntimeError):
    """Non-finite gradients or loss during training."""

    def __init__(self, message: str, epoch: Optional[int] = None):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig(Config):
    input_dim: int
    output_dim: int
    hidden_dim: int = 32
    seed: int = 0

    def check(self):
        if min(self.input_dim, self.output_dim, self.hidden_dim) < 1:
            raise ValueError("all dimensions must be >= 1")


class SeqModel:
    """LSTM + linear head parameters. Arrays are float64 and owned."""

    PARAM_NAMES = ("wx", "wh", "b", "wy", "by")

    def __init__(self, cfg: ModelConfig, wx, wh, b, wy, by):
        self.cfg = cfg
        self.wx = wx  # (4h, d)
        self.wh = wh  # (4h, h)
        self.b = b    # (4h,)
        self.wy = wy  # (o, h)
        self.by = by  # (o,)

    @classmethod
    def initialize(cls, cfg: ModelConfig) -> "SeqModel":
        """Uniform(-k, k) weights with k = 1/sqrt(hidden); forget-gate bias +1."""
        h, d, o = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
        rng = Rng(cfg.seed)
        k = 1.0 / math.sqrt(h)

        def mat(rows, cols):
            return np.array(
                [[rng.uniform(-k, k) for _ in range(cols)] for _ in range(rows)], dtype=np.float64
            )

        b = np.zeros(4 * h, dtype=np.float64)
        b[h : 2 * h] = 1.0
        return cls(cfg, mat(4 * h, d), mat(4 * h, h), b, mat(o, h), np.zeros(o, dtype=np.float64))

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def copy(self) -> "SeqModel":
        return SeqModel(self.cfg, *(getattr(self, n).copy() for n in self.PARAM_NAMES))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class ForwardCache(NamedTuple):
    """Per-step activations retained for the backward pass, one row per step."""

    xs: np.ndarray
    gates: np.ndarray  # (T, 4h): i, f, g, o after their nonlinearities
    c: np.ndarray
    h: np.ndarray
    ys: np.ndarray


def forward(model: SeqModel, xs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the recurrence over a (T, input_dim) sequence from zero state."""
    xs = np.asarray(xs, dtype=np.float64)
    hdim = model.cfg.hidden_dim
    if xs.ndim != 2 or xs.shape[1] != model.cfg.input_dim:
        raise ValueError(f"expected (T, {model.cfg.input_dim}) input, got {xs.shape}")
    T = xs.shape[0]
    if T < 1:
        raise ValueError("sequence must have at least one step")

    gates = np.empty((T, 4 * hdim))
    c_s = np.empty((T, hdim))
    h_s = np.empty((T, hdim))
    ys = np.empty((T, model.cfg.output_dim))

    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for t in range(T):
        z = model.wx @ xs[t] + model.wh @ h + model.b
        gate = gates[t]
        gate[:] = _sigmoid(z)
        gate[2 * hdim : 3 * hdim] = np.tanh(z[2 * hdim : 3 * hdim])
        c = gate[hdim : 2 * hdim] * c + gate[:hdim] * gate[2 * hdim : 3 * hdim]
        h = gate[3 * hdim :] * np.tanh(c)
        c_s[t], h_s[t] = c, h
        ys[t] = model.wy @ h + model.by
    return ys, ForwardCache(xs, gates, c_s, h_s, ys)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def backward(model: SeqModel, cache: ForwardCache, target: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of mse_loss(forward(model, xs), target) w.r.t. all parameters."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != cache.ys.shape:
        raise ValueError(f"target shape {target.shape} does not match outputs {cache.ys.shape}")
    T = cache.xs.shape[0]
    hdim = model.cfg.hidden_dim

    d_y = 2.0 * (cache.ys - target) / target.size
    g_wy = d_y.T @ cache.h
    g_by = d_y.sum(axis=0)
    g_wx = np.zeros_like(model.wx)
    g_wh = np.zeros_like(model.wh)
    g_b = np.zeros_like(model.b)

    dh_next = np.zeros(hdim)
    dc_next = np.zeros(hdim)
    dz = np.empty(4 * hdim)
    for t in range(T - 1, -1, -1):
        gate = cache.gates[t]
        i, f, g, o = gate[:hdim], gate[hdim : 2 * hdim], gate[2 * hdim : 3 * hdim], gate[3 * hdim :]
        tc = np.tanh(cache.c[t])
        dh = model.wy.T @ d_y[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        c_prev = cache.c[t - 1] if t > 0 else 0.0
        h_prev = cache.h[t - 1] if t > 0 else np.zeros(hdim)
        dz[:hdim] = dc * g * i * (1.0 - i)
        dz[hdim : 2 * hdim] = dc * c_prev * f * (1.0 - f)
        dz[2 * hdim : 3 * hdim] = dc * i * (1.0 - g * g)
        dz[3 * hdim :] = do * o * (1.0 - o)
        g_wx += np.outer(dz, cache.xs[t])
        g_wh += np.outer(dz, h_prev)
        g_b += dz
        dh_next = model.wh.T @ dz
        dc_next = dc * f
    return {"wx": g_wx, "wh": g_wh, "b": g_b, "wy": g_wy, "by": g_by}


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: SeqModel, lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, p in model.params().items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        return state


def adam_step(model: SeqModel, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update with bias correction."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in model.params().items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


@dataclass
class LossHistory:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)


def fit(
    model: SeqModel,
    train_set: Sequence[tuple[np.ndarray, np.ndarray]],
    val_set: Sequence[tuple[np.ndarray, np.ndarray]],
    epochs: int,
    patience: Optional[int] = None,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[SeqModel, LossHistory]:
    """Full-BPTT training, one Adam step per sequence, seeded shuffling.

    Stops early when validation MSE has not improved for `patience` epochs
    (needs a non-empty val_set); returns the best-validation model, or the
    final model when there is no validation set.
    """
    if not train_set:
        raise ValueError("train set must be non-empty")
    state = AdamState.for_model(model, lr=lr)
    shuffle_rng = Rng(seed)
    history = LossHistory()
    best_val = math.inf
    best_model = None
    stale = 0

    order = list(range(len(train_set)))
    for epoch in range(epochs):
        shuffle_rng.shuffle(order)
        total = 0.0
        for idx in order:
            xs, target = train_set[idx]
            ys, cache = forward(model, xs)
            loss = mse_loss(ys, target)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}", epoch=epoch)
            grads = backward(model, cache, target)
            adam_step(model, grads, state)
            total += loss
        history.train_mse.append(total / len(train_set))

        if val_set:
            val = sum(mse_loss(forward(model, xs)[0], tg) for xs, tg in val_set) / len(val_set)
            if not math.isfinite(val):
                raise TrainingError(f"validation diverged at epoch {epoch}", epoch=epoch)
            history.val_mse.append(val)
            if val < best_val:
                best_val = val
                best_model = model.copy()
                stale = 0
            else:
                stale += 1
                if patience is not None and stale >= patience:
                    break
    if best_model is not None:
        return best_model, history
    return model, history
