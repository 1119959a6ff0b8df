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

The loops over time in `forward` and `backward` hold only the recurrence.
`forward` keeps the arithmetic of a plain per-step pass, bit for bit. `backward`
tables the gate derivatives of every step up front, as one (T, 4, h) array, and
sums each weight gradient over time in one gemm, equal to per-step sums to rounding.

The parameters are one float64 vector, `SeqModel.flat`, of which wx, wh, b, wy and by
are views laid out by `param_shapes`: a model copy is one array copy, and Adam keeps
its moments in that layout and updates the whole vector in one elementwise pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config
from .rng import Rng

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's fixed constants (Kingma & Ba)


class TrainingError(RuntimeError):
    """Non-finite gradients or loss during training."""


@dataclass(frozen=True)
class ModelConfig(Config):
    input_dim: int
    output_dim: int
    hidden_dim: int
    seed: int

    def check(self):
        if min(self.input_dim, self.output_dim, self.hidden_dim) < 1:
            raise ValueError("all dimensions must be >= 1")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: each param's shape, in SeqModel.PARAM_NAMES order, their order in SeqModel.flat."""
    h, d, o = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
    return {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "wy": (o, h), "by": (o,)}


def param_views(cfg: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """The params as views of `flat`, a vector of their total size, split and shaped by param_shapes."""
    shapes = param_shapes(cfg)
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1]))}


class SeqModel:
    """LSTM + linear head parameters: one owned float64 vector `flat`, of which wx, wh, b, wy and by are views."""

    PARAM_NAMES = ("wx", "wh", "b", "wy", "by")

    def __init__(self, cfg: ModelConfig, wx, wh, b, wy, by):
        """A model holding a copy of the five arrays; ValueError unless each has its param_shapes shape."""
        arrays = [np.asarray(p, dtype=np.float64) for p in (wx, wh, b, wy, by)]
        for name, array, shape in zip(self.PARAM_NAMES, arrays, param_shapes(cfg).values()):
            if array.shape != shape:
                raise ValueError(f"{name} must be {shape}, got {array.shape}")
        self.cfg = cfg
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.wx, self.wh, self.b, self.wy, self.by = param_views(cfg, self.flat).values()

    @classmethod
    def initialize(cls, cfg: ModelConfig) -> "SeqModel":
        """Uniform(-k, k) weights with k = 1/sqrt(hidden), drawn row by row for wx, wh, wy; forget-gate bias +1."""
        h = cfg.hidden_dim
        rng, k = Rng(cfg.seed), 1.0 / math.sqrt(h)
        model = cls(cfg, *map(np.zeros, param_shapes(cfg).values()))
        for w in (model.wx, model.wh, model.wy):
            w[...] = np.reshape([rng.uniform(-k, k) for _ in range(w.size)], w.shape)
        model.b[h : 2 * h] = 1.0
        return model

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def copy(self) -> "SeqModel":
        return SeqModel(self.cfg, *self.params().values())


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
    xw = np.matmul(model.wx, xs[:, :, None])[:, :, 0]  # wx @ xs[t] for every t, one gemv each
    h = c = np.zeros(hdim)
    for t in range(T):
        z = xw[t] + model.wh @ h + model.b
        gate = gates[t]
        gate[:] = _sigmoid(z)
        gate[2 * hdim : 3 * hdim] = np.tanh(z[2 * hdim : 3 * hdim])
        c = gate[hdim : 2 * hdim] * c + gate[:hdim] * gate[2 * hdim : 3 * hdim]
        h = gate[3 * hdim :] * np.tanh(c)
        c_s[t], h_s[t] = c, h
    ys = np.matmul(model.wy, h_s[:, :, None])[:, :, 0] + model.by
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
    i, f, g, o = cache.gates.reshape(T, 4, hdim).transpose(1, 0, 2)
    prev = np.zeros((2, T, hdim))  # c_{t-1} and h_{t-1}, zero at t = 0
    prev[:, 1:] = cache.c[:-1], cache.h[:-1]
    tc = np.tanh(cache.c)
    dtc = 1.0 - tc * tc
    # the gate table: dc_t/dz for the blocks i, f and g, dh_t/dz for o, so step t's dz is (dc, dc, dc, dh) * G[t]
    G = np.stack((g * i * (1.0 - i), prev[0] * f * (1.0 - f), i * (1.0 - g * g), tc * o * (1.0 - o)), axis=1)
    dh_y = d_y @ model.wy
    DZ = np.empty((T, 4 * hdim))
    dh_next = dc_next = np.zeros(hdim)
    for t in range(T - 1, -1, -1):
        dh = dh_y[t] + dh_next
        dc = dh * o[t] * dtc[t] + dc_next
        dz = DZ[t].reshape(4, hdim)
        dz[:3], dz[3] = dc, dh
        dz *= G[t]
        dh_next = model.wh.T @ dz.reshape(-1)
        dc_next = dc * f[t]
    return {"wx": DZ.T @ cache.xs, "wh": DZ.T @ prev[1], "b": DZ.sum(axis=0),
            "wy": d_y.T @ cache.h, "by": d_y.sum(axis=0)}


@dataclass
class AdamState:
    lr: float
    m: np.ndarray  # first and second moments, laid out as SeqModel.flat
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_model(cls, model: SeqModel, lr: float) -> "AdamState":
        return cls(lr, np.zeros_like(model.flat), np.zeros_like(model.flat))


def adam_step(model: SeqModel, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update of all of model.flat, with bias correction; a non-finite gradient raises first."""
    g = np.concatenate([grads[name].ravel() for name in model.PARAM_NAMES])
    if not np.isfinite(g).all():
        name = next(name for name in model.PARAM_NAMES if not np.isfinite(grads[name]).all())
        raise TrainingError(f"non-finite gradient for {name}")
    state.step += 1
    c1, c2 = 1.0 - BETA1**state.step, 1.0 - BETA2**state.step
    state.m *= BETA1
    state.m += (1.0 - BETA1) * g
    state.v *= BETA2
    state.v += (1.0 - BETA2) * (g * g)
    model.flat -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + EPS)


@dataclass
class LossHistory:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)


def fit(
    model: SeqModel,
    train_set: Sequence[tuple[np.ndarray, np.ndarray]],
    val_set: Sequence[tuple[np.ndarray, np.ndarray]],
    epochs: int,
    patience: Optional[int],
    lr: float,
    seed: int,
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
                raise TrainingError(f"training diverged at epoch {epoch}")
            grads = backward(model, cache, target)
            adam_step(model, grads, state)
            total += loss
        history.train_mse.append(total / len(train_set))

        if val_set:
            val = sum(mse_loss(forward(model, xs)[0], tg) for xs, tg in val_set) / len(val_set)
            if not math.isfinite(val):
                raise TrainingError(f"validation diverged at epoch {epoch}")
            history.val_mse.append(val)
            if val < best_val:
                best_val = val
                best_model = model.copy()
                stale = 0
            else:
                stale += 1
                if patience is not None and stale >= patience:
                    break
    return (model if best_model is None else best_model), history
