"""Reference LSTM passes: the per-step `forward`/`backward` that cavlab.rnn vectorised.

Every operation runs inside the loop over time, one step at a time.
`cavlab.rnn.forward` must reproduce this forward's outputs and caches bit for
bit. `cavlab.rnn.backward` sums each weight gradient over time in one gemm, so
its gradients need only equal these per-step sums to rounding: within 1e-13 of
the largest reference entry of each gradient.
"""

from __future__ import annotations

import numpy as np

from cavlab.rnn import ForwardCache, SeqModel


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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
