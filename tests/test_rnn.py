import math

import numpy as np
import pytest

import rnn_reference
from cavlab import rnn
from cavlab.imitation import (EncoderConfig, TrainConfig, encode_features, extract_ego_sequences, parse_fcd,
                              train_policy)
from cavlab.rnn import (
    AdamState,
    ForwardCache,
    LossHistory,
    ModelConfig,
    SeqModel,
    TrainingError,
    adam_step,
    backward,
    fit,
    forward,
    mse_loss,
)
from merge_fixture import merge_log


def zero_model(input_dim=3, output_dim=2, hidden_dim=4):
    cfg = ModelConfig(input_dim=input_dim, output_dim=output_dim, hidden_dim=hidden_dim, seed=0)
    h = hidden_dim
    return SeqModel(
        cfg,
        np.zeros((4 * h, input_dim)),
        np.zeros((4 * h, h)),
        np.zeros(4 * h),
        np.zeros((output_dim, h)),
        np.zeros(output_dim),
    )


class TestForward:
    def test_zero_weights_give_zero_outputs(self):
        model = zero_model()
        ys, _ = forward(model, np.ones((7, 3)))
        assert np.all(ys == 0.0)

    def test_single_step_scalar_closed_form(self):
        # hidden_dim 1, hand-set scalar weights, T=1, h0=c0=0:
        #   z_i = wx_i*x + b_i, etc.; c = sig(z_i)*tanh(z_g); h = sig(z_o)*tanh(c)
        cfg = ModelConfig(input_dim=1, output_dim=1, hidden_dim=1, seed=0)
        wx = np.array([[0.5], [0.25], [-0.3], [0.8]])  # i, f, g, o rows
        model = SeqModel(cfg, wx, np.zeros((4, 1)), np.array([0.1, 1.0, 0.2, -0.1]),
                         np.array([[2.0]]), np.array([0.3]))
        x = 0.7
        ys, _ = forward(model, np.array([[x]]))

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(0.5 * x + 0.1)
        g = math.tanh(-0.3 * x + 0.2)
        o = sig(0.8 * x - 0.1)
        c = i * g
        h = o * math.tanh(c)
        assert ys[0, 0] == pytest.approx(2.0 * h + 0.3, abs=1e-12)

    def test_constant_input_converges_to_fixed_point(self):
        # contractive hand-set weights: h_t approaches a fixed point monotonically
        cfg = ModelConfig(input_dim=1, output_dim=1, hidden_dim=1, seed=0)
        model = SeqModel(cfg, np.array([[0.3], [0.1], [0.5], [0.2]]), np.zeros((4, 1)) + 0.05,
                         np.zeros(4), np.array([[1.0]]), np.zeros(1))
        T = 60
        ys, cache = forward(model, np.ones((T, 1)))
        h = cache.h[:, 0]
        deltas = np.abs(np.diff(h))
        assert deltas[-1] < 1e-6                     # converged
        assert np.all(deltas[1:] <= deltas[:-1] + 1e-12)  # monotone approach

    def test_rejects_bad_shapes(self):
        model = zero_model()
        with pytest.raises(ValueError):
            forward(model, np.ones((5, 4)))
        with pytest.raises(ValueError):
            forward(model, np.ones((0, 3)))

    def test_forward_deterministic(self):
        model = SeqModel.initialize(ModelConfig(input_dim=3, output_dim=2, hidden_dim=5, seed=9))
        xs = np.linspace(0, 1, 15).reshape(5, 3)
        a, _ = forward(model, xs)
        b, _ = forward(model, xs)
        assert np.array_equal(a, b)


class TestInit:
    def test_same_seed_same_weights(self):
        cfg = ModelConfig(input_dim=4, output_dim=2, hidden_dim=8, seed=21)
        a, b = SeqModel.initialize(cfg), SeqModel.initialize(cfg)
        for name in SeqModel.PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bounds_and_forget_bias(self):
        cfg = ModelConfig(input_dim=4, output_dim=2, hidden_dim=16, seed=3)
        m = SeqModel.initialize(cfg)
        k = 1.0 / math.sqrt(16)
        for w in (m.wx, m.wh, m.wy):
            assert np.all(np.abs(w) <= k)
        h = 16
        assert np.all(m.b[h:2 * h] == 1.0)
        assert np.all(m.b[:h] == 0.0) and np.all(m.b[2 * h:] == 0.0)

    def test_param_count_formula(self):
        cfg = ModelConfig(input_dim=9, output_dim=2, hidden_dim=32, seed=0)
        m = SeqModel.initialize(cfg)
        h, d, o = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
        count = 4 * h * (d + h + 1) + o * (h + 1)
        assert count == sum(p.size for p in m.params().values())
        assert count == 4 * 32 * (9 + 32 + 1) + 2 * (32 + 1)


class TestMseLoss:
    def test_equal_is_zero(self):
        x = np.ones((4, 3))
        assert mse_loss(x, x) == 0.0

    def test_constant_offset(self):
        pred = np.zeros((5, 2)) + 2.0
        assert mse_loss(pred, np.zeros((5, 2))) == pytest.approx(4.0, abs=1e-15)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        brute = sum(
            (pred[t, j] - target[t, j]) ** 2 for t in range(6) for j in range(3)
        ) / 18.0
        assert mse_loss(pred, target) == pytest.approx(brute, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones((2, 2)), np.ones((3, 2)))

    def test_permutation_invariance_over_timesteps(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(10, 2))
        target = rng.normal(size=(10, 2))
        perm = rng.permutation(10)
        assert mse_loss(pred, target) == pytest.approx(mse_loss(pred[perm], target[perm]), rel=1e-12)


def finite_difference_check(model, xs, target, step=1e-5):
    ys, cache = forward(model, xs)
    grads = backward(model, cache, target)
    worst = 0.0
    for name, p in model.params().items():
        flat = p.ravel()
        gflat = grads[name].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lp = mse_loss(forward(model, xs)[0], target)
            flat[j] = orig - step
            lm = mse_loss(forward(model, xs)[0], target)
            flat[j] = orig
            fd = (lp - lm) / (2 * step)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst


class TestBackward:
    def test_zero_residual_zero_gradients(self):
        model = SeqModel.initialize(ModelConfig(input_dim=2, output_dim=1, hidden_dim=3, seed=5))
        xs = np.ones((4, 2)) * 0.3
        ys, cache = forward(model, xs)
        grads = backward(model, cache, ys.copy())
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_head_bias_gradient_analytic(self):
        model = SeqModel.initialize(ModelConfig(input_dim=2, output_dim=2, hidden_dim=3, seed=6))
        xs = np.linspace(-1, 1, 8).reshape(4, 2)
        target = np.zeros((4, 2))
        ys, cache = forward(model, xs)
        grads = backward(model, cache, target)
        expected = 2.0 * (ys - target).sum(axis=0) / target.size
        assert np.allclose(grads["by"], expected, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            dims = rng.integers(1, 5, size=3)
            cfg = ModelConfig(input_dim=int(dims[0]), output_dim=int(dims[1]),
                              hidden_dim=int(dims[2]), seed=trial)
            model = SeqModel.initialize(cfg)
            T = int(rng.integers(1, 6))
            xs = rng.normal(size=(T, cfg.input_dim))
            target = rng.normal(size=(T, cfg.output_dim))
            assert finite_difference_check(model, xs, target) < 1e-4

    def test_mismatched_target_shape(self):
        model = zero_model()
        ys, cache = forward(model, np.ones((4, 3)))
        with pytest.raises(ValueError):
            backward(model, cache, np.zeros((5, 2)))


def assert_forward_bit_identical(model, xs):
    """forward gives the bytes of the per-step reference pass: its outputs and every cache array."""
    ys, cache = forward(model, xs)
    ref_ys, ref_cache = rnn_reference.forward(model, xs)
    assert ys.tobytes() == ref_ys.tobytes()
    for name, got, want in zip(ForwardCache._fields, cache, ref_cache):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    return cache


def assert_gradients_close(model, xs, target):
    """backward's gradients are the per-step reference sums to rounding: each within 1e-13 * max|ref|."""
    _, cache = forward(model, xs)
    grads = backward(model, cache, target)
    ref_grads = rnn_reference.backward(model, cache, target)
    for name in SeqModel.PARAM_NAMES:
        assert grads[name].shape == ref_grads[name].shape, name
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-13 * np.abs(ref_grads[name]).max(), name


STEPS = [1, 2, 3, 40, 65, 197, 500]


def random_cases(T):
    """Four random (input, output, hidden) shapes and the A7 shape, each with a model, inputs and targets of T steps."""
    rng = np.random.default_rng(T)
    dims = [tuple(int(v) for v in rng.integers(1, 6, size=3)) for _ in range(4)] + [(9, 2, 32)]
    for trial, (d, o, h) in enumerate(dims):
        model = SeqModel.initialize(ModelConfig(input_dim=d, output_dim=o, hidden_dim=h, seed=trial))
        yield model, rng.normal(size=(T, d)), rng.normal(size=(T, o))


def saturated_case():
    """Inputs of signed zeros and +-50, which drive gates to exactly 0 or 1, with a random target."""
    rng = np.random.default_rng(5)
    model = SeqModel.initialize(ModelConfig(input_dim=3, output_dim=2, hidden_dim=4, seed=1))
    xs = rng.choice([0.0, -0.0, 50.0, -50.0], size=(70, 3))
    xs[:, 0] = -0.0  # each product with this column is a signed zero
    return model, xs, rng.normal(size=(70, 2))


class TestBitIdentity:
    @pytest.mark.parametrize("T", STEPS)
    def test_random_shapes(self, T):
        for model, xs, _ in random_cases(T):
            assert_forward_bit_identical(model, xs)

    def test_signed_zeros_and_saturated_gates(self):
        model, xs, _ = saturated_case()
        cache = assert_forward_bit_identical(model, xs)
        assert np.any(cache.gates == 1.0) and np.any(np.abs(cache.gates[:, 8:12]) == 1.0)
        assert_forward_bit_identical(zero_model(3, 2, 4), xs)


class TestGradientsToRounding:
    @pytest.mark.parametrize("T", STEPS)
    def test_random_shapes(self, T):
        for case in random_cases(T):
            assert_gradients_close(*case)

    def test_signed_zeros_and_saturated_gates(self):
        model, xs, target = saturated_case()
        assert_gradients_close(model, xs, target)
        assert_gradients_close(model, xs, forward(model, xs)[0].copy())  # zero residual: every gradient is 0
        assert_gradients_close(zero_model(3, 2, 4), xs, np.full(target.shape, -0.0))

    def test_train_policy_matches_reference(self, monkeypatch):
        trajectories = extract_ego_sequences(parse_fcd(merge_log(6, seed=31)), "ego*")
        samples = [encode_features(tr, EncoderConfig(), sequence_id=f"s{i}") for i, tr in enumerate(trajectories)]

        def train():
            return train_policy(samples, TrainConfig(hidden=6, epochs=3, patience=None, lr=3e-3, seed=4))

        artifact, history = train()
        monkeypatch.setattr(rnn, "forward", rnn_reference.forward)
        monkeypatch.setattr(rnn, "backward", rnn_reference.backward)
        ref_artifact, ref_history = train()
        assert history.train_mse == pytest.approx(ref_history.train_mse, rel=1e-12, abs=0)
        assert history.val_mse == pytest.approx(ref_history.val_mse, rel=1e-12, abs=0)
        assert (artifact.model_cfg, artifact.encoder) == (ref_artifact.model_cfg, ref_artifact.encoder)
        for name in SeqModel.PARAM_NAMES:
            assert np.allclose(artifact.params[name], ref_artifact.params[name], rtol=0, atol=1e-12), name


class TestAdam:
    def test_zero_gradient_no_change(self):
        model = SeqModel.initialize(ModelConfig(input_dim=2, output_dim=1, hidden_dim=2, seed=0))
        before = {n: p.copy() for n, p in model.params().items()}
        state = AdamState.for_model(model, lr=1e-3)
        zeros = {n: np.zeros_like(p) for n, p in model.params().items()}
        adam_step(model, zeros, state)
        for n, p in model.params().items():
            assert np.array_equal(p, before[n])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        model = zero_model(1, 1, 1)
        state = AdamState.for_model(model, lr=1e-3)
        grads = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads["by"] = np.array([1.0])
        adam_step(model, grads, state)
        assert model.by[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_non_finite_gradient_raises(self):
        model = zero_model(1, 1, 1)
        state = AdamState.for_model(model, lr=1e-3)
        grads = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads["wy"] = np.array([[math.nan]])
        with pytest.raises(TrainingError):
            adam_step(model, grads, state)

    def test_two_runs_bit_identical(self):
        def run():
            cfg = ModelConfig(input_dim=2, output_dim=1, hidden_dim=3, seed=7)
            model = SeqModel.initialize(cfg)
            state = AdamState.for_model(model, lr=1e-2)
            xs = np.linspace(0, 1, 10).reshape(5, 2)
            tg = np.linspace(1, 0, 5).reshape(5, 1)
            for _ in range(20):
                ys, cache = forward(model, xs)
                adam_step(model, backward(model, cache, tg), state)
            return model
        a, b = run(), run()
        for n in SeqModel.PARAM_NAMES:
            assert np.array_equal(getattr(a, n), getattr(b, n))


class TestFit:
    def seq(self, seed=0, T=12):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(T, 3))
        tg = np.stack([xs[:, 0] * 0.8, xs[:, 1] * 0.2 + 0.1], axis=1)
        return xs, tg

    def test_epochs_zero_returns_unchanged(self):
        model = SeqModel.initialize(ModelConfig(input_dim=3, output_dim=2, hidden_dim=4, seed=1))
        before = {n: p.copy() for n, p in model.params().items()}
        out, hist = fit(model, [self.seq()], [], epochs=0, patience=None, lr=1e-3, seed=0)
        assert hist.train_mse == [] and hist.val_mse == []
        for n, p in out.params().items():
            assert np.array_equal(p, before[n])

    def test_single_sequence_memorization(self):
        model = SeqModel.initialize(ModelConfig(input_dim=3, output_dim=2, hidden_dim=8, seed=2))
        out, hist = fit(model, [self.seq()], [], epochs=800, patience=None, lr=1e-2, seed=0)
        assert hist.train_mse[-1] < 1e-3
        assert len(hist.train_mse) == 800

    def test_patience_one_constant_val_stops_after_two_epochs(self):
        model = zero_model()  # zero model never improves: val loss constant
        xs, tg = np.ones((4, 3)), np.zeros((4, 2))
        out, hist = fit(model, [(xs, tg)], [(xs, tg)], epochs=50, patience=1, lr=0.0, seed=0)
        assert len(hist.val_mse) == 2

    def test_empty_train_set_rejected(self):
        model = zero_model()
        with pytest.raises(ValueError):
            fit(model, [], [], epochs=1, patience=None, lr=1e-3, seed=0)

    def test_returns_best_validation_model(self):
        # lr high enough to overshoot eventually: best-val snapshot must win
        model = SeqModel.initialize(ModelConfig(input_dim=3, output_dim=2, hidden_dim=4, seed=4))
        train_seq = [self.seq(1)]
        val_seq = [self.seq(2)]
        out, hist = fit(model, train_seq, val_seq, epochs=40, patience=None, lr=5e-2, seed=1)
        best = min(hist.val_mse)
        got = mse_loss(forward(out, val_seq[0][0])[0], val_seq[0][1])
        assert got == pytest.approx(best, rel=1e-9)

    def test_fit_bit_reproducible(self):
        def run():
            cfg = ModelConfig(input_dim=3, output_dim=2, hidden_dim=4, seed=11)
            model = SeqModel.initialize(cfg)
            out, hist = fit(model, [self.seq(3), self.seq(4)], [self.seq(5)],
                            epochs=15, patience=None, lr=1e-2, seed=6)
            return out, hist
        (a, ha), (b, hb) = run(), run()
        assert ha.train_mse == hb.train_mse and ha.val_mse == hb.val_mse
        for n in SeqModel.PARAM_NAMES:
            assert np.array_equal(getattr(a, n), getattr(b, n))
