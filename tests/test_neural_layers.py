"""Layer mechanics: forward conventions, exact gradients, adjoint identity."""

import copy

import numpy as np
import pytest

from loadsynth.errors import ShapeMismatch
from loadsynth.neural.layers import (
    Conv1d,
    ConvT1d,
    Dense,
    Flatten,
    LeakyReLU,
    ReLU,
    Reshape,
    ScaledTanh,
    Sigmoid,
)
from loadsynth.neural.network import Network, NetworkSpec, init_params
from loadsynth.neural.optim import Adam
from loadsynth.neural.gan import discriminator_spec, generator_spec
from loadsynth.core import LEVEL_SPECS, Level


def bound(layer, rng, std=0.5):
    """A standalone layer with N(0, std) weights and zero biases in flat buffers."""
    w_shape, b_shape = layer.shapes
    params = np.concatenate([rng.normal(0.0, std, w_shape).ravel(), np.zeros(b_shape)])
    layer.bind(params, np.zeros_like(params))
    return layer


def conv_oracle(x, w, b, stride):
    """Index-looping cross-correlation, the slow reference."""
    B, C, L = x.shape
    O, _, K = w.shape
    n = (L - K) // stride + 1
    y = np.zeros((B, O, n))
    for bi in range(B):
        for o in range(O):
            for t in range(n):
                acc = 0.0
                for c in range(C):
                    for k in range(K):
                        acc += x[bi, c, t * stride + k] * w[o, c, k]
                y[bi, o, t] = acc + b[o]
    return y


def convt_oracle(x, w, b, stride):
    """Index-looping scatter for the transpose convolution."""
    B, C, L = x.shape
    _, O, K = w.shape
    n = (L - 1) * stride + K
    y = np.zeros((B, O, n))
    for bi in range(B):
        for c in range(C):
            for t in range(L):
                for o in range(O):
                    for k in range(K):
                        y[bi, o, t * stride + k] += x[bi, c, t] * w[c, o, k]
    return y + b[:, None]


class TestConvForward:
    def test_edge_detector_kernel(self):
        conv = bound(Conv1d(1, 1, 3, 1), np.random.default_rng(0), 0.02)
        conv.w[...] = np.array([[[1.0, 0.0, -1.0]]])
        conv.b[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[-2.0, -2.0]]])

    def test_identity_tap(self):
        conv = bound(Conv1d(1, 1, 3, 1), np.random.default_rng(0), 0.02)
        conv.w[...] = np.array([[[0.0, 1.0, 0.0]]])
        conv.b[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[2.0, 3.0]]])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_against_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        B, C, O = 2, 2, 3
        K = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        L = K + stride * int(rng.integers(1, 6))
        conv = bound(Conv1d(C, O, K, stride), rng)
        conv.b[...] = rng.normal(size=O)
        x = rng.normal(size=(B, C, L))
        np.testing.assert_allclose(
            conv.forward(x), conv_oracle(x, conv.w, conv.b, stride), rtol=1e-12, atol=1e-14
        )

    def test_output_length_formula(self):
        conv = bound(Conv1d(1, 16, 25, 5), np.random.default_rng(0), 0.02)
        out = conv.forward(np.zeros((1, 1, 900)))
        assert out.shape == (1, 16, (900 - 25) // 5 + 1) == (1, 16, 176)

    def test_shape_mismatch(self):
        conv = bound(Conv1d(2, 1, 3, 1), np.random.default_rng(0), 0.02)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 1, 10)))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 2, 2)))


class TestConvTranspose:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_against_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        B, C, O = 2, 3, 2
        K = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        L = int(rng.integers(2, 7))
        layer = bound(ConvT1d(C, O, K, stride), rng)
        layer.b[...] = rng.normal(size=O)
        x = rng.normal(size=(B, C, L))
        np.testing.assert_allclose(
            layer.forward(x), convt_oracle(x, layer.w, layer.b, stride), rtol=1e-12, atol=1e-14
        )

    def test_crop_to_out_length(self):
        rng = np.random.default_rng(2)
        layer = bound(ConvT1d(1, 1, 4, 2, out_length=6), rng)
        x = rng.normal(size=(1, 1, 3))
        raw = convt_oracle(x, layer.w, layer.b, 2)  # raw length (3-1)*2+4 = 8
        np.testing.assert_allclose(layer.forward(x), raw[:, :, :6], rtol=1e-12)

    def test_crop_cannot_extend(self):
        layer = bound(ConvT1d(1, 1, 4, 2, out_length=10), np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((1, 1, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_adjoint_identity(self, seed):
        # <Conv(x), y> == <x, ConvT(y)> with the shared kernel, biases zero
        rng = np.random.default_rng(200 + seed)
        C, O = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        K = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 4))
        n_pos = int(rng.integers(1, 6))
        L = K + stride * (n_pos - 1)  # exact fit
        conv = bound(Conv1d(C, O, K, stride), rng)
        conv.b[...] = 0.0
        convt = bound(ConvT1d(O, C, K, stride), rng)
        convt.w = conv.w.copy()  # same array, reinterpreted (O->C map)
        convt.b = np.zeros(C)
        x = rng.normal(size=(2, C, L))
        y = rng.normal(size=(2, O, n_pos))
        lhs = float(np.sum(conv.forward(x) * y))
        rhs = float(np.sum(x * convt.forward(y)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def finite_difference_check(layer, x, step=1e-5):
    """Central differences on every parameter and input element."""
    rng = np.random.default_rng(987)
    y = layer.forward(x)
    r = rng.normal(size=y.shape)

    def loss():
        return float(np.sum(layer.forward(x) * r))

    layer.forward(x)
    gx = layer.backward(r)
    checks = []
    pairs = [(layer.w, layer.gw), (layer.b, layer.gb)] if layer.shapes else []
    for p, g in pairs:
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + step
            up = loss()
            flat_p[i] = keep - step
            down = loss()
            flat_p[i] = keep
            checks.append((flat_g[i], (up - down) / (2 * step)))
    flat_x = x.ravel()
    flat_gx = gx.ravel()
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + step
        up = loss()
        flat_x[i] = keep - step
        down = loss()
        flat_x[i] = keep
        checks.append((flat_gx[i], (up - down) / (2 * step)))
    analytic = np.array([c[0] for c in checks])
    numeric = np.array([c[1] for c in checks])
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
    return float(rel.max())


class TestGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_dense(self, seed):
        rng = np.random.default_rng(seed)
        layer = bound(Dense(int(rng.integers(1, 6)), int(rng.integers(1, 6))), rng)
        x = rng.normal(size=(3, layer.n_in))
        assert finite_difference_check(layer, x) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_conv1d(self, seed):
        rng = np.random.default_rng(10 + seed)
        K, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        layer = bound(Conv1d(2, 2, K, stride), rng)
        x = rng.normal(size=(2, 2, 8))
        assert finite_difference_check(layer, x) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_convt1d(self, seed):
        rng = np.random.default_rng(20 + seed)
        K, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        out_length = None if seed % 2 else (3 - 1) * stride + K - 1
        layer = bound(ConvT1d(2, 2, K, stride, out_length), rng)
        x = rng.normal(size=(2, 2, 3))
        assert finite_difference_check(layer, x) < 1e-4

    @pytest.mark.parametrize(
        "factory",
        [ReLU, lambda: LeakyReLU(0.2), Sigmoid, lambda: ScaledTanh(1.0, 0.5)],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_activations(self, factory, seed):
        rng = np.random.default_rng(30 + seed)
        layer = factory()
        x = rng.normal(size=(3, 7)) + 0.05  # keep clear of the ReLU kink
        assert finite_difference_check(layer, x) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(40)
        layer = bound(Dense(4, 3), rng)
        x = rng.normal(size=(2, 4))
        layer.forward(x)
        gx = layer.backward(np.zeros((2, 3)))
        assert np.all(gx == 0)
        assert np.all(layer.gw == 0) and np.all(layer.gb == 0)


def build(spec, rng):
    return Network(spec, init_params(spec, rng))


class TestNetwork:
    def test_spec_round_trip(self):
        spec = generator_spec(Level.L2, 100)
        again = NetworkSpec.from_jsonable(spec.to_jsonable())
        assert again == spec

    def test_flat_round_trip(self):
        rng = np.random.default_rng(1)
        net = build(discriminator_spec(Level.L2), rng)
        net2 = Network(discriminator_spec(Level.L2), net.params.copy())
        np.testing.assert_array_equal(net2.params, net.params)
        x = rng.normal(size=(2, 1, 120))
        np.testing.assert_array_equal(net.forward(x), net2.forward(x))

    def test_backward_function(self):
        # Network.backward chains the layer gradients: check the input and
        # every parameter gradient of a small stack against central differences
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            layers=(("dense", 4, 3), ("scaled_tanh", 0.0, 1.0), ("dense", 3, 2))
        )
        net = build(spec, rng)
        x = rng.normal(size=(5, 4))
        gy = rng.normal(size=(5, 2))
        net.forward(x)
        gx = net.backward(gy)
        grads = net.grads.copy()
        assert gx.shape == x.shape
        assert grads.size == (4 * 3 + 3) + (3 * 2 + 2)  # two dense layers, weights + biases

        def loss():
            return float(np.sum(net.forward(x) * gy))

        step = 1e-6
        for values, analytic in [(x, gx), (net.params, grads)]:
            flat, flat_g = values.ravel(), analytic.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up = loss()
                flat[i] = keep - step
                down = loss()
                flat[i] = keep
                assert flat_g[i] == pytest.approx((up - down) / (2 * step), rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize(
        "level,length", [(Level.L1, 900), (Level.L2, 120), (Level.L3, 168)]
    )
    def test_architectures_hit_profile_length(self, level, length):
        label = 6 if level is Level.L3 else 0
        rng = np.random.default_rng(0)
        gen = build(generator_spec(level, 100, label), rng)
        assert gen.forward(np.zeros((2, 100 + label))).shape == (2, length)
        disc = build(discriminator_spec(level, label), rng)
        assert disc.forward(np.zeros((2, 1 + label, length))).shape == (2, 1)

    def test_discriminator_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        net = build(discriminator_spec(Level.L2), rng)
        x = rng.normal(scale=50.0, size=(8, 1, 120))
        p = net.forward(x)
        assert np.all((p > 0) & (p < 1))


# every generator and discriminator spec of levels 1-3, with and without
# labels, with the shape of one input row
ALL_SPECS = {
    f"{kind}-{level.value}-{label}": (spec, row_shape)
    for level in (Level.L1, Level.L2, Level.L3)
    for label in (0, 6)
    for kind, spec, row_shape in (
        ("gen", generator_spec(level, 100, label), (100 + label,)),
        ("disc", discriminator_spec(level, label), (1 + label, LEVEL_SPECS[level].profile_length)),
    )
}


def per_tensor_init(spec, rng):
    """The per-layer initialisation the flat buffer replaced: one N(0, 0.02)
    draw per weight with the layer's own weight shape, then a zero bias."""
    tensors = []
    for kind, *args in spec.layers:
        if kind == "dense":
            w_shape, n_out = (args[0], args[1]), args[1]
        elif kind == "conv1d":
            w_shape, n_out = (args[1], args[0], args[2]), args[1]
        elif kind == "convt1d":
            w_shape, n_out = (args[0], args[1], args[2]), args[1]
        else:
            continue
        tensors += [rng.normal(0.0, 0.02, w_shape), np.zeros(n_out)]
    return tensors


def param_layers(net):
    return [layer for layer in net.layers if layer.shapes]


class TestFlatBuffer:
    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_init_params_matches_per_tensor_draws(self, name):
        spec, _ = ALL_SPECS[name]
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        flat = init_params(spec, rng)
        want = np.concatenate([t.ravel() for t in per_tensor_init(spec, oracle_rng)])
        assert flat.dtype == np.float64
        np.testing.assert_array_equal(flat, want)
        # the stream continues where the per-tensor draws left it
        np.testing.assert_array_equal(rng.standard_normal(4), oracle_rng.standard_normal(4))

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_layer_tensors_are_views_of_the_buffers(self, name):
        spec, row_shape = ALL_SPECS[name]
        net = build(spec, np.random.default_rng(12))
        tensors = per_tensor_init(spec, np.random.default_rng(12))
        layers = param_layers(net)
        assert len(tensors) == 2 * len(layers)
        for layer, w, b in zip(layers, tensors[0::2], tensors[1::2]):
            np.testing.assert_array_equal(layer.w, w)
            np.testing.assert_array_equal(layer.b, b)
            assert np.shares_memory(layer.w, net.params) and np.shares_memory(layer.b, net.params)
            assert np.shares_memory(layer.gw, net.grads) and np.shares_memory(layer.gb, net.grads)
            assert layer.gw.shape == layer.w.shape and layer.gb.shape == layer.b.shape
        # backward writes every layer gradient into the one gradient buffer
        y = net.forward(np.random.default_rng(13).normal(size=(3, *row_shape)))
        net.backward(np.ones_like(y))
        want = np.concatenate([g.ravel() for layer in layers for g in (layer.gw, layer.gb)])
        np.testing.assert_array_equal(net.grads, want)
        assert np.any(net.grads != 0)

    def test_one_adam_step_over_the_buffer_equals_per_tensor_steps(self):
        spec, _ = ALL_SPECS["disc-l2-6"]
        rng = np.random.default_rng(14)
        net = build(spec, rng)
        tensors = [t.copy() for layer in param_layers(net) for t in (layer.w, layer.b)]
        flat_opt = Adam([net.params], lr=1e-3, beta1=0.5, beta2=0.999)
        tensor_opt = Adam(tensors, lr=1e-3, beta1=0.5, beta2=0.999)
        for _ in range(3):
            net.grads[...] = rng.normal(size=net.grads.size)
            grads = [g.copy() for layer in param_layers(net) for g in (layer.gw, layer.gb)]
            flat_opt.step([net.params], [net.grads])
            tensor_opt.step(tensors, grads)
        np.testing.assert_array_equal(net.params, np.concatenate([t.ravel() for t in tensors]))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_size_mismatch_raises(self, delta):
        spec, _ = ALL_SPECS["gen-l2-0"]
        flat = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="network needs"):
            Network(spec, np.zeros(flat.size + delta))

    def test_deep_copy_keeps_one_buffer(self):
        net = build(ALL_SPECS["gen-l3-6"][0], np.random.default_rng(15))
        twin = copy.deepcopy(net)
        assert not np.shares_memory(twin.params, net.params)
        np.testing.assert_array_equal(twin.params, net.params)
        twin.params[0] = 7.0
        assert param_layers(twin)[0].w.flat[0] == 7.0
        assert param_layers(net)[0].w.flat[0] != 7.0


class TestAdam:
    def test_matches_manual_update(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999)
        opt.step([p], [g])
        m = 0.1 * g
        v = 0.001 * g * g
        want = np.array([1.0, -2.0]) - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        np.testing.assert_allclose(p, want, rtol=1e-12)

    def test_two_steps_state(self):
        p = np.array([0.0])
        opt = Adam([p], lr=1.0, beta1=0.5, beta2=0.5)
        opt.step([p], [np.array([1.0])])
        opt.step([p], [np.array([1.0])])
        # both steps should move p by ~lr when gradients are constant
        assert p[0] == pytest.approx(-2.0, abs=1e-6)
