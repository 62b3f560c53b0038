"""Layer mechanics: forward conventions, exact gradients, adjoint identity,
and stateless layers that match the activation-caching ones bit for bit."""

import ast
import copy
import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth.errors import ShapeMismatch
from loadsynth.neural import layers as layers_module
from loadsynth.neural import optim as optim_module
from loadsynth.neural.layers import (
    Conv1d,
    ConvT1d,
    Dense,
    Flatten,
    Layer,
    LeakyReLU,
    ReLU,
    Reshape,
    ScaledTanh,
    Sigmoid,
    _conv_windows,
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
        layer = bound(ConvT1d(C, O, K, stride, (L - 1) * stride + K), rng)
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

    @pytest.mark.parametrize("out_length", [None, 0, -2, 6.0, True, "6"])
    def test_crop_must_be_a_positive_int(self, out_length):
        with pytest.raises(ValueError, match=f"^convt1d output length {re.escape(repr(out_length))} is not"):
            ConvT1d(1, 1, 4, 2, out_length)

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
        convt = bound(ConvT1d(O, C, K, stride, L), rng)
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

    gx = layer.backward(x, r)
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
        out_length = (3 - 1) * stride + K - seed % 2
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
        gx = layer.backward(x, np.zeros((2, 3)))
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
        tape = []
        net.forward(x, tape)
        gx = net.backward(tape, gy)
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


def oracle_generator_spec(level, noise_dim, label_dim=0):
    """The per-level ladder the one-row-per-level table replaced."""
    n_in = noise_dim + label_dim
    if level is Level.L1:
        feat, out_len, k = 225, 900, 4
        final = ("scaled_tanh", 1.0, 0.5)
    elif level is Level.L2:
        feat, out_len, k = 30, 120, 9
        final = ("scaled_tanh", 0.0, 0.5)
    elif level is Level.L3:
        feat, out_len, k = 42, 168, 4
        final = ("scaled_tanh", 1.0, 0.5)
    else:
        raise ValueError(f"no adversarial generator for level {level}")
    return NetworkSpec(
        layers=(
            ("dense", n_in, 128),
            ("relu",),
            ("dense", 128, 256),
            ("relu",),
            ("dense", 256, 32 * feat),
            ("relu",),
            ("reshape", 32, feat),
            ("convt1d", 32, 16, k, 2, 2 * feat),
            ("relu",),
            ("convt1d", 16, 1, k, 2, out_len),
            final,
            ("flatten",),
        )
    )


def oracle_discriminator_spec(level, label_dim=0):
    """The per-level ladder the one-row-per-level table replaced."""
    in_ch = 1 + label_dim
    if level is Level.L1:
        length, k, stride = 900, 25, 5
    elif level is Level.L2:
        length, k, stride = 120, 9, 2
    elif level is Level.L3:
        length, k, stride = 168, 25, 5
    else:
        raise ValueError(f"no discriminator for level {level}")
    conv_out = (length - k) // stride + 1
    return NetworkSpec(
        layers=(
            ("conv1d", in_ch, 16, k, stride),
            ("leaky_relu", 0.2),
            ("flatten",),
            ("dense", 16 * conv_out, 128),
            ("leaky_relu", 0.2),
            ("dense", 128, 1),
            ("sigmoid",),
        )
    )


class TestSpecTable:
    @pytest.mark.parametrize("level", [Level.L1, Level.L2, Level.L3])
    @pytest.mark.parametrize("label_dim", [0, 6])
    @pytest.mark.parametrize("noise_dim", [1, 100])
    def test_equals_the_ladders(self, level, label_dim, noise_dim):
        pairs = (
            (generator_spec(level, noise_dim, label_dim),
             oracle_generator_spec(level, noise_dim, label_dim)),
            (discriminator_spec(level, label_dim), oracle_discriminator_spec(level, label_dim)),
        )
        for got, want in pairs:
            assert got == want
            # the same JSON, so the same bundle bytes: a centre of 1.0 is not written as 1
            assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())

    def test_no_networks_at_level_4(self):
        with pytest.raises(ValueError, match="no adversarial network for level"):
            generator_spec(Level.L4, 100)
        with pytest.raises(ValueError, match="no adversarial network for level"):
            discriminator_spec(Level.L4)


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
        tape = []
        y = net.forward(np.random.default_rng(13).normal(size=(3, *row_shape)), tape)
        net.backward(tape, np.ones_like(y))
        want = np.concatenate([g.ravel() for layer in layers for g in (layer.gw, layer.gb)])
        np.testing.assert_array_equal(net.grads, want)
        assert np.any(net.grads != 0)

    def test_one_adam_step_over_the_buffer_equals_per_tensor_steps(self):
        spec, _ = ALL_SPECS["disc-l2-6"]
        rng = np.random.default_rng(14)
        net = build(spec, rng)
        tensors = [t.copy() for layer in param_layers(net) for t in (layer.w, layer.b)]
        flat_opt = Adam([net.params], lr=1e-3)
        tensor_opt = Adam(tensors, lr=1e-3)
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
        opt = Adam([p], lr=0.1)
        opt.step([p], [g])
        m = 0.5 * g  # beta1 = 0.5
        v = 0.001 * g * g  # beta2 = 0.999
        want = np.array([1.0, -2.0]) - 0.1 * (m / 0.5) / (np.sqrt(v / 0.001) + 1e-8)
        np.testing.assert_allclose(p, want, rtol=1e-12)

    def test_two_steps_state(self):
        p = np.array([0.0])
        opt = Adam([p], lr=1.0)
        opt.step([p], [np.array([1.0])])
        opt.step([p], [np.array([1.0])])
        # both steps should move p by ~lr when gradients are constant
        assert p[0] == pytest.approx(-2.0, abs=1e-6)


class WholeArrayAdam(Adam):
    """The whole-array step: the oracle for the blocked step's bits."""

    def step(self, params, grads):
        self.t += 1
        b1, b2 = optim_module.BETA1, optim_module.BETA2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + optim_module.EPS)


# buffer sizes around the block boundaries and the level-1 generator's size,
# each as an N-d shape
_B = optim_module._BLOCK
ADAM_SHAPES = {
    0: (0, 3), 1: (1, 1, 1), _B - 1: (3, 43, 127), _B: (128, 128), _B + 1: (5, 29, 113),
    3 * _B + 7: (11, 41, 109), 1_898_481: (3, 13, 48_679),
}


@pytest.mark.parametrize("size", ADAM_SHAPES)
def test_blocked_adam_matches_whole_array_step_bit_for_bit(size):
    shape = ADAM_SHAPES[size]
    assert math.prod(shape) == size
    rng = np.random.default_rng(size)
    ours = rng.normal(size=shape)
    theirs = ours.copy()
    opt = Adam([ours], lr=1e-3)
    oracle = WholeArrayAdam([theirs], lr=1e-3)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    for _ in range(3):
        g = rng.normal(size=shape)
        hit = rng.random(shape) < 0.3
        g[hit] = rng.choice(special, size=int(hit.sum()))
        with np.errstate(over="ignore"):  # (1e300)**2 is inf in both
            opt.step([ours], [g])
            oracle.step([theirs], [g])
        assert same_bits(ours, theirs)
        assert same_bits(opt.m[0], oracle.m[0]) and same_bits(opt.v[0], oracle.v[0])


def test_adam_refuses_a_non_contiguous_parameter():
    with pytest.raises(ValueError, match="C-contiguous"):
        Adam([np.zeros((4, 4))[:, 1]], lr=1e-3)


# The layers as they were when each kept its last forward's activations on
# itself (input, mask, output or shape): the oracle for the stateless layers.
class CachedDense(Dense):
    def forward(self, x):
        self._x = x
        return x @ self.w + self.b

    def backward(self, gy):
        self.gw[...] = self._x.T @ gy
        self.gb[...] = gy.sum(axis=0)
        return gy @ self.w.T


class CachedConv1d(Conv1d):
    def forward(self, x):
        self._x = x
        windows = _conv_windows(x, self.k, self.stride)
        return np.einsum("bctk,ock->bot", windows, self.w, optimize=True) + self.b[:, None]

    def backward(self, gy):
        x = self._x
        windows = _conv_windows(x, self.k, self.stride)
        self.gw[...] = np.einsum("bot,bctk->ock", gy, windows, optimize=True)
        self.gb[...] = gy.sum(axis=(0, 2))
        gx = np.zeros_like(x)
        n_pos = gy.shape[2]
        for k in range(self.k):
            gx[:, :, k : k + self.stride * (n_pos - 1) + 1 : self.stride] += np.einsum(
                "bot,oc->bct", gy, self.w[:, :, k], optimize=True
            )
        return gx


class CachedConvT1d(ConvT1d):
    def forward(self, x):
        b, _, n_in = x.shape
        raw_len = (n_in - 1) * self.stride + self.k
        self._x = x
        y = np.zeros((b, self.out_ch, raw_len))
        for k in range(self.k):
            y[:, :, k : k + self.stride * (n_in - 1) + 1 : self.stride] += np.einsum(
                "bct,co->bot", x, self.w[:, :, k], optimize=True
            )
        y += self.b[:, None]
        return y[:, :, : self.out_length]

    def backward(self, gy):
        x = self._x
        n_in = x.shape[2]
        padded = np.zeros((gy.shape[0], self.out_ch, (n_in - 1) * self.stride + self.k))
        padded[:, :, : self.out_length] = gy
        gy = padded
        gx = np.zeros_like(x)
        for k in range(self.k):
            gy_k = gy[:, :, k : k + self.stride * (n_in - 1) + 1 : self.stride]
            self.gw[:, :, k] = np.einsum("bct,bot->co", x, gy_k, optimize=True)
            gx += np.einsum("bot,co->bct", gy_k, self.w[:, :, k], optimize=True)
        self.gb[...] = gy.sum(axis=(0, 2))
        return gx


class CachedReLU(ReLU):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy):
        return np.where(self._mask, gy, 0.0)


class CachedLeakyReLU(LeakyReLU):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, gy):
        return np.where(self._mask, gy, self.alpha * gy)


class CachedSigmoid(Sigmoid):
    def forward(self, x):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, gy):
        return gy * self._y * (1.0 - self._y)


class CachedScaledTanh(ScaledTanh):
    def forward(self, x):
        self._t = np.tanh(x)
        return self.center + self.half_range * self._t

    def backward(self, gy):
        return gy * self.half_range * (1.0 - self._t**2)


class CachedReshape(Reshape):
    def backward(self, gy):
        return gy.reshape(gy.shape[0], self.channels * self.length)


class CachedFlatten(Flatten):
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._shape)


CACHED = {
    Dense: CachedDense, Conv1d: CachedConv1d, ConvT1d: CachedConvT1d, ReLU: CachedReLU,
    LeakyReLU: CachedLeakyReLU, Sigmoid: CachedSigmoid, ScaledTanh: CachedScaledTanh,
    Reshape: CachedReshape, Flatten: CachedFlatten,
}


@st.composite
def layer_cases(draw):
    """(layer class, constructor arguments, input shape) of any layer kind."""
    dim = st.integers(1, 5)
    cls = draw(st.sampled_from(sorted(CACHED, key=lambda c: c.__name__)))
    batch, c_in, c_out, k, stride = (draw(dim) for _ in range(5))
    if cls is Dense:
        return cls, (c_in, c_out), (batch, c_in)
    if cls is Conv1d:
        return cls, (c_in, c_out, k, stride), (batch, c_in, k + draw(st.integers(0, 12)))
    if cls is ConvT1d:
        n_in = draw(dim)
        raw_len = (n_in - 1) * stride + k
        out_length = draw(st.integers(1, raw_len))
        return cls, (c_in, c_out, k, stride, out_length), (batch, c_in, n_in)
    if cls is Reshape:
        return cls, (c_in, k), (batch, c_in * k)
    args = ()
    if cls is LeakyReLU:
        args = (draw(st.floats(0.01, 0.5)),)
    elif cls is ScaledTanh:
        args = (draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 2.0)))
    return cls, args, draw(st.sampled_from([(batch, c_in), (batch, c_in, k)]))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=layer_cases(), seed=st.integers(0, 2**32 - 1))
def test_stateless_layers_match_cached_layers_bit_for_bit(case, seed):
    cls, args, shape = case
    rng = np.random.default_rng(seed)
    layer, oracle = cls(*args), CACHED[cls](*args)
    if layer.shapes:
        params = rng.normal(0.0, 0.5, layer.size)
        layer.bind(params, np.zeros_like(params))
        oracle.bind(params, np.zeros_like(params))
    # exact zeros exercise the activations' x > 0 boundary
    x = rng.normal(size=shape) * (rng.random(shape) < 0.8)
    y = layer.forward(x)
    assert same_bits(y, oracle.forward(x))
    gy = rng.normal(size=y.shape)
    assert same_bits(layer.backward(x, gy), oracle.backward(gy))
    if layer.shapes:
        assert same_bits(layer.gw, oracle.gw) and same_bits(layer.gb, oracle.gb)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_leaky_relu_refuses_alpha_outside_the_unit_interval(alpha):
    # max(x, alpha*x) is the leaky ReLU only for 0 <= alpha <= 1
    with pytest.raises(ValueError, match="alpha"):
        LeakyReLU(alpha)


def test_layers_assign_attributes_only_when_built_or_bound():
    for name, cls in vars(layers_module).items():
        if not (isinstance(cls, type) and issubclass(cls, Layer)):
            continue
        for fn in ast.walk(ast.parse(inspect.getsource(cls))):
            if isinstance(fn, ast.FunctionDef) and fn.name not in ("__init__", "bind"):
                stored = [
                    node.attr for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                ]
                assert not stored, f"{name}.{fn.name} assigns {stored}"


@pytest.mark.parametrize("name", ["gen-l1-0", "disc-l3-6"])
def test_interleaved_tapes_give_sequential_gradients(name):
    spec, row_shape = ALL_SPECS[name]
    net = build(spec, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    xs = [rng.normal(size=(3, *row_shape)) for _ in range(2)]
    gys = [rng.normal(size=net.forward(x).shape) for x in xs]

    sequential = []
    for x, gy in zip(xs, gys):
        tape = []
        net.forward(x, tape)
        sequential.append((net.backward(tape, gy), net.grads.copy()))

    tapes = [[], []]
    for x, tape in zip(xs, tapes):
        net.forward(x, tape)
    for (gx_want, grads_want), tape, gy in zip(sequential, tapes, gys):
        assert same_bits(net.backward(tape, gy), gx_want)
        assert same_bits(net.grads, grads_want)


@pytest.mark.parametrize("name", ["gen-l1-0", "disc-l3-6", "disc-l2-0"])
def test_backward_skips_only_the_gradients_it_is_told_to(name):
    spec, row_shape = ALL_SPECS[name]
    net = build(spec, np.random.default_rng(18))
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, *row_shape))
    tape = []
    gy = rng.normal(size=net.forward(x, tape).shape)
    gx_want = net.backward(tape, gy)
    grads_want = net.grads.copy()

    net.grads[...] = np.nan
    assert same_bits(net.backward(tape, gy, param_grads=False), gx_want)
    assert np.isnan(net.grads).all()
    assert net.backward(tape, gy, input_grad=False) is None
    assert same_bits(net.grads, grads_want)


# The transpose convolution and reshape as they were before the activations
# went channel-major: the oracle for the layouts' bits.
def batch_major_scatter_taps(g, w, stride, length):
    b, i, n = g.shape
    out = np.zeros((b, w.shape[1], length))
    taps = [out[:, :, k : k + stride * (n - 1) + 1 : stride] for k in range(w.shape[2])]
    if layers_module._einsum_is_this_matmul(b, i, n):
        g_cols = g.transpose(1, 0, 2).reshape(i, b * n)
        for tap, w_k in zip(taps, layers_module._weight_taps(w)):
            tap += (w_k.T @ g_cols).reshape(-1, b, n).transpose(1, 0, 2)
    else:
        for k, tap in enumerate(taps):
            tap += np.einsum("bit,io->bot", g, w[:, :, k], optimize=True)
    return out


class BatchMajorConvT1d(ConvT1d):
    def forward(self, x):
        raw_len = (x.shape[2] - 1) * self.stride + self.k
        y = batch_major_scatter_taps(x, self.w, self.stride, raw_len)
        y += self.b[:, None]
        return y[:, :, : self.out_length]

    def backward(self, x, gy):
        b, c, n_in = x.shape
        padded = np.zeros((b, self.out_ch, (n_in - 1) * self.stride + self.k))
        padded[:, :, : self.out_length] = gy
        gy = padded
        taps = [gy[:, :, k : k + self.stride * (n_in - 1) + 1 : self.stride] for k in range(self.k)]
        gx = np.zeros_like(x)
        if layers_module._einsum_is_this_matmul(b, c, n_in):
            x_rows = x.transpose(0, 2, 1).reshape(b * n_in, c)
            for k, (gy_k, w_k) in enumerate(zip(taps, layers_module._weight_taps(self.w))):
                gy_cols = np.ascontiguousarray(gy_k.transpose(1, 0, 2)).reshape(-1, b * n_in)
                self.gw[:, :, k] = (gy_cols @ x_rows).T
                gx += (w_k @ gy_cols).reshape(c, b, n_in).transpose(1, 0, 2)
        else:
            for k, gy_k in enumerate(taps):
                self.gw[:, :, k] = np.einsum("bct,bot->co", x, gy_k, optimize=True)
                gx += np.einsum("bot,co->bct", gy_k, self.w[:, :, k], optimize=True)
        self.gb[...] = gy.sum(axis=(0, 2))
        return gx


class BatchMajorReshape(Reshape):
    def forward(self, x):
        return x.reshape(x.shape[0], self.channels, self.length)


# the generator's 512-row slice, a full desk batch and small ones
BATCHES = st.one_of(st.integers(1, 40), st.sampled_from([240, 512]))


@st.composite
def upsampling_stacks(draw):
    """(batch, reshape (channels, length), two (out channels, k, stride, crop))."""
    batch = draw(BATCHES)
    channels = st.integers(1, 6) if batch < 100 else st.integers(1, 3)
    c_in, length = draw(channels), draw(st.integers(1, 12 if batch < 100 else 5))
    convs, n = [], length
    for _ in range(2):
        k, stride = draw(st.integers(1, 9)), draw(st.integers(1, 3))
        raw_len = (n - 1) * stride + k
        crop = draw(st.integers(max(1, raw_len - k), raw_len))
        convs.append((draw(channels), k, stride, crop))
        n = crop
    return batch, (c_in, length), convs


def run_stack(stack, x, gy):
    """Forward, then backward over (Reshape, ConvT1d, ReLU, ConvT1d)."""
    tape, y = [], x
    for layer in stack:
        tape.append(y)
        y = layer.forward(y)
    out = y
    for layer, x_in in zip(reversed(stack), reversed(tape)):
        gy = layer.backward(x_in, gy)
    return out, gy


@pytest.mark.parametrize("matmul", [True, False], ids=["matmul", "einsum"])
@settings(max_examples=100, deadline=None)
@given(case=upsampling_stacks(), seed=st.integers(0, 2**32 - 1))
def test_channel_major_stack_matches_batch_major_bit_for_bit(matmul, case, seed):
    batch, (c_in, length), convs = case
    rng = np.random.default_rng(seed)
    stacks = []
    for reshape, convt in ((Reshape, ConvT1d), (BatchMajorReshape, BatchMajorConvT1d)):
        stack, c = [reshape(c_in, length)], c_in
        for i, (c_out, k, stride, crop) in enumerate(convs):
            stack += [convt(c, c_out, k, stride, crop)] + [ReLU()] * (i == 0)
            c = c_out
        stacks.append(stack)
    for layer, twin in zip(*stacks):
        if layer.shapes:
            params = rng.normal(0.0, 0.5, layer.size)
            params[-layer.shapes[1][0]:] = rng.normal(size=layer.shapes[1][0])
            layer.bind(params, np.zeros_like(params))
            twin.bind(params, np.zeros_like(params))
    x = rng.normal(size=(batch, c_in * length)) * (rng.random((batch, c_in * length)) < 0.8)
    gy = rng.normal(size=(batch, convs[-1][0], convs[-1][3]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers_module, "_EINSUM_IS_MATMUL", matmul)
        got, want = run_stack(stacks[0], x, gy), run_stack(stacks[1], x, gy)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    for layer, twin in zip(*stacks):
        if layer.shapes:
            assert same_bits(layer.gw, twin.gw) and same_bits(layer.gb, twin.gb)


@pytest.mark.parametrize("matmul", [True, False], ids=["matmul", "einsum"])
@settings(max_examples=100, deadline=None)
@given(
    batch=BATCHES, c_in=st.integers(1, 5), c_out=st.integers(1, 5), k=st.integers(1, 9),
    stride=st.integers(1, 3), n=st.integers(1, 40), extra=st.integers(0, 4),
    layout=st.sampled_from(["batch", "channel", "position"]), seed=st.integers(0, 2**32 - 1),
)
def test_scatter_taps_matches_batch_major_bit_for_bit(
    matmul, batch, c_in, c_out, k, stride, n, extra, layout, seed
):
    # any crop of the raw length, or the longer input of a convolution's
    # input gradient, from g in any of the layouts a caller passes; a
    # channel-major g stands for the batch-major array that was passed before
    rng = np.random.default_rng(seed)
    raw_len = (n - 1) * stride + k
    length = int(rng.integers(1, raw_len + 1)) if extra == 0 else raw_len + extra
    order = {"batch": (0, 1, 2), "channel": (1, 0, 2), "position": (0, 2, 1)}[layout]
    shape = (batch, c_in, n)
    g = rng.normal(size=[shape[a] for a in order]).transpose(np.argsort(order))
    w = rng.normal(size=(c_in, c_out, k))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers_module, "_EINSUM_IS_MATMUL", matmul)
        got = layers_module._scatter_taps(g, w, stride, length)
        g_before = np.ascontiguousarray(g) if layout == "channel" else g
        want = batch_major_scatter_taps(g_before, w, stride, max(length, raw_len))[:, :, :length]
    assert same_bits(got, want)


def forward_peak(layers, x):
    """The traced peak, in bytes, of the layers' forward pass over x."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for layer in layers:
            x = layer.forward(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def level_1_generator_and_slice():
    # the 240-row slice of a 2 h 30/s request
    net = build(generator_spec(Level.L1, 100), np.random.default_rng(20))
    return net, np.random.default_rng(21).standard_normal((240, 100))


@pytest.mark.skipif(
    not layers_module._EINSUM_IS_MATMUL, reason="the tap matmuls run where einsum is a matmul"
)
def test_level_1_generator_forward_peak_memory():
    # 33.2 MiB channel-major, 46.4 MiB when each transpose convolution made
    # its own transposed copy
    net, z = level_1_generator_and_slice()
    peak = forward_peak(net.layers, z)
    assert peak <= 36 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_einsum_fallback_forward_peak_is_the_batch_major_one(monkeypatch):
    # where the taps are einsums the activations stay batch-major, so the
    # forward peaks no higher than the batch-major layers' (a channel-major
    # copy and einsum's batch-major copy of it would add a 13.2 MiB array)
    monkeypatch.setattr(layers_module, "_EINSUM_IS_MATMUL", False)
    net, z = level_1_generator_and_slice()
    before = []
    for layer in net.layers:
        if isinstance(layer, Reshape):
            layer = BatchMajorReshape(layer.channels, layer.length)
        elif isinstance(layer, ConvT1d):
            twin = BatchMajorConvT1d(
                layer.in_ch, layer.out_ch, layer.k, layer.stride, layer.out_length
            )
            twin.w, twin.b = layer.w, layer.b
            layer = twin
        before.append(layer)
    peak, peak_before = forward_peak(net.layers, z), forward_peak(before, z)
    assert peak <= peak_before, f"{peak / 2**20:.1f} > {peak_before / 2**20:.1f} MiB"
