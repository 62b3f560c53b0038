"""Layer mechanics: forward conventions, exact gradients, adjoint identity."""

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
from loadsynth.neural.network import Network, NetworkSpec
from loadsynth.neural.optim import Adam
from loadsynth.neural.gan import discriminator_spec, generator_spec
from loadsynth.core import Level


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
        conv = Conv1d(1, 1, 3, 1, np.random.default_rng(0), 0.02)
        conv.w[...] = np.array([[[1.0, 0.0, -1.0]]])
        conv.b[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[-2.0, -2.0]]])

    def test_identity_tap(self):
        conv = Conv1d(1, 1, 3, 1, np.random.default_rng(0), 0.02)
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
        conv = Conv1d(C, O, K, stride, rng, 0.5)
        conv.b[...] = rng.normal(size=O)
        x = rng.normal(size=(B, C, L))
        np.testing.assert_allclose(
            conv.forward(x), conv_oracle(x, conv.w, conv.b, stride), rtol=1e-12, atol=1e-14
        )

    def test_output_length_formula(self):
        conv = Conv1d(1, 16, 25, 5, np.random.default_rng(0), 0.02)
        out = conv.forward(np.zeros((1, 1, 900)))
        assert out.shape == (1, 16, (900 - 25) // 5 + 1) == (1, 16, 176)

    def test_shape_mismatch(self):
        conv = Conv1d(2, 1, 3, 1, np.random.default_rng(0), 0.02)
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
        layer = ConvT1d(C, O, K, stride, rng, 0.5)
        layer.b[...] = rng.normal(size=O)
        x = rng.normal(size=(B, C, L))
        np.testing.assert_allclose(
            layer.forward(x), convt_oracle(x, layer.w, layer.b, stride), rtol=1e-12, atol=1e-14
        )

    def test_crop_to_out_length(self):
        rng = np.random.default_rng(2)
        layer = ConvT1d(1, 1, 4, 2, rng, 0.5, out_length=6)
        x = rng.normal(size=(1, 1, 3))
        raw = convt_oracle(x, layer.w, layer.b, 2)  # raw length (3-1)*2+4 = 8
        np.testing.assert_allclose(layer.forward(x), raw[:, :, :6], rtol=1e-12)

    def test_crop_cannot_extend(self):
        layer = ConvT1d(1, 1, 4, 2, np.random.default_rng(0), 0.5, out_length=10)
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
        conv = Conv1d(C, O, K, stride, rng, 0.5)
        conv.b[...] = 0.0
        convt = ConvT1d(O, C, K, stride, rng, 0.5)
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
    for p, g in zip(layer.params, layer.grads):
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
        layer = Dense(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng, 0.5)
        x = rng.normal(size=(3, layer.n_in))
        assert finite_difference_check(layer, x) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_conv1d(self, seed):
        rng = np.random.default_rng(10 + seed)
        K, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        layer = Conv1d(2, 2, K, stride, rng, 0.5)
        x = rng.normal(size=(2, 2, 8))
        assert finite_difference_check(layer, x) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_convt1d(self, seed):
        rng = np.random.default_rng(20 + seed)
        K, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        out_length = None if seed % 2 else (3 - 1) * stride + K - 1
        layer = ConvT1d(2, 2, K, stride, rng, 0.5, out_length)
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
        layer = Dense(4, 3, rng, 0.5)
        x = rng.normal(size=(2, 4))
        layer.forward(x)
        gx = layer.backward(np.zeros((2, 3)))
        assert np.all(gx == 0)
        assert all(np.all(g == 0) for g in layer.grads)


class TestNetwork:
    def test_spec_round_trip(self):
        spec = generator_spec(Level.L2, 100)
        again = NetworkSpec.from_jsonable(spec.to_jsonable())
        assert again == spec

    def test_flat_round_trip(self):
        rng = np.random.default_rng(1)
        net = Network(discriminator_spec(Level.L2), rng)
        flat = net.get_flat()
        net2 = Network(discriminator_spec(Level.L2), np.random.default_rng(99))
        net2.set_flat(flat)
        np.testing.assert_array_equal(net2.get_flat(), flat)
        x = rng.normal(size=(2, 1, 120))
        np.testing.assert_array_equal(net.forward(x), net2.forward(x))

    def test_backward_function(self):
        # Network.backward chains the layer gradients: check the input and
        # every parameter gradient of a small stack against central differences
        rng = np.random.default_rng(2)
        spec = NetworkSpec(
            layers=(("dense", 4, 3), ("scaled_tanh", 0.0, 1.0), ("dense", 3, 2))
        )
        net = Network(spec, rng)
        x = rng.normal(size=(5, 4))
        gy = rng.normal(size=(5, 2))
        net.forward(x)
        gx = net.backward(gy)
        grads = [g.copy() for g in net.gradients()]
        assert gx.shape == x.shape
        assert len(grads) == 4  # two dense layers, weights + biases

        def loss():
            return float(np.sum(net.forward(x) * gy))

        step = 1e-6
        for values, analytic in [(x, gx), *zip(net.parameters(), grads)]:
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
        gen = Network(generator_spec(level, 100, label), rng)
        assert gen.forward(np.zeros((2, 100 + label))).shape == (2, length)
        disc = Network(discriminator_spec(level, label), rng)
        assert disc.forward(np.zeros((2, 1 + label, length))).shape == (2, 1)

    def test_discriminator_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        net = Network(discriminator_spec(Level.L2), rng)
        x = rng.normal(scale=50.0, size=(8, 1, 120))
        p = net.forward(x)
        assert np.all((p > 0) & (p < 1))


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
