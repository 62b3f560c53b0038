"""The fixed layer set: dense, 1-D convolution/transpose convolution,
pointwise nonlinearities, and shape adapters.

Every layer computes float64 forward passes on batched inputs and an exact
reverse-mode backward pass from cached activations.  Dense layers take
(batch, features); convolutional layers take (batch, channels, length).
Convolution uses the cross-correlation convention (no kernel flip) with no
padding; the transpose convolution is its exact adjoint, with an optional
crop of the trailing output samples so stride-2 stages can hit an exact
2x upscale.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatch


class Layer:
    """Base: parameterless identity-ish layer with cached-input backward.

    A parametrised layer lists its (weight, bias) ``shapes``; ``bind`` hands
    it views of the owning network's flat parameter and gradient buffers.
    """

    shapes: tuple = ()

    @property
    def size(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes)

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Take ``w``/``b`` and ``gw``/``gb`` as views of this layer's slices."""
        w_shape, _ = self.shapes
        n_w = math.prod(w_shape)
        self.w, self.b = params[:n_w].reshape(w_shape), params[n_w:]
        self.gw, self.gb = grads[:n_w].reshape(w_shape), grads[n_w:]

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> tuple:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.shapes = ((n_in, n_out), (n_out,))
        self._x = None

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(f"dense({self.n_in}->{self.n_out}) got input {x.shape}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, gy):
        self.gw[...] = self._x.T @ gy
        self.gb[...] = gy.sum(axis=0)
        return gy @ self.w.T

    def spec(self):
        return ("dense", self.n_in, self.n_out)


def _conv_windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    # strided view (batch, channels, positions, k) over the input
    b, c, length = x.shape
    n_pos = (length - k) // stride + 1
    sb, sc, sl = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, c, n_pos, k), strides=(sb, sc, sl * stride, sl), writeable=False
    )


class Conv1d(Layer):
    """Valid cross-correlation: out length = floor((L - k) / stride) + 1."""

    def __init__(self, in_ch, out_ch, k, stride):
        self.in_ch, self.out_ch, self.k, self.stride = in_ch, out_ch, k, stride
        self.shapes = ((out_ch, in_ch, k), (out_ch,))
        self._x = None

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_ch or x.shape[2] < self.k:
            raise ShapeMismatch(
                f"conv1d({self.in_ch}->{self.out_ch}, k={self.k}) got input {x.shape}"
            )
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

    def spec(self):
        return ("conv1d", self.in_ch, self.out_ch, self.k, self.stride)


class ConvT1d(Layer):
    """Adjoint of Conv1d: raw out length = (L_in - 1) * stride + k.

    ``out_length`` crops trailing samples of the raw output (the cropped
    tail receives no gradient), letting two stride-2 stages produce an
    exact 4x upscale even when k > stride.
    """

    def __init__(self, in_ch, out_ch, k, stride, out_length=None):
        self.in_ch, self.out_ch, self.k, self.stride = in_ch, out_ch, k, stride
        self.out_length = out_length
        self.shapes = ((in_ch, out_ch, k), (out_ch,))
        self._x = None

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_ch:
            raise ShapeMismatch(
                f"convt1d({self.in_ch}->{self.out_ch}, k={self.k}) got input {x.shape}"
            )
        b, _, n_in = x.shape
        raw_len = (n_in - 1) * self.stride + self.k
        if self.out_length is not None and self.out_length > raw_len:
            raise ShapeMismatch(
                f"convt1d cannot crop raw length {raw_len} up to {self.out_length}"
            )
        self._x = x
        y = np.zeros((b, self.out_ch, raw_len))
        for k in range(self.k):
            y[:, :, k : k + self.stride * (n_in - 1) + 1 : self.stride] += np.einsum(
                "bct,co->bot", x, self.w[:, :, k], optimize=True
            )
        y += self.b[:, None]
        if self.out_length is not None:
            y = y[:, :, : self.out_length]
        return y

    def backward(self, gy):
        x = self._x
        n_in = x.shape[2]
        if self.out_length is not None:
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

    def spec(self):
        return ("convt1d", self.in_ch, self.out_ch, self.k, self.stride, self.out_length)


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy):
        return np.where(self._mask, gy, 0.0)

    def spec(self):
        return ("relu",)


class LeakyReLU(Layer):
    def __init__(self, alpha: float = 0.2):
        self.alpha = alpha

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, gy):
        return np.where(self._mask, gy, self.alpha * gy)

    def spec(self):
        return ("leaky_relu", self.alpha)


class Sigmoid(Layer):
    def forward(self, x):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, gy):
        return gy * self._y * (1.0 - self._y)

    def spec(self):
        return ("sigmoid",)


class ScaledTanh(Layer):
    """center + half_range * tanh(x): bounded output around a target level."""

    def __init__(self, center: float, half_range: float):
        self.center, self.half_range = center, half_range

    def forward(self, x):
        self._t = np.tanh(x)
        return self.center + self.half_range * self._t

    def backward(self, gy):
        return gy * self.half_range * (1.0 - self._t**2)

    def spec(self):
        return ("scaled_tanh", self.center, self.half_range)


class Reshape(Layer):
    """(batch, channels*length) -> (batch, channels, length)."""

    def __init__(self, channels: int, length: int):
        self.channels, self.length = channels, length

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.channels * self.length:
            raise ShapeMismatch(
                f"reshape to ({self.channels},{self.length}) got input {x.shape}"
            )
        return x.reshape(x.shape[0], self.channels, self.length)

    def backward(self, gy):
        return gy.reshape(gy.shape[0], self.channels * self.length)

    def spec(self):
        return ("reshape", self.channels, self.length)


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels*length)."""

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._shape)

    def spec(self):
        return ("flatten",)
