"""The fixed layer set: dense, 1-D convolution/transpose convolution,
pointwise nonlinearities, and shape adapters.

Every layer is a pure function of its batched float64 input; its exact
reverse-mode ``backward(x, gy)`` takes the input the forward saw and
recomputes what it needs from it.  Dense layers take (batch, features);
convolutional layers take (batch, channels, length).  Convolution uses the
cross-correlation convention (no kernel flip) with no padding; the
transpose convolution is its exact adjoint, with an optional crop of the
trailing output samples so stride-2 stages can hit an exact 2x upscale.

Each layer's float operations are part of the determinism contract.  The
forms below give every output element the same operations, in the same
order, as the plain forms they replace:

* ReLU and LeakyReLU (0 <= alpha <= 1) forward pick max(x, 0) and
  max(x, alpha*x): for every non-NaN x the value np.where(x > 0, ...) picks,
  +0.0 included.  A NaN passes on to the callers' finite checks.  The
  backward passes stay np.where, as gy * mask would give -0.0.
* The transpose convolution and the convolution's input gradient loop over
  the kernel taps.  Where numpy's einsum is one matmul (numpy >= 2.4) and no
  axis of size 1 changes its plan, each tap calls that matmul with the
  operands einsum would pass it; only the transposed copies of the
  activations, which einsum makes once per tap, are made once per call.

Memory layout is not part of a layer's result, only its values are.  Where
the transpose convolutions' taps are matmuls, the activations from
``Reshape`` to the last transpose convolution live in channel-major memory,
a C-contiguous (channels, batch, length) array seen through a (batch,
channels, length) view.  ``Reshape`` makes that one transposing copy; the
tap matmuls then take the activations (channels, batch*length) as a free
view and add their (out channels, batch*length) products straight into a
channel-major output, and a pointwise layer keeps its input's layout.
Where the taps are einsums (numpy < 2.4, or an axis of size 1), ``Reshape``
returns its batch-major view and the taps write a batch-major output, so
that fallback makes no copy the batch-major form does not.  Each BLAS call
gets an operand of the same values and memory order as with batch-major
activations, since a transposed or Fortran-ordered operand can change its
bits: ``ConvT1d.backward`` copies its (batch*length, channels) operand, of
which a channel-major input would give a Fortran-ordered view, and an
einsum tap loop that follows a matmul one takes a batch-major copy of its
channel-major input.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatch


class Layer:
    """Base: a stateless layer whose backward takes its forward's input.

    A parametrised layer lists its (weight, bias) ``shapes``; ``bind`` hands
    it views of the owning network's flat parameter and gradient buffers.
    Its backward also takes ``param_grads`` and ``input_grad``: with either
    false it skips filling its gradients or returns None for the input's.
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

    def backward(self, x: np.ndarray, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> tuple:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.shapes = ((n_in, n_out), (n_out,))

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(f"dense({self.n_in}->{self.n_out}) got input {x.shape}")
        y = x @ self.w
        y += self.b
        return y

    def backward(self, x, gy, param_grads=True, input_grad=True):
        if param_grads:
            self.gw[...] = x.T @ gy
            self.gb[...] = gy.sum(axis=0)
        return gy @ self.w.T if input_grad else None

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


# From numpy 2.4 on, einsum runs a two-operand contraction as one matmul
# (numpy._core.einsumfunc.bmm_einsum): operands in reverse order, size-1 axes
# dropped, and a strided operand copied by matmul in its own stride order.
_EINSUM_IS_MATMUL = hasattr(
    getattr(getattr(np, "_core", None), "einsumfunc", None), "bmm_einsum"
)


def _einsum_is_this_matmul(*dims: int) -> bool:
    """Whether a tap loop's einsum is the matmul it spells out: einsum is a
    matmul and none of the axes whose size changes its plan is 1."""
    return _EINSUM_IS_MATMUL and min(dims) > 1


def _weight_taps(w: np.ndarray) -> np.ndarray:
    """(k, w.shape[0], w.shape[1]): each w[:, :, k] as the copy matmul makes of it."""
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _batch_major(x: np.ndarray) -> np.ndarray:
    """x, or its C-contiguous copy where x is a channel-major view: einsum's
    plan, and so its bits, depend on the layout of its operands."""
    if x.flags.c_contiguous or not x.transpose(1, 0, 2).flags.c_contiguous:
        return x
    return np.ascontiguousarray(x)


def _scatter_taps(g: np.ndarray, w: np.ndarray, stride: int, length: int) -> np.ndarray:
    # (batch, o, length): tap k maps g (batch, i, t) through w[:, :, k] onto
    # k + stride * t, for the positions below length; a cropped transpose
    # convolution, or a convolution's input gradient.  The tap matmuls
    # return a channel-major view, the einsum taps a batch-major array.
    b, i, n = g.shape
    matmul = _einsum_is_this_matmul(b, i, n)
    out = np.zeros((w.shape[1], b, length) if matmul else (b, w.shape[1], length))
    taps = [out[:, :, k : k + stride * (n - 1) + 1 : stride] for k in range(w.shape[2])]
    if matmul:
        # einsum("bit,io->bot") is (o, i) @ (i, b*t): g's transposed copy,
        # a free view when g is channel-major, is made once here rather than
        # once per tap
        g_cols = g.transpose(1, 0, 2).reshape(i, b * n)
        for tap, w_k in zip(taps, _weight_taps(w)):
            tap += (w_k.T @ g_cols).reshape(-1, b, n)[:, :, : tap.shape[2]]
        return out.transpose(1, 0, 2)
    g = _batch_major(g)
    for k, tap in enumerate(taps):
        tap += np.einsum("bit,io->bot", g, w[:, :, k], optimize=True)[:, :, : tap.shape[2]]
    return out


class Conv1d(Layer):
    """Valid cross-correlation: out length = floor((L - k) / stride) + 1."""

    def __init__(self, in_ch, out_ch, k, stride):
        self.in_ch, self.out_ch, self.k, self.stride = in_ch, out_ch, k, stride
        self.shapes = ((out_ch, in_ch, k), (out_ch,))

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_ch or x.shape[2] < self.k:
            raise ShapeMismatch(
                f"conv1d({self.in_ch}->{self.out_ch}, k={self.k}) got input {x.shape}"
            )
        windows = _conv_windows(x, self.k, self.stride)
        return np.einsum("bctk,ock->bot", windows, self.w, optimize=True) + self.b[:, None]

    def backward(self, x, gy, param_grads=True, input_grad=True):
        if param_grads:
            windows = _conv_windows(x, self.k, self.stride)
            self.gw[...] = np.einsum("bot,bctk->ock", gy, windows, optimize=True)
            self.gb[...] = gy.sum(axis=(0, 2))
        return _scatter_taps(gy, self.w, self.stride, x.shape[2]) if input_grad else None

    def spec(self):
        return ("conv1d", self.in_ch, self.out_ch, self.k, self.stride)


class ConvT1d(Layer):
    """Adjoint of Conv1d: raw out length = (L_in - 1) * stride + k.

    ``out_length`` crops trailing samples of the raw output (the cropped
    tail receives no gradient), letting two stride-2 stages produce an
    exact 4x upscale even when k > stride.  It must be a positive int.
    """

    def __init__(self, in_ch, out_ch, k, stride, out_length):
        if type(out_length) is not int or out_length < 1:
            raise ValueError(f"convt1d output length {out_length!r} is not a positive int")
        self.in_ch, self.out_ch, self.k, self.stride = in_ch, out_ch, k, stride
        self.out_length = out_length
        self.shapes = ((in_ch, out_ch, k), (out_ch,))

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_ch:
            raise ShapeMismatch(
                f"convt1d({self.in_ch}->{self.out_ch}, k={self.k}) got input {x.shape}"
            )
        raw_len = (x.shape[2] - 1) * self.stride + self.k
        if self.out_length > raw_len:
            raise ShapeMismatch(
                f"convt1d cannot crop raw length {raw_len} up to {self.out_length}"
            )
        y = _scatter_taps(x, self.w, self.stride, self.out_length)
        y += self.b[:, None]
        return y

    def backward(self, x, gy, param_grads=True, input_grad=True):
        b, c, n_in = x.shape
        padded = np.zeros((b, self.out_ch, (n_in - 1) * self.stride + self.k))
        padded[:, :, : self.out_length] = gy
        gy = padded
        taps = [gy[:, :, k : k + self.stride * (n_in - 1) + 1 : self.stride] for k in range(self.k)]
        gx = np.zeros_like(x) if input_grad else None
        if _einsum_is_this_matmul(b, c, n_in):
            # the einsums below are (o, b*t) @ (b*t, c) and (c, o) @ (o, b*t):
            # x's transposed copy is made once (a copy also where a reshape
            # gives a Fortran-ordered view, as of a channel-major x), and one
            # copy of each gy_k serves both (a copy even where a reshape could
            # give a view, as einsum's is)
            if param_grads:
                x_rows = np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(b * n_in, c)
            for k, (gy_k, w_k) in enumerate(zip(taps, _weight_taps(self.w))):
                gy_cols = np.ascontiguousarray(gy_k.transpose(1, 0, 2)).reshape(-1, b * n_in)
                if param_grads:
                    self.gw[:, :, k] = (gy_cols @ x_rows).T
                if input_grad:
                    gx += (w_k @ gy_cols).reshape(c, b, n_in).transpose(1, 0, 2)
        else:
            x = _batch_major(x)
            for k, gy_k in enumerate(taps):
                if param_grads:
                    self.gw[:, :, k] = np.einsum("bct,bot->co", x, gy_k, optimize=True)
                if input_grad:
                    gx += np.einsum("bot,co->bct", gy_k, self.w[:, :, k], optimize=True)
        if param_grads:
            self.gb[...] = gy.sum(axis=(0, 2))
        return gx

    def spec(self):
        return ("convt1d", self.in_ch, self.out_ch, self.k, self.stride, self.out_length)


class ReLU(Layer):
    def forward(self, x):
        y = np.maximum(x, 0.0)
        y += 0.0  # -0.0 becomes +0.0, whichever zero np.maximum returns
        return y

    def backward(self, x, gy):
        return np.where(x > 0, gy, 0.0)

    def spec(self):
        return ("relu",)


class LeakyReLU(Layer):
    def __init__(self, alpha: float = 0.2):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"leaky_relu alpha {alpha!r} is not in [0, 1]")
        self.alpha = alpha

    def forward(self, x):
        y = self.alpha * x
        return np.maximum(x, y, out=y)

    def backward(self, x, gy):
        return np.where(x > 0, gy, self.alpha * gy)

    def spec(self):
        return ("leaky_relu", self.alpha)


class Sigmoid(Layer):
    def forward(self, x):
        return 1.0 / (1.0 + np.exp(-x))

    def backward(self, x, gy):
        y = 1.0 / (1.0 + np.exp(-x))
        return gy * y * (1.0 - y)

    def spec(self):
        return ("sigmoid",)


class ScaledTanh(Layer):
    """center + half_range * tanh(x): bounded output around a target level."""

    def __init__(self, center: float, half_range: float):
        self.center, self.half_range = center, half_range

    def forward(self, x):
        return self.center + self.half_range * np.tanh(x)

    def backward(self, x, gy):
        return gy * self.half_range * (1.0 - np.tanh(x) ** 2)

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
        x = x.reshape(x.shape[0], self.channels, self.length)
        if not _einsum_is_this_matmul(*x.shape):
            return x
        # channel-major, for the next transpose convolution's tap matmuls
        return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)

    def backward(self, x, gy):
        return gy.reshape(x.shape)

    def spec(self):
        return ("reshape", self.channels, self.length)


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels*length)."""

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, x, gy):
        return gy.reshape(x.shape)

    def spec(self):
        return ("flatten",)
