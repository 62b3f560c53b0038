"""Declarative network specs and the sequential network built from them.

A NetworkSpec is an ordered tuple of layer descriptors (kind + constructor
arguments) plus a parameter-initialization identifier; it is serialized.

A Network owns one flat float64 vector ``params`` and one gradient vector
``grads``; each parametrised layer's weight and bias, and their gradients,
are views into them in layer order, weight before bias (the order of a
bundle's weight blob).  The optimizer steps ``params`` as one array,
serialization writes it as is and loading wraps the decoded blob.
``init_params`` draws it per parametrised layer, in layer order: one
``rng.normal(0.0, 0.02, weight_shape)`` call, then a zero bias.  The same
spec and generator state give bit-identical weights, the backbone of the
end-to-end determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L

# the single supported initialization: weights ~ N(0, 0.02), biases 0
INIT_SCHEME = "normal(0,0.02)"
_INIT_STD = 0.02


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[tuple, ...]
    init_scheme: str = INIT_SCHEME

    def to_jsonable(self) -> dict:
        return {"layers": [list(l) for l in self.layers], "init_scheme": self.init_scheme}

    @classmethod
    def from_jsonable(cls, d: dict) -> "NetworkSpec":
        return cls(
            layers=tuple(tuple(l) for l in d["layers"]),
            init_scheme=d["init_scheme"],
        )


# layer kind -> class; a spec's arguments are the constructor's
_LAYER_KINDS = {
    "dense": L.Dense, "conv1d": L.Conv1d, "convt1d": L.ConvT1d,
    "relu": L.ReLU, "leaky_relu": L.LeakyReLU, "sigmoid": L.Sigmoid,
    "scaled_tanh": L.ScaledTanh, "reshape": L.Reshape, "flatten": L.Flatten,
}


def _build_layers(spec: NetworkSpec) -> list[L.Layer]:
    if spec.init_scheme != INIT_SCHEME:
        raise ValueError(f"unknown init scheme {spec.init_scheme!r}")
    unknown = [kind for kind, *_ in spec.layers if kind not in _LAYER_KINDS]
    if unknown:
        raise ValueError(f"unknown layer kind {unknown[0]!r}")
    return [_LAYER_KINDS[kind](*args) for kind, *args in spec.layers]


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> np.ndarray:
    """The initial flat parameter vector: N(0, 0.02) weights, zero biases."""
    parts = [np.zeros(0)]
    for layer in _build_layers(spec):
        if layer.shapes:
            w_shape, b_shape = layer.shapes
            parts += [rng.normal(0.0, _INIT_STD, w_shape).ravel(), np.zeros(b_shape)]
    return np.concatenate(parts)


class Network:
    """Sequential stack with reverse-mode gradients over cached activations."""

    def __init__(self, spec: NetworkSpec, params: np.ndarray):
        self.spec = spec
        self.layers = _build_layers(spec)
        size = sum(layer.size for layer in self.layers)
        if params.shape != (size,):
            raise ValueError(f"weight blob has {params.size} values, network needs {size}")
        self.params = params
        self.grads = np.zeros(size)
        offset = 0
        for layer in self.layers:
            if layer.shapes:
                end = offset + layer.size
                layer.bind(params[offset:end], self.grads[offset:end])
                offset = end

    def __reduce__(self):
        # copies and pickles rebuild the layer views over one buffer
        return Network, (self.spec, self.params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray:
        """Backpropagate from the output gradient; fills ``grads``."""
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy
