"""Declarative network specs and the sequential network built from them.

A NetworkSpec is an ordered tuple of layer descriptors (kind + arguments)
plus a parameter-initialization identifier; it is what gets serialized.
Building the same spec with the same generator state yields bit-identical
weights, which is the backbone of the end-to-end determinism contract.
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


def _build_layer(spec: tuple, rng: np.random.Generator) -> L.Layer:
    kind, *args = spec
    if kind == "dense":
        return L.Dense(args[0], args[1], rng, _INIT_STD)
    if kind == "conv1d":
        return L.Conv1d(args[0], args[1], args[2], args[3], rng, _INIT_STD)
    if kind == "convt1d":
        out_length = args[4] if len(args) > 4 else None
        return L.ConvT1d(args[0], args[1], args[2], args[3], rng, _INIT_STD, out_length)
    if kind == "relu":
        return L.ReLU()
    if kind == "leaky_relu":
        return L.LeakyReLU(args[0] if args else 0.2)
    if kind == "sigmoid":
        return L.Sigmoid()
    if kind == "scaled_tanh":
        return L.ScaledTanh(args[0], args[1])
    if kind == "reshape":
        return L.Reshape(args[0], args[1])
    if kind == "flatten":
        return L.Flatten()
    raise ValueError(f"unknown layer kind {kind!r}")


class Network:
    """Sequential stack with reverse-mode gradients over cached activations."""

    def __init__(self, spec: NetworkSpec, rng: np.random.Generator):
        if spec.init_scheme != INIT_SCHEME:
            raise ValueError(f"unknown init scheme {spec.init_scheme!r}")
        self.spec = spec
        self.layers = [_build_layer(s, rng) for s in spec.layers]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray:
        """Backpropagate from the output gradient; fills layer grads."""
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def get_flat(self) -> np.ndarray:
        params = self.parameters()
        if not params:
            return np.zeros(0)
        return np.concatenate([p.ravel() for p in params])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.parameters():
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != flat.size:
            raise ValueError(f"weight blob has {flat.size} values, network needs {offset}")
