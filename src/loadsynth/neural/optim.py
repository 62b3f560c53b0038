"""Adam with the bias-corrected first/second moment estimates.

The step runs through each buffer in blocks of _BLOCK values, so a block of
parameters, gradients, moments and the two scratch rows stays in cache
while all of its updates are made.  Each element still gets the same
operations in the same order as the whole-array form

    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    p = p - (lr*(m/c1)) / (sqrt(v/c2) + eps)

and every one of them is element-wise, so cutting the buffers into blocks
and writing into scratch rows with ``out=`` gives the same bits.
"""

from __future__ import annotations

import numpy as np

# values per block: six float64 rows of this length (p, g, m, v and the two
# scratch rows) take 768 KiB
_BLOCK = 1 << 14

# the training recipe: the first attempt's learning rate (a retry halves
# it) and Adam's moment decays and denominator floor
LEARNING_RATE = 2e-4
BETA1, BETA2, EPS = 0.5, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr):
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam steps C-contiguous parameter arrays in place")
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self._scratch = np.empty((2, min(_BLOCK, max((p.size for p in params), default=0))))

    def step(self, params, grads) -> None:
        self.t += 1
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
            for lo in range(0, p.size, _BLOCK):
                hi = min(lo + _BLOCK, p.size)
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                tmp, upd = self._scratch[:, : hi - lo]
                mb *= b1
                np.multiply(1.0 - b1, gb, out=tmp)
                mb += tmp
                vb *= b2
                np.multiply(1.0 - b2, gb, out=tmp)
                tmp *= gb
                vb += tmp
                np.divide(vb, correction2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                np.divide(mb, correction1, out=upd)
                np.multiply(lr, upd, out=upd)
                upd /= tmp
                pb -= upd
