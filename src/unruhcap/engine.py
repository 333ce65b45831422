"""Per-block entropy evaluation engine for ensemble sweeps.

Region sweeps spend essentially all their time evaluating, for one ensemble
``mu``, the receiver and environment spectrum entropies of every retained
block.  Rather than materializing each block's occupation basis, the engine
peels off the first mode: every weight-``j`` composition of the trailing
``d-1`` modes, extended by ``b1`` photons in mode 1, is a basis vector of
block ``k = j + b1`` (receiver side) and of block ``k + 1`` (environment
side, with the +1 photon shift).  One pass over the cached (d-1)-mode tables
therefore accumulates all per-block entropies.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix

__all__ = ["MAX_LATTICE_TERMS", "TradeoffEvaluator"]

# Lattice terms C(K+d, d) scanned per evaluation; larger channels are refused
# before any table is built.
MAX_LATTICE_TERMS = 10**9


class TradeoffEvaluator:
    """Aggregated block-entropy sums for a fixed channel and block weights.

    Parameters
    ----------
    d : channel dimension.
    block_weights : weights p_k for blocks k = 1..K (one-hot for a single
        cloner block; the truncated geometric weights for the Unruh channel).
    base : entropy log base.
    """

    def __init__(self, d: int, block_weights, base: float):
        if d < 2:
            raise ValueError("dimension must be >= 2")
        if not base > 1.0:
            raise ValueError("log base must exceed 1")
        weights = np.ascontiguousarray(block_weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError("block weights must be a nonempty 1-D array")
        if not np.all(np.isfinite(weights)):
            raise ValueError("block weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("block weights must be nonnegative")
        self.d = int(d)
        self.base = float(base)
        self.weights = weights
        self.horizon = int(weights.size)
        self._inv_ln_base = 1.0 / math.log(self.base)
        terms = math.comb(self.horizon + self.d, self.d)
        if terms > MAX_LATTICE_TERMS:
            raise SizeCapError(
                f"d={self.d}, K={self.horizon}: {terms} lattice terms per evaluation "
                f"exceed cap {MAX_LATTICE_TERMS}"
            )

        k_range = range(1, self.horizon + 1)
        self.log_dims = np.array(
            [math.log(block_dimension(d, k)) * self._inv_ln_base for k in k_range]
        )
        self.s_b = float(np.dot(self.weights, self.log_dims))

        inv_norm = np.zeros(self.horizon + 2)
        for k in k_range:
            inv_norm[k] = 1.0 / float(block_normalizer(d, k))
        # Per sub-weight j: the (d-1)-mode table plus the 1/M_k lookups for
        # every admissible first-mode count b1 (zero marks an inactive block).
        self._sub = []
        self._inb = []
        self._ine = []
        for j in range(self.horizon + 1):
            self._sub.append(composition_matrix(d - 1, j))
            b1s = np.arange(self.horizon - j + 1)
            self._inb.append(np.ascontiguousarray(inv_norm[j + b1s]))
            self._ine.append(np.ascontiguousarray(inv_norm[j + b1s + 1]))

    def block_entropies(self, mu) -> tuple[np.ndarray, np.ndarray]:
        """Receiver/environment spectrum entropies of every block at ``mu``.

        Returns arrays ``(h_bx, h_ex)`` indexed by block ``k-1``, in base
        units, exactly matching the entropies of ``ensemble_spectrum_B/E``.
        """
        mu_arr = np.ascontiguousarray(mu, dtype=np.float64)
        if mu_arr.shape != (self.d,):
            raise ValueError(f"ensemble must have {self.d} weights")
        out_b = np.zeros(self.horizon + 2)
        out_e = np.zeros(self.horizon + 2)
        tail = mu_arr[1:]
        for j in range(self.horizon + 1):
            comps = self._sub[j]
            a_sub = np.zeros(comps.shape[0])
            for c in range(self.d - 1):
                a_sub += comps[:, c] * tail[c]
            kernels.block_family_entropy(
                a_sub,
                float(mu_arr[0]),
                self._inb[j],
                self._ine[j],
                self._inv_ln_base,
                out_b,
                out_e,
                j,
            )
        return out_b[1 : self.horizon + 1], out_e[1 : self.horizon + 1]

    def sums(self, mu) -> tuple[float, float]:
        """Weighted sums (sum_k p_k H_B|X,k, sum_k p_k H_E|X,k) at ``mu``."""
        h_bx, h_ex = self.block_entropies(mu)
        return float(np.dot(self.weights, h_bx)), float(np.dot(self.weights, h_ex))
