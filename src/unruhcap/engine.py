"""Per-block entropy evaluation engine for ensemble sweeps.

Region sweeps spend essentially all their time evaluating, for one ensemble
``mu``, the receiver and environment spectrum entropies of every retained
block.  Two exact kernels do this:

* the lattice kernel (any ``mu``) peels off the first mode: every weight-``j``
  composition of the trailing ``d-1`` modes, extended by ``b1`` photons in
  mode 1, is a basis vector of block ``k = j + b1`` (receiver side) and of
  block ``k + 1`` (environment side, with the +1 photon shift).  One pass
  over the (d-1)-mode tables, C(K+d, d) terms, accumulates all per-block
  entropies.  The tables are built by the first lattice evaluation.
* the histogram kernel (a grid point ``mu = counts / n``) counts, per block,
  how many basis vectors share each integer atom numerator ``b . counts``,
  in about d (K+1)(K max(counts) + 2n) cell operations.

The per-orbit sweeps pass the grid denominator ``n``; ``pick_kernel`` then
runs whichever kernel costs less for that point, by the measured cost of a
histogram cell in lattice terms.  Without ``n`` the lattice kernel runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix

__all__ = [
    "HISTOGRAM_CELL_COST",
    "MAX_HISTOGRAM_CELLS",
    "MAX_LATTICE_TERMS",
    "TradeoffEvaluator",
    "grid_counts",
    "pick_kernel",
]

# Lattice terms C(K+d, d) scanned per evaluation; larger channels are refused
# before any table is built.
MAX_LATTICE_TERMS = 10**9

# Cells of the histogram's count array (float64: 32 MB; the kernel peaks at
# about three such arrays); a larger histogram leaves the evaluation to the
# lattice kernel.
MAX_HISTOGRAM_CELLS = 4 * 10**6

# Cost of one histogram cell operation in lattice terms.  Over 41 sampled
# sweep orbits (d = 2..6, both kernels >= 0.5 ms, 2-core VM, numpy) the
# measured ratio had median 0.05 and quartiles 0.018-0.17.  The upper
# quartile keeps every d = 2 orbit (histogram work >= 0.6 (K+1)(K+2) against
# (K+1)(K+2)/2 lattice terms) on the lattice kernel, where small lattices are
# decided by fixed per-call costs rather than by terms.
HISTOGRAM_CELL_COST = 0.15


def grid_counts(mu, n: int) -> tuple[tuple[int, ...], int]:
    """The integer counts of the grid point ``mu = counts / n``, reduced by
    their gcd, and the reduced ``n``; ``ValueError`` when ``mu`` is not
    exactly such a point."""
    mu_arr = np.asarray(mu, dtype=np.float64)
    counts = np.rint(mu_arr * n)
    if counts.sum() != n or not np.array_equal(counts / n, mu_arr):
        raise ValueError(f"ensemble is not a point of the grid with denominator {n}")
    counts = counts.astype(np.int64)
    g = int(np.gcd.reduce(counts))
    return tuple(int(c) // g for c in counts), n // g


def pick_kernel(d: int, horizon: int, counts) -> str:
    """``"histogram"`` or ``"lattice"``: the cheaper exact kernel for the
    grid point with (reduced) ``counts``.

    The lattice kernel scans C(K+d, d) terms.  The histogram makes d passes
    over its count array to build it and about two more to weigh the atoms;
    it runs only when that work, in lattice terms, is smaller and its array
    is within ``MAX_HISTOGRAM_CELLS``.
    """
    cells = (horizon + 1) * ((horizon - 1) * max(counts) + 2 * sum(counts) + 1)
    if cells > MAX_HISTOGRAM_CELLS:
        return "lattice"
    work = HISTOGRAM_CELL_COST * (d + 2) * cells
    return "histogram" if work < math.comb(horizon + d, d) else "lattice"


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

        self._inv_norm = np.zeros(self.horizon + 2)
        for k in k_range:
            self._inv_norm[k] = 1.0 / float(block_normalizer(d, k))
        self._sub = None  # lattice tables, built by the first lattice evaluation

    def _lattice_tables(self):
        """Per sub-weight j: the (d-1)-mode table plus the 1/M_k lookups for
        every admissible first-mode count b1 (zero marks an inactive block)."""
        if self._sub is None:
            self._sub, self._inb, self._ine = [], [], []
            for j in range(self.horizon + 1):
                self._sub.append(composition_matrix(self.d - 1, j))
                b1s = np.arange(self.horizon - j + 1)
                self._inb.append(np.ascontiguousarray(self._inv_norm[j + b1s]))
                self._ine.append(np.ascontiguousarray(self._inv_norm[j + b1s + 1]))
        return self._sub, self._inb, self._ine

    def block_entropies(self, mu, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Receiver/environment spectrum entropies of every block at ``mu``.

        Returns arrays ``(h_bx, h_ex)`` indexed by block ``k-1``, in base
        units, exactly matching the entropies of ``ensemble_spectrum_B/E``.
        With ``n``, ``mu`` must be a grid point ``counts / n`` (see
        ``grid_counts``), and the cheaper exact kernel (``pick_kernel``) runs;
        without it, the lattice kernel.
        """
        mu_arr = np.ascontiguousarray(mu, dtype=np.float64)
        if mu_arr.shape != (self.d,):
            raise ValueError(f"ensemble must have {self.d} weights")
        if n is not None:
            counts, n = grid_counts(mu_arr, n)
            if pick_kernel(self.d, self.horizon, counts) == "histogram":
                return kernels.histogram_entropy(
                    counts, n, self._inv_norm[1 : self.horizon + 1], self._inv_ln_base
                )
        sub, inb, ine = self._lattice_tables()
        out_b = np.zeros(self.horizon + 2)
        out_e = np.zeros(self.horizon + 2)
        tail = mu_arr[1:]
        for j in range(self.horizon + 1):
            comps = sub[j]
            a_sub = np.zeros(comps.shape[0])
            for c in range(self.d - 1):
                a_sub += comps[:, c] * tail[c]
            kernels.block_family_entropy(
                a_sub,
                float(mu_arr[0]),
                inb[j],
                ine[j],
                self._inv_ln_base,
                out_b,
                out_e,
                j,
            )
        return out_b[1 : self.horizon + 1], out_e[1 : self.horizon + 1]

    def sums(self, mu, n: int | None = None) -> tuple[float, float]:
        """Weighted sums (sum_k p_k H_B|X,k, sum_k p_k H_E|X,k) at ``mu``."""
        h_bx, h_ex = self.block_entropies(mu, n)
        return float(np.dot(self.weights, h_bx)), float(np.dot(self.weights, h_ex))
