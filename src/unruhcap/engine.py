"""Per-block entropy evaluation engine for ensemble sweeps.

Region sweeps spend essentially all their time evaluating, for one ensemble
``mu``, the receiver and environment spectrum entropies of every retained
block.  Two exact kernels do this:

* the lattice kernel (any ``mu``) peels off the first mode: every weight-``j``
  composition of the trailing ``d-1`` modes, extended by ``b1`` photons in
  mode 1, is a basis vector of block ``k = j + b1`` (receiver side) and of
  block ``k + 1`` (environment side, with the +1 photon shift).  One pass
  over the (d-1)-mode tables, C(K+d, d) terms, accumulates all per-block
  entropies.
* the histogram kernel (a grid point ``mu = counts / n``) counts, per block,
  how many basis vectors share each integer atom numerator ``b . counts``,
  in about d (K+1)(K max(counts) + 2n) cell operations.

The per-orbit sweeps pass the grid denominator ``n``; ``pick_kernel``, the
one size gate, runs the cheaper kernel within its own cap (without ``n``,
the lattice kernel) and refuses when neither kernel fits.
"""

from __future__ import annotations

import math
from functools import cached_property

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

# Per-evaluation caps of the two kernels; ``pick_kernel`` runs one within its
# cap or refuses.  Lattice: the C(K+d, d) terms scanned.  Histogram: the cells
# of its count array (float64: 32 MB; the kernel peaks at about three such).
MAX_LATTICE_TERMS = 10**9
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


def pick_kernel(d: int, horizon: int, counts=None) -> str:
    """``"histogram"`` or ``"lattice"``: the cheaper exact kernel within its
    own cap at the grid point with (reduced) ``counts`` (only their max and
    sum are read), or at an off-grid point (``None``); else ``SizeCapError``.

    The lattice scans C(K+d, d) terms.  The histogram makes d passes over its
    count array to build it and about two more to weigh the atoms, at
    ``HISTOGRAM_CELL_COST`` lattice terms per cell; it also needs its largest
    count dim_K = C(K+d-1, d-1) below 2**53, to stay exact, and its least
    possible atom 1/(n M_K) above ``kernels.PROB_FLOOR``.
    """
    terms = math.comb(horizon + d, d)
    histogram = "needs a grid point"
    if counts is not None:
        n = sum(counts)
        cells = (horizon + 1) * ((horizon - 1) * max(counts) + 2 * n + 1)
        dim = math.comb(horizon + d - 1, d - 1)
        atom = n * math.comb(horizon + d - 1, d)  # n M_K
        if cells <= MAX_HISTOGRAM_CELLS and dim < 2**53 and atom * kernels.PROB_FLOOR < 1:
            if terms > MAX_LATTICE_TERMS or HISTOGRAM_CELL_COST * (d + 2) * cells < terms:
                return "histogram"
        histogram = f"{cells} cells (cap {MAX_HISTOGRAM_CELLS}), dim_K = {dim} (cap 2**53 - 1)"
        histogram += f", least atom 1/{atom} (floor {kernels.PROB_FLOOR})"
    if terms <= MAX_LATTICE_TERMS:
        return "lattice"
    raise SizeCapError(
        f"d={d}, K={horizon}: {terms} lattice terms per evaluation exceed cap "
        f"{MAX_LATTICE_TERMS}; histogram kernel: {histogram}"
    )


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

        k_range = range(1, self.horizon + 1)
        self.log_dims = np.array(
            [math.log(block_dimension(d, k)) * self._inv_ln_base for k in k_range]
        )
        self.s_b = float(np.dot(self.weights, self.log_dims))

        self._inv_norm = np.zeros(self.horizon + 2)
        for k in k_range:
            self._inv_norm[k] = 1.0 / float(block_normalizer(d, k))

    @cached_property
    def _sub_tables(self) -> list:
        """The (d-1)-mode table of each sub-weight j = 0..K; built on first use."""
        return [composition_matrix(self.d - 1, j) for j in range(self.horizon + 1)]

    def block_entropies(self, mu, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Receiver/environment spectrum entropies of every block at ``mu``.

        Returns arrays ``(h_bx, h_ex)`` indexed by block ``k-1``, in base
        units, exactly matching the entropies of ``ensemble_spectrum_B/E``.
        With ``n``, ``mu`` must be a grid point ``counts / n`` (see
        ``grid_counts``); ``pick_kernel`` picks the kernel, or refuses.
        """
        mu_arr = np.ascontiguousarray(mu, dtype=np.float64)
        if mu_arr.shape != (self.d,):
            raise ValueError(f"ensemble must have {self.d} weights")
        counts, n = (None, None) if n is None else grid_counts(mu_arr, n)
        if pick_kernel(self.d, self.horizon, counts) == "histogram":
            return kernels.histogram_entropy(
                counts, n, self._inv_norm[1 : self.horizon + 1], self._inv_ln_base
            )
        out_b = np.zeros(self.horizon + 2)
        out_e = np.zeros(self.horizon + 2)
        tail = mu_arr[1:]
        for j, comps in enumerate(self._sub_tables):
            a_sub = np.zeros(comps.shape[0])
            for c in range(self.d - 1):
                a_sub += comps[:, c] * tail[c]
            kernels.block_family_entropy(
                a_sub,
                float(mu_arr[0]),
                self._inv_norm[j : self.horizon + 1],
                self._inv_norm[j + 1 : self.horizon + 2],
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
