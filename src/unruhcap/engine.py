"""Per-block entropy evaluation engine for ensemble sweeps.

Region sweeps spend essentially all their time evaluating, for one ensemble
``mu``, the receiver and environment spectrum entropies of every retained
block.  Two exact kernels do this:

* the lattice kernel (any ``mu``) peels off the first mode: every weight-``j``
  composition of the trailing ``d-1`` modes, extended by ``b1`` photons in
  mode 1, is a basis vector of block ``k = j + b1`` (receiver side) and of
  block ``k + 1`` (environment side, with the +1 photon shift).  One
  evaluation takes the trailing dot products of all sub-weights from one
  (d-1)-mode table, then makes one kernel call per sub-weight, C(K+d, d)
  terms in all.  Each block's terms from one sub-weight are one contiguous
  1-D pairwise row sum, accumulated in sub-weight order; that order fixes
  the output bits (see ``kernels``).
* the histogram kernel (a grid point ``mu = counts / n``) counts, per block,
  how many basis vectors share each integer atom numerator ``b . counts``:
  the t modes of the commonest count in closed form, the other d - t in
  about (d - t)(K+1)(K max(counts) + 2n) cell operations, 16 blocks at a
  time, then weighs each block with matrix-vector products against v and
  v log v (one 1-D log per evaluation; see ``kernels.histogram_entropy``).

Every sweep passes each orbit's integer ``counts``.  ``pick_kernel``, the one
size gate, chooses by structure alone: a grid point at d >= 3 runs on the
histogram whenever it fits that kernel's conditions, and the lattice takes
d = 2, off-grid points (such as the rows the CQ/CE curves evaluate again near
a hull vertex) and orbits past the histogram's conditions, within its caps on
terms and on table entries; anything else is refused.

A third kernel, ``family_sums``, serves the one-heavy ensembles
(a, b, ..., b) alone, in about K**2 terms for any d, with no gate.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import kernels
from .combinat import SizeCapError, block_dimension, block_normalizer, check_dim, composition_table
from .combinat import rounded_count
from .spectra import check_log_base, check_normalizer

__all__ = [
    "MAX_HISTOGRAM_CELLS",
    "MAX_LATTICE_ENTRIES",
    "MAX_LATTICE_TERMS",
    "TradeoffEvaluator",
    "pick_kernel",
]

# Per-evaluation caps of the two kernels; ``pick_kernel`` runs one within its
# caps or refuses.  Lattice: the C(K+d, d) terms scanned, and the int32
# entries of the (d-1)-mode table it builds once.  Histogram: the cells of its
# (K+1)-row count array, swept once per mode (it holds 16 + d rows of them at
# a time).
MAX_LATTICE_TERMS = 10**9
MAX_LATTICE_ENTRIES = 10**8
MAX_HISTOGRAM_CELLS = 4 * 10**6


def pick_kernel(d: int, horizon: int, counts=None) -> str:
    """``"histogram"`` or ``"lattice"`` by the structure of the input, else
    ``SizeCapError``.

    A grid point with (reduced) ``counts`` (only their max and sum are read)
    at d >= 3 runs on the histogram within its two conditions: at most
    ``MAX_HISTOGRAM_CELLS`` cells, and its largest count dim_K =
    C(K+d-1, d-1) below 2**53, to stay exact.  The lattice takes the rest:
    d = 2, where no two basis vectors of a block share an atom numerator
    b1 c1 + b2 c2 unless c1 = c2, so the histogram has nothing to merge;
    off-grid points (``None``); and grid points past the histogram's
    conditions.  It needs its C(K+d, d) terms and the (d-1) dim_K entries of
    its table within their caps.
    """
    dim = block_dimension(d, horizon)
    histogram = "needs a grid point at d >= 3"
    if counts is not None and d > 2:
        cells = (horizon + 1) * ((horizon - 1) * max(counts) + 2 * sum(counts) + 1)
        if cells <= MAX_HISTOGRAM_CELLS and dim < 2**53:
            return "histogram"
        histogram = (
            f"{rounded_count(cells)} cells (cap {MAX_HISTOGRAM_CELLS}), "
            f"dim_K = {rounded_count(dim)} (cap 2**53 - 1)"
        )
    terms = math.comb(horizon + d, d)
    if terms <= MAX_LATTICE_TERMS and (d - 1) * dim <= MAX_LATTICE_ENTRIES:
        return "lattice"
    raise SizeCapError(
        f"d={d}, K={horizon}: lattice kernel: {rounded_count(terms)} terms per evaluation "
        f"(cap {MAX_LATTICE_TERMS}) and {rounded_count((d - 1) * dim)} table entries "
        f"(cap {MAX_LATTICE_ENTRIES}), one or both exceed cap; histogram kernel: {histogram}"
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
        check_dim(d)
        check_log_base(base)
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
        check_normalizer(d, self.horizon)  # M_k grows with k

        k_range = range(1, self.horizon + 1)
        self.log_dims = np.array(
            [math.log(block_dimension(d, k)) * self._inv_ln_base for k in k_range]
        )
        self.s_b = float(np.dot(self.weights, self.log_dims))

        self._inv_norm = np.zeros(self.horizon + 2)
        for k in k_range:
            self._inv_norm[k] = 1.0 / float(block_normalizer(d, k))

    @cached_property
    def _lattice(self) -> tuple:
        """The lattice kernel's constants, built on first use: the (d-1)-mode
        table of every sub-weight j = 0..K, the column span of each j in it,
        the column b1 = 0..K, and the (2, K+1, 1) normalizer pairs: row 0
        holds 1/M_k and row 1 holds 1/M_{k+1}, for k = 0..K."""
        table = composition_table(self.d - 1, self.horizon)
        starts = [math.comb(j + self.d - 2, self.d - 1) for j in range(self.horizon + 2)]
        b1 = np.arange(self.horizon + 1, dtype=np.float64)[:, None]
        pairs = np.stack((self._inv_norm[:-1], self._inv_norm[1:]))[:, :, None]
        return table, list(zip(starts[:-1], starts[1:])), b1, pairs

    def block_entropies(self, mu, counts=None) -> tuple[np.ndarray, np.ndarray]:
        """Receiver/environment spectrum entropies of every block at ``mu``.

        Returns arrays ``(h_bx, h_ex)`` indexed by block ``k-1``, in base
        units, exactly matching the entropies of ``ensemble_spectrum_B/E``.
        ``counts``, a tuple of d integers, says that ``mu`` is the grid point
        ``counts / sum(counts)``, which must equal it exactly (both are
        correctly rounded quotients of the same integers at a grid row);
        ``pick_kernel`` picks the kernel from them, or refuses.
        """
        mu_arr = np.ascontiguousarray(mu, dtype=np.float64)
        if mu_arr.shape != (self.d,):
            raise ValueError(f"ensemble must have {self.d} weights")
        if counts is not None:
            if not sum(counts) > 0:
                raise ValueError(f"grid counts {counts} must have a positive sum")
            if not np.array_equal(np.divide(counts, sum(counts)), mu_arr):
                raise ValueError(f"ensemble {mu_arr.tolist()} is not counts {counts} / their sum")
        if pick_kernel(self.d, self.horizon, counts) == "histogram":
            return kernels.histogram_entropy(counts, self._inv_norm[1:-1], self._inv_ln_base)
        table, spans, b1, pairs = self._lattice
        a_all = np.zeros(table.shape[1])
        for c in range(self.d - 1):
            a_all += table[c] * mu_arr[c + 1]
        mu_b1 = mu_arr[0] * b1
        # Row 0: receiver block k at column k; row 1: environment block k+1.
        out = np.zeros((2, self.horizon + 1))
        for j, (start, stop) in enumerate(spans):
            kernels.block_family_entropy(
                a_all[start:stop],
                pairs[:, j:],
                mu_b1[: self.horizon + 1 - j],
                self._inv_ln_base,
                out,
                j,
            )
        return out[0, 1:], out[1, :-1]

    def sums(self, mu, counts=None) -> tuple[float, float]:
        """Weighted sums (sum_k p_k H_B|X,k, sum_k p_k H_E|X,k) at ``mu``
        (the grid point ``counts / sum(counts)`` when ``counts`` is given)."""
        h_bx, h_ex = self.block_entropies(mu, counts)
        return float(np.dot(self.weights, h_bx)), float(np.dot(self.weights, h_ex))

    def family_sums(self, a: float) -> tuple[float, float]:
        """``sums`` at (a, b, ..., b), b = (1-a)/(d-1), a in [0, 1], on the family kernel."""
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"family weight a = {a!r} must lie in [0, 1]")
        return kernels.family_sums(a, self.d, self.weights, self._inv_norm, self._inv_ln_base)
