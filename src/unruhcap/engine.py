"""Per-block entropy evaluation engine for ensemble sweeps.

Region sweeps spend essentially all their time evaluating, for one ensemble
``mu``, the receiver and environment spectrum entropies of every retained
block.  Two exact kernels do this:

* the lattice kernel (any ``mu``) peels off the first mode: every weight-``j``
  composition of the trailing ``d-1`` modes, extended by ``b1`` photons in
  mode 1, is a basis vector of block ``k = j + b1`` (receiver side) and of
  block ``k + 1`` (environment side, with the +1 photon shift).  One
  evaluation makes one kernel call per sub-weight, C(K+d, d) terms in all,
  each on its sub-weight's trailing dot products, formed just before the call
  from that sub-weight's span of one (d-1)-mode table.  Each block's terms
  from one sub-weight are one contiguous 1-D pairwise row sum, accumulated in
  sub-weight order; that order fixes the output bits (see ``kernels``).
  ``lattice_entropies`` evaluates several off-grid rows with each row's lone
  bits: from d = 3 on it pairs each row with its swap mate (mu0, mu2, mu1,
  mu3, ...), whose terms are the row's at the columns of the compositions with
  their first two entries exchanged (each dot product is built from zeros one
  trailing mode at a time, and fl(x + y) = fl(y + x)), and runs the rows in
  stacks that share the table, one kernel call per sub-weight for a whole
  stack.
* the histogram kernel (a grid point ``mu = counts / n``) counts, per block,
  how many basis vectors share each integer atom numerator ``b . counts``:
  the t modes of the commonest count in closed form, the other d - t in
  about (d - t)(K+1)(K max(counts) + 2n) cell operations, 16 blocks at a
  time, then weighs each block with matrix-vector products against v and
  v log v (one 1-D log per evaluation; see ``kernels.histogram_entropy``).

Every sweep passes each orbit's integer ``counts``.  ``pick_kernel``, the one
kernel gate, picks one kernel per input by structure alone, with no fallback:
a grid point at d >= 3 runs on the histogram, and the lattice takes d = 2 and
off-grid points (such as the rows the CQ/CE curves evaluate again near a hull
vertex).  Either is refused only past one memory cap, ``MAX_KERNEL_BYTES`` =
4e8 bytes (what one lattice evaluation holds: its int32 table, a swap order,
the largest sub-weight's dot products and terms, and the bookkeeping; the
histogram's chunk buffers), and the histogram also when its counts would not
be exact floats.  It returns the kernel with its work in one unit, lattice
terms, a histogram cell priced at ``CELL_PRICE`` = 0.18 terms (the largest
per-orbit median of ``kernels.histogram_entropy``, about 2.6 ns a cell,
against 14 ns a lattice term).  ``run_work`` holds a run, every orbit of a
sweep, the rows a curve evaluates again, or one lone evaluation, to one budget
before anything is built: ``MAX_RUN_WORK`` = 1e9 terms, about 14 s.

A third kernel, ``family_sums``, serves the one-heavy ensembles
(a, b, ..., b) alone, in about K**2 terms for any d, with no gate.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import kernels
from .combinat import SizeCapError, block_dimension, block_normalizer, check_dim, composition_table
from .combinat import capped_comb, count_text, rounded_count
from .spectra import check_log_base, check_normalizer

__all__ = [
    "CELL_PRICE",
    "MAX_KERNEL_BYTES",
    "MAX_RUN_WORK",
    "STACK_BYTES",
    "TradeoffEvaluator",
    "pick_kernel",
    "run_work",
    "stack_rows",
]

# The work of a run, in lattice terms (about 14 s of them), the memory of one
# evaluation on either kernel, in bytes, and the price of a histogram cell in
# lattice terms.  Timed per call, in one process: the median time per cell of
# a histogram orbit is 2.0-2.6 ns on the sweeps whose time is cell traffic
# (sweep-d3 and cqe-region at d = 3, 6, 7, z = 0.97), the largest on
# sweep-d3, whose lattice evaluations take 14.3 ns a term; the price covers
# 2.56 / 14.26 = 0.1795, rounded up.  Region-d5's orbits of 3,700 cells take
# about 30 ns a cell, fixed per-call work that a per-cell price cannot model
# and that no run near the budget is made of.
MAX_RUN_WORK = 10**9
MAX_KERNEL_BYTES = 4 * 10**8
CELL_PRICE = 0.18

# The float64 terms of one stack of lattice evaluations at its largest
# sub-weight: 2**19 bytes gives stacks of 12 rows at d = 3, z = 0.75 (K =
# 102), 4 at d = 4, z = 0.5 and 1 at d = 5, z = 0.5.  And the bookkeeping of
# one lattice evaluation, in bytes, rounded up from tracemalloc's counts: a
# sub-weight's span of two Python ints, b1 entry and normalizer pair (160)
# and its mu1 b1 entry and two accumulator columns (48), and the Python and
# numpy objects of the evaluation (8192) and of its row (1024: array
# headers, result views).
STACK_BYTES = 2**19
LATTICE_SUB_WEIGHT = 160 + 48
LATTICE_OBJECTS = 8192 + 1024


def pick_kernel(d: int, horizon: int, counts=None) -> tuple[str, float]:
    """The kernel of one evaluation, ``"histogram"`` or ``"lattice"``, by the
    structure of the input, and its work in lattice terms; ``SizeCapError``
    past ``MAX_KERNEL_BYTES``.

    A grid point with (reduced) ``counts`` (only their max and sum are read)
    at d >= 3 runs on the histogram: (K+1) rows of w = (K-1) max(counts) +
    2 sum(counts) + 1 cells, each priced at ``CELL_PRICE`` terms, of which it
    holds (``kernels.HISTOGRAM_CHUNK`` + 1 + d) float64 rows at a time.  It is
    refused past the byte cap, and when its largest count dim_K =
    C(K+d-1, d-1) is 2**53 or more, which its floats would not hold exactly.
    Everything else runs on the lattice: d = 2, where no two basis vectors of
    a block share an atom numerator b1 c1 + b2 c2 unless c1 = c2, so the
    histogram has nothing to merge, and off-grid points (``None``).  Its work
    is C(K+d, d) terms, and its memory what one evaluation holds
    (``_lattice_bytes``): the (d-1) dim_K int32 entries of its table, one
    swap order, 34 m L bytes for the largest sub-weight's kernel call, and
    the O(K) bookkeeping.  A call holds 26 m L of those bytes (see
    ``kernels.block_family_entropy``); the 8 m L of slack holds the
    sub-weight's float64 dot products and, while they are formed, their
    product temporary, 16 L bytes, and a swap pair's L-entry swap order at
    any other sub-weight.  The cap keeps dim_K far below 2**53, so a dim_K
    that ``capped_comb`` does not build is refused on either kernel.
    """
    check_dim(d)
    dim = capped_comb(horizon + d - 1, d - 1, 2**53 - 1)
    if counts is not None and d > 2:
        row = (horizon - 1) * max(counts) + 2 * sum(counts) + 1
        size = 8 * (kernels.HISTOGRAM_CHUNK + 1 + d) * row
        if size <= MAX_KERNEL_BYTES and dim < 2**53:
            return "histogram", (horizon + 1) * row * CELL_PRICE
        raise SizeCapError(
            f"d={d}, K={horizon}: histogram kernel: {rounded_count(size)} bytes "
            f"(cap {MAX_KERNEL_BYTES}) and dim_K = {count_text(horizon + d - 1, d - 1, dim)} "
            "(cap 2**53 - 1), one or both exceed cap"
        )
    size = math.inf
    if dim < math.inf:
        size = _lattice_bytes(d, horizon, dim)
        if size <= MAX_KERNEL_BYTES:
            return "lattice", dim * (horizon + d) // d  # C(K+d, d)
    n = horizon + d - 1
    shown = rounded_count(size) if size < math.inf else count_text(n, d - 1, dim, 4 * d + 4)
    raise SizeCapError(
        f"d={d}, K={horizon}: lattice kernel: {count_text(n, d - 1, dim, d - 1)} int32 table "
        f"entries and {shown} bytes in all (the table, the largest sub-weight's dot "
        f"products and terms, and the bookkeeping) exceed cap {MAX_KERNEL_BYTES} bytes"
    )


def _largest_sub_weight(d: int, horizon: int) -> tuple[int, int]:
    """(m, L) of the lattice's largest sub-weight, the one with the most
    terms m L = (K+1-j) C(j+d-2, d-2): the first j >= ((d-2) K - 1) / (d-1),
    in closed form."""
    j = max(0, -(-((d - 2) * horizon - 1) // (d - 1)))
    return horizon + 1 - j, math.comb(j + d - 2, d - 2)


def _lattice_bytes(d: int, horizon: int, dim: int) -> int:
    """The bytes one lattice evaluation holds: the (d-1) dim_K int32 entries
    of the table, one swap order of the largest sub-weight's L int64
    columns, 34 m L bytes for the largest sub-weight's kernel call,
    ``LATTICE_SUB_WEIGHT`` bytes a sub-weight and ``LATTICE_OBJECTS``.  The
    call holds 26 m L bytes: its (2, m, L) float64 terms, one (m, L) float64
    scratch array and their bool zero mask.  The 8 m L of slack holds the
    sub-weight's L float64 dot products, formed from zeros one trailing mode
    at a time with a product temporary of their size before the call, 16 L
    bytes, while the previous sub-weight's are still held.
    """
    m, length = _largest_sub_weight(d, horizon)
    held = 4 * (d - 1) * dim + 8 * length + 34 * m * length
    return held + LATTICE_SUB_WEIGHT * (horizon + 1) + LATTICE_OBJECTS


def stack_rows(d: int, horizon: int) -> int:
    """The rows of one stack of lattice evaluations: as many as keep the
    largest sub-weight's float64 (2, m, L) terms, 16 m L bytes a row, within
    ``STACK_BYTES``, and as many lone evaluations within ``MAX_KERNEL_BYTES``
    (an upper bound: a stack shares its table and swap order); at least
    one, which ``pick_kernel`` prices as a lone evaluation."""
    m, length = _largest_sub_weight(d, horizon)
    lone = _lattice_bytes(d, horizon, math.comb(horizon + d - 1, d - 1))
    return max(1, min(STACK_BYTES // (16 * m * length), MAX_KERNEL_BYTES // lone))


def run_work(d: int, horizon: int, orbits) -> float:
    """The summed work, in lattice terms, of one evaluation at each of
    ``orbits`` (reduced counts, or ``None`` off the grid) on the kernel
    ``pick_kernel`` names; ``SizeCapError`` when it refuses one, or when the
    sum is past ``MAX_RUN_WORK``.  A lone evaluation is a run of one."""
    work = [pick_kernel(d, horizon, counts)[1] for counts in orbits]
    total = math.fsum(work)
    if total > MAX_RUN_WORK:
        costliest = max(range(len(work)), key=work.__getitem__)
        counts = orbits[costliest]
        where = "off the grid" if counts is None else f"at counts {tuple(c for c in counts if c)}"
        raise SizeCapError(
            f"d={d}, K={horizon}: {len(orbits)} evaluations of "
            f"{rounded_count(math.ceil(total))} lattice terms of work "
            f"(a histogram cell priced at {CELL_PRICE:.3g}) exceed cap {MAX_RUN_WORK}, "
            f"the run budget; the costliest, {where}, takes "
            f"{rounded_count(math.ceil(work[costliest]))}"
        )
    return total


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

    def _swap_orders(self):
        """The swap order of each sub-weight j's span, built as the pair's
        lattice loop reaches it: the column, within the span, of each
        composition with its first two entries exchanged.  The table's
        weight-j columns descend lexicographically over n = d-1 modes, so the
        column of (t0, t1, rest) is C(j - t0 + n - 2, n - 1), the count of
        compositions with a larger first entry, plus a rank that depends on
        ``rest`` alone; exchanging t0 and t1 moves the first term only.  At
        d = 3, (t0, j - t0) sits at column j - t0, so the swap reverses the
        span: its order is the slice ``::-1``."""
        if self.d == 3:  # a reversed view, which the kernel sums without a copy
            yield from (slice(None, None, -1),) * (self.horizon + 1)
            return
        table, spans, _, _ = self._lattice
        n = self.d - 1
        before = np.array([math.comb(u + n - 2, n - 1) for u in range(self.horizon + 1)])
        for j, (start, stop) in enumerate(spans):
            order = before[j - table[1, start:stop]]
            order -= before[j - table[0, start:stop]]
            order += np.arange(stop - start)
            yield order

    def _ensemble_array(self, mu) -> np.ndarray:
        mu_arr = np.ascontiguousarray(mu, dtype=np.float64)
        if mu_arr.shape != (self.d,):
            raise ValueError(f"ensemble must have {self.d} weights")
        return mu_arr

    def block_entropies(self, mu, counts=None) -> tuple[np.ndarray, np.ndarray]:
        """Receiver/environment spectrum entropies of every block at ``mu``.

        Returns arrays ``(h_bx, h_ex)`` indexed by block ``k-1``, in base
        units, exactly matching the entropies of ``ensemble_spectrum_B/E``.
        ``counts``, a tuple of d integers, says that ``mu`` is the grid point
        ``counts / sum(counts)``, which must equal it exactly (both are
        correctly rounded quotients of the same integers at a grid row);
        ``pick_kernel`` picks the kernel from them.  The evaluation is
        refused past ``run_work``'s budget as a run of one (a sweep has
        priced all its orbits together before it builds the grid).
        """
        mu_arr = self._ensemble_array(mu)
        if counts is not None:
            if not sum(counts) > 0:
                raise ValueError(f"grid counts {counts} must have a positive sum")
            if not np.array_equal(np.divide(counts, sum(counts)), mu_arr):
                raise ValueError(f"ensemble {mu_arr.tolist()} is not counts {counts} / their sum")
        run_work(self.d, self.horizon, [counts])
        if pick_kernel(self.d, self.horizon, counts)[0] == "histogram":
            return kernels.histogram_entropy(counts, self._inv_norm[1:-1], self._inv_ln_base)
        return self._lattice_entropies(mu_arr[None])[0][0]

    def lattice_entropies(self, mus) -> list:
        """``block_entropies`` at each row of ``mus``, an (n, d) array, on the
        lattice kernel: each row's ``(h_bx, h_ex)``, in input order, bit for
        bit those of a lone evaluation.

        The n rows are priced as one run of lone evaluations before the first
        kernel call.  At d = 2 each row is a lone ``block_entropies`` call,
        one kernel call per sub-weight.  From d = 3 on, two rows that differ
        by a swap of weights 1 and 2 (mu0, mu2, mu1, mu3, ...), found by exact
        lookup, are one swap pair, evaluated from one set of lattice terms:
        the dot products start from zeros and add one trailing mode at a
        time, and fl(x + y) = fl(y + x), so the mate's dot product at each
        column is its head's at the column ``_swap_orders`` names; the mate's
        terms are the head's gathered in that order, and each of its block
        rows is summed as a lone evaluation of the mate sums it.  The pairs,
        then the single rows, run ``stack_rows`` at a time, one kernel call
        per sub-weight for the whole stack.
        """
        mus = np.ascontiguousarray(mus, dtype=np.float64)
        if mus.ndim != 2 or mus.shape[1] != self.d:
            raise ValueError(f"ensembles must be rows of {self.d} weights")
        run_work(self.d, self.horizon, [None] * len(mus))
        if self.d == 2:
            return [self.block_entropies(mu) for mu in mus]
        swapped = mus[:, [0, 2, 1, *range(3, self.d)]]
        at = {mu.tobytes(): i for i, mu in enumerate(mus)}
        pairs, singles, mates = [], [], set()
        for i in range(len(mus)):
            if i not in mates:  # not paired with an earlier row
                mate = at.get(swapped[i].tobytes(), i)
                if mate == i:
                    singles.append((i,))
                else:
                    pairs.append((i, mate))
                    mates.add(mate)
        entropies = {}
        rows = stack_rows(self.d, self.horizon)
        for group, swap in ((pairs, True), (singles, False)):
            for start in range(0, len(group), rows):
                stack = group[start : start + rows]
                heads = mus[[indices[0] for indices in stack]]
                for indices, results in zip(stack, self._lattice_entropies(heads, swap)):
                    entropies.update(zip(indices, results))
        return [entropies[i] for i in range(len(mus))]

    def _lattice_entropies(self, mus, swap=False) -> list:
        """A tuple for each row of the (E, d) stack ``mus``: its
        ``block_entropies`` on the lattice kernel, then with ``swap`` that of
        its swap mate.  A stack of one passes the kernel a lone evaluation's
        shapes."""
        table, spans, b1, pairs = self._lattice
        mu_b1 = mus[:, 0, None, None] * b1
        # Row 0: receiver block k at column k; row 1: environment block k+1.
        out = np.zeros((len(mus), 2, self.horizon + 1))
        mate = np.zeros_like(out) if swap else None
        orders = self._swap_orders() if swap else None
        at = 0 if len(mus) == 1 else slice(None)
        mus_at, mu_b1_at, out_at = mus[at], mu_b1[at], out[at]
        mate_at = None if mate is None else mate[at]
        for j, (start, stop) in enumerate(spans):
            # Sub-weight j's dot products, from zeros one trailing mode at a time.
            a = np.zeros(mus_at.shape[:-1] + (stop - start,))
            for c in range(self.d - 1):
                a += table[c, start:stop] * mus_at[..., c + 1, None]
            kernels.block_family_entropy(
                a,
                pairs[:, j:],
                mu_b1_at[..., : self.horizon + 1 - j, :],
                self._inv_ln_base,
                out_at,
                j,
                None if orders is None else next(orders),
                mate_at,
            )
        accumulators = (out,) if mate is None else (out, mate)
        return [tuple((h[0, 1:], h[1, :-1]) for h in row) for row in zip(*accumulators)]

    def sums(self, mu, counts=None) -> tuple[float, float]:
        """Weighted sums (sum_k p_k H_B|X,k, sum_k p_k H_E|X,k) at ``mu``
        (the grid point ``counts / sum(counts)`` when ``counts`` is given)."""
        return self.weighted_sums(self.block_entropies(mu, counts))

    def weighted_sums(self, entropies) -> tuple[float, float]:
        """The weighted sums of block entropies ``(h_bx, h_ex)``."""
        h_bx, h_ex = entropies
        return float(np.dot(self.weights, h_bx)), float(np.dot(self.weights, h_ex))

    def family_sums(self, a: float) -> tuple[float, float]:
        """``sums`` at (a, b, ..., b), b = (1-a)/(d-1), a in [0, 1], on the family kernel."""
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"family weight a = {a!r} must lie in [0, 1]")
        return kernels.family_sums(a, self.d, self.weights, self._inv_norm, self._inv_ln_base)
