"""Hot entropy kernels (numpy).

Atoms are sums of nonnegative terms, so an atom adds nothing (0 log 0 = 0)
only when it is exactly 0; any other atom, however small, is real mass.
The kernels set zero atoms to 1 before the log, since 1 log 1 is an exact 0.

Bit contract of the lattice kernel: each block's contribution from one
sub-weight is one contiguous 1-D pairwise row sum of its terms, in
composition order, and those contributions are accumulated in sub-weight
order.  The CQ and CE curves evaluate every row within ``HULL_TOL`` of a
hull vertex once more on its own, on this kernel; the last bits of those
evaluations decide which of several tied rows the hull flags, so a change in
how the terms are grouped or ordered can move an ``on_hull`` flag.  From
d = 3 on ``engine.TradeoffEvaluator.lattice_entropies`` runs those rows in
stacks, one call per sub-weight for several ensembles: each ensemble's
block rows are still row sums of their own, so each gets its lone
evaluation's bits.  Two such rows that differ by a swap of weights 1 and 2
share one set of terms: the second row's terms are the first's at swapped
columns, bit for bit, so gathering them in that column order (or reading
them through a reversed view, whose pairwise sum runs in the view's order)
and summing each block row as one pairwise row sum, as a lone evaluation of
the second row sums it, gives that evaluation's bits.  The histogram kernel
has no such contract: rows evaluated on it are exact to rounding only.
"""

import math

import numpy as np

__all__ = [
    "BACKEND",
    "HISTOGRAM_CHUNK",
    "block_family_entropy",
    "histogram_entropy",
    "family_sums",
]

# Recorded in benchmark fingerprints; runs compare only within one backend.
BACKEND = "python"

# Blocks of count rows the histogram kernel builds at a time.
HISTOGRAM_CHUNK = 16


def block_family_entropy(a_sub, inv_norm, mu_b1, inv_ln_base, out, j, order=None, mate=None):
    """Accumulate per-block spectrum entropies for one sub-composition family.

    ``a_sub`` holds the dot products of every (d-1)-mode composition of
    weight ``j`` with the trailing ensemble weights, and the (m, 1) column
    ``mu_b1`` holds ``mu1*b1`` for b1 = 0..m-1.  Prepending a first mode with
    ``b1`` photons lands in block ``k = j + b1``: the receiver-side atom is
    ``(mu1*b1 + a) / M_k`` and the environment-side atom of block ``k + 1`` is
    ``(mu1*b1 + a + 1) / M_{k+1}``.  ``inv_norm`` is the (2, m, 1) normalizer
    pair: ``inv_norm[0, b1]`` is 1/M_k and ``inv_norm[1, b1]`` is 1/M_{k+1};
    a zero inverse normalizer makes every atom of its side an exact 0.
    Entropy contributions (in units of the configured log base) are
    subtracted from ``out[0, j + b1]`` (receiver block k) and
    ``out[1, j + b1]`` (environment block k + 1).  Both sides share one
    ``(2, m, L)`` array, so row ``[side, b1]`` holds the terms of one block
    and is summed on its own.

    A stack of E ensembles passes ``a_sub`` as (E, L), ``mu_b1`` as
    (E, m, 1) and ``out`` (and ``mate``) as (E, 2, K+1), against one shared
    ``inv_norm``; its terms are one (2, E, m, L) array, and each of its
    block rows is still one contiguous row sum, so every ensemble of a stack
    gets the bits of its own lone call.  The sides lead, so each is one
    contiguous block of the scratch array's shape, as in a lone call.

    With ``order``, a permutation of the columns of ``a_sub`` (an index
    array, or a slice such as the reversal ``::-1``), the same ``p log p``
    terms are also gathered in that column order, one side at a time (a
    slice is read as a view, an index array gathers into the scratch
    array), and each row is reduced into ``mate`` as into ``out``: the
    contribution of the ensembles whose dot products are
    ``a_sub[..., order]``.

    A call holds the 16 E m L bytes of ``p`` and one (E, m, L) float64
    scratch array, 24 E m L bytes, plus the 2 E m L bytes of the bool zero
    mask while it lives and an index ``order``'s 8 L bytes.  The scratch
    array holds, in turn, the atoms' numerators ``mu1*b1 + a`` (scaled into
    ``p[0]``), those plus 1 (scaled into ``p[1]``), each side's logs, and a
    mate's gathered terms of each side.  ``engine.pick_kernel`` prices a row
    at 34 m L bytes, which covers this for every E m >= 1.
    """
    m = mu_b1.shape[-2]
    x = np.add(mu_b1, a_sub[..., None, :])  # the scratch array
    p = np.empty((2, *x.shape))
    np.multiply(x, inv_norm[0], out=p[0])
    x += 1.0
    np.multiply(x, inv_norm[1], out=p[1])
    np.putmask(p, p == 0.0, 1.0)
    for side in p:
        side *= np.log(side, out=x)  # p log p
    h = np.add.reduce(p, axis=-1)
    h *= inv_ln_base
    out[..., j : j + m] -= h.swapaxes(0, -2)
    if order is not None:
        for side, h_side in zip(p, h):
            if isinstance(order, slice):  # a view, read in that order
                np.add.reduce(side[..., order], axis=-1, out=h_side)
            else:
                side.take(order, axis=-1, out=x, mode="clip")  # "clip" writes out unbuffered
                np.add.reduce(x, axis=-1, out=h_side)
        h *= inv_ln_base
        mate[..., j : j + m] -= h.swapaxes(0, -2)


def histogram_entropy(counts, inv_norm, inv_ln_base):
    """Per-block spectrum entropies at the grid ensemble ``counts / n``.

    ``counts`` is a tuple of d nonnegative integers, n = sum(counts), and
    ``inv_norm`` holds 1/M_k for blocks k = 1..K.  Every atom of block k is
    an integer ``v`` over ``n * M_k``, so the spectra are fixed by the counts
    N_k[v] = #{b in comp(d, k) : b . counts = v}, the coefficients of
    prod_i 1/(1 - y x^counts_i).  The t modes that share the commonest count
    c give the closed form N_k[k c] = C(k+t-1, t-1) on their own, and the
    other d - t modes are multiplied in one row pass each (none at a uniform
    point); permuting equal counts only relabels basis vectors, so the order
    of the modes changes no count.  The receiver atoms of block k are
    v/(n M_k) with multiplicity N_k[v]; the environment atoms of block k are
    (v + n)/(n M_k) with multiplicity N_{k-1}[v].
    Returns arrays ``(h_b, h_e)`` indexed by block ``k-1``.

    With s = 1/(n M_k), a side's sum_v N[v] p log p is
    s * (sum_v N[v] v log v + log s * sum_v N[v] v): one 1-D log of v log v
    over the numerators, then two matrix-vector products per side.  Both
    sides of a block read equal-shaped row views against the same vectors,
    so equal spectra (the two sides of every block at a vertex) give equal
    bits.  The rows are built ``HISTOGRAM_CHUNK`` blocks at a time, each
    chunk starting from the closed-form column; each of the d - t passes
    carries its last row of the previous chunk forward, so memory is
    O((HISTOGRAM_CHUNK + d) * width), not O(K * width).

    ``engine.pick_kernel`` keeps every count, at most dim_K = C(K+d-1, d-1),
    below 2**53, so it is exact, and the closed form is exact from Python
    integers: the sums read the same rows whatever the mode order, bit for bit.
    """
    horizon, n = inv_norm.shape[0], sum(counts)
    width = (horizon - 1) * max(counts) + n + 1
    v = np.arange(width, dtype=np.float64)
    vlogv = v * np.log(np.maximum(v, 1.0))  # 0 log 0 = 0
    # The commonest count c, shared by t modes, and the other modes.
    c = max(counts, key=counts.count)
    t = counts.count(c)
    rest = [b for b in counts if b != c]
    # Those t modes alone put C(k+t-1, t-1) vectors at atom k c of block k.
    start = np.array([float(math.comb(k + t - 1, t - 1)) for k in range(horizon + 1)])
    # Row r holds n zeros, then N_{k0+r}: row r-1 read from column 0 is
    # N_{k0+r-1} moved up by n, aligned with row r's atoms.
    hist = np.zeros((HISTOGRAM_CHUNK + 1, n + width))
    nk = hist[:, n:]
    # carry[i]: row 0 of the chunk, N_{k0}, after mode rest[i] (the previous
    # chunk's last row).
    carry = np.zeros((len(rest), width))
    carry[:, 0] = 1.0
    # A pass of count b adds row r-1, moved up by b, into row r; its row
    # views are made once, since every chunk reuses the same rows.
    passes = {
        b: [(nk[r, b:], nk[r - 1, : width - b]) for r in range(1, HISTOGRAM_CHUNK + 1)]
        for b in set(rest)
    }
    # [sum N v log v, sum N v] per side and block.
    sums = np.empty((2, 2, horizon))
    for k0 in range(0, horizon, HISTOGRAM_CHUNK):
        m = min(HISTOGRAM_CHUNK, horizon - k0)
        k = np.arange(k0, k0 + m + 1)
        nk[: m + 1] = 0.0
        nk[k - k0, k * c] = start[k]
        for i, b in enumerate(rest):
            nk[0] = carry[i]
            for row, prev in passes[b][:m]:
                row += prev
            carry[i] = nk[m]
        for side, rows in enumerate((nk[1 : m + 1], hist[:m, :width])):
            np.matmul(rows, vlogv, out=sums[0, side, k0 : k0 + m])
            np.matmul(rows, v, out=sums[1, side, k0 : k0 + m])
    s = inv_norm / n
    h = s * (sums[0] + np.log(s) * sums[1])
    h *= -inv_ln_base
    return h[0], h[1]


def family_sums(a, d, weights, inv_norm, inv_ln_base):
    """Weighted sums (sum_k p_k H_B|X,k, sum_k p_k H_E|X,k) at the ensemble
    (a, b, ..., b), b = (1-a)/(d-1), for block ``weights`` p_1..p_K.

    The weight-k vectors with n1 photons in mode 1 and r = k - n1 in the
    others share the receiver atom ``(a*n1 + b*r) / M_k`` of block k and the
    environment atom ``(a*n1 + b*r + 1) / M_{k+1}`` of block k+1
    (``inv_norm[k]`` is 1/M_k); there are C(r+d-2, d-2) of them, a float
    rounded above 2**53.  Each k with a weighted block takes one (2, k+1)
    array: O(K^2) terms for any d, in O(K) memory.
    """
    horizon = len(weights)
    counts = np.arange(horizon + 1, dtype=np.float64)
    a_n1, b_r = a * counts, (1.0 - a) / (d - 1) * counts
    mult = np.array([float(math.comb(r + d - 2, d - 2)) for r in range(horizon + 1)])
    h = np.zeros((2, horizon + 1))
    for k in np.flatnonzero(np.convolve(weights, [1.0, 1.0])):  # p_k or p_{k+1} > 0
        p = np.empty((2, k + 1))
        np.add(a_n1[k::-1], b_r[: k + 1], out=p[0])  # n1 = k - r
        np.add(p[0], 1.0, out=p[1])
        p *= inv_norm[k : k + 2, None]
        np.putmask(p, p == 0.0, 1.0)
        plogp = np.log(p)
        plogp *= p
        h[:, k] = plogp @ mult[: k + 1]
    h *= -inv_ln_base
    return float(np.dot(weights, h[0, 1:])), float(np.dot(weights, h[1, :-1]))
