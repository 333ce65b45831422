"""Hot entropy kernels (numpy).

Atoms are sums of nonnegative terms, so an atom adds nothing (0 log 0 = 0)
only when it is exactly 0; any other atom, however small, is real mass.
The kernels set zero atoms to 1 before the log, since 1 log 1 is an exact 0.

Bit contract of the lattice kernel: each block's contribution from one
sub-weight is one contiguous 1-D pairwise row sum of its terms, in
composition order, and those contributions are accumulated in sub-weight
order.  The CQ and CE curves evaluate each orbit once, and each tied
orbit-mate of a hull vertex once more on its own; the last bits of those
evaluations decide which mate the hull flags, so a change in how the terms
are grouped or ordered can move an ``on_hull`` flag.
"""

import math

import numpy as np

__all__ = [
    "BACKEND",
    "check_log_base",
    "spectrum_entropy_terms",
    "block_family_entropy",
    "histogram_entropy",
    "family_sums",
]

# Recorded in benchmark fingerprints; runs compare only within one backend.
BACKEND = "python"


def check_log_base(base: float) -> None:
    """``ValueError`` unless the entropy log ``base`` is finite and exceeds 1
    (an infinite base would turn every entropy into 0)."""
    if base <= 1.0:
        raise ValueError("log base must exceed 1")
    if not math.isfinite(base):
        raise ValueError("log base must be finite")


def spectrum_entropy_terms(values, multiplicities, inv_ln_base):
    """-sum(m * p * ln p) * inv_ln_base over the nonzero atoms p."""
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(multiplicities, dtype=np.float64)
    mask = v != 0.0
    vm = v[mask]
    return float(-(m[mask] * vm * np.log(vm)).sum() * inv_ln_base)


def block_family_entropy(a_sub, inv_norm, mu_b1, inv_ln_base, out, j):
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
    """
    m = mu_b1.shape[0]
    p = np.empty((2, m, a_sub.shape[0]))
    np.add(mu_b1, a_sub, out=p[0])
    np.add(p[0], 1.0, out=p[1])
    p *= inv_norm
    np.putmask(p, p == 0.0, 1.0)
    plogp = np.log(p)
    plogp *= p
    h = np.add.reduce(plogp, axis=2)
    h *= inv_ln_base
    out[:, j : j + m] -= h


def histogram_entropy(counts, n, inv_norm, inv_ln_base):
    """Per-block spectrum entropies at the grid ensemble ``counts / n``.

    ``counts`` are d nonnegative integers summing to ``n``, and ``inv_norm``
    holds 1/M_k for blocks k = 1..K.  Every atom of block k is an integer
    ``v`` over ``n * M_k``, so the spectra are fixed by the counts
    N_k[v] = #{b in comp(d, k) : b . counts = v}, the coefficients of
    prod_i 1/(1 - y x^counts_i), built one mode at a time.  The receiver
    atoms of block k are v/(n M_k) with multiplicity N_k[v]; the environment
    atoms of block k are (v + n)/(n M_k) with multiplicity N_{k-1}[v].
    Returns arrays ``(h_b, h_e)`` indexed by block ``k-1``.

    ``engine.pick_kernel`` keeps every count, at most dim_K = C(K+d-1, d-1),
    below 2**53, so it is exact.
    """
    horizon = inv_norm.shape[0]
    width = (horizon - 1) * max(counts) + n + 1
    # Row k holds n zeros, then N_k: row k-1 read from column 0 is N_{k-1}
    # moved up by n, aligned with row k's atoms.
    hist = np.zeros((horizon + 1, n + width))
    nk = hist[:, n:]
    nk[0, 0] = 1.0
    for c in counts:
        for k in range(1, horizon + 1):
            nk[k, c:] += nk[k - 1, : width - c]
    p = np.arange(width, dtype=np.float64) * (inv_norm / n)[:, None]
    p[p == 0.0] = 1.0
    plogp = np.log(p)
    plogp *= p
    del p
    h_b = -(nk[1:] * plogp).sum(axis=1) * inv_ln_base
    h_e = -(hist[:-1, :width] * plogp).sum(axis=1) * inv_ln_base
    return h_b, h_e


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
