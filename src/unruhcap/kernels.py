"""Hot entropy kernels (numpy).

Probabilities at or below ``PROB_FLOOR`` contribute nothing (0 log 0 = 0 by
continuity, and rounding residue below the floor is treated as zero).
"""

import numpy as np

__all__ = [
    "BACKEND",
    "PROB_FLOOR",
    "spectrum_entropy_terms",
    "block_family_entropy",
    "histogram_entropy",
]

# Recorded in benchmark fingerprints; runs compare only within one backend.
BACKEND = "python"

PROB_FLOOR = 1e-15


def spectrum_entropy_terms(values, multiplicities, inv_ln_base):
    """-sum(m * p * ln p) * inv_ln_base over atoms with p > PROB_FLOOR."""
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(multiplicities, dtype=np.float64)
    mask = v > PROB_FLOOR
    vm = v[mask]
    return float(-(m[mask] * vm * np.log(vm)).sum() * inv_ln_base)


def block_family_entropy(a_sub, mu1, inv_norm_b, inv_norm_e, inv_ln_base, out_b, out_e, j):
    """Accumulate per-block spectrum entropies for one sub-composition family.

    ``a_sub`` holds the dot products of every (d-1)-mode composition of
    weight ``j`` with the trailing ensemble weights.  Prepending a first mode
    with ``b1`` photons lands in block ``k = j + b1``: the receiver-side atom
    is ``(mu1*b1 + a) / M_k`` and the environment-side atom of block ``k + 1``
    is ``(mu1*b1 + a + 1) / M_{k+1}``.  Entropy contributions (in units of the
    configured log base) are added into ``out_b[j + b1]`` and
    ``out_e[j + b1 + 1]``; entries with a zero inverse normalizer are skipped.
    """
    m = inv_norm_b.shape[0]
    x = mu1 * np.arange(m, dtype=np.float64)[:, None] + a_sub[None, :]
    for shift, inv_norm, out, off in (
        (0.0, inv_norm_b, out_b, 0),
        (1.0, inv_norm_e, out_e, 1),
    ):
        p = (x + shift) * inv_norm[:, None]
        mask = p > PROB_FLOOR
        safe = np.where(mask, p, 1.0)
        terms = np.where(mask, p * np.log(safe), 0.0)
        out[j + off : j + off + m] -= terms.sum(axis=1) * inv_ln_base


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

    Every count is at most dim_K = C(K+d-1, d-1) <= C(K+d, d), which the
    engine caps at ``MAX_LATTICE_TERMS`` = 1e9 < 2**53 when it is built, so
    the float counts and all their partial sums are exact.
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
    plogp = np.zeros_like(p)
    np.log(p, out=plogp, where=p > PROB_FLOOR)
    plogp *= p
    del p
    h_b = -(nk[1:] * plogp).sum(axis=1) * inv_ln_base
    h_e = -(hist[:-1, :width] * plogp).sum(axis=1) * inv_ln_base
    return h_b, h_e
