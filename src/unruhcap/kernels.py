"""Hot entropy kernels (numpy).

Probabilities at or below ``PROB_FLOOR`` contribute nothing (0 log 0 = 0 by
continuity, and rounding residue below the floor is treated as zero).
"""

import numpy as np

__all__ = ["BACKEND", "PROB_FLOOR", "spectrum_entropy_terms", "block_family_entropy"]

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
