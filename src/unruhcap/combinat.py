"""Exact integer combinatorics of occupation-vector bases.

Multi-mode photon-number states with a fixed total excitation count are
indexed by occupation vectors: ``d`` nonnegative integers summing to ``k``.
Everything here is computed with exact Python integers so that downstream
spectra can rely on identities such as ``sum(b * multiplicity(b)) ==
normalizer`` holding exactly; floating point enters only when probabilities
are finally formed.

The row order of :func:`composition_matrix` (lexicographic descending) is
part of the public contract: it fixes the basis ordering of every matrix and
spectrum produced elsewhere in the package.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "SizeCapError",
    "composition_matrix",
    "block_dimension",
    "block_normalizer",
    "eigen_multiplicity",
]


class SizeCapError(RuntimeError):
    """Raised when a requested construction exceeds its size cap."""


# composition_matrix stores entries as int32; weights beyond this never occur
# because the truncation horizon is capped at spectra.HORIZON_CAP.
_MAX_WEIGHT = 2**31 - 1


def _check_dim(d: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")


@lru_cache(maxsize=None)
def composition_matrix(d: int, k: int) -> np.ndarray:
    """All length-``d`` compositions of ``k`` as a read-only int32 matrix.

    Rows are ordered lexicographically descending.  ``d = 1`` is allowed here
    (single row ``[k]``) because the sweep engine peels off the first mode and
    recurses on the remaining ``d - 1``.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"composition dimension must be an integer >= 1, got {d!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"composition weight must be an integer >= 0, got {k!r}")
    if k > _MAX_WEIGHT:
        raise ValueError(f"composition weight {k} out of supported range")
    if d == 1:
        mat = np.array([[k]], dtype=np.int32)
    else:
        blocks = []
        for first in range(k, -1, -1):
            sub = composition_matrix(d - 1, k - first)
            blk = np.empty((sub.shape[0], d), dtype=np.int32)
            blk[:, 0] = first
            blk[:, 1:] = sub
            blocks.append(blk)
        mat = np.vstack(blocks)
    mat.setflags(write=False)
    return mat


def block_dimension(d: int, k: int) -> int:
    """Dimension C(k+d-1, d-1) of the weight-``k`` occupation basis (exact)."""
    _check_dim(d)
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"weight must be an integer >= 0, got {k!r}")
    return math.comb(k + d - 1, d - 1)


def block_normalizer(d: int, k: int) -> int:
    """Trace normalizer M_k = C(k+d-1, d) of the weight-``k`` block (exact).

    Equals ``sum(b * eigen_multiplicity(d, k, b) for b in 1..k)``.
    """
    _check_dim(d)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"block index must be an integer >= 1, got {k!r}")
    return math.comb(k + d - 1, d)


def eigen_multiplicity(d: int, k: int, b: int) -> int:
    """Multiplicity m_b = C((k-b)+d-2, d-2) of eigenvalue b/M_k (exact)."""
    _check_dim(d)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"block index must be an integer >= 1, got {k!r}")
    if not isinstance(b, int) or not 1 <= b <= k:
        raise ValueError(f"eigenvalue index must lie in [1, {k}], got {b!r}")
    return math.comb((k - b) + d - 2, d - 2)
