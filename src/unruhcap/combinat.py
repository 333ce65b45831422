"""Exact integer combinatorics of occupation-vector bases.

Multi-mode photon-number states with a fixed total excitation count are
indexed by occupation vectors: ``d`` nonnegative integers summing to ``k``.
Everything here is computed with exact Python integers so that downstream
spectra can rely on identities such as ``sum(b * multiplicity(b)) ==
normalizer`` holding exactly; floating point enters only when probabilities
are finally formed.

The enumeration order of :func:`compositions` (lexicographic descending) is
part of the public contract: it fixes the basis ordering of every matrix and
spectrum produced elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SizeCapError",
    "OccupationVector",
    "compositions",
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


@dataclass(frozen=True)
class OccupationVector:
    """Occupation numbers of ``d >= 2`` modes; ``weight`` is the photon total."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("occupation vector needs at least 2 modes")
        if any((not isinstance(n, int)) or n < 0 for n in self.entries):
            raise ValueError("occupation numbers must be nonnegative integers")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        return sum(self.entries)


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


def compositions(d: int, k: int) -> list[OccupationVector]:
    """Every occupation vector of dimension ``d`` and weight ``k``.

    The order is lexicographic descending, e.g. ``(2,0), (1,1), (0,2)`` for
    ``d = 2, k = 2``; there are ``block_dimension(d, k)`` entries.
    """
    _check_dim(d)
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"weight must be an integer >= 0, got {k!r}")
    mat = composition_matrix(d, k)
    return [OccupationVector(tuple(int(v) for v in row)) for row in mat]


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
