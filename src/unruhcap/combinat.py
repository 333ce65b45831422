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

import numpy as np

__all__ = [
    "SizeCapError",
    "rounded_count",
    "composition_matrix",
    "composition_table",
    "block_dimension",
    "block_normalizer",
    "check_block",
    "check_dim",
    "eigen_multiplicity",
]


class SizeCapError(RuntimeError):
    """Raised when a requested construction exceeds its size cap."""


def rounded_count(count: int) -> str:
    """A positive integer ``count`` rounded up to two significant digits, as
    ``1.9e308``: a size-cap message's form of a count too long to print whole.
    Counts below 100 print whole."""
    if count < 100:
        return str(count)
    import decimal  # only a refusal loads it

    # MAX_EMAX: a count past 10**999999 rounds too, instead of overflowing.
    rounded = decimal.Context(prec=2, rounding=decimal.ROUND_CEILING, Emax=decimal.MAX_EMAX)
    return f"{rounded.create_decimal(count):.1e}".replace("e+", "e")


# composition_matrix stores entries as int32; weights beyond this never occur
# because the truncation horizon is capped at spectra.HORIZON_CAP.
_MAX_WEIGHT = 2**31 - 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr``, flagged read-only."""
    arr.setflags(write=False)
    return arr


def check_dim(d: int) -> None:
    """``ValueError`` unless the qudit dimension ``d`` is an integer >= 2."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")


def check_block(k: int) -> None:
    """``ValueError`` unless the block (cloner) index ``k`` is an integer >= 1."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"block index must be an integer >= 1, got {k!r}")


def composition_matrix(d: int, k: int) -> np.ndarray:
    """All length-``d`` compositions of ``k`` as a read-only int32 matrix.

    Rows are ordered lexicographically descending.  ``d = 1`` is allowed here
    (single row ``[k]``).  Row i is ``k - w`` followed by column i, of weight
    w, of ``composition_table(d - 1, k)``, so the first mode descends.
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
        tail = composition_table(d - 1, k)
        mat = np.empty((tail.shape[1], d), dtype=np.int32)
        mat[:, 1:] = tail.T
        np.subtract(k, tail.sum(axis=0, dtype=np.int32), out=mat[:, 0])
    return _readonly(mat)


def composition_table(d: int, horizon: int) -> np.ndarray:
    """Every length-``d`` composition of every weight j = 0..``horizon``, as a
    read-only int32 table with one row per mode (column = composition).

    Columns run by weight, and those of weight j are the rows of
    ``composition_matrix(d, j)`` in order; they start at column C(j+d-1, d).
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"composition dimension must be an integer >= 1, got {d!r}")
    if not isinstance(horizon, int) or not 0 <= horizon <= _MAX_WEIGHT:
        raise ValueError(f"composition horizon {horizon!r} out of supported range")
    table = np.arange(horizon + 1, dtype=np.int32)[None, :]
    sizes = [1] * (horizon + 1)  # compositions of each weight j
    for modes in range(2, d + 1):
        weight = np.repeat(np.arange(horizon + 1, dtype=np.int32), sizes)
        # Weight j with one more mode in front: (j - w, c) for the compositions
        # c of weight w = 0..j, which are the first C(j+modes-1, modes-1)
        # columns of ``table``, in order, so the front mode descends.
        sizes = [math.comb(j + modes - 1, modes - 1) for j in range(horizon + 1)]
        grown = np.empty((modes, sum(sizes)), dtype=np.int32)
        start = 0
        for j, size in enumerate(sizes):
            np.subtract(j, weight[:size], out=grown[0, start : start + size])
            grown[1:, start : start + size] = table[:, :size]
            start += size
        table = grown
    return _readonly(table)


def block_dimension(d: int, k: int) -> int:
    """Dimension C(k+d-1, d-1) of the weight-``k`` occupation basis (exact)."""
    check_dim(d)
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"weight must be an integer >= 0, got {k!r}")
    return math.comb(k + d - 1, d - 1)


def block_normalizer(d: int, k: int) -> int:
    """Trace normalizer M_k = C(k+d-1, d) of the weight-``k`` block (exact).

    Equals ``sum(b * eigen_multiplicity(d, k, b) for b in 1..k)``.
    """
    check_dim(d)
    check_block(k)
    return math.comb(k + d - 1, d)


def eigen_multiplicity(d: int, k: int, b: int) -> int:
    """Multiplicity m_b = C((k-b)+d-2, d-2) of eigenvalue b/M_k (exact)."""
    check_dim(d)
    check_block(k)
    if not isinstance(b, int) or not 1 <= b <= k:
        raise ValueError(f"eigenvalue index must lie in [1, {k}], got {b!r}")
    return math.comb((k - b) + d - 2, d - 2)
