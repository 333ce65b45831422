"""Closed-form output spectra of cloner blocks and the Unruh block weights.

The weight-``k`` block of the Unruh channel, normalized, is a 1->k universal
cloner; its output spectrum for any pure input is ``{b/M_k : b = 1..k}`` with
multiplicities ``m_b``.  For the cyclic trade-off ensembles the receiver and
environment spectra are linear statistics ``alpha(b)/M_k`` over occupation
vectors.  Atoms are kept unmerged, ordered exactly as the rows of
:func:`unruhcap.combinat.composition_matrix`, so spectra compare bit-for-bit
against the matrix oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .combinat import (
    SizeCapError,
    _readonly,
    block_dimension,
    block_normalizer,
    check_block,
    check_dim,
    composition_matrix,
    eigen_multiplicity,
    rounded_count,
)

__all__ = [
    "HORIZON_CAP",
    "MASS_TOL",
    "MAX_SPECTRUM_ROWS",
    "Spectrum",
    "EnsembleParams",
    "UnruhConfig",
    "ConvergenceError",
    "check_log_base",
    "check_normalizer",
    "cloner_spectrum",
    "ensemble_spectrum_B",
    "ensemble_spectrum_E",
    "unruh_weight",
    "unruh_weights",
    "truncation",
    "truncation_horizon",
]

MASS_TOL = 1e-12

# Largest truncation horizon K that truncation_horizon will search.
HORIZON_CAP = 10_000

# Atoms (one per b = 1..k) of the largest cloner spectrum built; larger k is
# refused before any atom is computed.
MAX_SPECTRUM_ROWS = 10**6


class ConvergenceError(RuntimeError):
    """Raised when a series truncation cannot meet its target within the hard cap."""


@dataclass(frozen=True)
class Spectrum:
    """Finite probability distribution as (value, multiplicity) atoms."""

    values: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        values = _readonly(np.array(self.values, dtype=np.float64))
        mults = _readonly(np.array(self.multiplicities, dtype=np.int64))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", mults)
        if values.ndim != 1 or values.shape != mults.shape:
            raise ValueError("values and multiplicities must be 1-D and aligned")
        if values.size == 0:
            raise ValueError("spectrum needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum probabilities must be finite")
        if np.any(values < 0.0):
            raise ValueError("spectrum probabilities must be nonnegative")
        if np.any(mults < 1):
            raise ValueError("multiplicities must be positive integers")
        if abs(self.mass - 1.0) > MASS_TOL:
            raise ValueError(f"spectrum mass {self.mass!r} deviates from 1 beyond {MASS_TOL}")

    @property
    def mass(self) -> float:
        return float(np.dot(self.values, self.multiplicities))

    @property
    def atoms(self) -> list[tuple[float, int]]:
        return [(float(v), int(m)) for v, m in zip(self.values, self.multiplicities)]

    def eigenvalues(self, pad_to: int | None = None) -> np.ndarray:
        """Atoms expanded by multiplicity, ascending, optionally zero-padded."""
        expanded = np.repeat(self.values, self.multiplicities)
        if pad_to is not None:
            if pad_to < expanded.size:
                raise ValueError("pad_to smaller than the expanded spectrum")
            expanded = np.concatenate([np.zeros(pad_to - expanded.size), expanded])
        return np.sort(expanded)


@dataclass(frozen=True)
class EnsembleParams:
    """Point on the probability simplex: the cyclic-ensemble weights."""

    mu: tuple[float, ...]

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) < 2:
            raise ValueError("ensemble needs at least 2 weights")
        if not all(math.isfinite(x) for x in mu):
            raise ValueError("ensemble weights must be finite")
        if any(x < 0.0 for x in mu):
            raise ValueError("ensemble weights must be nonnegative")
        if abs(math.fsum(mu) - 1.0) > MASS_TOL:
            raise ValueError("ensemble weights must sum to 1")

    @classmethod
    def uniform(cls, d: int) -> "EnsembleParams":
        return cls(tuple([1.0 / d] * d))

    @classmethod
    def vertex(cls, d: int, j: int = 0) -> "EnsembleParams":
        if not 0 <= j < d:
            raise ValueError("vertex index out of range")
        mu = [0.0] * d
        mu[j] = 1.0
        return cls(tuple(mu))

    @property
    def dimension(self) -> int:
        return len(self.mu)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=np.float64)


def _as_ensemble(mu, d: int | None = None) -> EnsembleParams:
    """``mu`` as ``EnsembleParams``, optionally checked to have ``d`` weights."""
    params = mu if isinstance(mu, EnsembleParams) else EnsembleParams(tuple(mu))
    if d is not None and params.dimension != d:
        raise ValueError(f"ensemble has {params.dimension} weights, expected {d}")
    return params


def check_log_base(base: float) -> None:
    """``ValueError`` unless the entropy log ``base`` is finite and exceeds 1
    (an infinite base would turn every entropy into 0)."""
    if base <= 1.0:
        raise ValueError("log base must exceed 1")
    if not math.isfinite(base):
        raise ValueError("log base must be finite")


@dataclass(frozen=True)
class UnruhConfig:
    """Channel dimension, acceleration parameter z = tanh^2 r, and numerics:
    the one check of the dimension, z, ``truncation_eps`` and ``log_base``
    rules, which ``regions.ChannelSpec`` applies to a cloner block too.  A z
    of -0.0 is stored as 0.0, so both spellings print alike."""

    d: int
    z: float
    truncation_eps: float = 1e-8
    log_base: float | None = None

    def __post_init__(self):
        check_dim(self.d)
        if not 0.0 <= self.z < 1.0:
            raise ValueError("acceleration parameter must satisfy 0 <= z < 1")
        object.__setattr__(self, "z", self.z + 0.0)  # -0.0 + 0.0 is 0.0
        if not self.truncation_eps > 0.0:
            raise ValueError("truncation_eps must be positive")
        if self.log_base is not None:
            check_log_base(self.log_base)

    @property
    def base(self) -> float:
        return float(self.d) if self.log_base is None else float(self.log_base)


def cloner_spectrum(d: int, k: int) -> Spectrum:
    """Output spectrum {(b/M_k, m_b)} of a 1->k cloner for any pure input."""
    if k > MAX_SPECTRUM_ROWS:
        raise SizeCapError(f"k={k}: {k} spectrum rows exceed cap {MAX_SPECTRUM_ROWS}")
    m_k = block_normalizer(d, k)
    values = np.array([b / m_k for b in range(1, k + 1)], dtype=np.float64)
    mults = np.array([eigen_multiplicity(d, k, b) for b in range(1, k + 1)], dtype=np.int64)
    return Spectrum(values, mults)


def ensemble_spectrum_B(d: int, k: int, mu) -> Spectrum:
    """Receiver spectrum of the cyclic ensemble: one atom alpha(b)/M_k per
    weight-``k`` occupation vector, in composition order, unmerged."""
    params = _as_ensemble(mu, d)
    check_block(k)
    comps = composition_matrix(d, k)
    alpha = comps @ params.as_array()
    values = alpha / block_normalizer(d, k)
    return Spectrum(values, np.ones(values.size, dtype=np.int64))


def ensemble_spectrum_E(d: int, k: int, mu) -> Spectrum:
    """Environment spectrum of the cyclic ensemble: (1 + alpha(b))/M_k per
    weight-``k-1`` occupation vector."""
    params = _as_ensemble(mu, d)
    check_block(k)
    comps = composition_matrix(d, k - 1)
    gamma = comps @ params.as_array() + 1.0
    values = gamma / block_normalizer(d, k)
    return Spectrum(values, np.ones(values.size, dtype=np.int64))


def unruh_weight(d: int, z: float, k: int) -> float:
    """Block weight p_k(z) = (1-z)^(d+1) z^(k-1) C(k+d-1, d)."""
    UnruhConfig(d, z)
    check_block(k)
    return _weight(d, z, k)


def _weight(d: int, z: float, k: int) -> float:
    """``unruh_weight`` of a checked (d, z) and k >= 1."""
    if z == 0.0:
        return 1.0 if k == 1 else 0.0
    # Log space: the binomial outgrows float range long before p_k does.
    log_p = (
        (d + 1) * math.log1p(-z)
        + (k - 1) * math.log(z)
        + math.log(block_normalizer(d, k))
    )
    return math.exp(log_p)


def check_normalizer(d: int, k: int) -> None:
    """``SizeCapError`` when the block normalizer M_k = C(k+d-1, d) is past
    the float range, so that no atom of block k can be formed as a float."""
    top = block_normalizer(d, k)
    if top > sys.float_info.max:
        raise SizeCapError(
            f"d={d}, k={k}: block normalizer M_k = C({k + d - 1}, {d}) ~ {rounded_count(top)} "
            "exceeds the float range"
        )


def _tail_term(d: int, z: float, k: int, base: float) -> tuple[float, float]:
    """The weight p_k and its majorant p_k * (1 + log_base dim_k) for the
    truncation bound."""
    p = _weight(d, z, k)
    return p, p * (1.0 + math.log(block_dimension(d, k)) / math.log(base))


def truncation(cfg: UnruhConfig) -> tuple[int, float]:
    """Smallest K whose entropy-weighted tail is certified below
    truncation_eps, with that certified tail bound.

    Each discarded block can contribute at most t_k = p_k * (1 + log_base
    dim_k) to any region quantity.  Those terms eventually decay faster than
    sqrt(z)^k; once that geometric dominance is reached the tail beyond K is
    bounded by t_{K+1} / (1 - sqrt(z)), and the first K whose bound is at
    most truncation_eps is returned with the bound (0 when z = 0).  The
    bound also covers the discarded weight, so p_1 + ... + p_K plus the
    bound must reach 1 within ``MASS_TOL``: weights that underflow pass the
    dominance test vacuously and fail this one.  Raises
    :class:`ConvergenceError` when it fails, and past ``HORIZON_CAP``, and
    ``SizeCapError`` at the first block whose normalizer is past the float
    range (``check_normalizer``).
    """
    if cfg.z == 0.0:
        return 1, 0.0
    base = cfg.base
    sqrt_z = math.sqrt(cfg.z)
    p, t_prev = _tail_term(cfg.d, cfg.z, 1, base)
    mass = 0.0  # p_1 + ... + p_k
    for k in range(1, HORIZON_CAP + 1):
        check_normalizer(cfg.d, k)
        mass += p
        p, t_next = _tail_term(cfg.d, cfg.z, k + 1, base)
        tail = t_next / (1.0 - sqrt_z)
        if t_next <= sqrt_z * t_prev and tail <= cfg.truncation_eps:
            if mass + tail < 1.0 - MASS_TOL:
                raise ConvergenceError(
                    f"truncation for d={cfg.d}, z={cfg.z}: the block weights underflow; "
                    f"retained mass {mass!r} plus tail bound {tail!r} falls short of 1 at K={k}"
                )
            return k, tail
        t_prev = t_next
    raise ConvergenceError(
        f"truncation horizon for d={cfg.d}, z={cfg.z} exceeds hard cap {HORIZON_CAP}"
    )


def truncation_horizon(cfg: UnruhConfig) -> int:
    """The horizon K of :func:`truncation`."""
    return truncation(cfg)[0]


def unruh_weights(cfg: UnruhConfig, horizon: int | None = None) -> np.ndarray:
    """Block weights p_1..p_K at ``horizon``, by default the config's own
    truncation horizon."""
    if horizon is None:
        horizon = truncation_horizon(cfg)
    return np.array([_weight(cfg.d, cfg.z, k) for k in range(1, horizon + 1)])
