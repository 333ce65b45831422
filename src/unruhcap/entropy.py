"""Shannon/von Neumann entropy of spectra and of the cyclic ensemble's input.

Entropies are returned in "dits" of an explicit base (default: the channel
dimension, so a maximally mixed qudit always has entropy 1), as a checked
``EntropyValue`` that records its base.  0 log 0 = 0 by continuity; every
atom that is not exactly 0, however small, is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, _as_ensemble, check_log_base

__all__ = [
    "EntropyValue",
    "shannon_entropy",
    "ensemble_conditional_entropy_A",
]


@dataclass(frozen=True)
class EntropyValue:
    """Entropy in dits of ``base``."""

    value: float
    base: float

    def __post_init__(self):
        check_log_base(self.base)
        if not math.isfinite(self.value):
            raise ValueError("entropy must be finite")
        if self.value < -1e-9:
            raise ValueError("entropy must be nonnegative")
        # Tiny negative rounding residue is clamped to exact zero.
        object.__setattr__(self, "value", max(0.0, float(self.value)))


def _entropy(values, multiplicities, base: float) -> EntropyValue:
    """-sum(m * p * log_base p) over the nonzero atoms p."""
    check_log_base(base)
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(multiplicities, dtype=np.float64)
    mask = v != 0.0
    vm = v[mask]
    return EntropyValue(float(-(m[mask] * vm * np.log(vm)).sum() * (1.0 / math.log(base))), base)


def shannon_entropy(spectrum: Spectrum, base: float) -> EntropyValue:
    """Entropy -sum(m * p * log_base p) of a spectrum with unit mass.

    ``Spectrum`` checks the mass when it is built; any other record of
    ``values`` and ``multiplicities`` is built into one first."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum.values, spectrum.multiplicities)
    return _entropy(spectrum.values, spectrum.multiplicities, base)


def ensemble_conditional_entropy_A(mu, base: float) -> EntropyValue:
    """Input-side conditional entropy of the cyclic ensemble: H(mu)."""
    params = _as_ensemble(mu)
    return _entropy(params.as_array(), np.ones(params.dimension), base)
