"""Trade-off capacity regions for universal qudit cloners and the qudit Unruh channel.

The package has two independent computation routes that check each other:

* a closed-form route (``combinat`` -> ``spectra`` -> ``entropy`` -> ``regions``)
  built on exact occupation-vector combinatorics, and
* a matrix-level oracle (``channelsim``) that constructs cloner isometries,
  Unruh blocks, complementary channels and rank-one Kraus sets explicitly.

``cli`` exposes both as reproducible sweep/verify commands.
"""

__version__ = "0.1.0"

import os

# No computation here is large enough to gain from a threaded BLAS, but
# OpenBLAS starts its worker threads when numpy loads, and they spin for
# tens of milliseconds before sleeping, doubling the CPU time of a short
# command.  One thread unless the caller chose otherwise; this only takes
# effect when the package is imported before numpy, as by the CLI.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .combinat import block_dimension, block_normalizer, eigen_multiplicity
from .entropy import EntropyValue, ensemble_conditional_entropy_A, shannon_entropy
from .spectra import (
    ConvergenceError,
    EnsembleParams,
    Spectrum,
    UnruhConfig,
    cloner_spectrum,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation_horizon,
    unruh_weight,
    unruh_weights,
)

__all__ = [
    "block_dimension",
    "block_normalizer",
    "eigen_multiplicity",
    "EntropyValue",
    "shannon_entropy",
    "ensemble_conditional_entropy_A",
    "Spectrum",
    "EnsembleParams",
    "UnruhConfig",
    "ConvergenceError",
    "cloner_spectrum",
    "ensemble_spectrum_B",
    "ensemble_spectrum_E",
    "unruh_weight",
    "unruh_weights",
    "truncation_horizon",
    "__version__",
]
