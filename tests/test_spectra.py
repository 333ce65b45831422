import math
from fractions import Fraction

import numpy as np
import pytest

from unruhcap.combinat import block_normalizer, eigen_multiplicity
from unruhcap.spectra import (
    ConvergenceError,
    EnsembleParams,
    Spectrum,
    UnruhConfig,
    cloner_spectrum,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation,
    truncation_horizon,
    unruh_weight,
    unruh_weights,
)


def test_cloner_spectrum_examples():
    assert cloner_spectrum(2, 2).atoms == [(1 / 3, 1), (2 / 3, 1)]
    assert cloner_spectrum(3, 2).atoms == [(1 / 4, 2), (2 / 4, 1)]
    for d in (2, 3, 5):
        assert cloner_spectrum(d, 1).atoms == [(1.0, 1)]


def test_cloner_spectrum_mass_exact_in_rational_arithmetic():
    for d in range(2, 6):
        for k in range(1, 11):
            m_k = block_normalizer(d, k)
            mass = sum(
                Fraction(b, m_k) * eigen_multiplicity(d, k, b) for b in range(1, k + 1)
            )
            assert mass == 1
            assert abs(cloner_spectrum(d, k).mass - 1.0) <= 1e-12


def test_ensemble_spectrum_B_examples():
    flat = ensemble_spectrum_B(2, 2, (0.5, 0.5))
    assert flat.values == pytest.approx([1 / 3] * 3, abs=1e-15)

    skewed = ensemble_spectrum_B(2, 2, (1.0, 0.0))
    assert skewed.values == pytest.approx([2 / 3, 1 / 3, 0.0], abs=1e-15)

    mu = (0.2, 0.5, 0.3)
    passthrough = ensemble_spectrum_B(3, 1, mu)
    assert passthrough.values == pytest.approx(mu, abs=1e-15)


def test_ensemble_spectrum_E_examples():
    for d, mu in ((2, (0.7, 0.3)), (3, (0.2, 0.5, 0.3))):
        single = ensemble_spectrum_E(d, 1, mu)
        assert single.atoms == [(1.0, 1)]

    skewed = ensemble_spectrum_E(2, 2, (1.0, 0.0))
    assert skewed.values == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    flat = ensemble_spectrum_E(2, 2, (0.5, 0.5))
    assert flat.values == pytest.approx([0.5, 0.5], abs=1e-15)


def test_ensemble_mass_identities_random():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        for k in (1, 4, 8):
            for _ in range(20):
                mu = tuple(rng.dirichlet(np.ones(d)))
                assert abs(ensemble_spectrum_B(d, k, mu).mass - 1.0) <= 1e-12
                assert abs(ensemble_spectrum_E(d, k, mu).mass - 1.0) <= 1e-12


def test_degenerate_ensemble_matches_cloner_up_to_zero_atoms():
    for d in (2, 3, 4):
        for k in range(1, 6):
            vertex = EnsembleParams.vertex(d)
            nonzero = np.sort(ensemble_spectrum_B(d, k, vertex).values)
            nonzero = nonzero[nonzero > 0]
            reference = np.sort(np.repeat(cloner_spectrum(d, k).values,
                                          cloner_spectrum(d, k).multiplicities))
            assert nonzero == pytest.approx(reference, abs=1e-12)


def test_unruh_weight_examples():
    for d in (2, 3, 5):
        assert unruh_weight(d, 0.0, 1) == 1.0
        assert unruh_weight(d, 0.0, 5) == 0.0
    assert unruh_weight(2, 0.5, 1) == pytest.approx(0.125, abs=1e-12)


def test_unruh_weight_normalization_tail():
    for d in (2, 3, 5):
        total = sum(unruh_weight(d, 0.75, k) for k in range(1, 201))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_truncation_horizon_noiseless():
    assert truncation_horizon(UnruhConfig(2, 0.0)) == 1
    assert truncation_horizon(UnruhConfig(5, 0.0, truncation_eps=1e-3)) == 1


def test_truncation_horizon_regression():
    # Pinned from a validated run; cross-checked by the numeric tail below.
    assert truncation_horizon(UnruhConfig(2, 0.5, truncation_eps=1e-6)) == 31


def test_truncation_horizon_tail_is_certified():
    assert truncation(UnruhConfig(3, 0.0)) == (1, 0.0)
    for d, z, eps in ((2, 0.5, 1e-8), (3, 0.75, 1e-8), (5, 0.25, 1e-8), (2, 0.95, 1e-10)):
        cfg = UnruhConfig(d, z, truncation_eps=eps)
        horizon, bound = truncation(cfg)
        assert horizon == truncation_horizon(cfg)
        assert 0.0 < bound <= eps

        def tail_term(k):
            return unruh_weight(d, z, k) * (
                1.0 + math.log(math.comb(k + d - 1, d - 1)) / math.log(cfg.base)
            )

        assert bound == pytest.approx(tail_term(horizon + 1) / (1.0 - math.sqrt(z)), rel=1e-12)
        tail = sum(tail_term(k) for k in range(horizon + 1, horizon + 4001))
        assert tail <= bound


def test_truncation_horizon_weakly_monotone_in_eps():
    horizons = [
        truncation_horizon(UnruhConfig(3, 0.6, truncation_eps=eps))
        for eps in (1e-4, 1e-6, 1e-8, 1e-10)
    ]
    assert horizons == sorted(horizons)


def test_truncation_horizon_hard_cap():
    with pytest.raises(ConvergenceError):
        truncation_horizon(UnruhConfig(2, 0.9999))


def test_unruh_weights_mass():
    weights = unruh_weights(UnruhConfig(2, 0.5))
    assert weights.size == truncation_horizon(UnruhConfig(2, 0.5))
    assert weights.sum() >= 1.0 - 1e-8


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([-0.1, 1.1]), np.array([1, 1]))
    with pytest.raises(ValueError):
        Spectrum(np.array([0.5, 0.4]), np.array([1, 1]))  # mass 0.9
    with pytest.raises(ValueError):
        Spectrum(np.array([0.5, 0.5]), np.array([1, 0]))


def test_spectrum_eigenvalues_padding():
    eigs = cloner_spectrum(3, 2).eigenvalues(pad_to=6)
    assert eigs == pytest.approx([0.0, 0.0, 0.0, 0.25, 0.25, 0.5], abs=1e-15)
    with pytest.raises(ValueError):
        cloner_spectrum(3, 2).eigenvalues(pad_to=2)


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams((0.5, 0.6))
    with pytest.raises(ValueError):
        EnsembleParams((1.2, -0.2))
    with pytest.raises(ValueError):
        EnsembleParams((1.0,))
    uniform = EnsembleParams.uniform(4)
    assert uniform.dimension == 4
    assert EnsembleParams.vertex(3, 1).mu == (0.0, 1.0, 0.0)


def test_unruh_config_validation():
    with pytest.raises(ValueError):
        UnruhConfig(1, 0.5)
    with pytest.raises(ValueError):
        UnruhConfig(2, 1.0)
    with pytest.raises(ValueError):
        UnruhConfig(2, 0.5, truncation_eps=0.0)
    with pytest.raises(ValueError):
        UnruhConfig(2, 0.5, log_base=1.0)
    assert UnruhConfig(3, 0.5).base == 3.0
    assert UnruhConfig(3, 0.5, log_base=2.0).base == 2.0
