import math
from dataclasses import dataclass

import numpy as np
import pytest

from unruhcap import channelsim
from unruhcap.engine import TradeoffEvaluator
from unruhcap.entropy import (
    EntropyValue,
    ensemble_conditional_entropy_A,
    shannon_entropy,
)
from unruhcap.regions import cloner_entropy_triple
from unruhcap.spectra import EnsembleParams, Spectrum, UnruhConfig, cloner_spectrum, unruh_weights


def flat_spectrum(n):
    return Spectrum(np.full(n, 1.0 / n), np.ones(n, dtype=np.int64))


def test_shannon_entropy_uniform_is_one_in_matching_base():
    for d in (2, 3, 5, 7):
        assert shannon_entropy(flat_spectrum(d), float(d)).value == pytest.approx(1.0, abs=1e-14)


def test_shannon_entropy_pure_is_zero():
    assert shannon_entropy(Spectrum(np.array([1.0]), np.array([1])), 2.0).value == 0.0


def test_shannon_entropy_skips_only_exact_zero_atoms():
    # The 1e-16 atom is real mass and adds its 5.3e-15 bits; an exact 0 adds
    # nothing (0 log 0 = 0).
    spectrum = Spectrum(np.array([1.0, 1e-16]), np.array([1, 1]))
    assert shannon_entropy(spectrum, 2.0).value == pytest.approx(-1e-16 * math.log2(1e-16), rel=1e-12)
    assert shannon_entropy(Spectrum(np.array([1.0, 0.0]), np.array([1, 1])), 2.0).value == 0.0


def test_shannon_entropy_cloner_22():
    # Closed form: H(1/3, 2/3) = log2(3) - 2/3.
    expected = math.log2(3) - 2.0 / 3.0
    got = shannon_entropy(cloner_spectrum(2, 2), 2.0).value
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(0.9183, abs=5e-5)


def test_shannon_entropy_multiplicities_weighted():
    spectrum = cloner_spectrum(3, 2)  # atoms (1/4, mult 2), (1/2, mult 1)
    expected = -(2 * 0.25 * math.log2(0.25) + 0.5 * math.log2(0.5))
    assert shannon_entropy(spectrum, 2.0).value == pytest.approx(expected, abs=1e-14)


def test_shannon_entropy_rejects_bad_mass():
    @dataclass
    class Stub:
        values: np.ndarray
        multiplicities: np.ndarray

        @property
        def mass(self):
            return float(np.dot(self.values, self.multiplicities))

    bad = Stub(np.array([0.5, 0.49]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        shannon_entropy(bad, 2.0)


def test_entropy_permutation_invariance():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(9))
    perm = rng.permutation(9)
    base = 3.0
    h1 = shannon_entropy(Spectrum(probs, np.ones(9, dtype=np.int64)), base).value
    h2 = shannon_entropy(Spectrum(probs[perm], np.ones(9, dtype=np.int64)), base).value
    assert h1 == pytest.approx(h2, abs=1e-13)


def test_block_decomposition_matches_block_diagonal_matrix_oracle():
    # Truncated block-diagonal output, diagonalized outright, against the
    # blockwise decomposition H(p) + sum_k p_k H_k with the same truncation.
    cfg = UnruhConfig(2, 0.5, truncation_eps=1e-3, log_base=2.0)
    weights = unruh_weights(cfg)
    rng = np.random.default_rng(21)
    beta = channelsim.random_pure_state(2, rng)
    eigs = []
    comps = []
    for k in range(1, weights.size + 1):
        block = channelsim.unruh_block_output(2, k, beta)
        eigs.append(weights[k - 1] * block.eigenvalues())
        comps.append(shannon_entropy(cloner_spectrum(2, k), 2.0).value)
    flat = np.concatenate(eigs)
    flat = flat[flat > 1e-15]
    direct = float(-(flat * np.log2(flat)).sum())
    decomposed = float(-(weights * np.log2(weights)).sum() + weights @ comps)
    assert decomposed == pytest.approx(direct, abs=1e-8)


def test_ensemble_conditional_entropy_examples():
    for d in (2, 3, 5):
        assert ensemble_conditional_entropy_A(
            EnsembleParams.uniform(d), float(d)
        ).value == pytest.approx(1.0, abs=1e-14)
    assert ensemble_conditional_entropy_A(EnsembleParams.vertex(3), 3.0).value == 0.0
    expected = -math.fsum(p * math.log2(p) for p in (0.7, 0.3))
    got = ensemble_conditional_entropy_A((0.7, 0.3), 2.0).value
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(0.8813, abs=5e-5)


def test_ensemble_conditional_entropy_refuses_base_1_as_shannon_entropy_does():
    # Both check the base before they divide by its log, which is 0 here.
    with pytest.raises(ValueError, match="log base must exceed 1"):
        ensemble_conditional_entropy_A((0.7, 0.3), 1.0)
    with pytest.raises(ValueError, match="log base must exceed 1"):
        shannon_entropy(flat_spectrum(2), 1.0)


def test_concavity_spot_check():
    rng = np.random.default_rng(17)
    mults = np.ones(8, dtype=np.int64)
    for _ in range(25):
        p1 = rng.dirichlet(np.ones(8))
        p2 = rng.dirichlet(np.ones(8))
        merged = Spectrum((p1 + p2) / 2.0, mults)
        h_merged = shannon_entropy(merged, 2.0).value
        h_avg = 0.5 * (
            shannon_entropy(Spectrum(p1, mults), 2.0).value
            + shannon_entropy(Spectrum(p2, mults), 2.0).value
        )
        assert h_merged >= h_avg - 1e-12


def test_entropy_value_guards():
    with pytest.raises(ValueError):
        EntropyValue(-0.5, 2.0)
    with pytest.raises(ValueError):
        EntropyValue(0.5, 1.0)
    assert EntropyValue(-1e-12, 2.0).value == 0.0  # rounding residue clamps


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: EnsembleParams((bad, 1.0)),
        lambda bad: Spectrum([bad, 1.0], [1, 1]),
        lambda bad: TradeoffEvaluator(2, [bad, 0.5], 2.0),
        lambda bad: cloner_entropy_triple(2, 2, (bad, 1.0)),
        lambda bad: TradeoffEvaluator(2, [1.0], bad),
        lambda bad: UnruhConfig(2, 0.5, log_base=bad),
        lambda bad: shannon_entropy(flat_spectrum(2), bad),
        lambda bad: EntropyValue(0.5, bad),
    ],
    ids=[
        "ensemble",
        "spectrum",
        "evaluator-weights",
        "cloner-triple",
        "evaluator-base",
        "config-base",
        "shannon-base",
        "value-base",
    ],
)
def test_validated_records_refuse_nonfinite_numbers(build, bad):
    # A NaN compares false against every bound, so range checks alone let it through.
    with pytest.raises(ValueError, match="finite"):
        build(bad)
