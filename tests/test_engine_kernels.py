import numpy as np
import pytest

from unruhcap import kernels, regions
from unruhcap.engine import TradeoffEvaluator
from unruhcap.entropy import shannon_entropy
from unruhcap.spectra import UnruhConfig, ensemble_spectrum_B, ensemble_spectrum_E


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


def test_block_family_skips_floor_atoms_and_inactive_blocks():
    # Receiver atoms of block j+0 are [0.5, PROB_FLOOR, 1e-16, 0]: only 0.5
    # contributes.  Block j+1 and every environment block have a zero inverse
    # normalizer, so their atoms are all 0 and must add exactly nothing.
    a_sub = np.array([0.5, kernels.PROB_FLOOR, 1e-16, 0.0])
    inv_b = np.array([1.0, 0.0])
    inv_e = np.zeros(2)
    out_b = np.zeros(5)
    out_e = np.zeros(5)
    kernels.block_family_entropy(a_sub, 0.0, inv_b, inv_e, 1.0, out_b, out_e, 2)
    assert out_b.tolist() == [0.0, 0.0, -(0.5 * np.log(0.5)), 0.0, 0.0]
    assert out_e.tolist() == [0.0] * 5


def test_engine_matches_spectra_route_per_block():
    # Dual route: streamed kernel accumulation vs explicit spectrum objects.
    rng = np.random.default_rng(23)
    for d, k in ((2, 3), (3, 4), (4, 3), (5, 2)):
        weights = np.zeros(k)
        weights[-1] = 1.0
        evaluator = TradeoffEvaluator(d, weights, base=float(d))
        for _ in range(5):
            mu = rng.dirichlet(np.ones(d))
            h_bx, h_ex = evaluator.block_entropies(mu)
            for kk in range(1, k + 1):
                ref_b = shannon_entropy(ensemble_spectrum_B(d, kk, tuple(mu)), float(d)).value
                ref_e = shannon_entropy(ensemble_spectrum_E(d, kk, tuple(mu)), float(d)).value
                assert h_bx[kk - 1] == pytest.approx(ref_b, abs=1e-12)
                assert h_ex[kk - 1] == pytest.approx(ref_e, abs=1e-12)


def test_engine_weighted_sums_match_blockwise_dot():
    cfg = UnruhConfig(3, 0.4, log_base=2.0)
    spec = regions.ChannelSpec.from_unruh(cfg)
    evaluator = spec.evaluator()
    mu = np.array([0.6, 0.3, 0.1])
    h_bx, h_ex = evaluator.block_entropies(mu)
    s_bx, s_ex = evaluator.sums(mu)
    assert s_bx == pytest.approx(float(evaluator.weights @ h_bx), abs=1e-14)
    assert s_ex == pytest.approx(float(evaluator.weights @ h_ex), abs=1e-14)


def test_evaluator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TradeoffEvaluator(1, np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        TradeoffEvaluator(2, np.array([-0.5, 1.5]), 2.0)
    with pytest.raises(ValueError):
        TradeoffEvaluator(2, np.array([1.0]), 1.0)
    evaluator = TradeoffEvaluator(2, np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        evaluator.block_entropies(np.array([0.5, 0.3, 0.2]))
