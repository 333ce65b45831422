import importlib.util

import numpy as np
import pytest

from unruhcap import kernels, regions
from unruhcap.engine import TradeoffEvaluator
from unruhcap.entropy import shannon_entropy
from unruhcap.spectra import UnruhConfig, ensemble_spectrum_B, ensemble_spectrum_E

HAVE_COMPILED = importlib.util.find_spec("unruhcap._fast") is not None


def test_backend_is_reported():
    assert kernels.BACKEND in ("compiled", "python")


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


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
def test_backend_parity_block_family():
    from unruhcap import _fast, _kernels_py

    rng = np.random.default_rng(37)
    for rows, b1_count in ((1, 40), (500, 12), (20000, 6)):
        a_sub = np.sort(np.abs(rng.standard_normal(rows)))
        inv_b = 1.0 / np.linspace(rows + 1.0, 8.0 * rows + 1.0, b1_count)
        inv_e = 1.0 / np.linspace(rows + 2.0, 8.0 * rows + 2.0, b1_count)
        inv_b[0] = 0.0
        inv_e[-1] = 0.0
        results = []
        for impl in (_fast, _kernels_py):
            out_b = np.zeros(b1_count + 10)
            out_e = np.zeros(b1_count + 10)
            impl.block_family_entropy(a_sub, 0.42, inv_b, inv_e, 1.0, out_b, out_e, 2)
            results.append((out_b, out_e))
        assert np.max(np.abs(results[0][0] - results[1][0])) < 1e-12
        assert np.max(np.abs(results[0][1] - results[1][1])) < 1e-12


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
def test_backend_parity_spectrum_entropy():
    from unruhcap import _fast, _kernels_py

    rng = np.random.default_rng(41)
    values = rng.dirichlet(np.ones(5000))
    mults = np.ones(5000)
    a = _fast.spectrum_entropy_terms(values, mults, 1.4426950408889634)
    b = _kernels_py.spectrum_entropy_terms(values, mults, 1.4426950408889634)
    assert a == pytest.approx(b, abs=1e-12)
