"""The check routes' constructions against frozen copies of their earlier,
separately written bodies: the cloner isometry and the Unruh block each built
with their own composition-row lookup, the complement's Choi matrix by a
5-index einsum, the receiver and environment spectra each built by their
own function, and the complement's Kraus set as a tuple of ``np.outer``
operators, with its action, completeness and singular values each a sum or
loop over the operators.  The isometry and the spectra must keep every bit,
the signs of zeros included for the spectra.  The block, now one Gram
product in place of a sum of outer products, must keep each entry within
1e-15, and the Choi check its minimum partial-transpose eigenvalue within
1e-12.  The Kraus stack must keep each entry within 1e-15, its action (now
read from the superoperator, one Gram product of the stack) each entry
within 1e-14, its completeness deviation 1e-12, and its second singular
values every bit."""

import itertools
import math

import numpy as np
import pytest

from unruhcap.channelsim import (
    MATRIX_DIM_CAP,
    DensityMatrix,
    choi_ppt_check,
    cloner_isometry,
    complementary_kraus_1to2,
    random_pure_state,
    unruh_block_output,
)
from unruhcap.combinat import block_dimension, block_normalizer, composition_matrix
from unruhcap.spectra import EnsembleParams, ensemble_spectrum_B, ensemble_spectrum_E

BLOCKS = [
    (d, k) for d in range(2, 6) for k in range(1, 6) if block_dimension(d, k) <= MATRIX_DIM_CAP
]
# Blocks of a few hundred rows, past the sizes at which BLAS blocks a product.
LARGE_BLOCKS = [(2, 300), (3, 20)]


def _index_map(comps):
    return {tuple(int(v) for v in row): i for i, row in enumerate(comps)}


def _frozen_isometry(d, k):
    dim_b = block_dimension(d, k)
    dim_e = block_dimension(d, k - 1)
    m_k = float(block_normalizer(d, k))
    idx_b = _index_map(composition_matrix(d, k))
    mat = np.zeros((dim_b * dim_e, d), dtype=np.complex128)
    for e_idx, j_vec in enumerate(composition_matrix(d, k - 1)):
        j_tuple = tuple(int(v) for v in j_vec)
        for i in range(d):
            target = list(j_tuple)
            target[i] += 1
            b_idx = idx_b[tuple(target)]
            mat[b_idx * dim_e + e_idx, i] = math.sqrt((1.0 + j_tuple[i]) / m_k)
    return mat


def _frozen_block(d, k, beta):
    dim_b = block_dimension(d, k)
    idx_b = _index_map(composition_matrix(d, k))
    mat = np.zeros((dim_b, dim_b), dtype=np.complex128)
    for n_vec in composition_matrix(d, k - 1):
        n_tuple = tuple(int(v) for v in n_vec)
        ket = np.zeros(dim_b, dtype=np.complex128)
        for i in range(d):
            target = list(n_tuple)
            target[i] += 1
            ket[idx_b[tuple(target)]] += beta[i] * math.sqrt(1.0 + n_tuple[i])
        mat += np.outer(ket, ket.conj())
    return mat / float(block_normalizer(d, k))


def _frozen_choi_min_eig(d, k):
    dim_e = block_dimension(d, k - 1)
    total = d * dim_e
    v3 = _frozen_isometry(d, k).reshape(block_dimension(d, k), dim_e, d)
    choi = np.einsum("bei,bfj->iejf", v3, v3.conj()).reshape(total, total)
    pt = choi.reshape(d, dim_e, d, dim_e).transpose(2, 1, 0, 3).reshape(total, total)
    return float(np.linalg.eigvalsh(pt).min())


def _frozen_kraus_operators(d):
    ops = []
    proj_scale = 1.0 / math.sqrt(d + 1.0)
    for j in range(d):
        op = np.zeros((d, d), dtype=np.complex128)
        op[j, j] = proj_scale
        ops.append(op)
    word_scale = 1.0 / math.sqrt(4.0 ** (d - 1) * (d + 1.0))
    for word in itertools.product(range(4), repeat=d - 1):
        n = np.array((0,) + word)
        psi = (1j) ** n
        signs = (-1.0) ** n
        ops.append(word_scale * np.outer(psi, psi.conj()) * signs[None, :])
    return tuple(ops)


def _frozen_kraus_apply(ops, mat):
    return sum(op @ mat @ op.conj().T for op in ops)


def _frozen_completeness_deviation(ops):
    acc = sum(op.conj().T @ op for op in ops)
    return float(np.max(np.abs(acc - np.eye(ops[0].shape[1]))))


def _frozen_second_singular_values(ops):
    return np.array([np.linalg.svd(op, compute_uv=False)[1] for op in ops])


def _frozen_spectrum_B(d, k, params):
    alpha = composition_matrix(d, k) @ params.as_array()
    return alpha / block_normalizer(d, k)


def _frozen_spectrum_E(d, k, params):
    gamma = composition_matrix(d, k - 1) @ params.as_array() + 1.0
    return gamma / block_normalizer(d, k)


def _ensembles(d, rng):
    negative_zeros = [-0.0] * d
    negative_zeros[d - 1] = 1.0
    return [
        EnsembleParams.vertex(d),
        EnsembleParams(tuple(negative_zeros)),
        EnsembleParams.uniform(d),
        *(EnsembleParams(tuple(rng.dirichlet(np.ones(d)))) for _ in range(3)),
    ]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # The real and imaginary parts, each with its sign bit.
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("d, k", BLOCKS + LARGE_BLOCKS)
def test_isometry_keeps_the_bits_of_its_separate_construction(d, k):
    _assert_same_bits(cloner_isometry(d, k).matrix, _frozen_isometry(d, k))


@pytest.mark.parametrize("d, k", BLOCKS + LARGE_BLOCKS)
def test_block_and_choi_match_their_separate_constructions(d, k):
    # Block entries lie in [-1, 1]; the two summation orders differ in the
    # last bits only.
    rng = np.random.default_rng(1000 * d + k)
    for _ in range(3):
        beta = random_pure_state(d, rng)
        block = unruh_block_output(d, k, beta).matrix
        assert np.max(np.abs(block - _frozen_block(d, k, beta))) <= 1e-15
    if d * block_dimension(d, k - 1) <= MATRIX_DIM_CAP:
        min_eig = choi_ppt_check(d, k).details["min_partial_transpose_eigenvalue"]
        assert abs(min_eig - _frozen_choi_min_eig(d, k)) <= 1e-12


@pytest.mark.parametrize("d, k", BLOCKS)
def test_ensemble_spectra_keep_the_bits_of_their_separate_constructions(d, k):
    for params in _ensembles(d, np.random.default_rng(1000 * d + k)):
        for built, frozen in (
            (ensemble_spectrum_B, _frozen_spectrum_B),
            (ensemble_spectrum_E, _frozen_spectrum_E),
        ):
            spectrum = built(d, k, params)
            _assert_same_bits(spectrum.values, frozen(d, k, params))
            assert np.array_equal(spectrum.multiplicities, np.ones(spectrum.values.size))


@pytest.mark.parametrize("d", range(2, 9))  # d = 8 is the largest set within the cap
def test_kraus_set_matches_its_separate_construction(d):
    kset = complementary_kraus_1to2(d)
    frozen = _frozen_kraus_operators(d)
    assert kset.operators.shape == (len(frozen), d, d)
    assert np.max(np.abs(kset.operators - np.array(frozen))) <= 1e-15
    rng = np.random.default_rng(7000 + d)
    for _ in range(5):
        rho = DensityMatrix.pure(random_pure_state(d, rng))
        assert np.max(np.abs(kset.apply(rho) - _frozen_kraus_apply(frozen, rho.matrix))) <= 1e-14
    assert kset.completeness_deviation() <= 1e-12
    assert _frozen_completeness_deviation(frozen) <= 1e-12
    _assert_same_bits(kset.second_singular_values(), _frozen_second_singular_values(frozen))
