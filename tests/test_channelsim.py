import math

import numpy as np
import pytest

from unruhcap import channelsim
from unruhcap.channelsim import (
    DensityMatrix,
    Isometry,
    KrausSet,
    SizeCapError,
    apply_channel,
    choi_ppt_check,
    cloner_isometry,
    complementary_kraus_1to2,
    random_pure_state,
    unruh_block_output,
    verify_cloner_equivalence,
    verify_kraus,
)
from unruhcap.combinat import block_dimension
from unruhcap.entropy import shannon_entropy
from unruhcap.spectra import EnsembleParams, cloner_spectrum, ensemble_spectrum_B


def test_isometry_property_across_blocks():
    for d in range(2, 5):
        for k in range(1, 6):
            v = cloner_isometry(d, k).matrix
            dev = np.max(np.abs(v.conj().T @ v - np.eye(d)))
            assert dev < 1e-10


def test_cloner_isometry_k1_is_identity_channel():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        v = cloner_isometry(d, 1)
        psi = random_pure_state(d, rng)
        rho = DensityMatrix.pure(psi)
        out = apply_channel(v, rho, keep="B")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_cloner_isometry_hand_coefficients_d2_k2():
    # Column |1>: amplitude sqrt(2/3) on |(2,0)>_B |(1,0)>_E (row 0) and
    # sqrt(1/3) on |(1,1)>_B |(0,1)>_E (row 1*2 + 1 = 3).
    v = cloner_isometry(2, 2).matrix
    assert v.shape == (6, 2)
    assert v[0, 0] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert v[3, 0] == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
    assert np.count_nonzero(np.abs(v[:, 0]) > 1e-14) == 2


def test_apply_channel_keep_b_example():
    rho = DensityMatrix.pure([1.0, 0.0])
    out = apply_channel(cloner_isometry(2, 2), rho, keep="B")
    assert np.allclose(out.matrix, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-12)


def test_apply_channel_keep_e_example_d3():
    rho = DensityMatrix.pure([1.0, 0.0, 0.0])
    out = apply_channel(cloner_isometry(3, 2), rho, keep="E")
    assert np.allclose(out.matrix, np.diag([2.0, 1.0, 1.0]) / 4.0, atol=1e-12)


def test_apply_channel_is_the_partial_trace_of_v_rho_v_dagger():
    # A complex isometry with a (3, 4) split, against V rho V^dagger formed
    # whole and traced over the other factor.
    rng = np.random.default_rng(17)
    v, _ = np.linalg.qr(rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
    rho = DensityMatrix.pure(random_pure_state(2, rng))
    whole = (v @ rho.matrix @ v.conj().T).reshape(3, 4, 3, 4)
    for keep, traced in (("B", np.einsum("ijkj->ik", whole)), ("E", np.einsum("ijik->jk", whole))):
        reduced = apply_channel(Isometry(v, (3, 4)), rho, keep).matrix
        assert np.max(np.abs(reduced - traced)) <= 1e-14


def test_apply_channel_rejects_shape_mismatch():
    rho = DensityMatrix.pure([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        apply_channel(cloner_isometry(2, 2), rho, keep="B")
    with pytest.raises(ValueError):
        apply_channel(cloner_isometry(2, 2), DensityMatrix.pure([1.0, 0.0]), keep="X")


def test_unruh_block_k1_is_projector():
    rng = np.random.default_rng(4)
    beta = random_pure_state(3, rng)
    out = unruh_block_output(3, 1, beta)
    assert np.max(np.abs(out.matrix - np.outer(beta, beta.conj()))) < 1e-12


def test_unruh_block_equals_isometry_route():
    out_direct = unruh_block_output(2, 2, [1.0, 0.0])
    out_channel = apply_channel(cloner_isometry(2, 2), DensityMatrix.pure([1.0, 0.0]), "B")
    assert np.max(np.abs(out_direct.matrix - out_channel.matrix)) < 1e-12
    assert np.allclose(np.diag(out_direct.matrix).real, [2 / 3, 1 / 3, 0.0], atol=1e-12)

    rng = np.random.default_rng(9)
    for d, k in ((2, 3), (3, 2), (4, 2)):
        beta = random_pure_state(d, rng)
        direct = unruh_block_output(d, k, beta).matrix
        routed = apply_channel(cloner_isometry(d, k), DensityMatrix.pure(beta), "B").matrix
        assert np.max(np.abs(direct - routed)) < 1e-12


def test_unruh_block_spectrum_is_input_independent():
    rng = np.random.default_rng(13)
    for d, k in ((2, 2), (2, 4), (3, 3)):
        expected = cloner_spectrum(d, k).eigenvalues(pad_to=block_dimension(d, k))
        for _ in range(10):
            beta = random_pure_state(d, rng)
            eigs = unruh_block_output(d, k, beta).eigenvalues()
            assert np.max(np.abs(eigs - expected)) < 1e-9


def test_pure_input_marginal_entropies_match_spectra_route():
    # B and E marginals of a pure joint state share a spectrum, which equals
    # the closed-form cloner spectrum and the vertex-ensemble spectra.
    rng = np.random.default_rng(31)
    for d, k in ((2, 3), (3, 2)):
        beta = random_pure_state(d, rng)
        rho = DensityMatrix.pure(beta)
        v = cloner_isometry(d, k)
        h_b = -sum(
            x * math.log2(x) for x in apply_channel(v, rho, "B").eigenvalues() if x > 1e-12
        )
        h_e = -sum(
            x * math.log2(x) for x in apply_channel(v, rho, "E").eigenvalues() if x > 1e-12
        )
        assert h_b == pytest.approx(h_e, abs=1e-9)
        closed_form = shannon_entropy(cloner_spectrum(d, k), 2.0).value
        vertex_form = shannon_entropy(ensemble_spectrum_B(d, k, EnsembleParams.vertex(d)), 2.0).value
        assert h_b == pytest.approx(closed_form, abs=1e-9)
        assert closed_form == pytest.approx(vertex_form, abs=1e-12)


def test_kraus_set_counts():
    assert len(complementary_kraus_1to2(2).operators) == 6
    assert len(complementary_kraus_1to2(3).operators) == 19
    assert complementary_kraus_1to2(8).operators.shape == (16392, 8, 8)
    with pytest.raises(SizeCapError):
        complementary_kraus_1to2(9)


def test_kraus_cap_refusal_names_its_input(forbid):
    # The count is stated, not built: 4^(10**9 - 1) is never formed, and
    # neither is any array.
    forbid("allocated past the cap", channelsim.np, "zeros", "array")
    with pytest.raises(SizeCapError) as excinfo:
        complementary_kraus_1to2(9)
    assert str(excinfo.value) == (
        "d=9: Kraus set of (9 + 4^8) x 9 x 9 = 5.4e6 complex entries exceeds cap 4000000"
    )
    with pytest.raises(SizeCapError) as excinfo:
        complementary_kraus_1to2(10**9)
    assert str(excinfo.value) == (
        "d=1000000000: Kraus set of (1000000000 + 4^999999999) x 1000000000 x 1000000000 "
        "complex entries exceeds cap 4000000"
    )


def test_kraus_set_keeps_a_readonly_copy_of_its_stack():
    stack = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=np.complex128) / math.sqrt(2.0)
    kept = stack.copy()
    kset = KrausSet(stack)
    assert stack.flags.writeable
    assert not kset.operators.flags.writeable
    assert not np.shares_memory(kset.operators, stack)
    stack[0] = 0.0  # the caller's array is its own
    assert np.array_equal(kset.operators, kept)
    assert kset.completeness_deviation() <= 1e-15


def test_kraus_operators_rank_one():
    for d in (2, 3, 4):
        second = complementary_kraus_1to2(d).second_singular_values()
        assert second.max() < 1e-10


def test_kraus_action_on_basis_state_d3():
    kset = complementary_kraus_1to2(3)
    out = kset.apply(DensityMatrix.pure([1.0, 0.0, 0.0]))
    assert np.allclose(out, np.diag([2.0, 1.0, 1.0]) / 4.0, atol=1e-12)


def test_verify_kraus_reports():
    report = verify_kraus(2, n_samples=100, seed=0)
    assert report.passed
    assert report.details["completeness_dev"] < 1e-10
    assert report.details["action_dev"] < 1e-9
    report5 = verify_kraus(5, n_samples=10, seed=0)
    assert report5.details["completeness_dev"] < 1e-10


def test_verify_kraus_fails_on_a_wrong_channel():
    # A complete Kraus set of the identity channel, not the complement: the
    # action check and the rank-one check must both fail.
    report = verify_kraus(2, n_samples=5, kraus=KrausSet((np.eye(2),)))
    assert report.passed is False
    assert report.details["completeness_dev"] == 0.0
    assert report.details["action_dev"] == pytest.approx(0.50, abs=0.01)
    assert report.details["max_second_singular"] == 1.0


def test_kraus_set_refuses_an_incomplete_set():
    # Completeness is enforced here, so verify_kraus never sees a set that
    # fails it.
    with pytest.raises(ValueError, match="completeness"):
        KrausSet((0.5 * np.eye(2),))


@pytest.mark.parametrize("operator", [np.array(1.0), np.array([1.0]), np.ones((1, 1, 1))])
def test_kraus_set_refuses_a_non_matrix_operator(operator):
    # 0-d, 1-d and 3-d operators get the set's own rule, not numpy's
    # einsum error from the stack.
    with pytest.raises(ValueError, match="^Kraus operators must be matrices$"):
        KrausSet([operator])


def test_kraus_action_deviation_near_machine_epsilon():
    for d in (2, 3, 4, 5):
        report = verify_kraus(d, n_samples=25, seed=3)
        assert report.details["action_dev"] < 1e-12


def test_verify_cloner_equivalence_report():
    report = verify_cloner_equivalence(3, 4, n_samples=10, seed=1)
    assert report.passed and report.deviation < 1e-9
    payload = report.to_json()
    assert list(payload.items()) == [
        ("check", report.check),
        ("d", 3),
        ("k", 4),
        ("seed", 1),
        ("deviation", report.deviation),
        ("pass", True),
        ("details", report.details),
    ]
    assert payload["details"] is not report.details  # the report stays frozen


@pytest.mark.parametrize("n_samples", [0, -3])
def test_verifiers_reject_vacuous_sample_count(n_samples):
    with pytest.raises(ValueError):
        verify_kraus(2, n_samples=n_samples)
    with pytest.raises(ValueError):
        verify_cloner_equivalence(2, 3, n_samples=n_samples)


def test_choi_ppt_check():
    for d, k in ((2, 2), (3, 3)):
        report = choi_ppt_check(d, k)
        assert report.passed
        assert report.details["min_partial_transpose_eigenvalue"] >= -1e-10
    trivial = choi_ppt_check(2, 1)
    assert trivial.passed
    assert trivial.details["min_partial_transpose_eigenvalue"] >= -1e-12
    with pytest.raises(SizeCapError, match="Choi matrix of 6160 x 6160 = 3.8e7 complex entries"):
        choi_ppt_check(4, 20)  # d * C(22, 3), refused before the isometry is built
    # A block index below 1 is refused as such, not as a weight of -1.
    with pytest.raises(ValueError, match="block index must be an integer >= 1, got 0"):
        choi_ppt_check(2, 0)


def test_verify_cloner_equivalence_refuses_blocks_past_the_matrix_cap(forbid):
    forbid("built past the cap", channelsim, "cloner_spectrum", "composition_matrix")
    with pytest.raises(SizeCapError, match=r"^d=4, k=60: block of 39711 x 39711 = 1\.6e9 "):
        verify_cloner_equivalence(4, 60)


class Allocated(Exception):
    """Raised by the allocation spy at a builder's first array."""


# Each builder at its boundary, with the shape of its first array, and one
# step past it, with the refusal.  At d = 2, dim_B = k + 1 and dim_E = k: the
# block is (k + 1)**2 entries, the Choi matrix (2 k)**2, the isometry
# 2 k (k + 1), and the Kraus set (d + 4^(d-1)) d**2.
BOUNDARIES = {
    "block": (
        lambda: unruh_block_output(2, 1999, [1.0, 0.0]),
        (1999, 2000),  # the kets of the 2000 x 2000 block
        lambda: unruh_block_output(2, 2000, [1.0, 0.0]),
        "d=2, k=2000: block of 2001 x 2001 = 4.1e6 complex entries exceeds cap 4000000",
    ),
    "choi": (
        lambda: choi_ppt_check(2, 1000),
        (1001 * 1000, 2),  # the isometry of the 2000 x 2000 Choi matrix
        lambda: choi_ppt_check(2, 1001),
        "d=2, k=1001: Choi matrix of 2002 x 2002 = 4.1e6 complex entries exceeds cap 4000000",
    ),
    "isometry": (
        lambda: cloner_isometry(2, 1413),
        (1414 * 1413, 2),
        lambda: cloner_isometry(2, 1414),
        "d=2, k=1414: isometry of 1415 x 1414 x 2 = 4.1e6 complex entries exceeds cap 4000000",
    ),
    "kraus": (
        lambda: complementary_kraus_1to2(8),
        (16392, 8, 8),  # 1,049,088 entries
        lambda: complementary_kraus_1to2(9),
        "d=9: Kraus set of (9 + 4^8) x 9 x 9 = 5.4e6 complex entries exceeds cap 4000000",
    ),
}


@pytest.mark.parametrize(
    "admitted, shape, refused, message", BOUNDARIES.values(), ids=BOUNDARIES.keys()
)
def test_each_builder_is_admitted_at_its_boundary_and_refused_past_it_unbuilt(
    admitted, shape, refused, message, monkeypatch
):
    def spy(size, dtype=float):
        raise Allocated(size)

    monkeypatch.setattr(channelsim.np, "zeros", spy)
    with pytest.raises(Allocated) as excinfo:
        admitted()
    assert excinfo.value.args == (shape,)
    with pytest.raises(SizeCapError) as excinfo:
        refused()  # the spy fails the test if anything is allocated
    assert str(excinfo.value) == message


def test_apply_channel_at_the_choi_boundary_matches_the_block():
    # dim_B x dim_E = 1001 x 1000: the reduced state is one product of the
    # split amplitudes, and V rho V^dagger (2.0e6 squared entries) is never formed.
    beta = random_pure_state(2, np.random.default_rng(21))
    isometry = cloner_isometry(2, 1000)
    assert isometry.split == (1001, 1000)
    routed = apply_channel(isometry, DensityMatrix.pure(beta), "B").matrix
    assert np.max(np.abs(routed - unruh_block_output(2, 1000, beta).matrix)) <= 1e-12


def test_isometry_split_must_match_its_rows():
    with pytest.raises(ValueError, match=r"^isometry split \(2, 2\) does not match its 3 rows$"):
        Isometry(np.eye(3)[:, :2], (2, 2))


def test_each_density_matrix_is_diagonalized_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(mat) or eigvalsh(mat))
    assert verify_cloner_equivalence(3, 4, n_samples=3).passed
    assert len(calls) == 3  # one block per sample


def test_density_matrix_eigenvalues_are_its_readonly_spectrum():
    rho = unruh_block_output(3, 4, random_pure_state(3, np.random.default_rng(5)))
    eigs = rho.eigenvalues()
    assert not eigs.flags.writeable
    assert eigs.dtype == np.float64
    assert np.array_equal(eigs, np.linalg.eigvalsh(rho.matrix))
    assert rho.eigenvalues() is eigs


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix.pure([1.0, 1.0])  # unnormalized


def test_isometry_and_kraus_validation():
    with pytest.raises(ValueError):
        Isometry(np.ones((3, 2)))
    with pytest.raises(ValueError):
        KrausSet((np.eye(2) * 0.9,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityMatrix.pure([1.0, 0.0]),
        lambda: cloner_isometry(2, 2),
        lambda: complementary_kraus_1to2(2),
    ],
    ids=["density-matrix", "isometry", "kraus-set"],
)
def test_array_records_compare_by_identity(build):
    # Equal arrays inside a generated tuple __eq__ would raise on their
    # ambiguous truth value: the records compare as objects, not values.
    first, second = build(), build()
    assert first is not second and first != second
    assert first == first
    assert hash(first) == hash(first) and hash(first) != hash(second)
