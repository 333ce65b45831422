"""Matrix-level oracle: explicit cloner isometries, Unruh blocks, Kraus sets.

Everything here is built directly from defining sums over occupation-vector
bases (rows of :func:`unruhcap.combinat.composition_matrix`), independently of
the closed-form spectra, so the two routes can check each other.  Random
pure states are drawn from the unitarily invariant measure via normalized
complex Gaussian vectors with an explicit seed recorded in every report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix
from .combinat import _readonly, check_block, check_dim
from .spectra import cloner_spectrum

__all__ = [
    "HERMITICITY_TOL",
    "CHECK_TOL",
    "RANK_TOL",
    "MATRIX_DIM_CAP",
    "KRAUS_DIM_CAP",
    "SizeCapError",
    "DensityMatrix",
    "Isometry",
    "KrausSet",
    "CheckReport",
    "random_pure_state",
    "cloner_isometry",
    "apply_channel",
    "unruh_block_output",
    "complementary_kraus_1to2",
    "verify_kraus",
    "verify_cloner_equivalence",
    "choi_ppt_check",
]

HERMITICITY_TOL = 1e-10

# Pass thresholds of the reports: the largest deviation of a channel action,
# a spectrum or a partial-transpose eigenvalue, and the largest second
# singular value of a rank-one Kraus operator.  Kraus completeness is held
# to HERMITICITY_TOL.
CHECK_TOL = 1e-9
RANK_TOL = 1e-10

# Largest dense matrix dimension the oracle builds; larger requests are
# refused before any table or matrix is allocated.
MATRIX_DIM_CAP = 2000

# Largest dimension of the 1->2 complement Kraus set, which has 4^(d-1)
# operators.
KRAUS_DIM_CAP = 8


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix (tolerance 1e-10 on each property)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _readonly(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > HERMITICITY_TOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(mat).min() < -HERMITICITY_TOL:
            raise ValueError("density matrix must be positive semidefinite")

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=np.complex128)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > HERMITICITY_TOL:
            raise ValueError("state vector must be normalized")
        return cls(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class Isometry:
    """Matrix with orthonormal columns (V^dagger V = I within 1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _readonly(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
            raise ValueError("isometry must have at least as many rows as columns")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(mat.shape[1]))) > HERMITICITY_TOL:
            raise ValueError("isometry columns must be orthonormal")

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one channel; completeness enforced at 1e-10."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(_readonly(np.array(op, dtype=np.complex128)) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("Kraus set must be nonempty")
        shape = ops[0].shape
        if any(op.shape != shape for op in ops):
            raise ValueError("Kraus operators must share a common shape")
        if self.completeness_deviation() > HERMITICITY_TOL:
            raise ValueError("Kraus set violates completeness")

    def completeness_deviation(self) -> float:
        dim = self.operators[0].shape[1]
        acc = sum(op.conj().T @ op for op in self.operators)
        return float(np.max(np.abs(acc - np.eye(dim))))

    def second_singular_values(self) -> np.ndarray:
        return np.array(
            [np.linalg.svd(op, compute_uv=False)[1] for op in self.operators]
        )

    def apply(self, rho: DensityMatrix) -> np.ndarray:
        mat = rho.matrix
        return sum(op @ mat @ op.conj().T for op in self.operators)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numeric verification; serializes to a flat JSON object."""

    check: str
    d: int
    k: int | None
    seed: int | None
    deviation: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"pass" if key == "passed" else key: value for key, value in asdict(self).items()}


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state via a normalized complex Gaussian vector."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _index_map(comps: np.ndarray) -> dict:
    return {tuple(int(v) for v in row): i for i, row in enumerate(comps)}


def cloner_isometry(d: int, k: int) -> Isometry:
    """Isometric extension of the 1->k cloner on the single-excitation sector.

    Columns are indexed by the input basis |i>; the output lives in B (weight
    k) tensor E (weight k-1) with the B index major.  The coefficient of
    |j + e_i>_B |j>_E in column i is sqrt((1 + j_i) / M_k).
    """
    dim_b = block_dimension(d, k)
    dim_e = block_dimension(d, k - 1)
    m_k = float(block_normalizer(d, k))
    comps_b = composition_matrix(d, k)
    comps_e = composition_matrix(d, k - 1)
    idx_b = _index_map(comps_b)
    mat = np.zeros((dim_b * dim_e, d), dtype=np.complex128)
    for e_idx, j_vec in enumerate(comps_e):
        j_tuple = tuple(int(v) for v in j_vec)
        for i in range(d):
            target = list(j_tuple)
            target[i] += 1
            b_idx = idx_b[tuple(target)]
            mat[b_idx * dim_e + e_idx, i] = math.sqrt((1.0 + j_tuple[i]) / m_k)
    return Isometry(mat)


def apply_channel(isometry: Isometry, rho: DensityMatrix, keep: str = "B") -> DensityMatrix:
    """V rho V^dagger partial-traced to the kept factor ("B" or "E")."""
    if keep not in ("B", "E"):
        raise ValueError('keep must be "B" or "E"')
    if rho.dim != isometry.in_dim:
        raise ValueError(
            f"input dimension mismatch: state {rho.dim}, isometry {isometry.in_dim}"
        )
    d = isometry.in_dim
    dim_e = block_dimension(d, _block_index(isometry, d) - 1)
    dim_b = isometry.out_dim // dim_e
    out = isometry.matrix @ rho.matrix @ isometry.matrix.conj().T
    four = out.reshape(dim_b, dim_e, dim_b, dim_e)
    reduced = np.einsum("ijkj->ik", four) if keep == "B" else np.einsum("ijik->jk", four)
    return DensityMatrix((reduced + reduced.conj().T) / 2.0)


def _block_index(isometry: Isometry, d: int) -> int:
    """Recover k from the output dimension dim_B(k) * dim_B(k-1)."""
    k = 1
    while block_dimension(d, k) * block_dimension(d, k - 1) < isometry.out_dim:
        k += 1
    if block_dimension(d, k) * block_dimension(d, k - 1) != isometry.out_dim:
        raise ValueError("isometry shape does not match any cloner block")
    return k


def _capped_block_dimension(d: int, k: int) -> int:
    dim_b = block_dimension(d, k)
    if dim_b > MATRIX_DIM_CAP:
        raise SizeCapError(f"d={d}, k={k}: block dimension {dim_b} exceeds cap {MATRIX_DIM_CAP}")
    return dim_b


def unruh_block_output(d: int, k: int, beta) -> DensityMatrix:
    """Weight-``k`` Unruh output block for the pure input sum(beta_i a_i^dag)|vac>.

    Built directly from the defining sum: for every weight-(k-1) occupation
    vector n, the (unnormalized) ket sum_i beta_i sqrt(1 + n_i) |n + e_i>
    contributes one rank-one term; the block is normalized by M_k.
    """
    b = np.asarray(beta, dtype=np.complex128)
    if b.shape != (d,):
        raise ValueError(f"input amplitudes must have length {d}")
    if abs(np.linalg.norm(b) - 1.0) > HERMITICITY_TOL:
        raise ValueError("input amplitudes must be normalized")
    dim_b = _capped_block_dimension(d, k)
    comps_b = composition_matrix(d, k)
    comps_e = composition_matrix(d, k - 1)
    idx_b = _index_map(comps_b)
    mat = np.zeros((dim_b, dim_b), dtype=np.complex128)
    for n_vec in comps_e:
        n_tuple = tuple(int(v) for v in n_vec)
        ket = np.zeros(dim_b, dtype=np.complex128)
        for i in range(d):
            target = list(n_tuple)
            target[i] += 1
            ket[idx_b[tuple(target)]] += b[i] * math.sqrt(1.0 + n_tuple[i])
        mat += np.outer(ket, ket.conj())
    return DensityMatrix(mat / float(block_normalizer(d, k)))


def complementary_kraus_1to2(d: int) -> KrausSet:
    """Rank-one Kraus operators of the 1->2 cloner's complementary channel.

    The set has d + 4^(d-1) operators: projectors |j><j| / sqrt(d+1), plus
    |psi(n)><psi(n)| sigma_z(n) / sqrt(4^(d-1) (d+1)) over phase words n with
    n_1 = 0 and n_j in {0,1,2,3}, where |psi(n)> = sum_j i^(n_j) |j> is used
    unnormalized (its norm is absorbed by the 4^(d-1) prefactor) and
    sigma_z(n) = sum_j (-1)^(n_j) |j><j|.
    """
    check_dim(d)
    if d > KRAUS_DIM_CAP:
        raise SizeCapError(f"dimension {d} exceeds cap {KRAUS_DIM_CAP} (4^(d-1) operators)")
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
    return KrausSet(tuple(ops))


def verify_kraus(
    d: int, n_samples: int = 100, seed: int = 0, kraus: KrausSet | None = None
) -> CheckReport:
    """Check the 1->2 complement Kraus set: action and rank one.  Its
    completeness deviation is reported but not tested here: ``KrausSet``
    already refuses a set that is not complete.

    The action oracle is independent: the complementary channel is evaluated
    as Tr_B of the explicit cloner isometry at k = 2 (whose environment basis
    is the single-excitation qudit basis, in composition order).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    kset = complementary_kraus_1to2(d) if kraus is None else kraus
    completeness_dev = kset.completeness_deviation()
    second_svs = kset.second_singular_values()
    isometry = cloner_isometry(d, 2)
    rng = np.random.default_rng(seed)
    action_dev = 0.0
    for _ in range(n_samples):
        rho = DensityMatrix.pure(random_pure_state(d, rng))
        via_kraus = kset.apply(rho)
        via_isometry = apply_channel(isometry, rho, keep="E").matrix
        action_dev = max(action_dev, float(np.max(np.abs(via_kraus - via_isometry))))
    max_second = float(second_svs.max())
    passed = action_dev <= CHECK_TOL and max_second <= RANK_TOL
    return CheckReport(
        check="hadamard-kraus",
        d=d,
        k=2,
        seed=seed,
        deviation=max(completeness_dev, action_dev, max_second),
        passed=passed,
        details={
            "completeness_dev": completeness_dev,
            "action_dev": action_dev,
            "max_second_singular": max_second,
            "n_operators": len(kset.operators),
            "n_samples": n_samples,
        },
    )


def verify_cloner_equivalence(d: int, k: int, n_samples: int = 20, seed: int = 0) -> CheckReport:
    """Spectral check that the weight-``k`` Unruh block is a 1->k cloner.

    For seeded random pure inputs, the sorted eigenvalues (with multiplicity,
    zero-padded to the block dimension) of the matrix-built block must match
    the closed-form cloner spectrum.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dim_b = _capped_block_dimension(d, k)
    expected = cloner_spectrum(d, k).eigenvalues(pad_to=dim_b)
    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(n_samples):
        beta = random_pure_state(d, rng)
        eigs = unruh_block_output(d, k, beta).eigenvalues()
        dev = max(dev, float(np.max(np.abs(eigs - expected))))
    return CheckReport(
        check="cloner-equivalence",
        d=d,
        k=k,
        seed=seed,
        deviation=dev,
        passed=dev <= CHECK_TOL,
        details={"n_samples": n_samples, "max_spectral_dev": dev},
    )


def choi_ppt_check(d: int, k: int) -> CheckReport:
    """Minimum partial-transpose eigenvalue of the complement's Choi matrix.

    A nonnegative spectrum (within tolerance) is the PPT witness that the
    complementary channel of the 1->k cloner is entanglement breaking.
    """
    check_block(k)
    dim_e = block_dimension(d, k - 1)
    total = d * dim_e
    if total > MATRIX_DIM_CAP:
        raise SizeCapError(f"Choi dimension {total} exceeds cap {MATRIX_DIM_CAP}")
    isometry = cloner_isometry(d, k)
    dim_b = block_dimension(d, k)
    v3 = isometry.matrix.reshape(dim_b, dim_e, d)
    choi = np.einsum("bei,bfj->iejf", v3, v3.conj()).reshape(total, total)
    pt = (
        choi.reshape(d, dim_e, d, dim_e)
        .transpose(2, 1, 0, 3)
        .reshape(total, total)
    )
    min_eig = float(np.linalg.eigvalsh(pt).min())
    return CheckReport(
        check="complement-choi-ppt",
        d=d,
        k=k,
        seed=None,
        deviation=max(0.0, -min_eig),
        passed=min_eig >= -CHECK_TOL,
        details={"min_partial_transpose_eigenvalue": min_eig, "choi_dim": total},
    )
