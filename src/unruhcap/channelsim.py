"""Matrix-level oracle: explicit cloner isometries, Unruh blocks, Kraus sets.

Everything here is built directly from defining sums over occupation-vector
bases (rows of :func:`unruhcap.combinat.composition_matrix`), independently of
the closed-form spectra, so the two routes can check each other.  The two
amplitude tables, the cloner isometry and the Unruh block's kets, share only
the index table of the a_i^dag step (``_raising_steps``); each forms its own
amplitudes, so either checks the other.  Each dense matrix is one Gram
product of such a table, ``A.T @ A.conj()``: the Unruh block sums the outer
products of its kets, and the complement's Choi matrix those of the
isometry's amplitudes.  A Kraus set is one ``(n, out, in)`` stack of its
operators, and its channel the superoperator formed once from it, as the
Gram product of the flattened stack; the set's action and completeness both
read that superoperator.  The cloner isometry records its (dim_B, dim_E)
output split, and a channel output reduces to B or E as one product of the
split amplitudes.  One size rule bounds every array: none has more than
``MATRIX_DIM_CAP``**2 complex entries, and each builder asks
``_capped_entries`` before it allocates anything.  A density matrix is
diagonalized once, when it is validated.  Random pure states are drawn from
the unitarily invariant measure via normalized complex Gaussian vectors with
an explicit seed recorded in every report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .combinat import SizeCapError, block_dimension, block_normalizer, composition_matrix
from .combinat import _readonly, capped_comb, check_block, check_dim, count_text, rounded_count
from .spectra import cloner_spectrum

__all__ = [
    "HERMITICITY_TOL",
    "CHECK_TOL",
    "RANK_TOL",
    "MATRIX_DIM_CAP",
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

# Largest dense matrix dimension the oracle builds: no array it builds has
# more than MATRIX_DIM_CAP**2 complex entries, and a larger request is
# refused before any table or matrix is allocated.
MATRIX_DIM_CAP = 2000


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix (tolerance 1e-10 on each property)."""

    matrix: np.ndarray
    # The ascending, read-only spectrum the positivity check computes.
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _readonly(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > HERMITICITY_TOL:
            raise ValueError("density matrix must have unit trace")
        spectrum = _readonly(np.linalg.eigvalsh(mat))
        if spectrum[0] < -HERMITICITY_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "_spectrum", spectrum)

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
        return self._spectrum


@dataclass(frozen=True, eq=False)
class Isometry:
    """Matrix with orthonormal columns (V^dagger V = I within 1e-10), and the
    ``(dim_B, dim_E)`` split of its rows into B tensor E, B index major, when
    it has one (``cloner_isometry`` records it)."""

    matrix: np.ndarray
    split: tuple[int, int] | None = None

    def __post_init__(self):
        mat = _readonly(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
            raise ValueError("isometry must have at least as many rows as columns")
        if self.split is not None and math.prod(self.split) != mat.shape[0]:
            raise ValueError(f"isometry split {self.split} does not match its {mat.shape[0]} rows")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(mat.shape[1]))) > HERMITICITY_TOL:
            raise ValueError("isometry columns must be orthonormal")

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators A_a of one channel, stacked as one read-only
    ``(n, out, in)`` array; completeness enforced at 1e-10.

    The channel is formed once, as the superoperator
    ``S[i, j, l, k] = sum_a A_a[i, j] conj(A_a[l, k])``: one Gram product of
    the stack flattened to ``(n, out * in)``.  Its action and its
    completeness both read S.
    """

    operators: np.ndarray
    # S, with (A rho A^dagger summed over a)[i, l] = sum_jk S[i, j, l, k] rho[j, k].
    _superop: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked before stacking, so numpy's own ragged-array error never escapes.
        shapes = {np.shape(op) for op in self.operators}
        if not shapes:
            raise ValueError("Kraus set must be nonempty")
        if len(shapes) > 1:
            raise ValueError("Kraus operators must share a common shape")
        if len(next(iter(shapes))) != 2:
            raise ValueError("Kraus operators must be matrices")
        stack = np.asarray(self.operators, dtype=np.complex128)
        flat = stack.reshape(len(stack), -1)
        superop = (flat.T @ flat.conj()).reshape(stack.shape[1:] * 2)
        object.__setattr__(self, "_superop", _readonly(superop))
        # The own copy is made after the product's conj() temporary is freed.
        object.__setattr__(self, "operators", _readonly(np.array(stack)))
        if self.completeness_deviation() > HERMITICITY_TOL:
            raise ValueError("Kraus set violates completeness")

    def completeness_deviation(self) -> float:
        # The partial trace over the output is conj(sum_a A_a^dagger A_a).
        acc = np.einsum("ijik->jk", self._superop).conj()
        return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))

    def second_singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.operators, compute_uv=False)[:, 1]

    def apply(self, rho: DensityMatrix) -> np.ndarray:
        return np.einsum("ijlk,jk->il", self._superop, rho.matrix)


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


def _raising_steps(d: int, k: int):
    """The index bookkeeping of a_i^dag |n> = sqrt(n_i + 1) |n + e_i>: yields
    ``(e, i, b, n_i)`` for every weight-(k-1) occupation vector n (row e of
    ``composition_matrix(d, k - 1)``, in order) and every mode i, where b is
    the row of n + e_i in ``composition_matrix(d, k)``."""
    rows_b = {tuple(row): b for b, row in enumerate(composition_matrix(d, k).tolist())}
    for e, n in enumerate(composition_matrix(d, k - 1).tolist()):
        for i, n_i in enumerate(n):
            yield e, i, rows_b[tuple(n[:i] + [n_i + 1] + n[i + 1 :])], n_i


def _side(d: int, k: int, weight: int, times: int = 1) -> tuple:
    """``times * C(weight + d - 1, d - 1)``, ``times`` copies of the
    weight-``weight`` basis, as a side of an array at (d, k): a (count, text)
    pair for ``_capped_entries``, the count ``math.inf`` and the text its
    bound where ``capped_comb`` does not build it."""
    check_dim(d)
    check_block(k)
    n = weight + d - 1
    count = times * capped_comb(n, d - 1, MATRIX_DIM_CAP**2)
    return count, str(count) if count < math.inf else f"({count_text(n, d - 1, count, times)})"


def _capped_entries(where: str, what: str, *sides) -> list:
    """The side counts of the ``what`` array at the input ``where``, given
    as ``_side``'s (count, text) pairs.  The one size rule of the oracle:
    past ``MATRIX_DIM_CAP``**2 complex entries the array is refused, with the
    input and its shape named, before anything is built."""
    counts, cap = [count for count, _ in sides], MATRIX_DIM_CAP**2
    entries = math.prod(counts)
    if entries > cap:
        shape = " x ".join(text for _, text in sides)
        shown = f" = {rounded_count(entries)}" if entries < math.inf else ""
        raise SizeCapError(f"{where}: {what} of {shape}{shown} complex entries exceeds cap {cap}")
    return counts


def _block_side(d: int, k: int) -> int:
    """dim_B = C(k+d-1, d-1), the side of the weight-``k`` block at (d, k),
    refused past the size rule."""
    side = _side(d, k, k)
    return _capped_entries(f"d={d}, k={k}", "block", side, side)[0]


def cloner_isometry(d: int, k: int) -> Isometry:
    """Isometric extension of the 1->k cloner on the single-excitation sector.

    Columns are indexed by the input basis |i>; the output lives in B (weight
    k) tensor E (weight k-1) with the B index major, the split the isometry
    records.  The coefficient of |j + e_i>_B |j>_E in column i is
    sqrt((1 + j_i) / M_k).
    """
    sides = _side(d, k, k), _side(d, k, k - 1), (d, str(d))
    dim_b, dim_e, _ = _capped_entries(f"d={d}, k={k}", "isometry", *sides)
    m_k = float(block_normalizer(d, k))
    mat = np.zeros((dim_b * dim_e, d), dtype=np.complex128)
    for e_idx, i, b_idx, j_i in _raising_steps(d, k):
        mat[b_idx * dim_e + e_idx, i] = math.sqrt((1.0 + j_i) / m_k)
    return Isometry(mat, (dim_b, dim_e))


def apply_channel(isometry: Isometry, rho: DensityMatrix, keep: str = "B") -> DensityMatrix:
    """V rho V^dagger partial-traced to the kept factor ("B" or "E") of the
    isometry's split, as one product of the split amplitudes: with
    A[x, y, i] the amplitude of column i at kept index x and traced index y,
    the result is (A rho) flattened to (x, (y, j)) times conj(A) flattened
    alike, transposed, so V rho V^dagger itself is never formed."""
    if keep not in ("B", "E"):
        raise ValueError('keep must be "B" or "E"')
    if rho.dim != isometry.in_dim:
        raise ValueError(f"input dimension mismatch: state {rho.dim}, isometry {isometry.in_dim}")
    if isometry.split is None:
        raise ValueError("isometry has no (dim_B, dim_E) split")
    amps = isometry.matrix.reshape(*isometry.split, rho.dim)
    amps = amps if keep == "B" else amps.transpose(1, 0, 2)
    flat = amps.reshape(len(amps), -1)
    reduced = (amps @ rho.matrix).reshape(flat.shape) @ flat.conj().T
    return DensityMatrix((reduced + reduced.conj().T) / 2.0)


def unruh_block_output(d: int, k: int, beta) -> DensityMatrix:
    """Weight-``k`` Unruh output block for the pure input sum(beta_i a_i^dag)|vac>.

    Built directly from the defining sum: row e of the ket table is the
    (unnormalized) ket sum_i beta_i sqrt(1 + n_i) |n + e_i> of the e-th
    weight-(k-1) occupation vector n.  The block is the sum of their outer
    products, formed as one Gram product ``kets.T @ kets.conj()``, and
    normalized by M_k.
    """
    b = np.asarray(beta, dtype=np.complex128)
    if b.shape != (d,):
        raise ValueError(f"input amplitudes must have length {d}")
    if abs(np.linalg.norm(b) - 1.0) > HERMITICITY_TOL:
        raise ValueError("input amplitudes must be normalized")
    dim_b = _block_side(d, k)
    kets = np.zeros((block_dimension(d, k - 1), dim_b), dtype=np.complex128)
    for e_idx, i, b_idx, n_i in _raising_steps(d, k):
        kets[e_idx, b_idx] = b[i] * math.sqrt(1.0 + n_i)
    block = kets.T @ kets.conj()
    del kets  # freed before DensityMatrix copies and diagonalizes the block
    block /= float(block_normalizer(d, k))
    return DensityMatrix(block)


def complementary_kraus_1to2(d: int) -> KrausSet:
    """Rank-one Kraus operators of the 1->2 cloner's complementary channel.

    The set has d + 4^(d-1) operators: projectors |j><j| / sqrt(d+1), plus
    |psi(n)><psi(n)| sigma_z(n) / sqrt(4^(d-1) (d+1)) over phase words n with
    n_1 = 0 and n_j in {0,1,2,3}, where |psi(n)> = sum_j i^(n_j) |j> is used
    unnormalized (its norm is absorbed by the 4^(d-1) prefactor) and
    sigma_z(n) = sum_j (-1)^(n_j) |j><j|.  All are filled into one stack, the
    words in ``itertools.product`` order after the projectors.
    """
    check_dim(d)
    # 4^(d-1) is not built where its 2(d-1) bits alone put it past the cap.
    n_words = 4 ** (d - 1) if 2 * (d - 1) < (MATRIX_DIM_CAP**2).bit_length() else math.inf
    operators, side = (d + n_words, f"({d} + 4^{d - 1})"), (d, str(d))
    n_ops = _capped_entries(f"d={d}", "Kraus set", operators, side, side)[0]
    ops = np.zeros((n_ops, d, d), dtype=np.complex128)
    diag = np.arange(d)
    ops[diag, diag, diag] = 1.0 / math.sqrt(d + 1.0)
    words = np.array([(0, *word) for word in itertools.product(range(4), repeat=d - 1)])
    psi = (1j) ** words  # one |psi(n)> per row
    # <psi(n)| sigma_z(n) = psi(n)^T, since conj(i^m) (-1)^m = i^m.
    row = psi * (1.0 / math.sqrt(4.0 ** (d - 1) * (d + 1.0)))
    np.multiply(psi[:, :, None], row[:, None, :], out=ops[d:])
    return KrausSet(ops)


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
    dim_b = _block_side(d, k)
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
    complementary channel of the 1->k cloner is entanglement breaking.  The
    isometry's amplitudes, reshaped to (dim_B, d * dim_E) with the columns in
    (i, e) order, give the Choi matrix as one Gram product,
    ``amps.T @ amps.conj()``, with rows and columns in (i, e) order.
    """
    side = _side(d, k, k - 1, d)
    total = _capped_entries(f"d={d}, k={k}", "Choi matrix", side, side)[0]
    isometry = cloner_isometry(d, k)
    dim_b, dim_e = isometry.split
    # Reshaping the (i, e) view copies it, so the isometry is freed before the product.
    amps = isometry.matrix.reshape(dim_b, dim_e, d).transpose(0, 2, 1).reshape(dim_b, total)
    del isometry
    choi = amps.T @ amps.conj()
    del amps  # freed before the eigensolver runs
    pt = choi.reshape(d, dim_e, d, dim_e).transpose(2, 1, 0, 3).reshape(total, total)
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
