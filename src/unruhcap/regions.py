"""Trade-off capacity regions for cloner blocks and the Unruh channel.

Computes the classical/quantum (CQ) and classical/entanglement (CE) boundary
curves, the full CQE dynamic-region bounds, and the public/private/secret-key
(RPS) bounds, for either a single 1->k cloner block or the geometric mixture
of blocks that is the Unruh channel.  Sweeps run over the cyclic-ensemble
simplex (which suffices for all Pareto-optimal points), evaluate each
permutation orbit of the grid once, on the cheaper of the engine's two exact
kernels (the CQ/CE curves: every point, on the lattice kernel), are hulled
with a monotone chain, and the weighted dynamic capacity objective is
maximized by a lattice sweep plus a coarse-to-fine lattice climb.

Every bound is a linear function of four entropies of the ensemble, H(B),
H(B|X), H(E|X) and H(A|X).  A sweep produces one entropy table, an
``EntropyTriple`` whose fields are columns over the read-only grid ``mu`` of
shape (points, d), and each bound formula (``cq_point``, ``ce_point``,
``cqe_bounds``, the dynamic objective) applies to that table elementwise,
exactly as it does to the triple of one ensemble.
``rps-region --d 6 --z 0.05 --grid 35`` (658,009 points, 2,173 orbits)
peaks at about 200 MB RSS, the grid alone at about 120 MB (2-core VM).

All rates are in dits of the configured log base (default: the dimension d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .combinat import SizeCapError, block_dimension, composition_matrix
from .engine import TradeoffEvaluator, pick_kernel
from .entropy import EntropyValue, ensemble_conditional_entropy_A, shannon_entropy
from .spectra import (
    EnsembleParams,
    UnruhConfig,
    _as_ensemble,
    cloner_spectrum,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation_horizon,
    unruh_weights,
)

__all__ = [
    "HULL_TOL",
    "MAX_GRID_POINTS",
    "PROTOCOL_RAYS",
    "EntropyTriple",
    "CapacityWeights",
    "ChannelSpec",
    "DynamicCapacityProblem",
    "DynamicCapacityResult",
    "CurveResult",
    "cloner_entropy_triple",
    "cq_point",
    "ce_point",
    "unruh_entropy_triple",
    "cqe_bounds",
    "cqe_corner",
    "dynamic_objective",
    "dynamic_capacity",
    "rps_bounds",
    "pareto_hull_indices",
    "simplex_grid",
    "default_resolution",
    "cq_curve",
    "ce_curve",
    "region_surface_cqe",
    "rps_region",
]

HULL_TOL = 1e-9

# Ensemble lattice points C(R+d-1, d-1) per sweep; larger grids are refused
# before the lattice is enumerated.
MAX_GRID_POINTS = 10**6

# Halvings of the lattice spacing in the dynamic capacity climb.
REFINE_LEVELS = 12

# Unit resource vectors (C, Q, E) of the reference protocols: teleportation,
# super-dense coding, entanglement distribution.  Adding any nonnegative
# combination keeps a rate triple inside the region.
PROTOCOL_RAYS = {
    "TP": (-2.0, 1.0, -1.0),
    "SD": (2.0, -1.0, -1.0),
    "ED": (0.0, -1.0, 1.0),
}


class EntropyTriple(NamedTuple):
    """The four entropies every region bound is built from, in the channel's
    log base: floats for one ensemble, or columns of a sweep's table.

    For a block mixture the output entropies are block-weighted sums; the
    mixing terms cancel in every bound.
    """

    h_b: float
    h_b_given_x: float
    h_e_given_x: float
    h_a_given_x: float


@dataclass(frozen=True)
class CapacityWeights:
    """Nonnegative weights of the dynamic capacity objective."""

    lambda_w: float = 0.0
    mu_w: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lambda_w) and math.isfinite(self.mu_w)):
            raise ValueError("capacity weights must be finite")
        if self.lambda_w < 0.0 or self.mu_w < 0.0:
            raise ValueError("capacity weights must be nonnegative")


@dataclass(frozen=True)
class ChannelSpec:
    """Either a single 1->k cloner block (``k``) or the Unruh channel (``z``)."""

    d: int
    k: int | None = None
    z: float | None = None
    truncation_eps: float = 1e-8
    log_base: float | None = None

    def __post_init__(self):
        if (self.k is None) == (self.z is None):
            raise ValueError("exactly one of k (cloner) or z (Unruh) must be set")
        if self.k is not None and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError("cloner index k must be an integer >= 1")
        if self.z is not None:
            # Full range validation is delegated to UnruhConfig.
            self.unruh_config()
        elif not isinstance(self.d, int) or self.d < 2:
            raise ValueError("dimension must be an integer >= 2")

    @classmethod
    def from_unruh(cls, cfg: UnruhConfig) -> "ChannelSpec":
        return cls(d=cfg.d, z=cfg.z, truncation_eps=cfg.truncation_eps, log_base=cfg.log_base)

    @property
    def is_cloner(self) -> bool:
        return self.k is not None

    @property
    def base(self) -> float:
        return float(self.d) if self.log_base is None else float(self.log_base)

    def unruh_config(self) -> UnruhConfig:
        if self.z is None:
            raise ValueError("not an Unruh-mode channel spec")
        return UnruhConfig(
            d=self.d, z=self.z, truncation_eps=self.truncation_eps, log_base=self.log_base
        )

    def block_weights(self) -> np.ndarray:
        if self.is_cloner:
            pick_kernel(self.d, self.k, (1,))  # at the vertex, before allocating k weights
            weights = np.zeros(self.k)
            weights[self.k - 1] = 1.0
            return weights
        return unruh_weights(self.unruh_config())

    def evaluator(self) -> TradeoffEvaluator:
        return TradeoffEvaluator(self.d, self.block_weights(), self.base)


@dataclass(frozen=True)
class DynamicCapacityResult:
    value: float
    argmax: EnsembleParams
    grid_best: float
    resolution: int


@dataclass(frozen=True, eq=False)
class CurveResult:
    """Grid ensembles ``mu``, their rate pairs and the rows of the Pareto
    boundary polyline."""

    mu: np.ndarray
    rates: np.ndarray
    hull_indices: tuple

    @property
    def boundary(self) -> np.ndarray:
        return self.rates[list(self.hull_indices)]


def default_resolution(d: int) -> int:
    return 64 if d <= 3 else 16


# ---------------------------------------------------------------------------
# Single-block (cloner) entropies and CQ/CE points
# ---------------------------------------------------------------------------

def cloner_entropy_triple(d: int, k: int, mu, base: float | None = None) -> EntropyTriple:
    """Entropies of the cyclic ensemble through a single 1->k cloner block."""
    params = _as_ensemble(mu, d)
    b = float(d) if base is None else float(base)
    return EntropyTriple(
        h_b=EntropyValue(math.log(block_dimension(d, k)) / math.log(b), b).value,
        h_b_given_x=shannon_entropy(ensemble_spectrum_B(d, k, params), b).value,
        h_e_given_x=shannon_entropy(ensemble_spectrum_E(d, k, params), b).value,
        h_a_given_x=ensemble_conditional_entropy_A(params, b).value,
    )


def cq_point(triple: EntropyTriple) -> tuple[float, float]:
    """(classical rate, quantum rate) = (Holevo, coherent information)."""
    c = triple.h_b - triple.h_b_given_x
    q = triple.h_b_given_x - triple.h_e_given_x
    return (c, q)


def ce_point(triple: EntropyTriple) -> tuple[float, float]:
    """(classical rate, entanglement consumption rate)."""
    c = triple.h_b + triple.h_a_given_x - triple.h_e_given_x
    e = triple.h_a_given_x
    return (c, e)


# ---------------------------------------------------------------------------
# Unruh entropies and CQE / RPS bounds
# ---------------------------------------------------------------------------

def _evaluated_triple(evaluator: TradeoffEvaluator, mu, n: int | None = None) -> EntropyTriple:
    """The entropy record of ``evaluator``'s channel at ensemble ``mu`` (a
    grid point ``counts / n`` when ``n`` is given; see ``engine.grid_counts``)."""
    params = _as_ensemble(mu, evaluator.d)
    base = evaluator.base
    s_bx, s_ex = evaluator.sums(params.as_array(), n)
    return EntropyTriple(
        h_b=EntropyValue(evaluator.s_b, base).value,
        h_b_given_x=EntropyValue(s_bx, base).value,
        h_e_given_x=EntropyValue(s_ex, base).value,
        h_a_given_x=ensemble_conditional_entropy_A(params, base).value,
    )


def unruh_entropy_triple(cfg: UnruhConfig, mu) -> EntropyTriple:
    """Entropy record of the truncated Unruh channel at ensemble ``mu``."""
    return _evaluated_triple(ChannelSpec.from_unruh(cfg).evaluator(), mu)


def cqe_bounds(triple: EntropyTriple) -> tuple[float, float, float]:
    """(C+2Q, Q+E, C+Q+E) bounds; the first exceeds the third by H(A|X)."""
    b3 = triple.h_b - triple.h_e_given_x
    b2 = triple.h_b_given_x - triple.h_e_given_x
    return (triple.h_a_given_x + b3, b2, b3)


def cqe_corner(bounds: tuple[float, float, float]) -> tuple[float, float, float]:
    """Rate triple where all three CQE halfspaces are tight (elementwise when
    the bounds are arrays)."""
    b1, b2, b3 = bounds
    q = (b1 + b2 - b3) / 2.0
    return (b3 - b2, q, b2 - q)


def _public_bound(evaluator: TradeoffEvaluator) -> float:
    """R+P: per block, H(B) minus the entropy H(B|XY) of the pure-input
    output (the cloner spectrum), which does not depend on the ensemble."""
    h_xy = np.array(
        [shannon_entropy(cloner_spectrum(evaluator.d, k), evaluator.base).value
         for k in range(1, evaluator.horizon + 1)]
    )
    return float(np.dot(evaluator.weights, evaluator.log_dims - h_xy))


def rps_bounds(cfg: UnruhConfig, nu) -> tuple[float, float, float]:
    """(R+P, P+S, R+P+S) bounds of the private dynamic region at ensemble nu.

    R+P is ``_public_bound``; the other two reuse the CQE coherent-information
    bounds.
    """
    evaluator = ChannelSpec.from_unruh(cfg).evaluator()
    _, ps, rps = cqe_bounds(_evaluated_triple(evaluator, nu))
    return (_public_bound(evaluator), ps, rps)


# ---------------------------------------------------------------------------
# Dynamic capacity optimization
# ---------------------------------------------------------------------------

def _objective(weights: CapacityWeights, t: EntropyTriple):
    """H(A|X) + (mu+1)H(B) + lam*H(B|X) - (lam+mu+1)H(E|X), elementwise."""
    lam, muw = weights.lambda_w, weights.mu_w
    return (
        t.h_a_given_x + (muw + 1.0) * t.h_b + lam * t.h_b_given_x
        - (lam + muw + 1.0) * t.h_e_given_x
    )


def dynamic_objective(evaluator: TradeoffEvaluator, weights: CapacityWeights, mu) -> float:
    """Weighted dynamic capacity objective at ensemble ``mu``.

    Mixing terms cancel (their coefficients sum to zero), so the per-block
    weighted sums are used directly.
    """
    return _objective(weights, _evaluated_triple(evaluator, mu))


class DynamicCapacityProblem:
    """Shares one entropy table of the grid across many weight pairs.

    The table does not depend on the objective weights, so one lattice sweep
    serves every (lambda, mu) pair, and the entropies at each lattice point a
    climb visits are kept for the climbs of later pairs.
    """

    def __init__(self, cfg: UnruhConfig, resolution: int | None = None):
        self.cfg = cfg
        self.resolution = resolution or default_resolution(cfg.d)
        self.evaluator = ChannelSpec.from_unruh(cfg).evaluator()
        self.grid, self._table = _sweep(self.evaluator, self.resolution)
        self._climbed: dict = {}

    def grid_objectives(self, weights: CapacityWeights) -> np.ndarray:
        return _objective(weights, self._table)

    def _climb_objective(self, weights: CapacityWeights, mu: tuple) -> float:
        if mu not in self._climbed:
            self._climbed[mu] = _evaluated_triple(self.evaluator, mu)
        return _objective(weights, self._climbed[mu])

    def solve(self, weights: CapacityWeights) -> DynamicCapacityResult:
        """The best grid point, improved by a coarse-to-fine lattice climb.

        Every grid point, the uniform one included, is ``counts / n`` with
        n = resolution * d.  Each of ``REFINE_LEVELS`` levels doubles n and
        the counts, then makes passes of unit moves (one count from slot i to
        slot j), keeping a move only when it strictly raises the objective,
        until a pass moves nothing.  Every trial point lies on the simplex,
        and the value never falls below the grid's best.
        """
        values = self.grid_objectives(weights)
        best_idx = int(np.argmax(values))
        grid_best = value = float(values[best_idx])
        n = self.resolution * self.cfg.d
        counts = np.rint(self.grid[best_idx] * n).astype(np.int64)
        assert counts.sum() == n
        unit = np.eye(self.cfg.d, dtype=np.int64)
        for _ in range(REFINE_LEVELS):
            counts, n = 2 * counts, 2 * n
            moved = True
            while moved:
                moved = False
                for i, j in itertools.permutations(range(self.cfg.d), 2):
                    if counts[i] == 0:
                        continue
                    trial = counts - unit[i] + unit[j]
                    trial_value = self._climb_objective(weights, tuple((trial / n).tolist()))
                    if trial_value > value:
                        value, counts, moved = trial_value, trial, True
        return DynamicCapacityResult(
            value=value,
            argmax=EnsembleParams(tuple((counts / n).tolist())),
            grid_best=grid_best,
            resolution=self.resolution,
        )


def dynamic_capacity(
    cfg: UnruhConfig, weights: CapacityWeights, resolution: int | None = None
) -> DynamicCapacityResult:
    """Maximize the dynamic capacity objective over the ensemble simplex.

    Deterministic: a lattice sweep picks the best grid point, then a
    coarse-to-fine lattice climb improves it; the reported value is the best
    objective seen (hence never below any grid value).
    """
    pick_kernel(cfg.d, truncation_horizon(cfg))  # the climb runs on the lattice kernel
    return DynamicCapacityProblem(cfg, resolution).solve(weights)


# ---------------------------------------------------------------------------
# Pareto hull
# ---------------------------------------------------------------------------

def pareto_hull_indices(points) -> list[int]:
    """Indices of the upper-right Pareto boundary of the convex hull.

    Monotone-chain upper hull (collinearity threshold ``HULL_TOL``), trimmed
    to start at the highest point (ties: largest abscissa); dominated and
    interior points drop out, endpoints survive.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one sample")
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - (
            pts[a][1] - pts[o][1]
        ) * (pts[b][0] - pts[o][0])

    upper: list[int] = []
    for i in order:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) >= -HULL_TOL:
            upper.pop()
        upper.append(i)
    top = max(pts[i][1] for i in upper)
    start = max(pos for pos, i in enumerate(upper) if pts[i][1] == top)
    return upper[start:]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def simplex_grid(d: int, resolution: int) -> np.ndarray:
    """Deterministic ensemble lattice as a read-only (points, d) array:
    compositions of ``resolution`` over d slots, divided through; the uniform
    point is added when the resolution is not a multiple of d.  Rows are
    lexicographically descending."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    points = math.comb(resolution + d - 1, d - 1)
    if points > MAX_GRID_POINTS:
        raise SizeCapError(
            f"d={d}, grid {resolution}: {points} ensemble points exceed cap {MAX_GRID_POINTS}"
        )
    # Rows are distinct and lexicographically descending, and dividing by
    # the resolution keeps both properties.
    mu = composition_matrix(d, resolution) / resolution
    if resolution % d:
        # No row has first weight exactly 1/d, so the first column alone
        # places the uniform row.
        mu = np.insert(mu, np.count_nonzero(mu[:, 0] > 1.0 / d), 1.0 / d, axis=0)
    mu.setflags(write=False)
    return mu


def _sweep(evaluator: TradeoffEvaluator, resolution: int | None, *, per_orbit: bool = True):
    """The grid ``mu`` and its entropy ``table``: an ``EntropyTriple`` of
    columns whose entry i is the entropy record at ensemble ``mu[i]``.

    Every entropy of the record is a symmetric function of mu (permuting mu
    only relabels the occupation basis), so by default each S_d orbit of the
    grid is evaluated once, at its first row, and its entropies are given to
    every member.  The grid is lexicographically descending, so that row is
    the orbit's descending-sorted point, as a grid point the engine may
    send to its histogram kernel.  ``per_orbit=False`` evaluates every point
    on the lattice kernel.  Each entry was checked finite by
    ``_evaluated_triple``.
    """
    resolution = resolution or default_resolution(evaluator.d)
    # Gate before the grid, per orbit at the costliest reduced counts: (r-1, 1) or (1,) * d.
    for counts in ((resolution - 1, 1), (1,) * evaluator.d) if per_orbit else (None,):
        pick_kernel(evaluator.d, evaluator.horizon, counts)
    mu = simplex_grid(evaluator.d, resolution)
    n = None
    if per_orbit:
        # Every row, the uniform one included, is counts / (resolution * d),
        # which lets the engine run its histogram kernel where it is cheaper.
        n = resolution * evaluator.d
        # One bytes key per sorted row: the weights are finite and >= +0.0,
        # so equal bytes mean equal rows, and bytes sort far faster than rows.
        keys = np.sort(mu, axis=1)
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, member_of = np.unique(keys, return_index=True, return_inverse=True)
    else:
        first = member_of = np.arange(len(mu))
    evaluated = np.array([_evaluated_triple(evaluator, mu[i], n) for i in first])
    return mu, EntropyTriple(*(column[member_of] for column in evaluated.T))


# The curves evaluate every point: orbit-mates then differ in the last bits,
# and those bits decide which of several tied mates the Pareto hull flags.
# Sharing one rate pair would move the on_hull flags of existing outputs.

def cq_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, Q) points with their Pareto boundary."""
    mu, table = _sweep(spec.evaluator(), resolution, per_orbit=False)
    rates = np.column_stack(cq_point(table))
    return CurveResult(mu, rates, tuple(pareto_hull_indices(rates)))


def ce_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, E) points; entanglement is a cost, so the Pareto boundary
    is hulled on (C, -E)."""
    mu, table = _sweep(spec.evaluator(), resolution, per_orbit=False)
    rates = np.column_stack(ce_point(table))
    return CurveResult(mu, rates, tuple(pareto_hull_indices(rates * (1.0, -1.0))))


def region_surface_cqe(cfg: UnruhConfig, resolution: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The grid ``mu`` and its CQE bound triples (b1, b2, b3), row for row.

    Each row's corner (all three halfspaces tight) is ``cqe_corner``; the
    full region is the hull of the corners swept along the PROTOCOL_RAYS.
    """
    mu, table = _sweep(ChannelSpec.from_unruh(cfg).evaluator(), resolution)
    return mu, np.column_stack(cqe_bounds(table))


def rps_region(cfg: UnruhConfig, resolution: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The grid ``mu`` and its (R+P, P+S, R+P+S) bound triples, row for row;
    R+P is ``_public_bound``, the other two reuse the CQE bounds."""
    evaluator = ChannelSpec.from_unruh(cfg).evaluator()
    mu, table = _sweep(evaluator, resolution)
    _, ps, rps = cqe_bounds(table)
    return mu, np.column_stack((np.full_like(ps, _public_bound(evaluator)), ps, rps))
