"""Trade-off capacity regions for cloner blocks and the Unruh channel.

Computes the classical/quantum (CQ) and classical/entanglement (CE) boundary
curves, the full CQE dynamic-region bounds, and the public/private/secret-key
(RPS) bounds, for either a single 1->k cloner block or the geometric mixture
of blocks that is the Unruh channel, each named by one ``ChannelSpec``, which
builds its evaluator once.  Sweeps run over the cyclic-ensemble
simplex (which suffices for all Pareto-optimal points) and evaluate each
permutation orbit of the grid once, on the kernel ``pick_kernel`` names for
its structure (the histogram from d = 3 on, where it fits).  The CQ/CE
curves then evaluate every row near a hull vertex again on its own, on the
lattice kernel, unless the sweep ran that row on the lattice already, and
are hulled with a monotone chain.  The weighted dynamic capacity objective
is maximized by a grid sweep plus a coarse-to-fine climb along the one-heavy
ensembles (a, b, ..., b), on the engine's family kernel.

Every bound is a linear function of four entropies of the ensemble, H(B),
H(B|X), H(E|X) and H(A|X).  A sweep produces one entropy table, an
``EntropyTriple`` whose fields are columns over the read-only grid ``mu`` of
shape (points, d), and each bound formula (``cq_point``, ``ce_point``,
``cqe_bounds``, the dynamic objective) applies to that table elementwise,
exactly as it does to the triple of one ensemble.

All rates are in dits of the configured log base (default: the dimension d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .combinat import SizeCapError, _readonly, block_dimension, check_block, composition_matrix
from .combinat import rounded_count
from .engine import TradeoffEvaluator, pick_kernel
from .entropy import EntropyValue, ensemble_conditional_entropy_A, shannon_entropy
from .spectra import (
    EnsembleParams,
    UnruhConfig,
    _as_ensemble,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    truncation,
    unruh_weights,
)

__all__ = [
    "HULL_TOL",
    "MAX_GRID_ENTRIES",
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
    "sweep_resolution",
    "cq_curve",
    "ce_curve",
    "region_surface_cqe",
    "rps_region",
]

HULL_TOL = 1e-9

# Ensemble lattice points C(R+d-1, d-1) per sweep, and their entries (points
# times d); larger grids are refused before the lattice is enumerated.
MAX_GRID_POINTS = 10**6
MAX_GRID_ENTRIES = 10**7

# The dynamic capacity climb's last step is 1/(resolution * d * 2**REFINE_LEVELS) or less.
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
    """Nonnegative weights of the dynamic capacity objective; -0.0 is stored
    as 0.0."""

    lambda_w: float = 0.0
    mu_w: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lambda_w) and math.isfinite(self.mu_w)):
            raise ValueError("capacity weights must be finite")
        if self.lambda_w < 0.0 or self.mu_w < 0.0:
            raise ValueError("capacity weights must be nonnegative")
        object.__setattr__(self, "lambda_w", self.lambda_w + 0.0)  # -0.0 + 0.0 is 0.0
        object.__setattr__(self, "mu_w", self.mu_w + 0.0)


@dataclass(frozen=True)
class ChannelSpec:
    """Either a single 1->k cloner block (``k``) or the Unruh channel (``z``):
    the channel argument of every entry point of this module.  Every value
    is checked here, before the evaluator is built.  ``truncation_eps``
    applies to the Unruh channel alone (``None``: ``UnruhConfig``'s default);
    a cloner block has no truncation and refuses any value."""

    d: int
    k: int | None = None
    z: float | None = None
    truncation_eps: float | None = None
    log_base: float | None = None

    def __post_init__(self):
        if (self.k is None) == (self.z is None):
            raise ValueError("exactly one of k (cloner) or z (Unruh) must be set")
        if self.k is not None and self.truncation_eps is not None:
            raise ValueError("a cloner block has no truncation: truncation_eps is for z only")
        if self.k is not None:
            check_block(self.k)
        self._config  # built here, where it checks d, z and the numerics
        if self.z is not None:
            object.__setattr__(self, "z", self._config.z)  # with -0.0 stored as 0.0

    @cached_property
    def _config(self) -> UnruhConfig:  # a cloner block's is at z = 0
        z = 0.0 if self.z is None else self.z
        if self.truncation_eps is None:  # the default lives in UnruhConfig
            return UnruhConfig(self.d, z, log_base=self.log_base)
        return UnruhConfig(self.d, z, self.truncation_eps, self.log_base)

    @property
    def base(self) -> float:
        return self._config.base

    def unruh_config(self) -> UnruhConfig:
        if self.z is None:
            raise ValueError("not an Unruh-mode channel spec")
        return self._config

    @cached_property
    def horizon_tail(self) -> tuple[int, float]:
        """The Unruh channel's truncation horizon K and its certified tail
        bound (``spectra.truncation``), searched once per spec."""
        return truncation(self.unruh_config())

    @cached_property
    def evaluator(self) -> TradeoffEvaluator:
        """The channel's evaluator, built on first use: one-hot weights for a
        cloner block, the truncated geometric weights for the Unruh channel."""
        if self.k is not None:
            pick_kernel(self.d, self.k, (1,))  # at the vertex, before allocating k weights
            weights = np.zeros(self.k)
            weights[self.k - 1] = 1.0
        else:
            weights = unruh_weights(self.unruh_config(), self.horizon_tail[0])
        return TradeoffEvaluator(self.d, weights, self.base)


@dataclass(frozen=True)
class DynamicCapacityResult:
    value: float
    argmax: EnsembleParams
    grid_best: float
    family_gap: float  # max(0, grid_best - the best value found on the one-heavy family)
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


def sweep_resolution(d: int, resolution: int | None = None) -> int:
    """The grid resolution of a sweep: ``resolution``, which must be >= 1,
    or by default 64 for d <= 3 and 16 above."""
    if resolution is None:
        return 64 if d <= 3 else 16
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return resolution


# ---------------------------------------------------------------------------
# Single-block (cloner) entropies and CQ/CE points
# ---------------------------------------------------------------------------

def cloner_entropy_triple(d: int, k: int, mu, base: float | None = None) -> EntropyTriple:
    """Entropies of the cyclic ensemble through a single 1->k cloner block."""
    params = _as_ensemble(mu, d)
    b = UnruhConfig(d, 0.0, log_base=base).base
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

def _record(evaluator: TradeoffEvaluator, params: EnsembleParams, sums) -> EntropyTriple:
    """The checked entropy record of ``evaluator``'s channel at ensemble
    ``params``, whose weighted block sums (H(B|X), H(E|X)) are ``sums``."""
    base = evaluator.base
    s_bx, s_ex = sums
    return EntropyTriple(
        h_b=EntropyValue(evaluator.s_b, base).value,
        h_b_given_x=EntropyValue(s_bx, base).value,
        h_e_given_x=EntropyValue(s_ex, base).value,
        h_a_given_x=ensemble_conditional_entropy_A(params, base).value,
    )


def _evaluated_triple(evaluator: TradeoffEvaluator, mu, counts=None) -> EntropyTriple:
    """The entropy record of ``evaluator``'s channel at ensemble ``mu`` (the
    grid point ``counts / sum(counts)`` when ``counts`` is given)."""
    params = _as_ensemble(mu, evaluator.d)
    return _record(evaluator, params, evaluator.sums(params.as_array(), counts))


def unruh_entropy_triple(spec: ChannelSpec, mu) -> EntropyTriple:
    """Entropy record of the channel ``spec`` at ensemble ``mu``."""
    return _evaluated_triple(spec.evaluator, mu)


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
    output, which does not depend on the ensemble.  That output spectrum is
    the receiver spectrum at the vertex a = 1 of the one-heavy family."""
    return evaluator.s_b - evaluator.family_sums(1.0)[0]


def rps_bounds(spec: ChannelSpec, nu) -> tuple[float, float, float]:
    """(R+P, P+S, R+P+S) bounds of the private dynamic region at ensemble nu.

    R+P is ``_public_bound``; the other two reuse the CQE coherent-information
    bounds.
    """
    _, ps, rps = cqe_bounds(_evaluated_triple(spec.evaluator, nu))
    return (_public_bound(spec.evaluator), ps, rps)


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


def _check_overflow(evaluator: TradeoffEvaluator, weights: CapacityWeights) -> None:
    """``OverflowError`` when ``weights`` are so large that the objective
    could overflow on ``evaluator``'s channel."""
    # No entropy exceeds the larger of log dim_K and log d: the objective at
    # those entropies, with the signs of its coefficients, bounds it.
    top = max(float(evaluator.log_dims[-1]), math.log(evaluator.d, evaluator.base))
    if not math.isfinite(_objective(weights, EntropyTriple(top, top, -top, top))):
        raise OverflowError(
            f"capacity weights lambda={weights.lambda_w!r}, mu={weights.mu_w!r}: "
            "the objective would overflow"
        )


def dynamic_objective(evaluator: TradeoffEvaluator, weights: CapacityWeights, mu) -> float:
    """Weighted dynamic capacity objective at ensemble ``mu``.

    Mixing terms cancel (their coefficients sum to zero), so the per-block
    weighted sums are used directly.
    """
    return _objective(weights, _evaluated_triple(evaluator, mu))


class DynamicCapacityProblem:
    """Shares one entropy table of the grid across many weight pairs.

    The table does not depend on the objective weights, so one grid sweep
    serves every (lambda, mu) pair.
    """

    def __init__(self, spec: ChannelSpec, resolution: int | None = None):
        self.resolution = sweep_resolution(spec.d, resolution)
        self.evaluator = spec.evaluator
        self.grid, self._table, _ = _sweep(self.evaluator, self.resolution)

    def grid_objectives(self, weights: CapacityWeights) -> np.ndarray:
        return _objective(weights, self._table)

    def solve(self, weights: CapacityWeights) -> DynamicCapacityResult:
        """The best grid point, and a coarse-to-fine climb along the one-heavy
        family (a, b, ..., b), b = (1-a)/(d-1), a in [1/d, 1], from its best
        grid row with their spacing (d-1)/resolution as the step.  It moves up,
        else down, while a move strictly raises the objective, then halves the
        step.  The reduction to the family is measured, not proven:
        ``family_gap`` reports it.  Weights so large that the objective
        could overflow are refused first (``_check_overflow``)."""
        _check_overflow(self.evaluator, weights)
        values = self.grid_objectives(weights)
        best_idx = int(np.argmax(values))
        grid_best = float(values[best_idx])
        evaluator, grid, d = self.evaluator, self.grid, self.evaluator.d
        on_family = np.all(grid[:, 1:] == grid[:, 1:2], axis=1) & (grid[:, 0] >= grid[:, 1])
        start = int(np.flatnonzero(on_family)[np.argmax(values[on_family])])
        a, value, argmax = float(grid[start, 0]), float(values[start]), EnsembleParams(grid[start])
        step, finest = (d - 1) / self.resolution, 1.0 / (self.resolution * d * 2**REFINE_LEVELS)
        while step > finest / 2:  # the first step <= finest is the last
            for sign in (1.0, -1.0):
                origin = a
                while (trial := min(max(a + sign * step, 1.0 / d), 1.0)) != a:
                    params = EnsembleParams((trial,) + ((1.0 - trial) / (d - 1),) * (d - 1))
                    triple = _record(evaluator, params, evaluator.family_sums(trial))
                    trial_value = _objective(weights, triple)
                    if not trial_value > value:
                        break
                    a, value, argmax = trial, trial_value, params
                if a != origin:  # one step down is where the climb came from
                    break
            step /= 2.0
        family_gap = max(0.0, grid_best - value)
        if family_gap > 0.0:
            value, argmax = grid_best, EnsembleParams(grid[best_idx])
        return DynamicCapacityResult(
            value=value,
            argmax=argmax,
            grid_best=grid_best,
            family_gap=family_gap,
            resolution=self.resolution,
        )


def dynamic_capacity(
    spec: ChannelSpec, weights: CapacityWeights, resolution: int | None = None
) -> DynamicCapacityResult:
    """Maximize the dynamic capacity objective over the ensemble simplex.

    Deterministic: a grid sweep and a climb along the one-heavy family
    (``DynamicCapacityProblem.solve``); the reported value is never below any
    grid value.  Weights so large that the objective could overflow are
    refused before the grid is built.
    """
    resolution = sweep_resolution(spec.d, resolution)
    _check_overflow(spec.evaluator, weights)
    return DynamicCapacityProblem(spec, resolution).solve(weights)


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
    """Deterministic ensemble lattice as a read-only int32 (points, d) array
    of counts over ``resolution * d``: the compositions of ``resolution``
    over d slots, times d, and the uniform row (resolution, ..., resolution)
    when d does not divide the resolution.  Rows descend lexicographically."""
    resolution = sweep_resolution(d, resolution)
    points = math.comb(resolution + d - 1, d - 1)
    if points > MAX_GRID_POINTS or points * d > MAX_GRID_ENTRIES:
        raise SizeCapError(
            f"d={d}, grid {resolution}: {rounded_count(points)} ensemble points "
            f"({rounded_count(points * d)} entries) exceed cap {MAX_GRID_POINTS} "
            f"({MAX_GRID_ENTRIES} entries)"
        )
    counts = composition_matrix(d, resolution) * d
    if resolution % d:
        # Every other first count is a multiple of d, so the first column
        # alone places the uniform row.
        counts = np.insert(counts, np.count_nonzero(counts[:, 0] > resolution), resolution, axis=0)
    return _readonly(counts)


def _sweep(evaluator: TradeoffEvaluator, resolution: int):
    """The read-only grid ``mu`` (``simplex_grid``'s counts over
    ``resolution * d``, divided through once), its entropy ``table``, an
    ``EntropyTriple`` of columns whose entry i is the entropy record of
    ``mu[i]``'s orbit, and ``orbits``, a map from each orbit's first row, the
    row evaluated, to its counts reduced by their gcd.

    Every entropy of the record is a symmetric function of mu (permuting mu
    only relabels the occupation basis), so each S_d orbit of the grid is
    evaluated once, at its first row, and its entropies are given to every
    member.  The grid is lexicographically descending, so that row is the
    orbit's descending-sorted point.  It is passed with its counts, and
    ``pick_kernel`` of the counts names its kernel: the histogram from d = 3
    on, where it fits, else the lattice.  Each entry was checked finite by
    ``_evaluated_triple``.
    """
    # Gate before the grid, per orbit at the costliest reduced counts: (r-1, 1) or (1,) * d.
    for counts in ((resolution - 1, 1), (1,) * evaluator.d):
        pick_kernel(evaluator.d, evaluator.horizon, counts)
    counts = simplex_grid(evaluator.d, resolution)
    # One bytes key per sorted row of counts: equal bytes mean equal rows,
    # and bytes sort far faster than rows.
    keys = np.sort(counts, axis=1)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, member_of = np.unique(keys, return_index=True, return_inverse=True)
    reduced = counts[first] // np.gcd.reduce(counts[first], axis=1)[:, None]
    orbits = dict(zip(first.tolist(), map(tuple, reduced.tolist())))
    mu = _readonly(counts / (resolution * evaluator.d))
    evaluated = np.array([_evaluated_triple(evaluator, mu[i], c) for i, c in orbits.items()])
    return mu, EntropyTriple(*(column[member_of] for column in evaluated.T)), orbits


def _curve(spec: ChannelSpec, resolution: int | None, rate_pair, sign) -> CurveResult:
    """The grid's rate pairs and the Pareto hull of ``rates * sign``.

    The sweep's rates are exact to rounding, but on the histogram kernel or
    shared among orbit-mates they differ from a lone lattice evaluation of
    each row in the last bits, and those bits decide which of several tied
    rows the hull flags.  So every row whose rate pair lies within
    ``HULL_TOL`` (max-norm) of a vertex of the sweep's hull is evaluated on
    its own on the lattice kernel, unless it already holds those bits (an
    orbit's first row whose counts ``pick_kernel`` sends to the lattice), and
    the hull is taken again on the result.
    """
    resolution = sweep_resolution(spec.d, resolution)
    evaluator = spec.evaluator
    # The rows near hull vertices need the lattice: gate it before the grid.
    pick_kernel(evaluator.d, evaluator.horizon)
    mu, table, orbits = _sweep(evaluator, resolution)
    rates = np.column_stack(rate_pair(table))
    tied = np.zeros(len(mu), dtype=bool)
    for vertex in rates[pareto_hull_indices(rates * sign)]:
        tied |= np.abs(rates - vertex).max(axis=1) <= HULL_TOL
    own = np.zeros(len(mu), dtype=bool)  # the tied first rows the sweep ran on the lattice
    for i, counts in orbits.items():
        own[i] = tied[i] and pick_kernel(evaluator.d, evaluator.horizon, counts) == "lattice"
    for i in np.flatnonzero(tied & ~own):
        rates[i] = rate_pair(_evaluated_triple(evaluator, mu[i]))
    return CurveResult(mu, rates, tuple(pareto_hull_indices(rates * sign)))


def cq_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, Q) points with their Pareto boundary.

    One evaluation per orbit, at its first row with its integer counts, on
    the kernel ``pick_kernel`` names; every row within ``HULL_TOL`` of a
    hull vertex then carries its own lattice bits (see ``_curve``: it
    evaluates such a row again unless the sweep ran it on the lattice), so
    the ``on_hull`` flag lands on the row a per-point lattice sweep flags,
    and every other row is within rounding of its own evaluation.
    """
    return _curve(spec, resolution, cq_point, (1.0, 1.0))


def ce_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, E) points, evaluated as ``cq_curve``'s; entanglement is a
    cost, so the Pareto boundary is hulled on (C, -E)."""
    return _curve(spec, resolution, ce_point, (1.0, -1.0))


def region_surface_cqe(spec: ChannelSpec, resolution: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The grid ``mu`` and its CQE bound triples (b1, b2, b3), row for row.

    Each row's corner (all three halfspaces tight) is ``cqe_corner``; the
    full region is the hull of the corners swept along the PROTOCOL_RAYS.
    """
    resolution = sweep_resolution(spec.d, resolution)
    mu, table, _ = _sweep(spec.evaluator, resolution)
    return mu, np.column_stack(cqe_bounds(table))


def rps_region(spec: ChannelSpec, resolution: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The grid ``mu`` and its (R+P, P+S, R+P+S) bound triples, row for row;
    R+P is ``_public_bound``, the other two reuse the CQE bounds."""
    resolution = sweep_resolution(spec.d, resolution)
    mu, table, _ = _sweep(spec.evaluator, resolution)
    _, ps, rps = cqe_bounds(table)
    return mu, np.column_stack((np.full_like(ps, _public_bound(spec.evaluator)), ps, rps))
