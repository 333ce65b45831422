"""Trade-off capacity regions for cloner blocks and the Unruh channel.

Computes the classical/quantum (CQ) and classical/entanglement (CE) boundary
curves, the full CQE dynamic-region bounds, and the public/private/secret-key
(RPS) bounds, for either a single 1->k cloner block or the geometric mixture
of blocks that is the Unruh channel.  Sweeps run over the cyclic-ensemble
simplex (which suffices for all Pareto-optimal points), evaluate each
permutation orbit of the grid once (the CQ/CE curves: every point), are
hulled with a monotone chain, and the weighted dynamic capacity objective is
maximized by a lattice sweep plus a coarse-to-fine lattice climb.

All rates are in dits of the configured log base (default: the dimension d).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinat import SizeCapError, block_dimension, composition_matrix
from .engine import TradeoffEvaluator
from .entropy import EntropyValue, ensemble_conditional_entropy_A, shannon_entropy
from .spectra import (
    EnsembleParams,
    UnruhConfig,
    _as_ensemble,
    cloner_spectrum,
    ensemble_spectrum_B,
    ensemble_spectrum_E,
    unruh_weights,
)

__all__ = [
    "HULL_TOL",
    "MAX_GRID_POINTS",
    "PROTOCOL_RAYS",
    "EntropyTriple",
    "RegionSample",
    "CapacityWeights",
    "ChannelSpec",
    "DynamicCapacityProblem",
    "DynamicCapacityResult",
    "CurveResult",
    "SurfaceResult",
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
    "pareto_hull_2d",
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


@dataclass(frozen=True)
class EntropyTriple:
    """The four entropies every region bound is built from (one log base).

    For a block mixture the output entropies are block-weighted sums; the
    mixing terms cancel in every bound.
    """

    h_b: EntropyValue
    h_b_given_x: EntropyValue
    h_e_given_x: EntropyValue
    h_a_given_x: EntropyValue

    def __post_init__(self):
        bases = {v.base for v in (self.h_b, self.h_b_given_x, self.h_e_given_x, self.h_a_given_x)}
        if len(bases) != 1:
            raise ValueError("entropy triple mixes log bases")

    @property
    def base(self) -> float:
        return self.h_b.base


@dataclass(frozen=True)
class RegionSample:
    """One rate tuple with the parameters that generated it."""

    rates: tuple[float, ...]
    ensemble: EnsembleParams
    channel: tuple

    def __post_init__(self):
        if not all(math.isfinite(r) for r in self.rates):
            raise ValueError("rates must be finite")

    @property
    def horizon(self) -> int | None:
        """Truncation horizon K of an Unruh-mode sample; None for a cloner block."""
        return self.channel[3] if self.channel[0] == "unruh" else None


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
            weights = np.zeros(self.k)
            weights[self.k - 1] = 1.0
            return weights
        return unruh_weights(self.unruh_config())

    def evaluator(self) -> TradeoffEvaluator:
        return TradeoffEvaluator(self.d, self.block_weights(), self.base)

    def channel_tag(self, horizon: int) -> tuple:
        if self.is_cloner:
            return ("cloner", self.d, self.k)
        return ("unruh", self.d, self.z, horizon)


@dataclass(frozen=True)
class DynamicCapacityResult:
    value: float
    argmax: EnsembleParams
    weights: CapacityWeights
    grid_best: float
    resolution: int
    horizon: int


@dataclass(frozen=True, eq=False)
class CurveResult:
    """Sweep samples plus the indices of the Pareto boundary polyline."""

    samples: tuple
    hull_indices: tuple
    spec: ChannelSpec

    @property
    def boundary(self) -> list[RegionSample]:
        return [self.samples[i] for i in self.hull_indices]


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    """CQE bound triples per ensemble plus the protocol rays."""

    samples: tuple
    rays: dict
    spec: ChannelSpec


def default_resolution(d: int) -> int:
    return 64 if d <= 3 else 16


# ---------------------------------------------------------------------------
# Single-block (cloner) entropies and CQ/CE points
# ---------------------------------------------------------------------------

def cloner_entropy_triple(d: int, k: int, mu, base: float | None = None) -> EntropyTriple:
    """Entropies of the cyclic ensemble through a single 1->k cloner block."""
    params = _as_ensemble(mu, d)
    b = float(d) if base is None else float(base)
    h_b = EntropyValue(math.log(block_dimension(d, k)) / math.log(b), b)
    return EntropyTriple(
        h_b=h_b,
        h_b_given_x=shannon_entropy(ensemble_spectrum_B(d, k, params), b),
        h_e_given_x=shannon_entropy(ensemble_spectrum_E(d, k, params), b),
        h_a_given_x=ensemble_conditional_entropy_A(params, b),
    )


def cq_point(triple: EntropyTriple) -> tuple[float, float]:
    """(classical rate, quantum rate) = (Holevo, coherent information)."""
    c = triple.h_b.value - triple.h_b_given_x.value
    q = triple.h_b_given_x.value - triple.h_e_given_x.value
    return (c, q)


def ce_point(triple: EntropyTriple) -> tuple[float, float]:
    """(classical rate, entanglement consumption rate)."""
    c = triple.h_b.value + triple.h_a_given_x.value - triple.h_e_given_x.value
    e = triple.h_a_given_x.value
    return (c, e)


# ---------------------------------------------------------------------------
# Unruh entropies and CQE / RPS bounds
# ---------------------------------------------------------------------------

def _evaluated_triple(evaluator: TradeoffEvaluator, mu: EnsembleParams) -> EntropyTriple:
    """The entropy record of ``evaluator``'s channel at ensemble ``mu``."""
    base = evaluator.base
    s_bx, s_ex = evaluator.sums(mu.as_array())
    return EntropyTriple(
        h_b=EntropyValue(evaluator.s_b, base),
        h_b_given_x=EntropyValue(s_bx, base),
        h_e_given_x=EntropyValue(s_ex, base),
        h_a_given_x=ensemble_conditional_entropy_A(mu, base),
    )


def unruh_entropy_triple(cfg: UnruhConfig, mu) -> EntropyTriple:
    """Entropy record of the truncated Unruh channel at ensemble ``mu``."""
    return _evaluated_triple(ChannelSpec.from_unruh(cfg).evaluator(), _as_ensemble(mu, cfg.d))


def cqe_bounds(triple: EntropyTriple) -> tuple[float, float, float]:
    """(C+2Q, Q+E, C+Q+E) bounds; the first exceeds the third by H(A|X)."""
    b3 = triple.h_b.value - triple.h_e_given_x.value
    b2 = triple.h_b_given_x.value - triple.h_e_given_x.value
    return (triple.h_a_given_x.value + b3, b2, b3)


def cqe_corner(bounds: tuple[float, float, float]) -> tuple[float, float, float]:
    """Rate triple where all three CQE halfspaces are tight."""
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


def _rps(rp: float, triple: EntropyTriple) -> tuple[float, float, float]:
    _, ps, rps = cqe_bounds(triple)
    return (rp, ps, rps)


def rps_bounds(cfg: UnruhConfig, nu) -> tuple[float, float, float]:
    """(R+P, P+S, R+P+S) bounds of the private dynamic region at ensemble nu.

    R+P is ``_public_bound``; the other two reuse the CQE coherent-information
    bounds.
    """
    evaluator = ChannelSpec.from_unruh(cfg).evaluator()
    return _rps(_public_bound(evaluator), _evaluated_triple(evaluator, _as_ensemble(nu, cfg.d)))


# ---------------------------------------------------------------------------
# Dynamic capacity optimization
# ---------------------------------------------------------------------------

def _objective(weights: CapacityWeights, h_b, h_bx, h_ex, h_a):
    """H(A|X) + (mu+1)H(B) + lam*H(B|X) - (lam+mu+1)H(E|X), elementwise."""
    lam, muw = weights.lambda_w, weights.mu_w
    return h_a + (muw + 1.0) * h_b + lam * h_bx - (lam + muw + 1.0) * h_ex


def _conditional_sums(t: EntropyTriple) -> tuple[float, float, float]:
    """(H(A|X), H(B|X), H(E|X)): the weight-independent part of the objective."""
    return (t.h_a_given_x.value, t.h_b_given_x.value, t.h_e_given_x.value)


def dynamic_objective(evaluator: TradeoffEvaluator, weights: CapacityWeights, mu) -> float:
    """Weighted dynamic capacity objective at ensemble ``mu``.

    Mixing terms cancel (their coefficients sum to zero), so the per-block
    weighted sums are used directly.
    """
    t = _evaluated_triple(evaluator, _as_ensemble(mu, evaluator.d))
    return _objective(
        weights, t.h_b.value, t.h_b_given_x.value, t.h_e_given_x.value, t.h_a_given_x.value
    )


class DynamicCapacityProblem:
    """Shares the weight-independent sums across many weight pairs.

    The per-ensemble sums (H(A|X), sum p_k H(B|X)_k, sum p_k H(E|X)_k) do not
    depend on the objective weights, so one lattice sweep serves every
    (lambda, mu) pair, and the sums at each lattice point a climb visits are
    kept for the climbs of later pairs.
    """

    def __init__(self, cfg: UnruhConfig, resolution: int | None = None):
        self.cfg = cfg
        self.resolution = resolution or default_resolution(cfg.d)
        spec = ChannelSpec.from_unruh(cfg)
        self.evaluator = spec.evaluator()
        samples = _sweep(spec, self.evaluator, self.resolution, _conditional_sums)
        self.grid = [s.ensemble for s in samples]
        self._h_a, self._s_bx, self._s_ex = np.array([s.rates for s in samples]).T
        self._climbed: dict = {}

    def grid_objectives(self, weights: CapacityWeights) -> np.ndarray:
        return _objective(weights, self.evaluator.s_b, self._s_bx, self._s_ex, self._h_a)

    def _climb_objective(self, weights: CapacityWeights, mu: tuple) -> float:
        if mu not in self._climbed:
            params = EnsembleParams(mu)
            self._climbed[mu] = _conditional_sums(_evaluated_triple(self.evaluator, params))
        h_a, s_bx, s_ex = self._climbed[mu]
        return _objective(weights, self.evaluator.s_b, s_bx, s_ex, h_a)

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
        counts = np.rint(self.grid[best_idx].as_array() * n).astype(np.int64)
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
            weights=weights,
            grid_best=grid_best,
            resolution=self.resolution,
            horizon=self.evaluator.horizon,
        )


def dynamic_capacity(
    cfg: UnruhConfig, weights: CapacityWeights, resolution: int | None = None
) -> DynamicCapacityResult:
    """Maximize the dynamic capacity objective over the ensemble simplex.

    Deterministic: a lattice sweep picks the best grid point, then a
    coarse-to-fine lattice climb improves it; the reported value is the best
    objective seen (hence never below any grid value).
    """
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


def pareto_hull_2d(samples) -> list[RegionSample]:
    """Boundary polyline (subset of ``samples``) of the upper-right Pareto hull."""
    samples = list(samples)
    if any(len(s.rates) != 2 for s in samples):
        raise ValueError("pareto_hull_2d needs 2-D rate samples")
    return [samples[i] for i in pareto_hull_indices([s.rates for s in samples])]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def simplex_grid(d: int, resolution: int) -> list[EnsembleParams]:
    """Deterministic ensemble lattice: compositions of ``resolution`` over d
    slots, divided through; the uniform point is added when the resolution is
    not a multiple of d.  Sorted lexicographically descending."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    points = math.comb(resolution + d - 1, d - 1)
    if points > MAX_GRID_POINTS:
        raise SizeCapError(
            f"d={d}, grid {resolution}: {points} ensemble points exceed cap {MAX_GRID_POINTS}"
        )
    # Rows are distinct and lexicographically descending, and dividing by
    # the resolution keeps both properties.
    mus = (composition_matrix(d, resolution) / resolution).tolist()
    if resolution % d:
        bisect.insort(mus, [1.0 / d] * d, key=lambda m: [-x for x in m])
    return [EnsembleParams(m) for m in mus]


def _sweep(
    spec: ChannelSpec,
    evaluator: TradeoffEvaluator,
    resolution: int | None,
    bound_fn,
    *,
    per_orbit: bool = True,
):
    """One ``RegionSample`` of ``bound_fn(entropy record)`` per grid ensemble.

    Every entropy of the record is a symmetric function of mu (permuting mu
    only relabels the occupation basis), so by default each S_d orbit of the
    grid is evaluated once, at the first member met, and its rates are given
    to every member.  The grid is lexicographically descending, so that
    member is the orbit's descending-sorted point.  ``per_orbit=False``
    evaluates every point.
    """
    tag = spec.channel_tag(evaluator.horizon)
    grid = simplex_grid(spec.d, resolution or default_resolution(spec.d))
    samples, rates = [], {}
    for params in grid:
        key = tuple(sorted(params.mu)) if per_orbit else len(samples)
        if key not in rates:
            rates[key] = bound_fn(_evaluated_triple(evaluator, params))
        samples.append(RegionSample(rates[key], params, tag))
    return samples


# The curves evaluate every point: orbit-mates then differ in the last bits,
# and those bits decide which of several tied mates the Pareto hull flags.
# Sharing one rate pair would move the on_hull flags of existing outputs.

def cq_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, Q) points with their Pareto boundary."""
    samples = _sweep(spec, spec.evaluator(), resolution, cq_point, per_orbit=False)
    hull = pareto_hull_indices([s.rates for s in samples])
    return CurveResult(tuple(samples), tuple(hull), spec)


def ce_curve(spec: ChannelSpec, resolution: int | None = None) -> CurveResult:
    """Sweep of (C, E) points; entanglement is a cost, so the Pareto boundary
    is hulled on (C, -E)."""
    samples = _sweep(spec, spec.evaluator(), resolution, ce_point, per_orbit=False)
    hull = pareto_hull_indices([(s.rates[0], -s.rates[1]) for s in samples])
    return CurveResult(tuple(samples), tuple(hull), spec)


def region_surface_cqe(cfg: UnruhConfig, resolution: int | None = None) -> SurfaceResult:
    """CQE bound triples (b1, b2, b3) per grid ensemble, plus protocol rays.

    Each sample's corner (all three halfspaces tight) is ``cqe_corner``; the
    full region is the hull of the corners swept along the PROTOCOL_RAYS.
    """
    spec = ChannelSpec.from_unruh(cfg)
    samples = _sweep(spec, spec.evaluator(), resolution, cqe_bounds)
    return SurfaceResult(tuple(samples), dict(PROTOCOL_RAYS), spec)


def rps_region(cfg: UnruhConfig, resolution: int | None = None) -> list[RegionSample]:
    """(R+P, P+S, R+P+S) bound triples per grid ensemble."""
    spec = ChannelSpec.from_unruh(cfg)
    evaluator = spec.evaluator()
    rp = _public_bound(evaluator)
    return _sweep(spec, evaluator, resolution, lambda triple: _rps(rp, triple))
