"""Shared helpers for the CQ/CE curve tests: which rows a curve evaluates,
the geometry of boundary-vs-time-sharing checks, and points of the
one-heavy ensemble family."""

import functools
import math
from fractions import Fraction

import numpy as np

from unruhcap import regions
from unruhcap.engine import pick_kernel
from unruhcap.spectra import EnsembleParams


def tied_rows(rates, hull_indices) -> np.ndarray:
    """Rows whose rate pair lies within ``HULL_TOL`` (max-norm) of a hull
    vertex: the rows whose last bits can decide which one the hull flags."""
    rates = np.asarray(rates)
    tied = np.zeros(len(rates), dtype=bool)
    for vertex in rates[list(hull_indices)]:
        tied |= np.abs(rates - vertex).max(axis=1) <= regions.HULL_TOL
    return np.flatnonzero(tied)


def orbit_first_rows(grid) -> list:
    """The first row of each S_d orbit of ``grid``, in grid order."""
    first = {}
    for i, row in enumerate(grid.tolist()):
        first.setdefault(tuple(sorted(row)), i)
    return sorted(first.values())


def reduced_counts(row, n: int) -> tuple:
    """The integer counts of the grid row ``counts / n``, reduced by their
    gcd: each weight read as the nearest fraction with denominator <= n."""
    counts = [Fraction(x).limit_denominator(n) * n for x in row]
    assert all(c.denominator == 1 for c in counts) and sum(counts) == n
    g = math.gcd(*(int(c) for c in counts))
    return tuple(int(c) // g for c in counts)


def orbit_counts(grid, resolution: int) -> dict:
    """The first row of each S_d orbit of the sweep grid of ``resolution``,
    in grid order, mapped to its reduced counts (every row is counts over
    resolution * d)."""
    n = resolution * grid.shape[1]
    return {i: reduced_counts(grid[i], n) for i in orbit_first_rows(grid)}


def reevaluated_rows(
    spec: regions.ChannelSpec, curve: regions.CurveResult, resolution: int
) -> list:
    """The rows a curve of grid ``resolution`` evaluates again on their own:
    the rows tied with a hull vertex, less the orbits' first rows whose
    counts the sweep ran on the lattice, which hold their own bits already."""
    horizon = spec.evaluator.horizon
    own = {
        i
        for i, counts in orbit_counts(curve.mu, resolution).items()
        if pick_kernel(spec.d, horizon, counts) == "lattice"
    }
    return [i for i in tied_rows(curve.rates, curve.hull_indices) if i not in own]


def boundary_interp(points, x):
    """Piecewise-linear ordinate of a polyline ordered by increasing abscissa."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return float(np.interp(x, xs, ys))


def cq_midpoint_gap(spec: regions.ChannelSpec, resolution: int):
    """(absolute, relative) exceedance of the CQ boundary over the time-sharing
    chord at the chord's midpoint abscissa.

    The chord joins the pure-classical point (vertex ensemble, Q = 0) and the
    pure-quantum point (uniform ensemble, C = 0); the relative gap divides by
    the chord ordinate at the midpoint.
    """
    curve = regions.cq_curve(spec, resolution)
    boundary = curve.boundary
    evaluator = spec.evaluator
    s_bx_v, s_ex_v = evaluator.sums(EnsembleParams.vertex(spec.d).as_array())
    c_classical = evaluator.s_b - s_bx_v
    s_bx_u, s_ex_u = evaluator.sums(EnsembleParams.uniform(spec.d).as_array())
    q_max = s_bx_u - s_ex_u
    x_mid = c_classical / 2.0
    chord = q_max / 2.0
    gap = boundary_interp(boundary, x_mid) - chord
    return gap, gap / chord


def ce_midpoint_gap(spec: regions.ChannelSpec, resolution: int):
    """(absolute, relative) sag of the CE boundary below the time-sharing chord
    at the chord's midpoint abscissa.

    The chord joins the zero-entanglement classical point (vertex ensemble)
    and the one-dit-per-use point (uniform ensemble); a larger region needs
    less entanglement at fixed classical rate, i.e. lies below the chord.
    """
    curve = regions.ce_curve(spec, resolution)
    boundary = curve.boundary
    evaluator = spec.evaluator
    _, s_ex_v = evaluator.sums(EnsembleParams.vertex(spec.d).as_array())
    c_classical = evaluator.s_b - s_ex_v
    _, s_ex_u = evaluator.sums(EnsembleParams.uniform(spec.d).as_array())
    c_assisted = evaluator.s_b + 1.0 - s_ex_u
    x_mid = (c_classical + c_assisted) / 2.0
    chord = 0.5
    gap = chord - boundary_interp(boundary, x_mid)
    return gap, gap / chord


@functools.lru_cache(maxsize=None)
def family_row(spec: regions.ChannelSpec, a: float) -> tuple:
    """The entropy record of the one-heavy ensemble (a, b, ..., b), b =
    (1-a)/(d-1), on the family kernel."""
    params = EnsembleParams((a,) + ((1.0 - a) / (spec.d - 1),) * (spec.d - 1))
    return tuple(regions._record(spec.evaluator, params, spec.evaluator.family_sums(a)))


def refined_family(spec: regions.ChannelSpec, active, start: int = 9, levels: int = 6):
    """The entropy table of one-heavy family points, a ascending from the
    uniform point a = 1/d to the vertex a = 1, coarse to fine: ``start``
    equally spaced values of a, then ``levels`` times the midpoints between
    each row that ``active(table)`` names and its neighbours."""
    a_values = set(np.linspace(1.0 / spec.d, 1.0, start).tolist())
    for level in range(levels + 1):
        grid = sorted(a_values)
        table = regions.EntropyTriple(*np.array([family_row(spec, a) for a in grid]).T)
        if level < levels:
            for i in active(table):
                neighbours = [j for j in (i - 1, i + 1) if 0 <= j < len(grid)]
                a_values.update((grid[i] + grid[j]) / 2.0 for j in neighbours)
    return table


def family_midpoint_gap(points, sign: float):
    """(gap, rows): how far the hull of the (x, y) ``points`` of a
    family table rises above (``sign`` 1) or sags below (``sign`` -1) the
    time-sharing chord from the uniform point (first row) to the vertex
    (last row), at the chord's midpoint abscissa; and the two hull vertices
    that bracket that abscissa."""
    hull = sorted(regions.pareto_hull_indices(points * (1.0, sign)), key=lambda i: points[i, 0])
    xs, ys = points[hull].T
    x_mid = (points[0, 0] + points[-1, 0]) / 2.0
    chord = (points[0, 1] + points[-1, 1]) / 2.0
    k = int(np.searchsorted(xs, x_mid))
    rows = [hull[max(k - 1, 0)], hull[min(k, len(hull) - 1)]]
    return sign * (float(np.interp(x_mid, xs, ys)) - chord), rows
