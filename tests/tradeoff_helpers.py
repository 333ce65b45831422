"""Shared helpers for the CQ/CE curve tests: which rows a curve evaluates,
and the geometry of boundary-vs-time-sharing checks."""

import numpy as np

from unruhcap import regions
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
