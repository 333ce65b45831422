"""Spans and counts recorded around the public entry points of each layer.

The tracer wraps functions from outside the program: no file under ``src/``
knows about it.  A span is ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span (-1 for a root); all spans of one CLI call share
the tracer's ``run_id``.  Spans stay in memory until the call ends.

Layers are the package's modules.  A layer's self time is the time of its
spans minus the part covered by their child spans, so the self times of all
spans add up to the root span (``cli.main``) exactly.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter

# (module, attribute path, span name).  The span name is the layer (module)
# followed by the function.
TARGETS = (
    ("unruhcap.kernels", "block_family_entropy", "kernels.block_family_entropy"),
    ("unruhcap.engine", "TradeoffEvaluator.__init__", "engine.TradeoffEvaluator.__init__"),
    ("unruhcap.engine", "TradeoffEvaluator.block_entropies", "engine.TradeoffEvaluator.block_entropies"),
    ("unruhcap.regions", "simplex_grid", "regions.simplex_grid"),
    ("unruhcap.regions", "pareto_hull_indices", "regions.pareto_hull_indices"),
    ("unruhcap.regions", "cq_curve", "regions.cq_curve"),
    ("unruhcap.regions", "region_surface_cqe", "regions.region_surface_cqe"),
    ("unruhcap.regions", "dynamic_capacity", "regions.dynamic_capacity"),
    ("unruhcap.regions", "DynamicCapacityProblem.__init__", "regions.DynamicCapacityProblem.__init__"),
    ("unruhcap.regions", "DynamicCapacityProblem.solve", "regions.DynamicCapacityProblem.solve"),
    ("unruhcap.spectra", "unruh_weights", "spectra.unruh_weights"),
    ("unruhcap.cli", "main", "cli.main"),
)

KERNEL = "kernels.block_family_entropy"
EVAL = "engine.TradeoffEvaluator.block_entropies"
INIT = "engine.TradeoffEvaluator.__init__"
HULL = "regions.pareto_hull_indices"
SOLVE = "regions.DynamicCapacityProblem.solve"
WEIGHTS = "spectra.unruh_weights"
ROOT = "cli.main"

# Counts that must repeat exactly across runs of one commit.
EXACT_COUNTS = (
    "spectra.horizon_K",
    "regions.grid_points",
    "regions.orbits",
    "engine.evals",
    "kernels.calls",
    "kernels.terms",
)

# Percentiles tried for a tail; the highest with >= 10 samples beyond wins.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Records spans and counts for one CLI call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._orbits: set = set()
        self._live: dict = {}
        self._stack: list = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_kernel(self, args, _result):
        # args: (a_sub, mu1, inv_norm_b, ...): one term per (b1, composition).
        self.counts["kernels.calls"] += 1
        self.counts["kernels.terms"] += len(args[0]) * len(args[2])

    def _on_eval(self, args, _result):
        evaluator, mu = args[0], args[1]
        self.counts["engine.evals"] += 1
        self._orbits.add(tuple(sorted(round(float(x), 12) for x in mu)))
        self.counts["engine.live_terms"] += self._live_terms(evaluator)

    def _live_terms(self, evaluator) -> int:
        """Lattice terms per evaluation feeding a block of non-zero weight.

        A term with total photon number k feeds receiver block k and
        environment block k+1; there are dim(d, k) such terms.
        """
        key = (evaluator.d, evaluator.weights.tobytes())
        if key not in self._live:
            w = list(evaluator.weights) + [0.0]
            self._live[key] = sum(
                math.comb(k + evaluator.d - 1, evaluator.d - 1)
                for k in range(len(w))
                if (k >= 1 and w[k - 1] > 0.0) or w[k] > 0.0
            )
        return self._live[key]

    def _on_grid(self, _args, result):
        self.counts["regions.grid_points"] += len(result)

    def _on_weights(self, _args, result):
        self.counts["spectra.horizon_K"] = len(result)

    def install(self) -> None:
        """Replace every target, in every loaded ``unruhcap`` module that
        binds it, by its traced wrapper."""
        hooks = {
            KERNEL: self._on_kernel,
            EVAL: self._on_eval,
            "regions.simplex_grid": self._on_grid,
            WEIGHTS: self._on_weights,
        }
        for module_name, path, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner_name:
                self._set(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("unruhcap") and getattr(mod, attr, None) is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Every count of the call, the exact ones and ``engine.live_terms``."""
        counts = {key: int(self.counts[key]) for key in EXACT_COUNTS + ("engine.live_terms",)}
        counts["regions.orbits"] = len(self._orbits)
        return counts


# ---------------------------------------------------------------------------
# Derivations from spans
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it; 100 (the maximum) when there are fewer than 20."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 1000.0 - 1e-6:
            return q
    return 100.0


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail that ``tail_percentile`` picks."""
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    if not ordered:
        return q, 0.0
    return q, ordered[round(q / 100.0 * (len(ordered) - 1))]


def _under(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced CLI call (times in seconds unless the
    name says otherwise).  ``cli.output_kb`` and ``trace.overhead_pct`` need
    the parent process and are added there."""
    selfs = self_times(spans)
    dur: dict = {}
    own: dict = {}
    for (name, start, end, _), s in zip(spans, selfs):
        dur[name] = dur.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
    evals_ms = [(end - start) * 1e3 for name, start, end, _ in spans if name == EVAL]
    _, eval_tail = tail(evals_ms)
    terms = counts["kernels.terms"]
    kernel_s = dur.get(KERNEL, 0.0)
    regions_self = sum(v for k, v in own.items() if k.startswith("regions.") and k != HULL)
    return {
        "kernels.calls": counts["kernels.calls"],
        "kernels.terms": terms,
        "kernels.busy_s": kernel_s,
        "kernels.ns_per_term": kernel_s * 1e9 / terms if terms else 0.0,
        "engine.evals": counts["engine.evals"],
        "engine.eval_ms_p50": statistics.median(evals_ms) if evals_ms else 0.0,
        "engine.eval_ms_tail": eval_tail,
        "engine.self_s": own.get(EVAL, 0.0),
        "engine.init_ms": dur.get(INIT, 0.0) * 1e3,
        "engine.live_term_ratio": counts["engine.live_terms"] / terms if terms else 0.0,
        "regions.grid_points": counts["regions.grid_points"],
        "regions.orbits": counts["regions.orbits"],
        "regions.orbit_ratio": (
            counts["regions.orbits"] / counts["engine.evals"] if counts["engine.evals"] else 0.0
        ),
        "regions.refine_s": dur.get(SOLVE, 0.0),
        "regions.refine_evals": sum(
            1 for i, span in enumerate(spans) if span[0] == EVAL and _under(spans, i, SOLVE)
        ),
        "regions.sweep_self_s": regions_self,
        "regions.hull_ms": dur.get(HULL, 0.0) * 1e3,
        "cli.self_s": own.get(ROOT, 0.0),
        "spectra.horizon_K": counts["spectra.horizon_K"],
        "spectra.weights_ms": dur.get(WEIGHTS, 0.0) * 1e3,
    }
