import time

import pytest

import tracing
from unruhcap import cli, kernels, regions, spectra

SELF_PARTS = {
    "kernels.busy_s": 1.0,
    "engine.self_s": 1.0,
    "engine.init_ms": 1e-3,
    "regions.sweep_self_s": 1.0,
    "regions.hull_ms": 1e-3,
    "cli.self_s": 1.0,
    "spectra.weights_ms": 1e-3,
}


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


@pytest.mark.parametrize(
    "argv",
    [
        ["cq-curve", "--d", "2", "--z", "0.5", "--grid", "8"],
        ["dyncap", "--d", "2", "--z", "0.5", "--lambda", "1", "--mu-weight", "0"],
    ],
)
def test_layer_self_times_add_up_to_traced_wall(argv, tmp_path):
    originals = (kernels.block_family_entropy, regions.unruh_weights, cli.main)
    with tracing.Tracer("test") as tracer:
        start = time.perf_counter()
        assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 0
        wall = time.perf_counter() - start
    assert (kernels.block_family_entropy, regions.unruh_weights, cli.main) == originals

    counts = tracer.summary()
    layers = tracing.layer_metrics(tracer.spans, counts)
    root = [end - begin for name, begin, end, _ in tracer.spans if name == tracing.ROOT]
    assert len(root) == 1
    layer_sum = sum(layers[name] * scale for name, scale in SELF_PARTS.items())
    assert layer_sum == pytest.approx(root[0], rel=1e-9)
    # The root span misses only the outermost wrapper's own cost.
    assert 0.0 <= wall - root[0] < 0.05 * wall

    horizon = spectra.truncation_horizon(spectra.UnruhConfig(2, 0.5))
    assert counts["spectra.horizon_K"] == horizon
    assert counts["kernels.calls"] == counts["engine.evals"] * (horizon + 1)
    assert counts["regions.orbits"] <= counts["engine.evals"]
    assert layers["engine.live_term_ratio"] == 1.0


def test_tail_needs_ten_samples_beyond():
    assert tracing.tail(list(range(100))) == (90.0, 89)
    assert tracing.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)
    assert tracing.tail_percentile(87) == 75.0
