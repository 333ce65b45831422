import run
from workloads import WORKLOADS


def test_sample_over_its_budget_is_a_failure_not_dropped(monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_BUDGET_S", 1.0)
    slow = WORKLOADS["sweep-d3"]
    probes, samples = run.run_workload(slow, seed=0, seconds=0.0, trace=False)
    assert len(samples) == 1
    assert not samples[0].ok and samples[0].reason.startswith("timeout")
    result = run.summarize(probes, samples, False, [])
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    metrics = result["metrics"]
    assert metrics["success_rate"]["value"] == 0.0
    # The failed sample counts at its whole budget, never as fast.
    assert metrics["wall_s"]["value"] == run.SAMPLE_BUDGET_S


def test_child_environment_drops_the_thread_pool_setting(monkeypatch):
    monkeypatch.setenv("UNRUH_THREADS", "2")
    env = run.child_env()
    assert "UNRUH_THREADS" not in env
    assert env["PYTHONPATH"].split(":")[0] == str(run.SRC)


def test_exact_counts_must_repeat_within_and_across_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path)
    workload = WORKLOADS["dyncap-d2"]
    fp = {"env": {"backend": "python"}, "code": {"source_sha256": "x"}}

    def sample(calls):
        return run.Sample(traced=True, ok=True, counts={"kernels.calls": calls, "engine.evals": 87})

    assert run.count_guard(workload, [sample(46371), sample(46371)], fp) == []
    assert run.count_guard(workload, [sample(46371)], fp) == []
    within = run.count_guard(workload, [sample(46371), sample(46372)], fp)
    assert within and "varies within the run" in within[0]
    across = run.count_guard(workload, [sample(46000)], fp)
    assert across and "earlier run" in across[0]
    # Another fingerprint (say, the compiled backend) is never compared.
    other = {"env": {"backend": "compiled"}, "code": {"source_sha256": "x"}}
    assert run.count_guard(workload, [sample(46000)], other) == []


def test_child_peak_memory_excludes_the_parent():
    import numpy as np

    ballast = np.ones(20_000_000)  # 160 MB resident in this process
    sample, _ = run.spawn(["probe"])
    assert sample.ok, sample.reason
    assert ballast.sum() == 20_000_000
    assert 10.0 < sample.peak_rss_mb < 100.0
