"""Tests of the benchmark's own measurement code.

    python -m pytest perfbench -q

They pin the statistics on known samples and nested synthetic spans, the
wrapper mechanics of ``tracer.py``, the seeded inputs of the service
workload, the fixed work of a traced run, the service replay's result
diff, the failure of a metric without samples, and the agreement of
``BENCHMARK.json`` with the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import libwork  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import svcwork  # noqa: E402
import tracer  # noqa: E402


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank_on_known_samples():
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    assert stats.percentile(samples, 0.50) == 50
    assert stats.percentile(samples, 0.90) == 90
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 1.00) == 100
    assert stats.percentile(samples, 0.001) == 1


def test_percentile_returns_an_observed_sample_not_a_bucket_bound():
    samples = [1.0, 2.0, 3.0, 70000.0]
    assert stats.percentile(samples, 0.50) == 2.0
    assert stats.percentile(samples, 0.99) == 70000.0
    assert stats.percentile([0.37], 0.99) == 0.37


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


# ------------------------------------------------------------ self time

def _span(sid, name, t0, t1, parent=None):
    return (sid, name, t0, t1, parent, None)


def test_self_time_subtracts_children_and_grandchildren_stay_with_child():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "child", 1.0, 4.0, parent=1),
        _span(3, "grandchild", 2.0, 3.0, parent=2),
        _span(4, "child", 6.0, 7.5, parent=1),
    ]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # children from pool threads may overlap each other and outlive the
    # parent's interval; only the covered part of the parent is removed
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "task", 1.0, 5.0, parent=1),
        _span(3, "task", 3.0, 6.0, parent=1),
        _span(4, "task", 9.0, 12.0, parent=1),
    ]
    assert stats.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_totals_and_layer_metrics():
    spans = [
        _span(1, "operations.mxm", 0.0, 4.0),
        _span(2, "operations._kernels.spgemm", 1.0, 3.0, parent=1),
        _span(3, "operations.mxm", 5.0, 6.0),
        _span(4, "context.wait", 7.0, 9.0),
        _span(5, "planner.run", 7.5, 8.5, parent=4),
        _span(6, "executor.run_batch", 10.0, 11.0),
        _span(7, "executor.run_batch", 12.0, 13.0),
    ]
    trace = {"spans": spans, "counters": {
        "operations._kernels.spmv.flops": 30,
        "operations._kernels.spmv.estimated": 120,
        "planner.ops": 10, "planner.fused": 2, "planner.cse": 1, "planner.dead": 1,
        "executor.requests": 7,
    }}
    m = stats.layer_metrics(trace, {"diag.dumps": 2})
    assert m["operations.mxm.calls"] == 2
    assert m["operations.mxm.self_s"] == pytest.approx(3.0)
    assert m["operations._kernels.spgemm.self_s"] == pytest.approx(2.0)
    assert m["context.wait.total_s"] == pytest.approx(2.0)
    assert m["planner.run.self_s"] == pytest.approx(1.0)
    assert m["operations._kernels.spmv.hit_ratio"] == pytest.approx(0.25)
    assert m["planner.elided_ratio"] == pytest.approx(0.4)
    assert m["executor.batch_mean"] == pytest.approx(3.5)    # requests / batches
    assert m["diag.dumps"] == 2
    assert m["client.wire_decode.calls"] == 0      # a layer never entered
    assert set(m) == {row[0] for row in stats.PER_LAYER}


# ------------------------------------------------------------ tracer

def test_wrapper_nests_spans_and_skips_reentry():
    rec = tracer.Recorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap(leaf, "leaf")

    def outer(x, depth=0):
        if depth == 0:
            return wrapped_outer(x, depth=1)     # same layer again: no span
        return wrapped_leaf(x) * 2

    wrapped_outer = rec.wrap(outer, "outer")
    assert wrapped_outer(1) == 4
    by_name = {s[1]: s for s in rec.spans}
    assert len(rec.spans) == 2
    assert by_name["leaf"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None


def test_rebind_replaces_every_module_binding(monkeypatch):
    def fn():
        return "original"

    home = types.ModuleType("repro._perfbench_home")
    user = types.ModuleType("repro._perfbench_user")
    home.fn = fn
    user.alias = fn
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    rec = tracer.Recorder()
    wrapped = rec.wrap(fn, "probe")
    assert tracer._rebind(home, "fn", fn, wrapped) == 2
    assert user.alias() == "original"
    assert [s[1] for s in rec.spans] == ["probe"]


# ------------------------------------------------------------ inputs

def test_read_pool_follows_loadgens_shared_read_pool():
    from repro.service.loadgen import _shared_read_pool

    graph = {"entries": [[i, (i + 1) % 64, 1.0] for i in range(0, 64, 2)]}
    a, b = svcwork.read_pool(1, graph), svcwork.read_pool(1, graph)
    assert a == b and a != svcwork.read_pool(2, graph)
    assert len(a) == svcwork.POOL

    def kind(t):
        return t[1].get("algo") or t[1].get("what") or t[0]

    for seed in (1, 2, 3):
        mine = svcwork.read_pool(seed, graph)
        theirs = _shared_read_pool(seed, svcwork.POOL)
        # same kind at every rank; parameters range over the 4096 vertices
        assert [kind(t) for t in mine] == [kind(t) for t in theirs]
    assert [kind(t) for t in a[:3]] == ["nvals", "pagerank", "triangle_count"]
    sources = [t[1]["args"]["source"] for t in a if "source" in t[1].get("args", {})]
    assert sources and all(s % 2 == 0 for s in sources)   # only vertices with out-edges


def test_zipf_cdf_is_monotone_and_ends_at_one():
    cdf = svcwork.zipf_cdf(32, 1.2)
    assert all(x < y for x, y in zip(cdf, cdf[1:]))
    assert cdf[-1] == 1.0


# ------------------------------------------------------------ schema

def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_schema()
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in spec["end_to_end"]) for m in spec["end_to_end"])


# ------------------------------------------------------------ fixed work

def test_traced_library_run_does_a_fixed_number_of_rounds():
    rounds = libwork.TRACE_ROUNDS
    for elapsed in (0.0, 1.0, 1e6):              # whatever the clock says
        assert libwork.another_round(rounds - 1, elapsed, 20.0, rounds)
        assert not libwork.another_round(rounds, elapsed, 20.0, rounds)
    # untraced: at least one round, then until the time is up
    assert libwork.another_round(0, 1e6, 20.0, None)
    assert libwork.another_round(5, 19.9, 20.0, None)
    assert not libwork.another_round(5, 20.0, 20.0, None)


def test_traced_service_load_is_a_fixed_request_count():
    budget = svcwork.Budget(count=svcwork.TRACE_READS)
    assert budget.more(svcwork.TRACE_READS - 1, now=1e9)
    assert not budget.more(svcwork.TRACE_READS, now=0.0)
    deadline = svcwork.Budget(until=10.0)
    assert deadline.more(10 ** 9, now=9.9) and not deadline.more(0, now=10.0)
    with pytest.raises(ValueError):
        svcwork.Budget(until=1.0, count=1)
    assert svcwork.TRACE_READS >= svcwork.MIN_READS


def test_overhead_compares_the_traced_rounds_with_the_same_untraced_rounds():
    r = {"legs": {"pagerank_s": [3.0, 1.0, 1.0], "spgemm_s": [2.0, 1.0, 1.0],
                  "tc_s": [4.0, 2.0, 2.0]}}
    every, _named, counts = run._lib_slots("er-kernels", r, None)
    first, _named, _counts = run._lib_slots("er-kernels", r, 1)
    assert every == {"leg1_ms": 1000.0, "leg2_ms": 1000.0, "leg3_ms": 2000.0}
    assert first == {"leg1_ms": 3000.0, "leg2_ms": 2000.0, "leg3_ms": 4000.0}
    assert counts["pagerank_s"] == 3


# ------------------------------------------------------------ replay diff

def _pr(values):
    return {"result": {"kind": "vector", "shape": [len(values)],
                       "indices": list(range(len(values))), "values": values},
            "timing": {"total_us": 1}}


def test_pagerank_replay_diff_catches_a_one_percent_error():
    template = ("algorithm", {"algo": "pagerank"})
    n = 4096
    ref = [1.0 / n] * n
    assert svcwork.result_diff(template, _pr(ref), _pr(ref)) is None
    # the incremental handle's own slack passes
    slack = [v + (1e-8 if i % 2 else -1e-8) for i, v in enumerate(ref)]
    assert svcwork.result_diff(template, _pr(slack), _pr(ref)) is None
    # entries near 2.4e-4: 1% off is within loadgen's 1e-5 absolute tolerance
    off = [v * 1.01 for v in ref]
    assert all(abs(a - b) < 1e-5 for a, b in zip(off, ref))
    assert "L1 distance" in svcwork.result_diff(template, _pr(off), _pr(ref))


def test_other_replay_diffs_are_relative_and_exact_on_ints():
    template = ("query", {"what": "element"})
    assert svcwork.result_diff(template, {"result": 3}, {"result": 3}) is None
    assert svcwork.result_diff(template, {"result": 3}, {"result": 4})
    assert svcwork.result_diff(template, {"result": 1e-7}, {"result": 1.000001e-7})
    assert svcwork.result_diff(template, {"result": 2.0}, {"result": 2.0 + 1e-12}) is None
    assert svcwork.result_diff(template, {"result": 1.0}, {"__error__": "boom"})


# ------------------------------------------------------------ empty samples

def _svc_phase(monkeypatch, tmp_path, tc_cache: str) -> dict:
    """``run.svc_phase`` over synthetic reads: 400 triangle counts the
    cache answered with *tc_cache*, 400 PageRank hits and 400 misses
    (round trip / reported service time 9 / 2 ms and 20 / 11 ms), and
    11 writes (k ms after their due time, reporting 0.5·k ms)."""
    pool = [("algorithm", {"algo": "triangle_count"}), ("algorithm", {"algo": "pagerank"})]
    reads = [(0, 0.030, True, {"cache": tc_cache, "total_us": 29000.0}, 0.0)] * 400 + \
        [(1, 0.009, True, {"cache": "hit", "total_us": 2000.0}, 0.0)] * 400 + \
        [(1, 0.020, True, {"cache": "miss", "total_us": 11000.0}, 0.0)] * 400
    writes = [(0.0, 0.0, 0.001 * k, True, k, {}, {"total_us": 500.0 * k})
              for k in range(1, 12)]
    load = {"reads": reads, "kept": [], "errors": [], "elapsed_s": 1.0,
            "writes": writes, "stats": {}}
    monkeypatch.setattr(svcwork, "run_phase", lambda *a: {
        "setup_s": [1.0], "load": load, "peak_rss_mb": 100.0, "problems": [],
        "trace": None, "pool": pool, "graph_nvals": 1})
    return run.svc_phase(str(tmp_path), str(tmp_path), str(tmp_path), 1, 1.0, 0)


def test_empty_gated_bucket_fails_the_run_instead_of_printing_nan(monkeypatch, tmp_path):
    # triangle counts were all cache hits: the gated miss leg has no samples
    phase = _svc_phase(monkeypatch, tmp_path, "hit")
    assert phase["e2e"]["leg1_ms"] is None
    assert phase["failures"] == ["svc_triangle_count_miss_p50_ms: no samples",
                                 "svc_triangle_count_miss_service_p50_ms: no samples"]


def test_pagerank_and_write_legs_are_the_reported_service_time(monkeypatch, tmp_path):
    phase = _svc_phase(monkeypatch, tmp_path, "miss")
    assert phase["failures"] == []
    assert phase["e2e"]["leg1_ms"] == pytest.approx(30.0)      # round trip
    assert phase["e2e"]["leg2_ms"] == pytest.approx(11.0)      # service time
    # writes: the service time they report (nearest rank, the 6th of 11)
    assert phase["e2e"]["leg3_ms"] == pytest.approx(3.0)
    named = phase["named"]
    assert named["svc_pagerank_hit_p50_ms"] == pytest.approx(9.0)
    assert named["svc_pagerank_hit_service_p50_ms"] == pytest.approx(2.0)
    assert named["svc_pagerank_miss_p50_ms"] == pytest.approx(20.0)
    assert named["svc_write_p50_ms"] == pytest.approx(6.0)     # from the due time
