"""Exact statistics and the per-layer metrics derived from a trace.

Percentiles are nearest-rank over the raw samples -- never histogram
bucket bounds -- and means are a sum over a count, never a histogram read
as a counter.  Self time of a span is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import math
from collections import defaultdict

# ---------------------------------------------------------------- samples


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1) of *samples*: an observed value."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------------ spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> self time, for spans ``(id, name, start, end, parent, rid)``."""
    children: dict[int, list] = defaultdict(list)
    for sid, _name, t0, t1, parent, _rid in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _rid in spans:
        kids = children.get(sid)
        out[sid] = (t1 - t0) - (_covered(kids, t0, t1) if kids else 0.0)
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Span name -> ``{"calls", "self_s", "total_s"}``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for sid, name, t0, t1, _parent, _rid in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        row["total_s"] += t1 - t0
    return out


# -------------------------------------------------------- per-layer metrics

_OPS = ("mxm", "mxv", "vxm", "ewise_add", "ewise_mult", "apply", "reduce",
        "assign", "extract")
_SPARSE = ("membership", "intersect_indices", "union_keys", "group_starts",
           "segment_reduce")

#: (metric, span or counter, field, unit, better) -- field is ``calls``,
#: ``self_s`` or ``total_s`` of a span, or ``counter`` / ``extra``
PER_LAYER: list[tuple[str, str, str, str, str]] = (
    [(f"operations.{op}.{f}", f"operations.{op}", f, u, "lower")
     for op in _OPS for f, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("operations._kernels.spgemm.calls", "operations._kernels.spgemm", "calls", "count", "lower"),
        ("operations._kernels.spgemm.self_s", "operations._kernels.spgemm", "self_s", "s", "lower"),
        ("operations._kernels.spgemm.flops", "operations._kernels.spgemm.flops", "counter", "count", "lower"),
        ("operations._kernels.spmv.calls", "operations._kernels.spmv", "calls", "count", "lower"),
        ("operations._kernels.spmv.self_s", "operations._kernels.spmv", "self_s", "s", "lower"),
        ("operations._kernels.spmv.flops", "operations._kernels.spmv.flops", "counter", "count", "lower"),
        ("operations._kernels.spmv.hit_ratio", "operations._kernels.spmv.hit_ratio", "extra", "ratio", "higher"),
        ("operations._kernels.reduce_rows.self_s", "operations._kernels.reduce_rows", "self_s", "s", "lower"),
        ("operations._kernels.fused.self_s", "operations._kernels.fused", "self_s", "s", "lower"),
    ]
    + [(f"sparseutil.{fn}.{f}", f"sparseutil.{fn}", f, u, "lower")
       for fn in _SPARSE for f, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("mask.build_mask_view.calls", "mask.build_mask_view", "calls", "count", "lower"),
        ("mask.build_mask_view.self_s", "mask.build_mask_view", "self_s", "s", "lower"),
        ("mask.allows.calls", "mask.allows", "calls", "count", "lower"),
        ("mask.allows.self_s", "mask.allows", "self_s", "s", "lower"),
        ("common.run_write_pipeline.calls", "common.run_write_pipeline", "calls", "count", "lower"),
        ("common.run_write_pipeline.self_s", "common.run_write_pipeline", "self_s", "s", "lower"),
        ("planner.build_plan.calls", "planner.build_plan", "calls", "count", "lower"),
        ("planner.build_plan.self_s", "planner.build_plan", "self_s", "s", "lower"),
        ("planner.run.self_s", "planner.run", "self_s", "s", "lower"),
        ("planner.nodes", "planner.nodes", "counter", "count", "lower"),
        ("planner.fused", "planner.fused", "counter", "count", "higher"),
        ("planner.cse", "planner.cse", "counter", "count", "higher"),
        ("planner.dead", "planner.dead", "counter", "count", "higher"),
        ("planner.elided_ratio", "planner.elided_ratio", "extra", "ratio", "higher"),
        ("kernels.run_chain.calls", "kernels.run_chain", "calls", "count", "lower"),
        ("kernels.run_chain.self_s", "kernels.run_chain", "self_s", "s", "lower"),
        ("context.wait.calls", "context.wait", "calls", "count", "lower"),
        ("context.wait.total_s", "context.wait", "total_s", "s", "lower"),
        ("sequence.enqueued", "sequence.enqueued", "counter", "count", "lower"),
        ("matrix.format.calls", "matrix.format", "calls", "count", "lower"),
        ("matrix.format.self_s", "matrix.format", "self_s", "s", "lower"),
        ("parallel.threads", "parallel.threads", "extra", "count", "higher"),
        ("parallel.tasks", "parallel.task", "calls", "count", "lower"),
        ("parallel.busy_s", "parallel.task", "total_s", "s", "lower"),
        ("client.wire_decode.calls", "client.wire_decode", "calls", "count", "lower"),
        ("client.wire_decode.self_s", "client.wire_decode", "self_s", "s", "lower"),
        ("client.wire_decode.bytes", "client.wire_decode.bytes", "counter", "bytes", "lower"),
        ("client.wire_encode.calls", "client.wire_encode", "calls", "count", "lower"),
        ("client.wire_encode.self_s", "client.wire_encode", "self_s", "s", "lower"),
        ("client.wire_encode.bytes", "client.wire_encode.bytes", "counter", "bytes", "lower"),
        ("service.submit.self_s", "service.submit", "self_s", "s", "lower"),
        ("service.queue_wait_p50_ms", "service.queue_wait_p50_ms", "extra", "ms", "lower"),
        ("service.queue_wait_p99_ms", "service.queue_wait_p99_ms", "extra", "ms", "lower"),
        ("memo.analyze_request.calls", "memo.analyze_request", "calls", "count", "lower"),
        ("memo.analyze_request.self_s", "memo.analyze_request", "self_s", "s", "lower"),
        ("memo.lookup.self_s", "memo.lookup", "self_s", "s", "lower"),
        ("memo.insert.self_s", "memo.insert", "self_s", "s", "lower"),
        ("memo.build_entry.self_s", "memo.build_entry", "self_s", "s", "lower"),
        ("memo.materialize.self_s", "memo.materialize", "self_s", "s", "lower"),
        ("memo.hit_rate", "memo.hit_rate", "extra", "ratio", "higher"),
        ("memo.invalidations", "memo.invalidations", "extra", "count", "lower"),
        ("memo.rekeys", "memo.rekeys", "extra", "count", "higher"),
        ("executor.run_batch.calls", "executor.run_batch", "calls", "count", "lower"),
        ("executor.run_batch.self_s", "executor.run_batch", "self_s", "s", "lower"),
        ("executor.batch_mean", "executor.batch_mean", "extra", "count", "higher"),
        ("executor.issue_p50_ms", "executor.issue_p50_ms", "extra", "ms", "lower"),
        ("executor.drain_share_p50_ms", "executor.drain_share_p50_ms", "extra", "ms", "lower"),
        ("snapshot.publish.calls", "snapshot.publish", "calls", "count", "lower"),
        ("snapshot.publish.self_s", "snapshot.publish", "self_s", "s", "lower"),
        ("snapshot.live_max", "snapshot.live_max", "counter", "count", "lower"),
        ("stream.flush.calls", "stream.flush", "calls", "count", "lower"),
        ("stream.flush.self_s", "stream.flush", "self_s", "s", "lower"),
        ("stream.on_publish.self_s", "stream.on_publish", "self_s", "s", "lower"),
        ("stream.advanced", "stream.advanced", "extra", "count", "higher"),
        ("stream.dropped", "stream.dropped", "extra", "count", "lower"),
        ("stream.served", "stream.served", "extra", "count", "higher"),
        ("diag.dumps", "diag.dumps", "extra", "count", "lower"),
        ("diag.suspects", "diag.suspects", "extra", "count", "lower"),
        ("diag.dump.self_s", "diag.dump", "self_s", "s", "lower"),
        ("bench.writer_lag_p90_ms", "bench.writer_lag_p90_ms", "extra", "ms", "lower"),
    ]
)


def layer_metrics(trace: dict | None, extra: dict | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a :class:`tracer.Recorder` dump
    (``{"spans", "counters", "extra"}``) plus values measured outside
    spans (*extra*).  A layer the run never entered reads 0."""
    trace = trace or {"spans": [], "counters": {}}
    totals = span_totals(trace["spans"])
    counters = dict(trace["counters"])
    extra = {**trace.get("extra", {}), **(extra or {})}
    est = counters.get("operations._kernels.spmv.estimated", 0)
    extra.setdefault(
        "operations._kernels.spmv.hit_ratio",
        counters.get("operations._kernels.spmv.flops", 0) / est if est else 0.0,
    )
    ops = counters.get("planner.ops", 0)
    elided = sum(counters.get(k, 0) for k in ("planner.dead", "planner.fused", "planner.cse"))
    extra.setdefault("planner.elided_ratio", elided / ops if ops else 0.0)
    batches = totals["executor.run_batch"]["calls"] if "executor.run_batch" in totals else 0
    extra.setdefault(
        "executor.batch_mean",
        counters.get("executor.requests", 0) / batches if batches else 0.0,
    )
    out = {}
    for metric, source, field, _unit, _better in PER_LAYER:
        if field == "counter":
            out[metric] = float(counters.get(source, 0))
        elif field == "extra":
            out[metric] = float(extra.get(source, 0))
        else:
            out[metric] = float(totals[source][field]) if source in totals else 0.0
    return out
