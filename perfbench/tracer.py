"""Span recorder that reaches the program's layers from outside.

Nothing in ``src/`` is instrumented.  :func:`install` wraps each layer's
public functions at the module attributes its callers look them up
through (every loaded ``repro`` module that holds the function object,
plus the defining class for methods), records one span per call --
``(id, name, start, end, parent id, request id)`` -- in memory, and keeps
counters for the work the layer did.  :meth:`Recorder.dump` writes both
out when the run ends; :func:`perfbench.stats.layer_metrics` turns them
into per-layer metrics.

A call into a layer already open on the same thread (``reduce`` calling
``reduce_to_vector``) opens no second span, so calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: span name -> wrapped callables: ``module:attr`` for functions and
#: ``module:Class.method`` for methods
SPANS: dict[str, list[str]] = {
    # Table II entry points
    "operations.mxm": ["repro.operations.mxm:mxm"],
    "operations.mxv": ["repro.operations.mxm:mxv"],
    "operations.vxm": ["repro.operations.mxm:vxm"],
    "operations.ewise_add": ["repro.operations.ewise:ewise_add"],
    "operations.ewise_mult": ["repro.operations.ewise:ewise_mult"],
    "operations.apply": [
        "repro.operations.apply:apply",
        "repro.operations.apply:apply_bind_first",
        "repro.operations.apply:apply_bind_second",
        "repro.operations.apply:apply_index",
    ],
    "operations.reduce": [
        "repro.operations.reduce:reduce",
        "repro.operations.reduce:reduce_to_vector",
        "repro.operations.reduce:reduce_to_scalar",
        "repro.operations.reduce:reduce_scalar_object",
    ],
    "operations.assign": [
        "repro.operations.assign:assign",
        "repro.operations.assign:matrix_assign",
        "repro.operations.assign:vector_assign",
        "repro.operations.assign:matrix_assign_scalar",
        "repro.operations.assign:vector_assign_scalar",
        "repro.operations.assign:row_assign",
        "repro.operations.assign:col_assign",
    ],
    "operations.extract": [
        "repro.operations.extract:extract",
        "repro.operations.extract:matrix_extract",
        "repro.operations.extract:vector_extract",
        "repro.operations.extract:col_extract",
    ],
    # semiring kernels
    "operations._kernels.spgemm": ["repro.operations._kernels:spgemm"],
    "operations._kernels.spmv": ["repro.operations._kernels:spmv"],
    "operations._kernels.reduce_rows": ["repro.operations._kernels:reduce_rows"],
    "operations._kernels.fused": [
        "repro.operations._kernels:reduce_rows_flat",
        "repro.operations._kernels:fused_apply",
        "repro.operations._kernels:fused_select",
    ],
    # lookup / merge primitives
    "sparseutil.membership": ["repro._sparseutil:membership"],
    "sparseutil.intersect_indices": ["repro._sparseutil:intersect_indices"],
    "sparseutil.union_keys": ["repro._sparseutil:union_keys"],
    "sparseutil.group_starts": ["repro._sparseutil:group_starts"],
    "sparseutil.segment_reduce": ["repro._sparseutil:segment_reduce"],
    # masks and the write pipeline
    "mask.build_mask_view": ["repro.containers.mask:build_mask_view"],
    "mask.allows": ["repro.containers.mask:MaskView.allows"],
    "common.run_write_pipeline": ["repro.operations.common:run_write_pipeline"],
    # planner, chain kernels, sequence points
    "planner.build_plan": ["repro.execution.planner.driver:build_plan"],
    "planner.run": [
        "repro.execution.planner.driver:ExecutionPlan.run",
        "repro.execution.planner.driver:_SerialPlan.run",
    ],
    "kernels.run_chain": [
        "repro.kernels.interpreter:InterpreterBackend.run_chain",
        "repro.kernels.codegen:CodegenBackend.run_chain",
    ],
    "context.wait": ["repro.context:wait"],
    # storage formats
    "matrix.format": [
        "repro.containers.formats.csr:csr_from_keys",
        "repro.containers.formats.csr:transpose_permutation",
        "repro.containers.formats.dcsr:dcsr_from_keys",
    ],
    # thread pool tasks (runs on the pool's worker threads)
    "parallel.task": ["repro.parallel.config:_run_counted"],
    # service layers (server process only)
    "client.wire_decode": ["repro.service.client:wire_decode"],
    "client.wire_encode": ["repro.service.client:wire_encode"],
    "service.submit": ["repro.service.service:Service.submit"],
    "memo.analyze_request": ["repro.service.memo.hashing:analyze_request"],
    "memo.lookup": ["repro.service.memo.cache:ResultCache.lookup"],
    "memo.insert": ["repro.service.memo.cache:ResultCache.insert"],
    "memo.build_entry": ["repro.service.memo.cache:build_entry"],
    "memo.materialize": ["repro.service.memo.cache:materialize"],
    "executor.run_batch": ["repro.service.executor:run_batch"],
    "snapshot.publish": ["repro.service.snapshot:SnapshotStore.publish"],
    "stream.flush": ["repro.stream.ingest:EdgeBuffer.flush"],
    "stream.on_publish": ["repro.service.streams:StreamState.on_publish"],
    "diag.dump": ["repro.obs.diag.recorder:FlightRecorder.dump"],
}

class Recorder:
    """In-memory spans and counters; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._mu = threading.Lock()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans opened on this thread from now on with *rid*."""
        self._tls.rid = rid

    def add(self, name: str, value: float = 1) -> None:
        with self._mu:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._mu:
            self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn, name: str, pre=None, post=None):
        """*fn* recording one span per call; *pre(args, kwargs)* runs before
        the span opens, *post(args, kwargs, result, state)* after it closes,
        so neither is charged to the layer."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append(
                    (sid, name, t0, t1, parent, getattr(self._tls, "rid", None))
                )
            if post is not None:
                post(args, kwargs, out, state)
            return out

        return wrapper

    # -------------------------------------------------------------- output
    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {
            "spans": self.spans,
            "counters": self.counters,
            "extra": extra or {},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ----------------------------------------------------------------- hooks

def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _hooks(rec: Recorder) -> dict[str, tuple]:
    """(pre, post) hooks that turn a call into counts."""

    def wire_bytes_in(args, kwargs, out, state):
        rec.add("client.wire_decode.bytes", len(_arg(args, kwargs, 0, "line")))
        trace = out.get("trace") if isinstance(out, dict) else None
        rec.set_request(trace.get("request_id") if isinstance(trace, dict) else None)

    def wire_bytes_out(args, kwargs, out, state):
        rec.add("client.wire_encode.bytes", len(out))

    def batch_ids(args, kwargs):
        batch = _arg(args, kwargs, 2, "batch")
        rec.set_request(",".join(
            str(req.trace.request_id) for req in batch if req.trace is not None
        ) or None)

    def batch_size(args, kwargs, out, state):
        rec.add("executor.requests", len(_arg(args, kwargs, 2, "batch")))

    def live_versions(args, kwargs, out, state):
        rec.peak("snapshot.live_max", args[0].live_versions())

    def plan_before(args, kwargs):
        stats = _arg(args, kwargs, 1, "stats")
        return (stats.elided, stats.fused, stats.cse)

    def plan_after(args, kwargs, out, state):
        stats = _arg(args, kwargs, 1, "stats")
        rec.add("planner.ops", len(_arg(args, kwargs, 0, "ops")))
        rec.add("planner.dead", stats.elided - state[0])
        rec.add("planner.fused", stats.fused - state[1])
        rec.add("planner.cse", stats.cse - state[2])

    return {
        "client.wire_decode": (None, wire_bytes_in),
        "client.wire_encode": (None, wire_bytes_out),
        "executor.run_batch": (batch_ids, batch_size),
        "snapshot.publish": (None, live_versions),
        "planner.build_plan": (plan_before, plan_after),
    }


def _counters(rec: Recorder) -> dict:
    """Counter-only wrappers (no span), by wrapped callable: each maps the
    original function to one that counts the work the call did."""

    def enqueued(fn):
        def push(*args, **kwargs):
            rec.add("sequence.enqueued")
            return fn(*args, **kwargs)

        return push

    def planned_nodes(fn):
        def assign_levels(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec.add("planner.nodes", sum(len(level) for level in out))
            return out

        return assign_levels

    # the kernels fill a realized-multiply accumulator when handed one
    def spgemm_flops(fn):
        def spgemm_impl(a_view, a_vals, b_view, b_vals, semiring,
                        mask_view=None, acc=None):
            acc = [] if acc is None else acc
            out = fn(a_view, a_vals, b_view, b_vals, semiring, mask_view, acc)
            rec.add("operations._kernels.spgemm.flops", sum(acc))
            return out

        return spgemm_impl

    def spmv_flops(fn):
        def spmv_impl(a_view, a_vals, v_keys, v_vals, semiring, swap=False,
                      mask_view=None, acc=None):
            acc = [] if acc is None else acc
            out = fn(a_view, a_vals, v_keys, v_vals, semiring, swap,
                     mask_view, acc)
            rec.add("operations._kernels.spmv.flops", sum(acc))
            if a_view.nnz and len(v_keys):
                rec.add("operations._kernels.spmv.estimated", a_view.nnz)
            return out

        return spmv_impl

    return {
        "repro.execution.sequence:SequenceQueue.push": enqueued,
        "repro.execution.planner.graph:Graph.assign_levels": planned_nodes,
        "repro.operations._kernels:_spgemm_impl": spgemm_flops,
        "repro.operations._kernels:_spmv_impl": spmv_flops,
    }


# --------------------------------------------------------------- install

def _resolve(target: str):
    mod_name, attr = target.split(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None, None, None
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = getattr(owner, leaf, None)
    return (owner, leaf, fn) if fn is not None else (None, None, None)


def _rebind(owner, leaf: str, fn, wrapped) -> int:
    """Replace *fn* by *wrapped* on its owner and on every loaded repro
    module that bound it by name; returns how many bindings changed."""
    n = 0
    if isinstance(owner, type):
        setattr(owner, leaf, wrapped)
        return 1
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)
                n += 1
    return n


def install(rec: Recorder | None = None, *, service: bool = False) -> Recorder:
    """Wrap every layer of :data:`SPANS` and the counters of
    :func:`_counters`; returns the recorder.  The service layers are wrapped only with *service*, so a
    library run imports nothing of the service.  Import the ``repro``
    modules the run uses first."""
    import repro  # noqa: F401  (loads the library's module graph)

    rec = rec or Recorder()
    hooks = _hooks(rec)
    for name, targets in SPANS.items():
        pre, post = hooks.get(name, (None, None))
        for target in targets:
            if not service and target.startswith("repro.service"):
                continue
            owner, leaf, fn = _resolve(target)
            if fn is not None:
                _rebind(owner, leaf, fn, rec.wrap(fn, name, pre, post))
    for target, counting in _counters(rec).items():
        owner, leaf, fn = _resolve(target)
        if fn is not None:
            _rebind(owner, leaf, fn, counting(fn))
    return rec
