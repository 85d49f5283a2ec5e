"""Plan construction and the level-order DAG scheduler.

:func:`build_plan` is the queue's drain-time entry point: it runs the pass
pipeline (dead-op → fusion → CSE, each individually switchable via
:mod:`.config`) and returns an :class:`ExecutionPlan` whose :meth:`run`
executes the surviving nodes level by level.  Nodes within a level share no
hazards, so when the parallel pass is on and :func:`repro.parallel.
get_num_threads` allows it, a level's nodes are dispatched concurrently on
the shared thread pool — with nested kernel parallelism suppressed via
:func:`repro.parallel.serial_section` so scheduler workers never re-enter
the pool they occupy.
"""

from __future__ import annotations

from typing import Callable

from ...parallel import get_backend, get_num_threads, serial_section, thread_pool
from ..sequence import DeferredOp, QueueStats
from .config import options
from .graph import Graph, OpNode, build_graph
from .passes import cse_pass, dead_op_pass, fusion_pass

__all__ = ["build_plan", "ExecutionPlan"]


def _node_provenance(g: Graph) -> dict[int, tuple[list, list]]:
    """(request_ids, trace_ids) per live node — provenance merge, not loss.

    A node's ids are the union over its member ops' enqueue-time stamps, so
    a pair fused *across requests* carries both originators.  A CSE source
    additionally absorbs the ids of every duplicate that will reuse its
    cached result: the kernel it runs is shared work, and a per-request
    drain-share apportioned from these ids must bill every beneficiary.
    """
    rids: dict[int, set] = {}
    tids: dict[int, set] = {}
    for node in g.alive_nodes():
        traces = [op.trace for op in node.ops if op.trace is not None]
        rids[node.index] = {str(t.request_id) for t in traces}
        tids[node.index] = {t.trace_id for t in traces}
    for node in g.alive_nodes():
        src = node.cse_source
        if src is not None and src in rids:
            rids[src] |= rids[node.index]
            tids[src] |= tids[node.index]
    return {
        i: (sorted(rids[i]), sorted(tids[i])) for i in rids
    }


def _attach_runners(g: Graph) -> None:
    """Give every live node its executable.

    Every runner is span-wrapped *now* — drain time — so a scheduled node
    records exactly one op span, under a label that makes planner rewrites
    visible (``mxm+apply[fused]``, ``mxm[cse]``) and with the rewrite's
    provenance (member labels, CSE source, originating request ids) in the
    span attrs.  With no capture armed ``wrap_thunk`` hands the runner back
    unchanged; with a :class:`repro.obs.tracing.DrainAccounting` installed
    on the draining thread, runners are additionally timed and their
    realized flops tallied per request id (bound by closure, so nodes
    dispatched to pool threads still report back).
    """
    from ...obs import diag as _diag
    from ...obs import tracing as _tracing
    from ...operations.common import execute_chain, execute_standard
    from ..trace import wrap_thunk

    acct = _tracing.current_accounting()
    detector = _diag.detector()
    provenance = _node_provenance(g)
    cache: dict[int, tuple] = {}
    for node in g.alive_nodes():
        rids, t_ids = provenance[node.index]
        prov: dict = {}
        if rids:
            prov["request_ids"] = rids
            prov["trace_ids"] = t_ids
        if node.fused_chain is not None:

            def fused_run(specs=tuple(node.fused_chain)):
                execute_chain(list(specs))

            prov["fused_of"] = [op.label for op in node.ops]
            runner = wrap_thunk(
                fused_run, node.label, deferred=True, provenance=prov
            )
        elif node.cse_source is not None:

            def cse_run(spec=node.ops[0].spec, src=node.cse_source):
                execute_standard(spec, precomputed=cache[src])

            prov["cse_of"] = node.cse_source
            runner = wrap_thunk(
                cse_run, node.label, deferred=True, provenance=prov
            )
        elif node.capture:

            def capture_run(spec=node.ops[0].spec, idx=node.index):
                execute_standard(
                    spec, capture=lambda k, v: cache.__setitem__(idx, (k, v))
                )

            runner = wrap_thunk(
                capture_run, node.label, deferred=True, provenance=prov or None
            )
        else:
            runner = wrap_thunk(
                node.ops[0].thunk, node.label, deferred=True,
                provenance=prov or None,
            )
            # plain single-op nodes are candidates for the sharded backend;
            # the shard scheduler re-wraps its own completion with the same
            # provenance/accounting, so stash them here
            node.shard = {
                "spec": node.ops[0].spec,
                "prov": prov or None,
                "rids": rids,
            }
        if detector is not None:
            runner = _anomaly_wrap(runner, node.label)
        node.runner = acct.wrap(runner, rids) if acct is not None else runner


#: the anomaly detector's backend key for work run in this process (the
#: shard scheduler reports its tasks under ``"shard"``)
_LOCAL_BACKEND = "interpreter"


def _anomaly_wrap(runner, label: str):
    """Time *runner* for the installed anomaly detector (nested tallies
    propagate, so this composes with :meth:`DrainAccounting.wrap`)."""
    import time as _time

    from ...obs import diag as _diag
    from ...obs.tracing import _tally_begin, _tally_end

    def observed():
        token = _tally_begin()
        t0 = _time.perf_counter()
        try:
            runner()
        finally:
            _diag.observe_kernel(
                label, _LOCAL_BACKEND,
                seconds=_time.perf_counter() - t0,
                flops=_tally_end(token),
            )

    return observed


def _explain_record(g: Graph, levels: list, elided: int) -> dict:
    """One EXPLAIN entry for a built plan: every surviving node with its
    rewrite kind, hazard predecessors, provenance, and backend choice."""
    provenance = _node_provenance(g)
    nodes: list[dict] = []
    fused = cse = 0
    for node in sorted(g.alive_nodes(), key=lambda n: (n.level, n.index)):
        rids, tids = provenance[node.index]
        entry: dict = {
            "index": node.index,
            "label": node.label,
            "ops": [op.label for op in node.ops],
            "level": node.level,
            "preds": sorted(node.preds),
            "request_ids": rids,
            "trace_ids": tids,
            "kind": "plain",
        }
        if node.fused_chain is not None:
            entry["kind"] = "fused"
            fused += 1
        elif node.cse_source is not None:
            entry["kind"] = "cse"
            entry["cse_source"] = node.cse_source
            cse += 1
        elif node.capture:
            entry["kind"] = "capture"
        nodes.append(entry)
    return {
        "optimize": True,
        "exec_backend": get_backend(),
        "levels": len(levels),
        "elided": elided,
        "fused_chains": fused,
        "cse_merged": cse,
        "nodes": nodes,
    }


class ExecutionPlan:
    """A scheduled sequence: levels of mutually independent nodes.

    After :meth:`run`, :attr:`failed_ops` holds the member ops of every node
    that did not complete (the failing node first), in execution order — the
    queue exposes it so the context can poison their outputs (section V).
    """

    def __init__(
        self,
        levels: list[list[OpNode]],
        stats: QueueStats,
        parallel: bool,
    ):
        self._levels = levels
        self._stats = stats
        self._parallel = parallel
        self.failed_ops: list[DeferredOp] = []

    def _fail(self, lvl: int, failing: list[OpNode]) -> None:
        remaining = [n for level in self._levels[lvl + 1 :] for n in level]
        self.failed_ops = [
            op for n in failing + remaining for op in n.ops
        ]

    def run(self) -> None:
        if self._levels:
            width = max(len(level) for level in self._levels)
            self._stats.max_width = max(self._stats.max_width, width)
        sharded = self._parallel and get_backend() == "processes"
        for lvl, level in enumerate(self._levels):
            if sharded:
                self._run_level_sharded(lvl, level)
            elif self._parallel and len(level) > 1 and get_num_threads() > 1:
                self._run_level_parallel(lvl, level)
            else:
                self._run_level_serial(lvl, level)

    def _run_level_serial(self, lvl: int, level: list[OpNode]) -> None:
        for pos, node in enumerate(level):
            try:
                node.runner()
            except BaseException:
                self._fail(lvl, level[pos:])
                raise
            self._stats.executed += len(node.ops)

    def _run_level_sharded(self, lvl: int, level: list[OpNode]) -> None:
        # The shard scheduler owns the whole level: it ships what the gate
        # allows, runs the rest locally, and reports per-node failures with
        # the same collect-then-first-in-program-order contract as the
        # thread path.  Anything it *raises* (worker death → Panic) fails
        # the entire level.
        from ...shard.scheduler import run_level as _shard_run_level

        try:
            failures = _shard_run_level(level)
        except BaseException:
            self._fail(lvl, level)
            raise
        failed = {n.index for n, _ in failures}
        for node in level:
            if node.index not in failed:
                self._stats.executed += len(node.ops)
        if failures:
            self._fail(lvl, [n for n, _ in failures])
            raise failures[0][1]

    def _run_level_parallel(self, lvl: int, level: list[OpNode]) -> None:
        # Workers run under serial_section so a node's kernels don't submit
        # to the pool the scheduler is occupying (nested-pool deadlock).
        def guarded(runner: Callable[[], None]):
            def run():
                with serial_section():
                    runner()

            return run

        pool = thread_pool()
        futures = [(node, pool.submit(guarded(node.runner))) for node in level]
        failures: list[tuple[OpNode, BaseException]] = []
        for node, fut in futures:
            try:
                fut.result()
            except BaseException as exc:
                failures.append((node, exc))
            else:
                self._stats.executed += len(node.ops)
        if failures:
            # program order decides which error surfaces (section V: the
            # first execution error in the sequence)
            failures.sort(key=lambda nf: nf[0].index)
            self._fail(lvl, [n for n, _ in failures])
            raise failures[0][1]


class _SerialPlan:
    """Planner-off fallback: plain program order, no graph, no passes."""

    def __init__(self, ops: list[DeferredOp], stats: QueueStats):
        self._ops = ops
        self._stats = stats
        self.failed_ops: list[DeferredOp] = []

    def run(self) -> None:
        from ...obs import tracing as _tracing
        from ..trace import wrap_thunk

        acct = _tracing.current_accounting()
        for pos, op in enumerate(self._ops):
            prov = None
            rids: list = []
            if op.trace is not None:
                rids = [str(op.trace.request_id)]
                prov = {"request_ids": rids, "trace_ids": [op.trace.trace_id]}
            runner = wrap_thunk(op.thunk, op.label, deferred=True, provenance=prov)
            if acct is not None:
                runner = acct.wrap(runner, rids)
            try:
                runner()
            except BaseException:
                self.failed_ops = self._ops[pos:]
                raise
            self._stats.executed += 1


def build_plan(
    ops: list[DeferredOp], stats: QueueStats, optimize: bool = True
):
    """Lift *ops* into the DAG, run the enabled passes, attach runners."""
    from ...obs.diag import explain as _explain

    opts = options()
    col = _explain.current_explain()
    if not optimize or not opts.enabled:
        if col is not None:
            col.record_plan(_serial_explain_record(ops))
        return _SerialPlan(ops, stats)

    if opts.dead_op:
        live, elided = dead_op_pass(ops)
        stats.elided += len(elided)
        n_elided = len(elided)
    else:
        live = ops
        n_elided = 0

    g = build_graph(live)
    owner = list(range(len(live)))
    if opts.fusion:
        stats.fused += fusion_pass(g, live, owner)
    if opts.cse:
        stats.cse += cse_pass(g, live, owner)
    _attach_runners(g)
    levels = g.assign_levels()
    if col is not None:
        col.record_plan(_explain_record(g, levels, n_elided))
    return ExecutionPlan(levels, stats, parallel=opts.parallel)


def _serial_explain_record(ops: list[DeferredOp]) -> dict:
    """The planner-off EXPLAIN: plain program order, one node per op."""
    nodes = []
    for i, op in enumerate(ops):
        rids = [str(op.trace.request_id)] if op.trace is not None else []
        tids = [op.trace.trace_id] if op.trace is not None else []
        nodes.append(
            {
                "index": i,
                "label": op.label,
                "ops": [op.label],
                "level": i,
                "preds": [i - 1] if i else [],
                "request_ids": rids,
                "trace_ids": tids,
                "kind": "plain",
            }
        )
    return {
        "optimize": False,
        "levels": len(ops),
        "elided": 0,
        "fused_chains": 0,
        "cse_merged": 0,
        "nodes": nodes,
    }
