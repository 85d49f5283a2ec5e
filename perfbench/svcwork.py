"""The ``svc-zipf-rw`` workload: the TCP service as its users reach it.

``python -m repro.service`` runs as a subprocess (with ``--trace 1``,
through ``svc_launch.py``, which installs the layer wrappers first).  The
shared graph ``G`` is ``rmat(12, 8)``, defined by the benchmark.  This
process generates the load over two TCP connections:

* reader -- a closed loop on one private session, drawing zipf(s=1.2)
  from a fixed pool of 32 cacheable read templates on ``shared:G``;
* writer -- an open loop on the shared session, sending ``stream_mutate``
  batches of 2-8 edges at a fixed rate, each timed from its due time.

Untraced, both loops run for ``--seconds``.  Traced, they send a fixed
``TRACE_READS`` reads and ``TRACE_WRITES`` writes, so the server's spans
are the work of a fixed load: a faster layer shows as less time, not as
more calls.

After the timed phase a seeded sample of the reads is replayed serially,
with the cache and the incremental handles off, at the snapshot version
each response reports, after the writes re-applied in their published
order (the method of ``repro.service.loadgen.replay_versioned``); every
mismatch is a failure.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

from repro.service.client import TCPClient
from repro.service.errors import ServiceError

clock = time.perf_counter

SCALE, EDGE_FACTOR = 12, 8
POOL, ZIPF_S = 32, 1.2
WRITE_RATE_HZ = 10.0
WRITE_EDGES = (2, 8)
SETUP_REPEATS = 3
CHECK_SHARE = 0.05          # share of reads kept for the replay check
MIN_READS = 1000
TRACE_READS, TRACE_WRITES = 1500, 100
STARTUP_TIMEOUT_S = 60.0
SHARED, PREFIX = "shared", "shared:"
#: float leaves of a replayed read must agree to this relative tolerance
FLOAT_RTOL = 1e-9
#: L1 distance allowed between a served PageRank vector and its replay: the
#: from-scratch run and the incremental handle each stop within
#: n·tol/(1-damping) of the fixed point (docs/streaming.md), with n = 4096,
#: tol = 1e-8 and damping = 0.85.  The vector sums to 1, so an error of 1%
#: on every entry is an L1 distance of 0.01
PR_L1_TOL = 2 * (1 << SCALE) * 1e-8 / (1 - 0.85)
SEMIRING, MONOID = "GrB_PLUS_TIMES_SEMIRING_FP64", "GrB_PLUS_MONOID_FP64"
HERE = os.path.dirname(os.path.abspath(__file__))


# -------------------------------------------------------------- inputs

def graph_payload(seed: int) -> dict:
    """``define`` payload of the shared graph: rmat(12, 8), weight 1.0."""
    from repro.io import rmat
    from repro.types import FP64

    rows, cols, _ = rmat(SCALE, EDGE_FACTOR, seed=seed, domain=FP64).extract_tuples()
    return {
        "name": "G", "kind": "matrix", "dtype": "FP64",
        "shape": [1 << SCALE, 1 << SCALE],
        "entries": [[int(i), int(j), 1.0] for i, j in zip(rows, cols)],
    }


def read_pool(seed: int, graph: dict) -> list[tuple[str, dict]]:
    """32 read templates in zipf rank order, built as
    ``repro.service.loadgen._shared_read_pool`` builds its pool: ``nvals``,
    ``pagerank`` and ``triangle_count`` at ranks 1-3, then each further
    rank an ``element`` query (25%), a ``bfs_levels``/``sssp`` read (25%)
    or an ``mxv`` + ``reduce_scalar`` program (50%), drawn from the seed.
    Parameters range over the 4096 vertices of ``G``; BFS and SSSP start at
    vertices with an out-edge, so their cost does not hinge on the seed
    hitting an isolated vertex."""
    rng = random.Random(seed * 104729 + 11)
    n = 1 << SCALE
    live = sorted({e[0] for e in graph["entries"]})
    g = PREFIX + "G"
    pool: list[tuple[str, dict]] = [
        ("query", {"name": g, "what": "nvals"}),
        ("algorithm", {"algo": "pagerank", "graph": g, "args": {}}),
        ("algorithm", {"algo": "triangle_count", "graph": g, "args": {}}),
    ]
    while len(pool) < POOL:
        r = rng.random()
        if r < 0.25:
            pool.append(("query", {"name": g, "what": "element",
                                   "row": rng.randrange(n), "col": rng.randrange(n)}))
        elif r < 0.50:
            pool.append(("algorithm", {"algo": rng.choice(("bfs_levels", "sssp")),
                                       "graph": g,
                                       "args": {"source": rng.choice(live)}}))
        else:
            src = rng.randrange(n)
            pool.append(("program", {
                "declare": [
                    {"name": "v", "kind": "vector", "dtype": "FP64", "shape": [n],
                     "entries": [[src, round(rng.uniform(0.5, 2.0), 3)]]},
                    {"name": "t", "kind": "vector", "dtype": "FP64", "shape": [n]},
                ],
                "calls": [
                    {"kind": "mxv", "out": "t",
                     "args": {"a": g, "u": "v", "semiring": SEMIRING}},
                    {"kind": "reduce_scalar", "out": None,
                     "args": {"a": "t", "monoid": MONOID}},
                ],
                "fetch": ["t"],
            }))
    return pool


def zipf_cdf(k: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(k)]
    total, acc, cdf = sum(weights), 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def write_batch(rng: random.Random) -> dict:
    n = 1 << SCALE
    edges = []
    for _ in range(rng.randint(*WRITE_EDGES)):
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        edges.append([i, j, round(rng.uniform(0.5, 2.0), 3)])
    return {"graph": "G", "set": edges}


# -------------------------------------------------------------- server

class Server:
    """``python -m repro.service`` on a free port, logs in *rundir*."""

    def __init__(self, src: str, rundir: str, tag: str, trace_out: str | None):
        os.makedirs(os.path.join(rundir, "diag"), exist_ok=True)
        args = ["--port", "0", "--diag-dir", os.path.join(rundir, "diag")]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "svc_launch.py"),
                   "--trace-out", trace_out, "--", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._err = open(os.path.join(rundir, f"server-{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._err, env=env,
            cwd=rundir,
        )
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.splitlines():
                    if line.startswith(b"READY "):
                        _, host, port = line.decode().split()
                        return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("service did not print READY")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def start_with_graph(src, rundir, tag, trace_out, payload) -> tuple[Server, float]:
    """Server start to ``READY`` plus the shared-graph ``define``."""
    t0 = clock()
    server = Server(src, rundir, tag, trace_out)
    try:
        cli = TCPClient(server.host, server.port, session=SHARED)
        try:
            cli.call("define", payload)
        finally:
            cli.close(close_session=False)
    except BaseException:
        server.stop()
        raise
    return server, clock() - t0


# -------------------------------------------------------------- load

class Budget:
    """How long a load loop runs: until the clock reads *until*, or for
    exactly *count* requests."""

    def __init__(self, *, until: float | None = None, count: int | None = None):
        if (until is None) == (count is None):
            raise ValueError("a budget is a deadline or a count, not both")
        self.until, self.count = until, count

    def more(self, done: int, now: float) -> bool:
        if self.count is not None:
            return done < self.count
        return now < self.until


def _reader(host, port, seed, pool, budget: Budget, out: dict) -> None:
    cdf = zipf_cdf(len(pool), ZIPF_S)
    pick = random.Random(seed * 7919 + 1)
    keep = random.Random(seed * 7919 + 2)
    cli = TCPClient(host, port, session="reader")
    samples, kept = out["reads"], out["kept"]
    try:
        while budget.more(len(samples), clock()):
            x = pick.random()
            idx = next(r for r, edge in enumerate(cdf) if x <= edge)
            kind, payload = pool[idx]
            t0 = clock()
            try:
                result = cli.call(kind, payload, timing=True)
            except OSError as exc:      # the connection is gone: stop reading
                out["errors"].append(("read", kind, repr(exc)))
                break
            except ServiceError as exc:
                samples.append((idx, clock() - t0, False, {}, t0))
                out["errors"].append(("read", kind, repr(exc)))
                continue
            t1 = clock()
            timing = result.get("timing", {})
            samples.append((idx, t1 - t0, True, timing, t0))
            if keep.random() < CHECK_SHARE:
                kept.append((idx, timing.get("shared_version"), result))
    finally:
        cli.close(close_session=False)


def _writer(host, port, seed, t_start, budget: Budget, out: dict) -> None:
    rng = random.Random(seed * 7919 + 3)
    cli = TCPClient(host, port, session=SHARED)
    try:
        k = 0
        while True:
            due = t_start + k / WRITE_RATE_HZ
            if not budget.more(k, due):
                break
            payload = write_batch(rng)
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            try:
                result = cli.call("stream_mutate", payload, timing=True)
                timing = result.get("timing", {})
                ok, pv = True, timing.get("published_version")
            except OSError as exc:      # the connection is gone: stop writing
                out["errors"].append(("write", "stream_mutate", repr(exc)))
                break
            except ServiceError as exc:
                ok, pv, timing = False, None, {}
                out["errors"].append(("write", "stream_mutate", repr(exc)))
            out["writes"].append((due, sent, clock(), ok, pv, payload, timing))
            k += 1
    finally:
        cli.close(close_session=False)


def drive(server: Server, seed: int, seconds: float, pool, traced: bool) -> dict:
    out = {"reads": [], "kept": [], "writes": [], "errors": []}
    t_start = clock() + 0.05
    if traced:
        reads, writes = Budget(count=TRACE_READS), Budget(count=TRACE_WRITES)
    else:
        reads = writes = Budget(until=t_start + seconds)
    threads = [
        threading.Thread(target=_reader, args=(server.host, server.port, seed, pool, reads, out)),
        threading.Thread(target=_writer, args=(server.host, server.port, seed, t_start, writes, out)),
    ]
    # the set-up's objects (the graph payload, the template pool) never die
    # during the load; keep the collector from rescanning them
    gc.freeze()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gc.unfreeze()
    out["elapsed_s"] = clock() - t_start
    cli = TCPClient(server.host, server.port)
    try:
        out["stats"] = cli.stats()
    finally:
        cli.close()
    return out


# -------------------------------------------------------------- replay

def _close(a, b) -> bool:
    """Structural equality; float leaves within :data:`FLOAT_RTOL`."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(v, b[k]) for k, v in a.items())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return a == b


def result_diff(template, live: dict, ref: dict) -> str | None:
    """Why a served read differs from its replay, or None.  PageRank
    vectors must share their pattern and lie within :data:`PR_L1_TOL` in
    L1; every other result agrees leaf by leaf (:func:`_close`)."""
    live = {k: v for k, v in live.items() if k != "timing"}
    ref = {k: v for k, v in ref.items() if k != "timing"}
    if template[1].get("algo") == "pagerank" and "__error__" not in ref:
        a, b = live.get("result") or {}, ref.get("result") or {}
        if (a.get("shape"), a.get("indices")) != (b.get("shape"), b.get("indices")):
            return "pagerank pattern differs from the replay"
        l1 = math.fsum(abs(x - y) for x, y in zip(a["values"], b["values"]))
        if not l1 <= PR_L1_TOL:
            return f"pagerank L1 distance {l1:.3e} from the replay > {PR_L1_TOL:.3e}"
        return None
    if _close(live, ref):
        return None
    return f"{live!r} != {ref!r}"


def replay_check(graph: dict, pool, load: dict) -> list[str]:
    """Serial, cache-off replay of the kept reads at their versions."""
    from repro.service import Service, ServiceConfig

    problems: list[str] = []
    writes = sorted((w for w in load["writes"] if w[4] is not None), key=lambda w: w[4])
    by_version: dict[int, list] = {}
    for idx, version, result in load["kept"]:
        if version is None:
            problems.append(f"read {idx}: response carries no shared_version")
            continue
        by_version.setdefault(version, []).append((idx, result))
    svc = Service(ServiceConfig(workers=1, batching=False, cache=False, diag=False))
    # the reference runs every algorithm from scratch: without its stream
    # state the executor serves no incremental handle, so a handle that
    # drifts from its algorithm cannot also shape the replay
    svc.streams = None
    try:
        svc.request(SHARED, "define", graph)
        svc.open_session("replay")
        memo: dict[int, dict] = {}     # template -> replayed result at cur
        pending = iter(writes)
        while True:
            cur = svc.snapshots.current_vid()
            for idx, live in by_version.pop(cur, []):
                if idx not in memo:
                    try:
                        memo[idx] = svc.request("replay", *pool[idx])
                    except Exception as exc:  # a failed replay is a mismatch
                        memo[idx] = {"__error__": repr(exc)}
                diff = result_diff(pool[idx], live, memo[idx])
                if diff:
                    problems.append(f"read {pool[idx][0]} #{idx} at v{cur}: {diff[:200]}")
            memo.clear()
            w = next(pending, None)
            if w is None:
                break
            if w[4] != cur + 1:
                problems.append(f"write published v{w[4]}, replay is at v{cur}")
                break
            svc.request(SHARED, "stream_mutate", w[5])
        for version, reads in by_version.items():
            problems.extend(f"read #{idx} observed unreachable v{version}" for idx, _ in reads)
    finally:
        svc.shutdown()
    return problems


# -------------------------------------------------------------- phases

def run_phase(src, rundir, seed, seconds, traced: bool) -> dict:
    """Set up ``SETUP_REPEATS`` times, drive the last server, check."""
    graph = graph_payload(seed)
    pool = read_pool(seed, graph)
    tag = "traced" if traced else "plain"
    trace_out = os.path.join(rundir, f"server-{tag}.trace.json") if traced else None
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, took = start_with_graph(src, rundir, f"{tag}{i}", trace_out, graph)
        setups.append(took)
    try:
        load = drive(server, seed, seconds, pool, traced)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    problems = replay_check(graph, pool, load)
    trace = None
    if traced:
        with open(trace_out) as fh:
            trace = json.load(fh)
    return {"setup_s": setups, "load": load, "peak_rss_mb": rss,
            "problems": problems, "trace": trace, "pool": pool,
            "graph_nvals": len(graph["entries"])}
