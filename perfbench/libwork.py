"""One library workload in a fresh process: ``fig3-bc`` or ``er-kernels``.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/libwork.py --workload fig3-bc --seed 1 --seconds 10 \
        --trace 0 --out result.json

It sets the program up several times, runs timed rounds for ``--seconds``,
reads the process's peak RSS, and only then checks every output against an
independent reference (Brandes, scipy).  With ``--trace 1`` the layer
wrappers of ``tracer.py`` are installed before set-up, the workload runs
exactly ``TRACE_ROUNDS`` rounds whatever ``--seconds`` says -- so the
spans are the work of a fixed load, and a faster layer shows as less time,
not as more calls -- and the spans are written next to ``--out`` before the
checks run.  ``repro.obs`` capture
stays off, the metrics registry is left as import leaves it, and the
``repro.parallel`` settings stay at their defaults; their values are
recorded in the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import repro as grb
from repro import context, parallel
from repro.algorithms import bc_update, brandes_baseline, pagerank, triangle_count
from repro.io import erdos_renyi, rmat
from repro.obs import metrics

clock = time.perf_counter

BC_SCALE, BC_EDGE_FACTOR = 12, 8
BC_SOURCES, BC_BATCH = 256, 32
BC_RTOL = 1e-4                    # bench_fig3_bc.py's tolerance, per vertex
ER_N, ER_EDGES = 131072, 2 ** 20
PR_L1_TOL = 1e-9                  # same iteration, same stopping rule
SETUP_REPEATS = {"fig3-bc": 9, "er-kernels": 5}
TRACE_ROUNDS = 1                  # rounds of a traced run


def another_round(done: int, elapsed: float, seconds: float, rounds: int | None) -> bool:
    """Whether to run one more round: exactly *rounds* when given (the
    traced run), else until *seconds* have elapsed, and at least one."""
    if rounds is not None:
        return done < rounds
    return done == 0 or elapsed < seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _settings() -> dict:
    return {
        "threads": parallel.get_num_threads(),
        "backend": parallel.get_backend(),
        "kernel_backend": parallel.get_kernel_backend(),
        "parallel_threshold": parallel.parallel_threshold(),
        "metrics_registry_enabled": metrics.registry.enabled,
    }


def _timed_setup(build, repeats: int):
    """Run *build* *repeats* times; returns the last result and each time."""
    times, obj = [], None
    for _ in range(repeats):
        obj = None  # release the previous build before timing the next
        t0 = clock()
        obj = build()
        times.append(clock() - t0)
    return obj, times


# ---------------------------------------------------------------- fig3-bc

def fig3_bc(seed: int, seconds: float, rounds: int | None, finish_timing) -> dict:
    A, setup = _timed_setup(
        lambda: rmat(BC_SCALE, BC_EDGE_FACTOR, seed=seed, domain=grb.INT32),
        SETUP_REPEATS["fig3-bc"],
    )
    n = A.nrows
    # sources with an out-edge: a BFS from an isolated vertex does no work,
    # so uniform sources would make the work depend on the seed
    rows, _, _ = A.extract_tuples()
    live = np.flatnonzero(np.bincount(rows, minlength=n))
    sources = np.sort(
        np.random.default_rng(seed).choice(live, BC_SOURCES, replace=False)
    )
    nonblocking = context.Context(grb.Mode.NONBLOCKING, name="fig3-nonblocking")

    def bc_pass(ctx) -> tuple[float, np.ndarray, list]:
        total = np.zeros(n)
        batch_ms = []
        t0 = clock()
        for lo in range(0, BC_SOURCES, BC_BATCH):
            tb = clock()
            if ctx is None:
                delta = bc_update(A, sources[lo:lo + BC_BATCH])
                total += delta.to_dense(0.0)
            else:
                with context.activate(ctx):
                    delta = bc_update(A, sources[lo:lo + BC_BATCH])
                    grb.wait()
                    total += delta.to_dense(0.0)
            delta.free()
            batch_ms.append((clock() - tb) * 1e3)
        return clock() - t0, total, batch_ms

    legs = {"bc_blocking_s": [], "bc_nonblocking_s": []}
    batches = {leg: [] for leg in legs}
    outputs = []
    start = clock()
    done = 0
    while another_round(done, clock() - start, seconds, rounds):
        for leg, ctx in (("bc_blocking_s", None), ("bc_nonblocking_s", nonblocking)):
            wall, total, batch_ms = bc_pass(ctx)
            legs[leg].append(wall)
            batches[leg].append(batch_ms)
            outputs.append((leg, total))
        done += 1
    timing = finish_timing()

    ref = brandes_baseline(A, sources=sources)
    # per vertex: scaling by the largest score (bench_fig3_bc.py's rule)
    # would let an error of several units on a low-score vertex through
    scale = np.maximum(1.0, np.abs(ref))
    failures = []
    for i, (leg, total) in enumerate(outputs):
        rel = float((np.abs(total - ref) / scale).max())
        if not rel <= BC_RTOL:
            failures.append(f"{leg} pass {i // 2}: max rel err {rel:.3e} vs Brandes")
    return {
        "setup_s": setup,
        "legs": legs,
        "batch_ms": batches,
        "attempted": len(outputs),
        "failures": failures,
        "timing": timing,
        "inputs": {"graph": f"rmat({BC_SCALE}, {BC_EDGE_FACTOR})",
                   "nvals": A.nvals(), "sources": BC_SOURCES,
                   "batch": BC_BATCH},
    }


# ------------------------------------------------------------- er-kernels

def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _spgemm(A):
    C = grb.Matrix(grb.FP64, A.nrows, A.ncols)
    grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A, None)
    C.nvals()
    return C


def _scipy_pagerank(S, damping=0.85, tol=1e-8, max_iters=100) -> np.ndarray:
    """The power iteration of ``repro.algorithms.pagerank``, in scipy."""
    n = S.shape[0]
    deg = np.asarray(S.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg != 0)
    dangling = deg == 0
    AT = S.T.tocsr()
    r = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        teleport = (1.0 - damping) / n + damping * r[dangling].sum() / n
        r_new = damping * (AT @ (r * inv)) + teleport
        delta = np.abs(r_new - r).sum()
        r = r_new
        if delta < tol * n:
            break
    return r / r.sum()


def er_kernels(seed: int, seconds: float, rounds: int | None, finish_timing) -> dict:
    A, setup = _timed_setup(
        lambda: erdos_renyi(ER_N, ER_EDGES, seed=seed, domain=grb.FP64),
        SETUP_REPEATS["er-kernels"],
    )
    legs = {"pagerank_s": [], "spgemm_s": [], "tc_s": []}
    pr_out, spgemm_digests, tc_out = [], [], []
    start = clock()
    while another_round(len(tc_out), clock() - start, seconds, rounds):
        t0 = clock()
        pr = pagerank(A)
        legs["pagerank_s"].append(clock() - t0)
        pr_out.append(pr)

        t0 = clock()
        C = _spgemm(A)
        legs["spgemm_s"].append(clock() - t0)
        spgemm_digests.append(_digest(*C.extract_tuples()))
        C.free()
        del C

        t0 = clock()
        tc = triangle_count(A)
        legs["tc_s"].append(clock() - t0)
        tc_out.append(tc)
    timing = finish_timing()

    import scipy.sparse as sp

    rows, cols, vals = A.extract_tuples()
    S = sp.csr_matrix((vals.astype(np.float64), (rows, cols)), shape=A.shape)
    failures = []
    ref_pr = _scipy_pagerank(S)
    for i, pr in enumerate(pr_out):
        l1 = float(np.abs(pr - ref_pr).sum())
        if not l1 <= PR_L1_TOL:
            failures.append(f"pagerank pass {i}: L1 distance {l1:.3e} from scipy")

    C = _spgemm(A)
    c_rows, c_cols, c_vals = C.extract_tuples()
    C.free()
    mine = _digest(c_rows, c_cols, c_vals)
    R = (S @ S).tocoo()
    order = np.lexsort((R.col, R.row))
    r_rows, r_cols, r_vals = R.row[order], R.col[order], R.data[order]
    same_pattern = (
        len(r_rows) == len(c_rows)
        and np.array_equal(r_rows.astype(np.int64), c_rows.astype(np.int64))
        and np.array_equal(r_cols.astype(np.int64), c_cols.astype(np.int64))
    )
    if not same_pattern:
        wrong = "pattern differs from scipy A @ A"
    elif not np.allclose(c_vals, r_vals, rtol=1e-12, atol=0.0):
        wrong = "values differ from scipy A @ A"
    else:
        wrong = None
    del R, r_rows, r_cols, r_vals, c_rows, c_cols, c_vals
    # every timed product is bit-identical to the checked one, or wrong
    for i, d in enumerate(spgemm_digests):
        if d != mine:
            failures.append(f"spgemm pass {i}: output differs from the checked product")
        elif wrong:
            failures.append(f"spgemm pass {i}: {wrong}")

    P = S.copy()
    P.data[:] = 1.0
    L = sp.tril(P, k=-1).tocsr()
    ref_tc = int(round((L @ L).multiply(L).sum()))
    for i, tc in enumerate(tc_out):
        if tc != ref_tc:
            failures.append(f"triangle_count pass {i}: {tc} != scipy {ref_tc}")

    passes = len(tc_out)
    return {
        "setup_s": setup,
        "legs": legs,
        "attempted": 3 * passes,
        "failures": failures,
        "timing": timing,
        "inputs": {"graph": f"erdos_renyi({ER_N}, 2**20) FP64",
                   "nvals": A.nvals(), "triangles": ref_tc},
    }


WORKLOADS = {"fig3-bc": fig3_bc, "er-kernels": er_kernels}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    settings = _settings()
    rec = None
    trace_path = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        rec = tracer.install()
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"

    def finish_timing() -> dict:
        """End of the measured part: peak RSS, then the trace is written."""
        done = {"peak_rss_mb": _peak_rss_mb()}
        if rec is not None:
            rec.dump(trace_path, extra={"parallel.threads": settings["threads"]})
            done["trace"] = trace_path
        return done

    rounds = TRACE_ROUNDS if args.trace else None
    result = WORKLOADS[args.workload](args.seed, args.seconds, rounds, finish_timing)
    result["settings"] = settings
    result["trace_rounds"] = TRACE_ROUNDS
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
