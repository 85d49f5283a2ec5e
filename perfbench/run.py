"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload fig3-bc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads:

* ``fig3-bc``     -- the paper's Fig. 3 ``bc_update`` on rmat(12, 8), 256
  sources in batches of 32, blocking and nonblocking (``wait()`` per batch);
* ``er-kernels``  -- PageRank, ``A·A`` over PLUS_TIMES and triangle count on
  erdos_renyi(131072, 2**20) FP64;
* ``svc-zipf-rw`` -- ``python -m repro.service`` under a closed-loop zipf
  reader and an open-loop ``stream_mutate`` writer over TCP.

Every output is checked against an independent reference.  The report
lines name each workload metric in the workload's own terms; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the ``END_TO_END`` metrics with ``--trace 0``, the
per-layer metrics of ``stats.PER_LAYER`` plus the tracing overhead with
``--trace 1``.  The traced run does a fixed amount of work, so the
per-layer figures are totals over the same load on every run.  A failed
check, or a metric without samples, exits 1; a checkout without
``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

LIBRARY = ("fig3-bc", "er-kernels")
WORKLOADS = LIBRARY + ("svc-zipf-rw",)
RUNS_DIR = ".perfbench-runs"

#: (name, unit, better) of the metrics every workload reports untraced.
#: The three ``leg`` slots mean, per workload:
#:   fig3-bc      leg1 BC blocking, leg2 BC nonblocking (256 sources each),
#:                leg3 p90 of one 32-source bc_update
#:   er-kernels   leg1 PageRank, leg2 A·A, leg3 triangle count
#:   svc-zipf-rw  leg1 p50 round trip of the triangle_count reads the
#:                cache missed; p50 service time (the response's
#:                ``timing.total_us``) of leg2 the pagerank reads it
#:                missed and leg3 the writes
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("leg1_ms", "ms", "lower"),
    ("leg2_ms", "ms", "lower"),
    ("leg3_ms", "ms", "lower"),
)
OVERHEAD_PREFIX = "trace_overhead."
#: reads of the parameter-free algorithm templates, (algorithm, cache
#: outcome): the seed does not pick their cost
SPLIT_READS = (("triangle_count", "miss"), ("pagerank", "hit"), ("pagerank", "miss"))
#: the service's gated metrics, leg1..leg3: its kernel-bound latencies.
#: On a shared 2-core KVM host, interpreter-bound work -- encoding and
#: decoding a 4096-entry PageRank vector, materializing a cached one --
#: ran up to 1.6x slower in the host's slow minutes, kernel-bound work
#: about 1.2x.  So the PageRank and write legs are the service time the
#: response reports (admission to result, before the wire); a triangle
#: count returns a scalar, so its round trip is its service time plus a
#: little.  Every other latency, PageRank hits included, is printed only
SVC_LEGS = ("svc_triangle_count_miss_p50_ms", "svc_pagerank_miss_service_p50_ms",
            "svc_write_service_p50_ms")


def per_layer_schema() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a ``--trace 1`` run reports."""
    rows = [(m, unit, better) for m, _s, _f, unit, better in stats.PER_LAYER]
    rows += [(OVERHEAD_PREFIX + name, unit, "lower") for name, unit, _b in END_TO_END]
    return rows


# ------------------------------------------------------------ provenance

def _src_digest(src: str) -> str:
    h = hashlib.sha1()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(root: str, src: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
        "src_sha1": _src_digest(src),
        "seed": seed,
    }


# ------------------------------------------------------------ workloads

def _lib_child(root, src, rundir, workload, seed, seconds, trace) -> dict:
    out = os.path.join(rundir, f"lib-trace{trace}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "libwork.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    with open(os.path.join(rundir, f"lib-trace{trace}.log"), "wb") as log:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=log, stderr=log)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process exited {proc.returncode}; see {log.name}")
    with open(out) as fh:
        return json.load(fh)


def _lib_slots(workload: str, r: dict, rounds: int | None) -> tuple[dict, dict, dict]:
    """(leg slots, named metrics, sample counts) of the first *rounds*
    rounds of a library result (all of them when None)."""
    legs = {k: [v * 1e3 for v in vals[:rounds]] for k, vals in r["legs"].items()}
    med = {k: statistics.median(v) for k, v in legs.items()}
    named = {k: med[k] / 1e3 for k in legs}
    counts = {k: len(v) for k, v in legs.items()}
    if workload == "fig3-bc":
        # a leg's time is the sum over its 8 batches of each batch's median
        # over the rounds: a hiccup in one batch of one round drops out
        batch_ms = {leg: rows[:rounds] for leg, rows in r["batch_ms"].items()}
        for leg, rows in batch_ms.items():
            med[leg] = sum(statistics.median(col) for col in zip(*rows))
            named[leg] = med[leg] / 1e3
        every_batch = [ms for rows in batch_ms.values() for b in rows for ms in b]
        slots = (med["bc_blocking_s"], med["bc_nonblocking_s"],
                 stats.percentile(every_batch, 0.90))
        named["bc_update_p90_ms"] = slots[2]
        counts["bc_update_p90_ms"] = len(every_batch)
    else:
        slots = (med["pagerank_s"], med["spgemm_s"], med["tc_s"])
    return dict(zip(("leg1_ms", "leg2_ms", "leg3_ms"), slots)), named, counts


def lib_phase(root, src, rundir, workload, seed, seconds, trace) -> dict:
    r = _lib_child(root, src, rundir, workload, seed, seconds, trace)
    legs, named, counts = _lib_slots(workload, r, None)
    base = {"setup_s": statistics.median(r["setup_s"]),
            "peak_rss_mb": r["timing"]["peak_rss_mb"]}
    # the traced run does TRACE_ROUNDS rounds from a fresh process: its
    # overhead is measured against the same first rounds of this one
    first, _n, _c = _lib_slots(workload, r, r["trace_rounds"])
    trace_doc = None
    if trace:
        with open(r["timing"]["trace"]) as fh:
            trace_doc = json.load(fh)
    return {
        "e2e": {**base, **legs}, "e2e_as_traced": {**base, **first},
        "named": named, "samples": counts,
        "work": {"rounds": len(next(iter(r["legs"].values())))},
        "attempted": r["attempted"], "failures": r["failures"],
        "settings": r["settings"], "inputs": r["inputs"],
        "setup_samples": r["setup_s"], "trace": trace_doc, "extra": {},
    }


def svc_phase(root, src, rundir, seed, seconds, trace) -> dict:
    import svcwork

    r = svcwork.run_phase(src, rundir, seed, seconds, bool(trace))
    load = r["load"]
    reads = [x for x in load["reads"] if x[2]]
    read_ms = [x[1] * 1e3 for x in reads]
    writes = [w for w in load["writes"] if w[3]]
    write_ms = [(w[2] - w[0]) * 1e3 for w in writes]
    lag_ms = [(w[1] - w[0]) * 1e3 for w in load["writes"]]
    timings = [x[3] for x in reads]
    failures = [f"{where} {kind}: {err}" for where, kind, err in load["errors"]]
    failures += r["problems"]
    if len(load["reads"]) < svcwork.MIN_READS:
        failures.append(f"only {len(load['reads'])} reads, fewer than {svcwork.MIN_READS}")
    # reads of one parameter-free template, split by what the cache did:
    # round trip and the service time the response reports
    by_cache = {key: [] for key in SPLIT_READS}
    served = {key: [] for key in SPLIT_READS}
    for idx, took, _ok, timing, _t0 in reads:
        key = (r["pool"][idx][1].get("algo"), timing.get("cache"))
        if key in by_cache:
            by_cache[key].append(took * 1e3)
            if "total_us" in timing:
                served[key].append(timing["total_us"] / 1e3)
    write_service_ms = [w[6]["total_us"] / 1e3 for w in writes if "total_us" in w[6]]

    def pct(name: str, samples: list, q: float) -> float | None:
        # a metric without samples is a failed run, never a made-up number
        if not samples:
            failures.append(f"{name}: no samples")
            return None
        return stats.percentile(samples, q)

    named = {
        "svc_read_rps": len(read_ms) / load["elapsed_s"],
        "svc_read_p50_ms": pct("svc_read_p50_ms", read_ms, 0.50),
        "svc_read_p99_ms": pct("svc_read_p99_ms", read_ms, 0.99),
        "svc_write_p50_ms": pct("svc_write_p50_ms", write_ms, 0.50),
        "svc_write_p90_ms": pct("svc_write_p90_ms", write_ms, 0.90),
        "svc_write_service_p50_ms": pct("svc_write_service_p50_ms", write_service_ms, 0.50),
    }
    for (algo, cache), vals in by_cache.items():
        name = f"svc_{algo}_{cache}_p50_ms"
        named[name] = pct(name, vals, 0.50)
        name = f"svc_{algo}_{cache}_service_p50_ms"
        named[name] = pct(name, served[(algo, cache)], 0.50)
    e2e = {
        "setup_s": statistics.median(r["setup_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
        **{f"leg{i}_ms": named[name] for i, name in enumerate(SVC_LEGS, 1)},
    }
    st = load["stats"]
    cache, streams, diag = st.get("cache") or {}, st.get("streams") or {}, st.get("diag") or {}

    def ms(key, q):
        vals = [t[key] / 1e3 for t in timings if key in t]
        return stats.percentile(vals, q) if vals else 0.0

    extra = {
        "service.queue_wait_p50_ms": ms("queue_wait_us", 0.50),
        "service.queue_wait_p99_ms": ms("queue_wait_us", 0.99),
        "executor.issue_p50_ms": ms("issue_us", 0.50),
        "executor.drain_share_p50_ms": ms("drain_share_us", 0.50),
        "memo.hit_rate": cache.get("hit_rate", 0.0),
        "memo.invalidations": cache.get("invalidations", 0),
        "memo.rekeys": cache.get("rekeys", 0),
        "stream.advanced": streams.get("advanced", 0),
        "stream.dropped": streams.get("dropped", 0),
        "stream.served": streams.get("served", 0),
        "diag.dumps": diag.get("dumps", 0),
        "diag.suspects": len(diag.get("suspects", [])),
        "bench.writer_lag_p90_ms": stats.percentile(lag_ms, 0.90) if lag_ms else 0.0,
    }
    from repro import parallel
    from repro.service import ServiceConfig

    defaults = ServiceConfig()
    settings = {"threads": parallel.get_num_threads(), "backend": defaults.backend,
                "kernel_backend": defaults.kernel_backend,
                "workers": st.get("workers"), "batching": st.get("batching")}
    return {
        "e2e": e2e, "e2e_as_traced": e2e, "named": named,
        "work": {"reads": len(load["reads"]), "writes": len(load["writes"])},
        "samples": {"reads": len(read_ms), "writes": len(write_ms),
                    "replayed_reads": len(load["kept"]),
                    **{f"{algo}_{cache}": len(v) for (algo, cache), v in by_cache.items()}},
        "attempted": len(load["reads"]) + len(load["writes"]),
        "failures": failures, "settings": settings,
        "inputs": {"graph": f"rmat({svcwork.SCALE}, {svcwork.EDGE_FACTOR})",
                   "nvals": r["graph_nvals"],
                   "write_rate_hz": svcwork.WRITE_RATE_HZ},
        "setup_samples": r["setup_s"], "trace": r["trace"], "extra": extra,
        "diag": {"dumps": diag.get("dumps", 0), "suspects": diag.get("suspects", []),
                 "dump_dir": os.path.relpath(diag.get("dump_dir", rundir), root)},
    }


def run_phase(root, src, rundir, workload, seed, seconds, trace) -> dict:
    if workload in LIBRARY:
        return lib_phase(root, src, rundir, workload, seed, seconds, trace)
    return svc_phase(root, src, rundir, seed, seconds, trace)


# ------------------------------------------------------------ main

def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def _report(workload: str, phase: dict, label: str) -> None:
    print(f"# {workload} ({label})")
    for name, value in phase["named"].items():
        unit = "1/s" if name.endswith("_rps") else ("ms" if name.endswith("_ms") else "s")
        print(f"{name} = {_fmt(value)} {unit}")
    for name, unit, _b in END_TO_END:
        print(f"{name} = {_fmt(phase['e2e'][name])} {unit}")
    failed = len(phase["failures"])
    print(f"error_frac = {failed / max(1, phase['attempted']):.6g} "
          f"({failed} of {phase['attempted']})")
    if "diag" in phase:
        print(f"diag.dumps = {phase['diag']['dumps']}, diag.suspects = "
              f"{len(phase['diag']['suspects'])} (dump dir {phase['diag']['dump_dir']})")
    print("work: " + json.dumps(phase["work"], sort_keys=True))
    print("samples: " + json.dumps(phase["samples"], sort_keys=True))
    print("settings: " + json.dumps(phase["settings"], sort_keys=True))
    for f in phase["failures"][:20]:
        print(f"FAILED: {f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    rundir = os.path.join(root, RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    prov = provenance(root, src, args.seed)
    plain = run_phase(root, src, rundir, args.workload, args.seed, args.seconds, 0)
    _report(args.workload, plain, "untraced")
    phases = [plain]
    if args.trace:
        traced = run_phase(root, src, rundir, args.workload, args.seed, args.seconds, 1)
        _report(args.workload, traced, "traced")
        phases.append(traced)
        metrics = stats.layer_metrics(traced["trace"], traced["extra"])
        for name, _u, _b in END_TO_END:
            a, b = traced["e2e"][name], plain["e2e_as_traced"][name]
            metrics[OVERHEAD_PREFIX + name] = None if a is None or b is None else a - b
        units = {name: unit for name, unit, _b in per_layer_schema()}
    else:
        metrics = dict(plain["e2e"])
        units = {name: unit for name, unit, _b in END_TO_END}
    prov["settings"] = plain["settings"]
    prov["inputs"] = plain["inputs"]
    prov["setup_samples"] = len(plain["setup_samples"])
    print("provenance: " + json.dumps(prov, sort_keys=True))

    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(len(ph["failures"]) for ph in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
