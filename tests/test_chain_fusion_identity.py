"""Bit-identity of fused chains against the unfused blocking path.

Twenty seeded pipelines — float dtypes, masks (plain/complement/structural),
accumulators, REPLACE, in-place links, chains longer than pairs, masked+
REPLACE middle links, mask/accum/REPLACE tails, and binop-shim reducers —
each run once in blocking mode (every op stores its result) and once
nonblocking, where the planner streams each chain through
:func:`repro.kernels.interpreter.interpret_chain`.  Every stored key,
every value, and every dtype must match *exactly*: fusion is an execution
strategy, never a semantic (paper section III-B).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context, planner


def _mat(r, dom, n, density=0.35):
    nnz = int(density * n * n)
    keys = r.choice(n * n, size=nnz, replace=False)
    rows, cols = np.divmod(keys, n)
    if dom.is_bool:
        vals = r.integers(0, 2, nnz).astype(bool)
    else:
        vals = r.uniform(-2.0, 2.0, nnz)
    return grb.Matrix.from_coo(dom, n, n, rows, cols, vals)


def _vec(r, dom, n, density=0.5):
    nnz = max(1, int(density * n))
    idx = r.choice(n, size=nnz, replace=False)
    vals = r.uniform(-2.0, 2.0, nnz)
    return grb.Vector.from_coo(dom, n, idx, vals)


def _pipeline(seed: int, nonblocking: bool, fusion: bool = True):
    """One seeded pipeline; returns (snapshots, fused-contraction count).

    *fusion* sets the planner's fusion pass; the other passes stay on.
    """
    context._reset()
    planner.configure(fusion=fusion)
    if nonblocking:
        grb.init(grb.Mode.NONBLOCKING)
    r = np.random.default_rng(1000 + seed)
    dom = grb.FP64 if seed % 2 else grb.FP32
    sfx = "FP64" if seed % 2 else "FP32"
    n = 16 + seed % 5

    A, B = _mat(r, dom, n), _mat(r, dom, n)
    M = _mat(r, grb.BOOL, n, 0.5)
    u = _vec(r, dom, n)
    C = grb.Matrix(dom, n, n)
    E = grb.Matrix(dom, n, n)
    w = grb.Vector(dom, n)
    v = grb.Vector(dom, n)

    sr = grb.PLUS_TIMES[dom]
    ainv, absop, minv = grb.AINV[dom], grb.ABS[dom], grb.MINV[dom]
    gt = grb.index_unary_op(f"GrB_VALUEGT_{sfx}")
    plus = grb.PLUS[dom]
    replace = grb.Descriptor().set(grb.OUTP, grb.REPLACE)
    replace_scmp = (
        grb.Descriptor().set(grb.OUTP, grb.REPLACE).set(grb.MASK, grb.SCMP)
    )

    # head producer (masked for some seeds) ...
    if seed % 3 == 0:
        grb.mxm(C, M, None, sr, A, B, replace)
    else:
        grb.mxm(C, None, None, sr, A, B)
    # ... streamed through in-place links: chains longer than pairs.  A
    # masked+replace link is overwrite-shaped, so it extends the chain too.
    if seed % 4 == 2:
        grb.apply(C, M, None, ainv, C, replace_scmp)
    else:
        grb.apply(C, None, None, ainv, C)
    grb.apply(C, None, None, absop, C)
    if seed % 2 == 0:
        grb.select(C, None, None, gt, C, 0.25)

    # tails with the full write-pipeline surface: mask, accum, REPLACE
    if seed % 5 == 0:
        grb.apply(E, M, plus, minv, C)
    elif seed % 5 == 1:
        grb.apply(E, M, None, minv, C, replace)
    else:
        grb.apply(E, None, None, minv, C)
    monoid = grb.PLUS_MONOID[dom] if seed % 3 else plus  # binop-shim too
    grb.reduce(w, None, plus if seed % 3 == 1 else None, monoid, E)
    # E is overwritten after the reduce, so apply(E)→reduce(w) may chain
    grb.ewise_add(E, None, None, plus, A, B)

    # a vector chain: mxv → in-place apply → in-place select
    grb.mxv(v, None, None, sr, A, u)
    grb.apply(v, None, None, ainv, v)
    if seed % 2:
        grb.select(v, None, None, gt, v, -0.5)
    grb.wait()

    fused = context._current().queue.stats.fused
    snaps = [obj.extract_tuples() for obj in (C, E, w, v)]
    return snaps, fused


@pytest.mark.parametrize("seed", range(20))
def test_chain_fusion_bit_identity(seed):
    want, fused_b = _pipeline(seed, nonblocking=False)
    got, fused_nb = _pipeline(seed, nonblocking=True)
    assert fused_b == 0
    assert fused_nb > 0, "pipeline no longer exercises fusion"
    for w_tup, g_tup in zip(want, got):
        for w_arr, g_arr in zip(w_tup, g_tup):
            assert np.array_equal(w_arr, g_arr, equal_nan=True)
            assert w_arr.dtype == g_arr.dtype
