"""Block-restricted kernel variants for the sharded (process) backend.

Each function computes one block of the internal result T over a window of
the (already shared-memory-attached) CSR, producing *absolute* flat keys —
so stripe partials concatenate, in stripe order, into exactly the sorted
key stream the serial kernel emits.  That is the whole bit-identity
argument, and it is the same one the thread pool relies on in
:func:`repro.operations._kernels._spgemm_impl`:

* **stripes** (row windows): a window slice of a row-major CSR is the same
  elements in the same order the full kernel would visit, so every per-row
  fold is the identical ``segment_reduce`` call.  Holds for *all* domains,
  floats included.
* **tiles** (row window × inner-dimension split, SpGEMM only): within one
  output cell, a k-split cuts the serial product sequence into contiguous
  sub-runs (CSR column indices are sorted, so products arrive k-ascending);
  folding the per-tile partials in k order with the additive monoid equals
  the serial fold whenever the add is exactly associative — hence tiles are
  gated to bool/integer add-domains and floats stay on stripes.

Workers always run these *unmasked*: mask push-down only ever drops whole
output cells (every product of a forbidden destination, never a subset of
an allowed one), so the parent re-applying the mask in
``run_write_pipeline`` yields the byte-identical survivor set.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import group_starts, ranges_concat, segment_reduce
from ..algebra.semiring import Semiring
from ..containers.formats import CSRView
from ._kernels import _empty, _spmv_rows

__all__ = [
    "spgemm_stripe",
    "spgemm_tile",
    "spmv_stripe",
    "reduce_rows_stripe",
]


def spgemm_stripe(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand–sort–reduce over A's rows [lo, hi); returns (keys, vals, flops)."""
    from ._kernels import _spgemm_block

    acc: list = []
    keys, vals = _spgemm_block(
        a_view, a_vals, b_view, b_vals, semiring, slice(lo, hi), None, acc
    )
    return keys, vals, int(sum(acc))


def spgemm_tile(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    lo: int,
    hi: int,
    klo: int,
    khi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One 2D tile: rows [lo, hi) of A restricted to inner dim [klo, khi).

    Keys are absolute; partials for the same output cell across k-tiles are
    merged by :func:`repro.shard.merge.merge_tiles` with the additive
    monoid, in k order.
    """
    out_dtype = semiring.d_out.np_dtype
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi:
        return (*_empty(out_dtype), 0)

    cols_w = a_view.indices[a_lo:a_hi]
    sel = (cols_w >= klo) & (cols_w < khi)
    if not sel.any():
        return (*_empty(out_dtype), 0)
    a_cols = cols_w[sel]
    a_rows = np.repeat(
        np.arange(lo, hi, dtype=np.int64),
        np.diff(a_view.indptr[lo : hi + 1]),
    )[sel]
    a_v = a_vals[a_lo:a_hi][sel]

    counts = np.diff(b_view.indptr)[a_cols]
    total = int(counts.sum())
    if total == 0:
        return (*_empty(out_dtype), 0)
    gather = ranges_concat(b_view.indptr[a_cols], counts)
    out_rows = np.repeat(a_rows, counts)
    out_cols = b_view.indices[gather]
    left = np.repeat(a_v, counts)
    right = b_vals[gather]

    keys = out_rows * np.int64(b_view.ncols) + out_cols
    prods = semiring.mul.apply_arrays(left, right)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    prods = prods[order]
    uniq, starts = group_starts(keys)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals, total


def spmv_stripe(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Push-direction SpMV over rows [lo, hi); keys are absolute row ids.

    This is :func:`repro.operations._kernels._spmv_impl`'s push path
    restricted to a row window — a row-major slice handed to the same
    :func:`~repro.operations._kernels._spmv_rows` gather and fold, so
    per-row intersection and fold order are the full kernel's.
    """
    out_dtype = semiring.d_out.np_dtype
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi or len(v_keys) == 0:
        return (*_empty(out_dtype), 0)
    rows = np.repeat(
        np.arange(lo, hi, dtype=np.int64),
        np.diff(a_view.indptr[lo : hi + 1]),
    )
    acc: list = []
    uniq, vals = _spmv_rows(
        rows, a_view.indices[a_lo:a_hi], a_vals[a_lo:a_hi], v_keys, v_vals,
        a_view.ncols, semiring, swap, acc,
    )
    return uniq, vals, int(sum(acc))


def reduce_rows_stripe(
    a_view: CSRView, a_vals: np.ndarray, monoid, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row reduction over rows [lo, hi); keys are absolute row ids."""
    dtype = monoid.domain.np_dtype
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi:
        return (*_empty(dtype), 0)
    rows = np.repeat(
        np.arange(lo, hi, dtype=np.int64),
        np.diff(a_view.indptr[lo : hi + 1]),
    )
    uniq, starts = group_starts(rows)
    vals = segment_reduce(a_vals[a_lo:a_hi], starts, monoid)
    if not monoid.domain.is_udt and vals.dtype != dtype:
        vals = vals.astype(dtype)
    return uniq, vals, a_hi - a_lo
