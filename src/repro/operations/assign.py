"""``assign``: write a collection (or a scalar) into a selected subgraph of
the output — Table II row 11.

``C(i, j) ⊙= A`` assigns into the region selected by the index lists; with
a scalar source every region position receives the value (Fig. 3 line 61
fills ``bcu`` with 1.0 over ``GrB_ALL × GrB_ALL`` "to avoid sparsity
issues", and line 77 fills ``delta`` with ``-nsver``).

Semantics beyond the standard pipeline: without an accumulator the region's
previous content is *replaced* (stored C elements at region positions not
covered by the source are deleted); with one, the source merges in via ⊙.
The write-mask then applies over the whole output, as for any operation.
Index lists must not contain duplicates (the C spec leaves duplicate
behaviour undefined; we reject them).
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from .. import context
from .._sparseutil import flatten_keys, membership, unflatten_keys
from ..containers.matrix import Matrix
from ..containers.mask import build_mask_view
from ..containers.vector import Vector
from ..descriptor import ALL, Descriptor, effective
from ..info import DimensionMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import GrBType, cast_array
from .common import (
    accumulate,
    check_input,
    check_output,
    masked_write,
    validate_accum,
    validate_mask_shape,
)
from .extract import resolve_indices

__all__ = [
    "assign",
    "matrix_assign",
    "vector_assign",
    "matrix_assign_scalar",
    "vector_assign_scalar",
    "row_assign",
    "col_assign",
]


from ..containers.scalar import Scalar as _ScalarObject


def _resolve_scalar_source(value) -> tuple[Any, bool]:
    """Resolve a plain scalar or an opaque ``GrB_Scalar`` source at
    execution time: (value, present?)."""
    if isinstance(value, _ScalarObject):
        value._check_valid()
        return value._value, value._has_value
    return value, True


def _sorted_region(indices, idx: np.ndarray, what: str) -> np.ndarray:
    """The resolved index list *idx*, sorted, after rejecting duplicates
    (an API error, raised at call time).  ``GrB_ALL`` resolves to an
    ``arange``, unique and sorted by construction, so it is returned as is.
    """
    if indices is ALL:
        return idx
    ordered = np.sort(idx)
    if len(ordered) > 1 and (ordered[1:] == ordered[:-1]).any():
        raise InvalidValue(
            f"duplicate {what} indices in assign are not allowed"
        )
    return ordered


def _region_z(
    C,
    accum: BinaryOp | None,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    t_type: GrBType,
    region_keep: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Build Z for an assign.

    *region_keep*: boolean mask over C's stored entries marking those that
    survive (outside the region), or ``None`` when an accumulator is given
    (everything survives; the accumulator merges).
    """
    c_keys, c_vals = C._content()
    if accum is not None:
        return accumulate(
            c_keys, c_vals, C.type, t_keys, t_vals, t_type, accum,
            C._key_space(),
        )
    kept_keys = c_keys[region_keep]
    kept_vals = c_vals[region_keep]
    t_cast = cast_array(t_vals, t_type, C.type)
    vals_dtype = object if C.type.is_udt else C.type.np_dtype
    keys = np.concatenate([kept_keys, t_keys])
    vals = np.concatenate([kept_vals, np.asarray(t_cast, dtype=vals_dtype)])
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def _submit_assign(C, mask, accum, desc, label, inputs, make_t_and_keep, t_type):
    d = effective(desc)

    def thunk():
        t_keys, t_vals, region_keep = make_t_and_keep()
        z_keys, z_vals = _region_z(
            C, accum, t_keys, t_vals, t_type, region_keep
        )
        mask_view = build_mask_view(mask, d.mask_complement, d.mask_structure)
        masked_write(C, z_keys, z_vals, mask_view, d.replace)

    reads = tuple(x for x in inputs if x is not None) + (C,)
    if mask is not None:
        reads += (mask,)
    context.submit(thunk, reads=reads, writes=C, label=label)


# --------------------------------------------------------------------- matrix

def matrix_assign(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    A: Matrix,
    row_indices,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_assign`` (matrix): ``C(i, j)⟨Mask⟩ ⊙= A``."""
    check_output(C)
    check_input(A, "A")
    if not isinstance(C, Matrix) or not isinstance(A, Matrix):
        raise InvalidValue("matrix_assign requires Matrix output and input")
    d = effective(desc)
    ri = resolve_indices(row_indices, C.nrows, "row")
    ci = resolve_indices(col_indices, C.ncols, "column")
    ri_sorted = _sorted_region(row_indices, ri, "row")
    ci_sorted = _sorted_region(col_indices, ci, "column")
    a_shape = (A.ncols, A.nrows) if d.transpose0 else A.shape
    if a_shape != (len(ri), len(ci)):
        raise DimensionMismatch(
            f"source is {a_shape} but region is {(len(ri), len(ci))}"
        )
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, A.type)
    full_region = len(ri) == C.nrows and len(ci) == C.ncols

    def make():
        if d.transpose0:
            view = A.csc()
            a_keys = view.row_ids() * np.int64(view.ncols) + view.indices
            raw = view.values
            src_ncols = view.ncols
        else:
            a_keys, raw = A._content()
            src_ncols = A.ncols
        a_rows, a_cols = unflatten_keys(a_keys, src_ncols)
        t_keys = flatten_keys(ri[a_rows], ci[a_cols], C.ncols)
        order = np.argsort(t_keys, kind="stable")
        t_keys, t_vals = t_keys[order], raw[order]
        if accum is not None:
            return t_keys, t_vals, None
        c_keys, _ = C._content()
        if full_region:
            keep = np.zeros(len(c_keys), dtype=bool)
        else:
            rows, cols = unflatten_keys(c_keys, C.ncols)
            keep = ~(
                membership(rows, ri_sorted, C.nrows)
                & membership(cols, ci_sorted, C.ncols)
            )
        return t_keys, t_vals, keep

    _submit_assign(
        C, Mask, accum, desc, "assign", (A,), make, A.type
    )
    return C


def matrix_assign_scalar(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    value: Any,
    row_indices,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_assign`` (matrix, scalar source): every region position gets
    *value* — a dense fill of the region (Fig. 3 line 61)."""
    check_output(C)
    if not isinstance(C, Matrix):
        raise InvalidValue("matrix_assign_scalar requires a Matrix output")
    ri_sorted = _sorted_region(
        row_indices, resolve_indices(row_indices, C.nrows, "row"), "row"
    )
    ci_sorted = _sorted_region(
        col_indices, resolve_indices(col_indices, C.ncols, "column"), "column"
    )
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, C.type)
    if C.type.is_udt and not isinstance(value, _ScalarObject):
        C.type.validate_scalar(value)
    full_region = len(ri_sorted) == C.nrows and len(ci_sorted) == C.ncols

    def make():
        resolved, present = _resolve_scalar_source(value)
        # sorted row and column lists make the row-major product sorted
        t_keys = (
            ri_sorted[:, None] * np.int64(C.ncols) + ci_sorted[None, :]
        ).ravel()
        if not present:
            # empty GrB_Scalar source: assigns nothing — with no accum the
            # region's previous entries are still deleted (spec 2.0)
            t_keys = t_keys[:0]
            t_vals = np.empty(0, dtype=object if C.type.is_udt else C.type.np_dtype)
        elif C.type.is_udt:
            t_vals = np.empty(len(t_keys), dtype=object)
            t_vals[:] = resolved
        else:
            t_vals = np.full(
                len(t_keys),
                np.asarray([resolved]).astype(C.type.np_dtype)[0],
                dtype=C.type.np_dtype,
            )
        if accum is not None:
            return t_keys, t_vals, None
        c_keys, _ = C._content()
        if full_region:
            keep = np.zeros(len(c_keys), dtype=bool)
        else:
            rows, cols = unflatten_keys(c_keys, C.ncols)
            keep = ~(
                membership(rows, ri_sorted, C.nrows)
                & membership(cols, ci_sorted, C.ncols)
            )
        return t_keys, t_vals, keep

    srcs = (value,) if isinstance(value, _ScalarObject) else ()
    _submit_assign(
        C, Mask, accum, desc, "assign_scalar", srcs, make, C.type
    )
    return C


# --------------------------------------------------------------------- vector

def vector_assign(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_assign`` (vector): ``w(i)⟨mask⟩ ⊙= u``."""
    check_output(w)
    check_input(u, "u")
    if not isinstance(w, Vector) or not isinstance(u, Vector):
        raise InvalidValue("vector_assign requires Vector output and input")
    idx = resolve_indices(indices, w.size, "vector")
    idx_sorted = _sorted_region(indices, idx, "vector")
    if u.size != len(idx):
        raise DimensionMismatch(
            f"source size {u.size} but region selects {len(idx)}"
        )
    validate_mask_shape(mask, w)
    validate_accum(accum, w, u.type)
    full_region = len(idx) == w.size

    def make():
        u_keys, u_raw = u._content()
        t_keys = idx[u_keys]
        order = np.argsort(t_keys, kind="stable")
        t_keys, t_vals = t_keys[order], u_raw[order]
        if accum is not None:
            return t_keys, t_vals, None
        w_keys, _ = w._content()
        if full_region:
            keep = np.zeros(len(w_keys), dtype=bool)
        else:
            keep = ~membership(w_keys, idx_sorted, w.size)
        return t_keys, t_vals, keep

    _submit_assign(w, mask, accum, desc, "assign", (u,), make, u.type)
    return w


def vector_assign_scalar(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    value: Any,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_assign`` (vector, scalar source): dense fill of the region
    (Fig. 3 line 77 fills ``delta`` with ``-nsver``)."""
    check_output(w)
    if not isinstance(w, Vector):
        raise InvalidValue("vector_assign_scalar requires a Vector output")
    idx_sorted = _sorted_region(
        indices, resolve_indices(indices, w.size, "vector"), "vector"
    )
    validate_mask_shape(mask, w)
    validate_accum(accum, w, w.type)
    if w.type.is_udt and not isinstance(value, _ScalarObject):
        w.type.validate_scalar(value)
    full_region = len(idx_sorted) == w.size

    def make():
        resolved, present = _resolve_scalar_source(value)
        t_keys = idx_sorted
        if not present:
            t_keys = t_keys[:0]
            t_vals = np.empty(0, dtype=object if w.type.is_udt else w.type.np_dtype)
        elif w.type.is_udt:
            t_vals = np.empty(len(t_keys), dtype=object)
            t_vals[:] = resolved
        else:
            t_vals = np.full(
                len(t_keys),
                np.asarray([resolved]).astype(w.type.np_dtype)[0],
                dtype=w.type.np_dtype,
            )
        if accum is not None:
            return t_keys, t_vals, None
        w_keys, _ = w._content()
        if full_region:
            keep = np.zeros(len(w_keys), dtype=bool)
        else:
            keep = ~membership(w_keys, idx_sorted, w.size)
        return t_keys, t_vals, keep

    srcs = (value,) if isinstance(value, _ScalarObject) else ()
    _submit_assign(w, mask, accum, desc, "assign_scalar", srcs, make, w.type)
    return w


# ----------------------------------------------------------------- row / col

def row_assign(
    C: Matrix,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    row: int,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_Row_assign``: ``C(i, j)⟨mask⟩ ⊙= u`` for one row *i*.

    The mask is a vector over the row; replace/merge semantics apply within
    that row only (the rest of C is untouched).
    """
    return _line_assign(C, mask, accum, u, row, col_indices, desc, is_row=True)


def col_assign(
    C: Matrix,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    row_indices,
    col: int,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_Col_assign``: ``C(i, j)⟨mask⟩ ⊙= u`` for one column *j*."""
    return _line_assign(C, mask, accum, u, col, row_indices, desc, is_row=False)


def _line_assign(C, mask, accum, u, line: int, indices, desc, is_row: bool):
    check_output(C)
    check_input(u, "u")
    if not isinstance(C, Matrix) or not isinstance(u, Vector):
        raise InvalidValue("row/col assign requires Matrix output, Vector input")
    d = effective(desc)
    line_len = C.ncols if is_row else C.nrows
    other_len = C.nrows if is_row else C.ncols
    li = int(line)
    if not 0 <= li < other_len:
        raise InvalidValue(
            f"{'row' if is_row else 'column'} {line} out of range"
        )
    idx = resolve_indices(indices, line_len, "line")
    idx_sorted = _sorted_region(indices, idx, "line")
    if u.size != len(idx):
        raise DimensionMismatch(
            f"source size {u.size} but region selects {len(idx)}"
        )
    if mask is not None:
        check_input(mask, "mask")
        if not isinstance(mask, Vector) or mask.size != line_len:
            raise DimensionMismatch(
                "row/col assign mask must be a vector over the assigned line"
            )
    validate_accum(accum, C, u.type)

    def thunk():
        c_keys, c_vals = C._content()
        rows, cols = unflatten_keys(c_keys, C.ncols)
        on_line = rows == li if is_row else cols == li
        line_pos = cols[on_line] if is_row else rows[on_line]
        line_vals = c_vals[on_line]

        # assemble the new line content: start from the current line,
        # apply region-assign semantics along it
        u_keys, u_raw = u._content()
        t_pos = idx[u_keys]
        order = np.argsort(t_pos, kind="stable")
        t_pos, t_vals = t_pos[order], u_raw[order]
        if accum is None:
            # region entries of the line are replaced: survivors are the
            # line's stored entries outside the region, disjoint from T
            survive = ~membership(line_pos, idx_sorted, line_len)
            z_keys = np.concatenate([line_pos[survive], t_pos])
            z_vals = np.concatenate(
                [
                    line_vals[survive],
                    np.asarray(
                        cast_array(t_vals, u.type, C.type),
                        dtype=C.type.np_dtype if not C.type.is_udt else object,
                    ),
                ]
            )
            o = np.argsort(z_keys, kind="stable")
            z_pos, z_vals = z_keys[o], z_vals[o]
        else:
            z_pos, z_vals = accumulate(
                line_pos, line_vals, C.type, t_pos, t_vals, u.type, accum,
                line_len,
            )

        mask_view = build_mask_view(mask, d.mask_complement, d.mask_structure)
        if mask_view is not None:
            allowed = mask_view.allows(z_pos)
            if d.replace:
                z_pos, z_vals = z_pos[allowed], z_vals[allowed]
            else:
                outside = ~mask_view.allows(line_pos)
                z_pos = np.concatenate([line_pos[outside], z_pos[allowed]])
                z_vals = np.concatenate([line_vals[outside], z_vals[allowed]])
                o = np.argsort(z_pos, kind="stable")
                z_pos, z_vals = z_pos[o], z_vals[o]

        # splice the new line back into C
        keep_keys = c_keys[~on_line]
        keep_vals = c_vals[~on_line]
        new_keys = (
            np.int64(li) * C.ncols + z_pos
            if is_row
            else z_pos * np.int64(C.ncols) + li
        )
        keys = np.concatenate([keep_keys, new_keys])
        vals = np.concatenate([keep_vals, z_vals])
        o = np.argsort(keys, kind="stable")
        C._set_content(keys[o], vals[o])

    reads = (u, C) + ((mask,) if mask is not None else ())
    context.submit(
        thunk, reads=reads, writes=C,
        label="row_assign" if is_row else "col_assign",
    )
    return C


# ----------------------------------------------------------------- dispatch

def assign(C, Mask, accum, source, *args, **kwargs):
    """Generic ``GrB_assign`` dispatch (the C API's ``_Generic`` macro).

    * matrix source  → :func:`matrix_assign`
    * vector source into a matrix with an integer row/col → row/col assign
    * vector source into a vector → :func:`vector_assign`
    * scalar source  → the scalar variants
    """
    if isinstance(source, Matrix):
        return matrix_assign(C, Mask, accum, source, *args, **kwargs)
    if isinstance(source, Vector):
        if isinstance(C, Vector):
            return vector_assign(C, Mask, accum, source, *args, **kwargs)
        first, second = args[0], args[1]
        rest = args[2:]
        if isinstance(first, numbers.Integral):
            return row_assign(C, Mask, accum, source, first, second, *rest, **kwargs)
        if isinstance(second, numbers.Integral):
            return col_assign(C, Mask, accum, source, first, second, *rest, **kwargs)
        raise InvalidValue("vector-into-matrix assign needs a fixed row or column")
    if isinstance(C, Matrix):
        return matrix_assign_scalar(C, Mask, accum, source, *args, **kwargs)
    return vector_assign_scalar(C, Mask, accum, source, *args, **kwargs)
