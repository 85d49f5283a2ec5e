"""Element-wise operations: ``eWiseAdd`` (pattern union) and ``eWiseMult``
(pattern intersection) — Table II rows 4–5.

The names refer to the *pattern* semantics, not the operator: either can use
any binary operator.  Per the C API, ``op`` may be a semiring (whose ⊕ is
used for add, ⊗ for mult), a monoid, or a plain binary operator.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import intersect_indices, union_keys
from ..algebra.monoid import Monoid
from ..algebra.semiring import Semiring
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import Descriptor, effective
from ..info import DimensionMismatch, DomainMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import can_cast, cast_array
from .common import (
    check_input,
    check_output,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["ewise_add", "ewise_mult", "eWiseAdd", "eWiseMult"]


def _resolve_op(op, which: str) -> BinaryOp:
    """C's ``_Generic`` dispatch: semiring → its ⊕/⊗, monoid → its op."""
    if isinstance(op, Semiring):
        return op.add_op if which == "add" else op.mul
    if isinstance(op, Monoid):
        return op.op
    if isinstance(op, BinaryOp):
        return op
    raise InvalidValue(
        f"eWise op must be a BinaryOp, Monoid, or Semiring, got {op!r}"
    )


def _matrix_keys(M: Matrix, transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat keys/values of M, or of Mᵀ when the descriptor asks for it."""
    if not transposed:
        return M._content()
    view = M.csc()  # CSR of Mᵀ — already in the transpose's row-major order
    keys = view.row_ids() * np.int64(view.ncols) + view.indices
    return keys, view.values


def _check_ewise_domains(op: BinaryOp, a_type, b_type) -> None:
    if not can_cast(a_type, op.d_in1):
        raise DomainMismatch(
            f"first input domain {a_type.name} cannot feed {op.name} input "
            f"{op.d_in1.name}"
        )
    if not can_cast(b_type, op.d_in2):
        raise DomainMismatch(
            f"second input domain {b_type.name} cannot feed {op.name} input "
            f"{op.d_in2.name}"
        )


def _validate_pair(C, A, B, d) -> None:
    if isinstance(C, Matrix):
        for X, what in ((A, "A"), (B, "B")):
            if not isinstance(X, Matrix):
                raise InvalidValue(f"{what} must be a Matrix")
        a_shape = (A.ncols, A.nrows) if d.transpose0 else A.shape
        b_shape = (B.ncols, B.nrows) if d.transpose1 else B.shape
        if not (C.shape == a_shape == b_shape):
            raise DimensionMismatch(
                f"eWise shapes differ: C{C.shape}, A{a_shape}, B{b_shape}"
            )
    else:
        for X, what in ((A, "u"), (B, "v")):
            if not isinstance(X, Vector):
                raise InvalidValue(f"{what} must be a Vector")
        if not (C.size == A.size == B.size):
            raise DimensionMismatch(
                f"eWise sizes differ: w={C.size}, u={A.size}, v={B.size}"
            )


def _contents(C, A, B, d):
    if isinstance(C, Matrix):
        return (
            _matrix_keys(A, d.transpose0),
            _matrix_keys(B, d.transpose1),
        )
    return (A._content(), B._content())


def ewise_add(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    B,
    desc: Descriptor | None = None,
):
    """``GrB_eWiseAdd``: ``C⟨Mask⟩ ⊙= A ⊕ B`` over the pattern **union**.

    Entries present in only one input are copied through (cast to the op's
    output domain); entries present in both are combined with the operator.
    Fig. 3 line 42 uses this to fold the BFS frontier's path counts into
    ``numsp``.
    """
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "add")
    d = effective(desc)
    _validate_pair(C, A, B, d)
    validate_mask_shape(Mask, C)
    _check_ewise_domains(bop, A.type, B.type)
    # single-present entries are cast directly into the result domain
    for X, what in ((A, "first"), (B, "second")):
        if not can_cast(X.type, bop.d_out):
            raise DomainMismatch(
                f"{what} input domain {X.type.name} cannot be cast to result "
                f"domain {bop.d_out.name}"
            )
    validate_accum(accum, C, bop.d_out)

    def kernel(mask_view):
        (a_keys, a_raw), (b_keys, b_raw) = _contents(C, A, B, d)

        def combine(av, bv):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                cast_array(bv, B.type, bop.d_in2),
            )

        return union_keys(
            a_keys,
            a_raw,
            b_keys,
            b_raw,
            bop.d_out.np_dtype,
            combine,
            cast_a=lambda x: cast_array(x, A.type, bop.d_out),
            cast_b=lambda x: cast_array(x, B.type, bop.d_out),
            universe=C._key_space(),
        )

    submit_standard_op(
        C, Mask, accum, desc,
        label="eWiseAdd", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
        op_token=bop,
    )
    return C


def ewise_mult(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    B,
    desc: Descriptor | None = None,
):
    """``GrB_eWiseMult``: ``C⟨Mask⟩ ⊙= A ⊗ B`` over the pattern
    **intersection** — the set-notation form of section II, with ⊗ applied
    only where both inputs have stored elements."""
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "mult")
    d = effective(desc)
    _validate_pair(C, A, B, d)
    validate_mask_shape(Mask, C)
    _check_ewise_domains(bop, A.type, B.type)
    validate_accum(accum, C, bop.d_out)

    def kernel(mask_view):
        (a_keys, a_raw), (b_keys, b_raw) = _contents(C, A, B, d)
        ia, ib = intersect_indices(a_keys, b_keys, C._key_space())
        keys = a_keys[ia]
        vals = bop.apply_arrays(
            cast_array(a_raw[ia], A.type, bop.d_in1),
            cast_array(b_raw[ib], B.type, bop.d_in2),
        )
        if not bop.d_out.is_udt and vals.dtype != bop.d_out.np_dtype:
            vals = vals.astype(bop.d_out.np_dtype)
        return keys, vals

    submit_standard_op(
        C, Mask, accum, desc,
        label="eWiseMult", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
        op_token=bop,
    )
    return C


def ewise_union(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    alpha,
    B,
    beta,
    desc: Descriptor | None = None,
):
    """``GxB_eWiseUnion``: pattern union where the operator is applied
    *everywhere* — an entry present in only one input pairs with the
    other side's fill scalar: ``op(a, beta)`` or ``op(alpha, b)``.

    This fills the semantic gap between eWiseAdd (single-present values
    copied through) and dense subtraction-like operators: ``eWiseUnion``
    with MINUS and fills 0 behaves like dense ``A - B`` on the union.
    """
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "add")
    d = effective(desc)
    _validate_pair(C, A, B, d)
    validate_mask_shape(Mask, C)
    _check_ewise_domains(bop, A.type, B.type)
    validate_accum(accum, C, bop.d_out)
    if bop.d_in1.is_udt:
        bop.d_in1.validate_scalar(alpha)
    if bop.d_in2.is_udt:
        bop.d_in2.validate_scalar(beta)

    def kernel(mask_view):
        (a_keys, a_raw), (b_keys, b_raw) = _contents(C, A, B, d)
        alpha_arr = (
            np.full(1, alpha, dtype=object)
            if bop.d_in1.is_udt
            else np.asarray([alpha]).astype(bop.d_in1.np_dtype)
        )
        beta_arr = (
            np.full(1, beta, dtype=object)
            if bop.d_in2.is_udt
            else np.asarray([beta]).astype(bop.d_in2.np_dtype)
        )

        def combine(av, bv):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                cast_array(bv, B.type, bop.d_in2),
            )

        def only_a(av):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                np.broadcast_to(beta_arr, (len(av),)).copy()
                if len(av)
                else beta_arr[:0],
            )

        def only_b(bv):
            return bop.apply_arrays(
                np.broadcast_to(alpha_arr, (len(bv),)).copy()
                if len(bv)
                else alpha_arr[:0],
                cast_array(bv, B.type, bop.d_in2),
            )

        return union_keys(
            a_keys,
            a_raw,
            b_keys,
            b_raw,
            bop.d_out.np_dtype,
            combine,
            cast_a=only_a,
            cast_b=only_b,
            universe=C._key_space(),
        )

    submit_standard_op(
        C, Mask, accum, desc,
        label="eWiseUnion", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
    )
    return C


# C-API-style aliases
eWiseAdd = ewise_add
eWiseMult = ewise_mult
