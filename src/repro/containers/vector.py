"""GraphBLAS vectors (paper section III-A).

``v = <D, N, {(i, v_i)}>``: a domain, a size, and a set of index/value
tuples.  Indices not present in the content are *undefined* — not zero;
that distinction (no implied zeros stored) is what lets the semiring change
between operations without reinterpreting the stored data (section II).

Storage: a sorted, duplicate-free ``int64`` index array plus a parallel
value array in the domain's storage dtype.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .. import context
from .._sparseutil import membership
from ..info import (
    DimensionMismatch,
    IndexOutOfBounds,
    InvalidValue,
    NoValue,
    NullPointer,
    OutputNotEmpty,
)
from ..ops.base import BinaryOp
from ..types import GrBType, cast_scalar
from .base import OpaqueObject
from .formats import assemble, check_indices

__all__ = ["Vector", "vector_new"]


class Vector(OpaqueObject):
    """An opaque GraphBLAS vector."""

    __slots__ = ("_type", "_size", "_keys", "_values")

    def __init__(self, domain: GrBType, size: int, *, name: str = ""):
        super().__init__(name)
        if domain is None:
            raise NullPointer("vector domain is GrB_NULL")
        if not isinstance(domain, GrBType):
            raise InvalidValue(f"{domain!r} is not a GraphBLAS type")
        if size <= 0:
            raise InvalidValue("vector size must be positive (paper: N > 0)")
        self._type = domain
        self._size = int(size)
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=domain.np_dtype)

    # ------------------------------------------------------------ metadata
    @property
    def type(self) -> GrBType:
        """The vector's domain D."""
        self._check_valid()
        return self._type

    @property
    def size(self) -> int:
        """``GrB_Vector_size``: the paper's nelem(v) = N."""
        self._check_valid()
        return self._size

    def nvals(self) -> int:
        """``GrB_Vector_nvals``: number of stored tuples |L(v)|.

        Forces completion of this object (it exports a non-opaque value).
        """
        self._check_valid()
        context.complete(self)
        return len(self._keys)

    # ------------------------------------------------------------- content
    def _content(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw storage (kernel use at execution time; no completion)."""
        return self._keys, self._values

    def _key_space(self) -> int:
        """Size of the universe the stored keys live in (the lookup layer's
        *universe*)."""
        return self._size

    def _set_content(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Install canonical content (sorted unique keys, storage dtype)."""
        self._keys = keys
        self._values = values
        self._poisoned = False

    def build(
        self,
        indices,
        values,
        dup: BinaryOp | None = None,
    ) -> "Vector":
        """``GrB_Vector_build``: copy tuples into an empty vector.

        Duplicates are combined with *dup*; without one they are an error.
        The target must hold no stored elements (``OUTPUT_NOT_EMPTY``).
        """
        self._check_valid()
        idx = check_indices(indices, self._size, "vector")
        vals = self._coerce_values(values, len(idx))
        if self.nvals() != 0:
            raise OutputNotEmpty("build target vector already has elements")

        def thunk():
            k, v = assemble(idx, vals, dup, self._type.np_dtype)
            self._set_content(k, v)

        context.submit(
            thunk, reads=(), writes=self, label="Vector_build", deferrable=False
        )
        return self

    def _coerce_values(self, values, n: int) -> np.ndarray:
        if self._type.is_udt:
            vals = np.empty(n, dtype=object)
            seq = list(values)
            if len(seq) != n:
                raise DimensionMismatch("index and value arrays differ in length")
            for k, v in enumerate(seq):
                vals[k] = self._type.validate_scalar(v)
            return vals
        vals = np.asarray(values)
        if vals.ndim == 0:
            vals = np.broadcast_to(vals, (n,))
        if len(vals) != n:
            raise DimensionMismatch("index and value arrays differ in length")
        return vals.astype(self._type.np_dtype, copy=True)

    def set_element(self, index: int, value: Any) -> "Vector":
        """``GrB_Vector_setElement``: v(i) = value (insert or overwrite)."""
        self._check_valid()
        i = self._check_index(index)
        val = self._type.validate_scalar(value) if self._type.is_udt else None

        def thunk():
            v = (
                val
                if self._type.is_udt
                else np.asarray([value]).astype(self._type.np_dtype)[0]
            )
            pos = int(np.searchsorted(self._keys, i))
            if pos < len(self._keys) and self._keys[pos] == i:
                self._values[pos] = v
            else:
                self._keys = np.insert(self._keys, pos, i)
                self._values = np.insert(self._values, pos, v)

        context.submit(
            thunk, reads=(self,), writes=self, label="Vector_setElement",
            deferrable=False,
        )
        return self

    def extract_element(self, index: int) -> Any:
        """``GrB_Vector_extractElement``: return v(i).

        Raises :class:`~repro.info.NoValue` when no element is stored at *i*
        (the C API's ``GrB_NO_VALUE`` informational code).
        """
        self._check_valid()
        i = self._check_index(index)
        context.complete(self)
        pos = int(np.searchsorted(self._keys, i))
        if pos < len(self._keys) and self._keys[pos] == i:
            return self._values[pos]
        raise NoValue(f"no element stored at index {index}")

    def remove_element(self, index: int) -> "Vector":
        """``GrB_Vector_removeElement``: delete v(i) if present."""
        self._check_valid()
        i = self._check_index(index)

        def thunk():
            pos = int(np.searchsorted(self._keys, i))
            if pos < len(self._keys) and self._keys[pos] == i:
                self._keys = np.delete(self._keys, pos)
                self._values = np.delete(self._values, pos)

        context.submit(
            thunk, reads=(self,), writes=self, label="Vector_removeElement",
            deferrable=False,
        )
        return self

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """``GrB_Vector_extractTuples``: copy content to non-opaque arrays.

        Forces completion (section IV: methods that output non-opaque
        objects may not defer).
        """
        self._check_valid()
        context.complete(self)
        return self._keys.copy(), self._values.copy()

    def clear(self) -> "Vector":
        """``GrB_Vector_clear``: remove all stored elements (size unchanged)."""
        self._check_valid()

        def thunk():
            self._set_content(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=self._type.np_dtype),
            )

        context.submit(
            thunk, reads=(), writes=self, label="Vector_clear",
            overwrites_output=True,
        )
        return self

    def dup(self) -> "Vector":
        """``GrB_Vector_dup``: an independent copy with the same content."""
        self._check_valid()
        context.complete(self)
        out = Vector(self._type, self._size, name=f"dup({self.name})")
        out._set_content(self._keys.copy(), self._values.copy())
        return out

    # ------------------------------------------------------- conveniences
    def _check_index(self, index: int) -> int:
        i = int(index)
        if not 0 <= i < self._size:
            raise IndexOutOfBounds(
                f"index {index} out of range for vector of size {self._size}"
            )
        return i

    def __contains__(self, index: int) -> bool:
        self._check_valid()
        context.complete(self)
        return bool(membership(np.asarray([int(index)]), self._keys)[0])

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        self._check_valid()
        context.complete(self)
        keys, vals = self._keys, self._values
        return iter((int(k), v) for k, v in zip(keys, vals))

    def to_dense(self, fill: Any) -> np.ndarray:
        """Export to a dense numpy array, writing *fill* at undefined indices.

        The fill value is mandatory: per the paper, missing elements are
        *undefined*, so the caller must pick the implied value that matches
        the semiring in use.
        """
        self._check_valid()
        context.complete(self)
        out = np.full(
            self._size,
            fill,
            dtype=self._type.np_dtype if not self._type.is_udt else object,
        )
        out[self._keys] = self._values
        return out

    @classmethod
    def from_coo(
        cls,
        domain: GrBType,
        size: int,
        indices,
        values,
        dup: BinaryOp | None = None,
        *,
        name: str = "",
    ) -> "Vector":
        """Construct-and-build in one step (convenience, not in the C API)."""
        v = cls(domain, size, name=name)
        v.build(indices, values, dup)
        return v

    @classmethod
    def from_dense(
        cls, domain: GrBType, array, implied_zero: Any = 0, *, name: str = ""
    ) -> "Vector":
        """Build from a dense array, storing only entries != *implied_zero*."""
        arr = np.asarray(array)
        keep = np.nonzero(arr != implied_zero)[0]
        return cls.from_coo(domain, len(arr), keep, arr[keep], name=name)

    # --------------------------------------------------- spec 1.3/2.0 extras
    def resize(self, size: int) -> "Vector":
        """``GrB_Vector_resize``: change the size in place.

        Shrinking discards stored elements past the new bound.
        """
        self._check_valid()
        if size <= 0:
            raise InvalidValue("vector size must be positive")
        context.complete(self)
        keep = self._keys < size
        self._size = int(size)
        self._set_content(self._keys[keep], self._values[keep])
        return self

    @classmethod
    def from_diag(cls, A, k: int = 0, *, name: str = "") -> "Vector":
        """``GxB_Vector_diag``: extract diagonal *k* of a matrix."""
        from .matrix import Matrix

        if not isinstance(A, Matrix):
            raise InvalidValue("from_diag requires a Matrix")
        A._check_valid()
        context.complete(A)
        from .._sparseutil import unflatten_keys

        keys, vals = A._content()
        rows, cols = unflatten_keys(keys, A.ncols)
        on_diag = cols == rows + k
        if k >= 0:
            size = min(A.nrows, A.ncols - k)
            idx = rows[on_diag]
        else:
            size = min(A.nrows + k, A.ncols)
            idx = cols[on_diag]
        if size <= 0:
            raise InvalidValue(f"diagonal {k} is outside the matrix")
        out = cls(A.type, size, name=name)
        out._set_content(idx.astype(np.int64), vals[on_diag].copy())
        return out

    def export_sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """Export: (indices, values) copies of the stored content."""
        return self.extract_tuples()

    @classmethod
    def import_sparse(
        cls, domain: GrBType, size: int, indices, values, *, name: str = ""
    ) -> "Vector":
        """Adopt raw sorted-unique index/value arrays after validation."""
        out = cls(domain, size, name=name)
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() >= size):
            raise IndexOutOfBounds("vector index out of range")
        if np.any(np.diff(idx) <= 0):
            raise InvalidValue("indices must be sorted and unique")
        vals = out._coerce_values(values, len(idx))
        out._set_content(idx, vals)
        return out

    def __repr__(self) -> str:
        state = "freed" if self._freed else ("invalid" if self._poisoned else "ok")
        return (
            f"Vector<{self._type.name}, size={self._size}, "
            f"nvals={len(self._keys)}, {state}>"
        )


def vector_new(domain: GrBType, size: int, *, name: str = "") -> Vector:
    """``GrB_Vector_new`` (Table VI): create an empty vector."""
    return Vector(domain, size, name=name)
