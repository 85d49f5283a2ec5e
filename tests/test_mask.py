"""Mask semantics in isolation (paper section III-C)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro as grb
from repro import _sparseutil
from repro.containers.mask import MaskView, build_mask_view


class TestMaskView:
    def test_value_mask_keeps_true_only(self):
        m = grb.Vector.from_coo(grb.INT32, 6, [0, 2, 4], [0, 5, -1])
        view = build_mask_view(m, complemented=False, structural=False)
        # stored-and-true: index 0 stores 0 (false)
        assert view.pattern.tolist() == [2, 4]

    def test_structural_mask_keeps_all_stored(self):
        m = grb.Vector.from_coo(grb.INT32, 6, [0, 2, 4], [0, 5, -1])
        view = build_mask_view(m, complemented=False, structural=True)
        assert view.pattern.tolist() == [0, 2, 4]

    def test_complement_is_lazy(self):
        m = grb.Vector.from_coo(grb.BOOL, 10**6, [3], [True])
        view = build_mask_view(m, complemented=True, structural=False)
        # the million-element complement is never materialized
        assert len(view.pattern) == 1
        keys = np.array([2, 3, 4], dtype=np.int64)
        assert view.allows(keys).tolist() == [True, False, True]

    def test_complement_definition(self):
        # L(¬m) = {i : 0 <= i < N, i not in L(m)} — section III-C
        m = grb.Vector.from_coo(grb.BOOL, 5, [1, 3], [True, True])
        view = build_mask_view(m, complemented=True, structural=False)
        all_keys = np.arange(5, dtype=np.int64)
        assert all_keys[view.allows(all_keys)].tolist() == [0, 2, 4]

    def test_count_allowed(self):
        view = MaskView(np.array([1, 2, 3], dtype=np.int64), complemented=False)
        assert view.count_allowed_in(10) == 3
        cview = MaskView(np.array([1, 2, 3], dtype=np.int64), complemented=True)
        assert cview.count_allowed_in(10) == 7

    def test_no_mask_is_none(self):
        assert build_mask_view(None, False, False) is None

    def test_view_carries_the_mask_universe(self):
        v = grb.Vector.from_coo(grb.BOOL, 7, [1], [True])
        m = grb.Matrix.from_coo(grb.BOOL, 3, 5, [1], [4], [True])
        assert build_mask_view(v, False, False).universe == 7
        assert build_mask_view(m, True, True).universe == 15
        assert MaskView(np.array([1], dtype=np.int64), False).universe is None

    @given(
        data=st.data(),
        shape=st.sampled_from([(1, 1), (1, 40), (6, 7), (33, 3)]),
        complemented=st.booleans(),
        structural=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_allows_agrees_with_and_without_universe(
        self, data, shape, complemented, structural
    ):
        nrows, ncols = shape
        n = nrows * ncols
        cells = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        # values mix true and false so value and structural masks differ
        vals = data.draw(st.lists(st.integers(0, 2), min_size=len(cells),
                                  max_size=len(cells)))
        rows, cols = np.divmod(np.array(cells, dtype=np.int64), ncols)
        if nrows == 1:
            mask = grb.Vector.from_coo(grb.INT32, n, cols, vals)
        else:
            mask = grb.Matrix.from_coo(grb.INT32, nrows, ncols, rows, cols, vals)
        keys = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=50)),
            dtype=np.int64,
        )
        view = build_mask_view(mask, complemented, structural)
        assert view.universe == n
        unknown = MaskView(view.pattern, complemented, None)
        with mock.patch.object(_sparseutil, "DENSE_RATIO", 2**62):
            dense = view.allows(keys)  # the bitmap, whatever the sizes
        want = [
            (int(k) in set(view.pattern.tolist())) != complemented for k in keys
        ]
        assert dense.tolist() == unknown.allows(keys).tolist() == want


class TestMaskThroughOperations:
    def test_double_complement_is_identity(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 6, 6, 0.5)
        M = random_matrix(rng, 6, 6, 0.4, domain=grb.BOOL)
        s = grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64")
        # complement applied by flipping which side we write: mask + SCMP
        # twice partitions exactly (already covered), here: SCMP of SCMP
        # via apply on an empty intermediate equals plain mask
        C1 = grb.Matrix(grb.INT64, 6, 6)
        grb.mxm(C1, M, None, s, A, A, grb.DESC_R)
        # build explicit complement pattern as a BOOL matrix, complement it
        rows, cols, vals = M.extract_tuples()
        truthy = vals.astype(bool)
        comp_pat = {
            (i, j)
            for i in range(6)
            for j in range(6)
            if (i, j) not in set(zip(rows[truthy].tolist(), cols[truthy].tolist()))
        }
        Mc = grb.Matrix(grb.BOOL, 6, 6)
        if comp_pat:
            ri, ci = zip(*comp_pat)
            Mc.build(ri, ci, [True] * len(comp_pat))
        C2 = grb.Matrix(grb.INT64, 6, 6)
        grb.mxm(C2, Mc, None, s, A, A, grb.DESC_RSC)  # ¬(¬M) == M
        assert {(i, j): int(v) for i, j, v in C1} == {
            (i, j): int(v) for i, j, v in C2
        }

    def test_empty_mask_blocks_everything(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 4, 4, 0.6)
        M = grb.Matrix(grb.BOOL, 4, 4)  # no stored elements
        C = grb.Matrix.from_coo(grb.INT64, 4, 4, [0], [0], [9])
        grb.mxm(C, M, None, grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64"), A, A)
        # merge mode: nothing written, old C intact
        assert {(i, j): int(v) for i, j, v in C} == {(0, 0): 9}

    def test_empty_mask_complement_allows_everything(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 4, 4, 0.6)
        M = grb.Matrix(grb.BOOL, 4, 4)
        C1 = grb.Matrix(grb.INT64, 4, 4)
        C2 = grb.Matrix(grb.INT64, 4, 4)
        s = grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64")
        grb.mxm(C1, M, None, s, A, A, grb.DESC_RSC)
        grb.mxm(C2, None, None, s, A, A)
        assert {(i, j): int(v) for i, j, v in C1} == {
            (i, j): int(v) for i, j, v in C2
        }

    def test_fig3_mask_prunes_discovered(self):
        # the BC forward sweep's central trick: numsp as complemented mask
        # prunes already-discovered vertices from the next frontier
        A = grb.Matrix.from_coo(
            grb.INT32, 3, 3, [0, 1, 1], [1, 0, 2], [1, 1, 1]
        )
        numsp = grb.Matrix.from_coo(grb.INT32, 3, 1, [0, 1], [0, 0], [1, 1])
        frontier = grb.Matrix.from_coo(grb.INT32, 3, 1, [1], [0], [1])
        grb.mxm(
            frontier, numsp, None,
            grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT32"),
            A, frontier, grb.DESC_TSR,
        )
        # Aᵀ f reaches {0, 2}, but 0 is already in numsp: only 2 survives
        assert {(i, j) for i, j, _ in frontier} == {(2, 0)}
