"""Unit tests for the sorted-index-set primitives every kernel builds on."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro as grb
from repro import _sparseutil as su
from repro.algebra import predefined

SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

sorted_unique = st.lists(
    st.integers(0, 60), max_size=30, unique=True
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestFlatKeys:
    def test_round_trip(self):
        rows = np.array([0, 1, 2], dtype=np.int64)
        cols = np.array([5, 0, 3], dtype=np.int64)
        keys = su.flatten_keys(rows, cols, 7)
        r, c = su.unflatten_keys(keys, 7)
        assert r.tolist() == rows.tolist()
        assert c.tolist() == cols.tolist()

    def test_row_major_ordering(self):
        # flattening preserves (row, col) lexicographic order
        keys = su.flatten_keys(
            np.array([0, 0, 1]), np.array([0, 6, 0]), 7
        )
        assert (np.diff(keys) > 0).all()

    def test_capacity_guard(self):
        with pytest.raises(grb.info.InsufficientSpace):
            su.check_flat_capacity(2**31, 2**31)
        su.check_flat_capacity(2**30, 2**30)  # fine


class TestMembership:
    @given(a=sorted_unique, b=sorted_unique)
    @settings(**SETTINGS)
    def test_membership_matches_python_sets(self, a, b):
        got = su.membership(a, b)
        want = [int(x) in set(b.tolist()) for x in a]
        assert got.tolist() == want

    @given(a=sorted_unique, b=sorted_unique)
    @settings(**SETTINGS)
    def test_intersect_indices(self, a, b):
        ia, ib = su.intersect_indices(a, b)
        assert a[ia].tolist() == b[ib].tolist()
        assert set(a[ia].tolist()) == set(a.tolist()) & set(b.tolist())

    @given(a=sorted_unique, b=sorted_unique)
    @settings(**SETTINGS)
    def test_setdiff_mask(self, a, b):
        keep = su.setdiff_mask(a, b)
        assert set(a[keep].tolist()) == set(a.tolist()) - set(b.tolist())

    def test_empty_edge_cases(self):
        e = np.empty(0, dtype=np.int64)
        x = np.array([1, 2], dtype=np.int64)
        assert su.membership(x, e).tolist() == [False, False]
        assert su.membership(e, x).tolist() == []
        ia, ib = su.intersect_indices(e, x)
        assert len(ia) == 0 and len(ib) == 0


@st.composite
def lookup_case(draw):
    """(keys, table, universe): a sorted-unique table and arbitrary keys
    (unsorted, repeated) in ``[0, universe)``, with the edges drawn often:
    empty keys or table, a full table, key 0 and key ``universe - 1``."""
    universe = draw(st.integers(1, 300))
    members = st.integers(0, universe - 1)
    if draw(st.booleans()) and universe <= 64:
        table = list(range(universe))  # full table
    else:
        table = draw(st.lists(members, max_size=40, unique=True))
    keys = draw(st.lists(members, max_size=60))
    keys += draw(st.sampled_from([[], [0], [universe - 1], [0, universe - 1]]))
    keys = draw(st.permutations(keys))
    return (
        np.array(keys, dtype=np.int64),
        np.array(sorted(table), dtype=np.int64),
        universe,
    )


def _both_strategies(fn, keys, table, universe):
    """*fn* under the dense map (forced for any operand size) and under
    ``searchsorted`` (the unknown-universe path)."""
    with mock.patch.object(su, "DENSE_RATIO", 2**62):
        dense = fn(keys, table, universe)
    return dense, fn(keys, table, None)


class TestLookup:
    @given(case=lookup_case())
    @settings(**SETTINGS)
    def test_lookup_strategies_identical(self, case):
        keys, table, universe = case
        dense, searched = _both_strategies(su.lookup, keys, table, universe)
        pos_of = {int(k): i for i, k in enumerate(table)}
        want = [pos_of.get(int(k), -1) for k in keys]
        for got in (dense, searched):
            assert got.dtype == np.int64
            assert got.tolist() == want

    @given(case=lookup_case())
    @settings(**SETTINGS)
    def test_membership_strategies_identical(self, case):
        keys, table, universe = case
        dense, searched = _both_strategies(su.membership, keys, table, universe)
        assert dense.dtype == searched.dtype == np.bool_
        assert dense.tolist() == searched.tolist() == np.isin(keys, table).tolist()

    @given(case=lookup_case())
    @settings(**SETTINGS)
    def test_intersect_strategies_identical(self, case):
        keys, table, universe = case
        keys = np.unique(keys)  # both sides of an intersection are sets
        dense, searched = _both_strategies(
            su.intersect_indices, keys, table, universe
        )
        for ia, ib in (dense, searched):
            assert ia.dtype == ib.dtype == np.int64
            assert keys[ia].tolist() == table[ib].tolist()
        assert dense[0].tolist() == searched[0].tolist()
        assert dense[1].tolist() == searched[1].tolist()

    def test_edges(self):
        e = np.empty(0, dtype=np.int64)
        full = np.arange(8, dtype=np.int64)
        ends = np.array([7, 0, 7], dtype=np.int64)
        for universe in (8, None):
            assert su.lookup(e, full, universe).tolist() == []
            assert su.lookup(ends, e, universe).tolist() == [-1, -1, -1]
            assert su.lookup(ends, full, universe).tolist() == [7, 0, 7]
            assert su.membership(ends, e, universe).tolist() == [False] * 3
            ia, ib = su.intersect_indices(full, ends[:2][::-1], universe)
            assert ia.tolist() == [0, 7] and ib.tolist() == [0, 1]

    def test_huge_universe_never_builds_a_map(self):
        # a dense map over 2**40 slots would need terabytes; the density
        # rule keeps tiny operands on searchsorted, so this returns at once
        universe = 2**40
        table = np.array([3, universe - 1], dtype=np.int64)
        keys = np.array([universe - 1, 0, 3], dtype=np.int64)
        assert su.lookup(keys, table, universe).tolist() == [1, -1, 0]
        assert su.membership(keys, table, universe).tolist() == [True, False, True]
        ia, ib = su.intersect_indices(table, np.sort(keys), universe)
        assert ia.tolist() == [0, 1] and ib.tolist() == [1, 2]


class TestUnionKeys:
    @given(a=sorted_unique, b=sorted_unique)
    @settings(**SETTINGS)
    def test_union_semantics(self, a, b):
        av = np.arange(1, len(a) + 1, dtype=np.int64)
        bv = -np.arange(1, len(b) + 1, dtype=np.int64)
        keys, vals = su.union_keys(
            a, av, b, bv, np.dtype(np.int64), lambda x, y: x + y
        )
        expect = {}
        for k, v in zip(a.tolist(), av.tolist()):
            expect[k] = v
        for k, v in zip(b.tolist(), bv.tolist()):
            expect[k] = expect.get(k, 0) + v if k in expect else v
        assert dict(zip(keys.tolist(), vals.tolist())) == expect
        assert (np.diff(keys) > 0).all() if len(keys) > 1 else True

    def test_result_never_aliases_inputs(self):
        a = np.array([1], dtype=np.int64)
        av = np.array([5], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        keys, vals = su.union_keys(
            e, e.astype(np.int64), a, av, np.dtype(np.int64), lambda x, y: x
        )
        vals[0] = 99
        assert av[0] == 5  # defensive copy held


class TestSegmentReduce:
    def test_ufunc_path(self):
        vals = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        starts = np.array([0, 2], dtype=np.int64)
        out = su.segment_reduce(vals, starts, predefined.PLUS_MONOID[grb.INT64])
        assert out.tolist() == [3, 12]

    def test_generic_path_matches_ufunc(self, rng):
        vals = rng.integers(-5, 5, 30)
        starts = np.array([0, 7, 8, 20], dtype=np.int64)
        fast = su.segment_reduce(
            vals, starts, predefined.PLUS_MONOID[grb.INT64]
        )
        slow_monoid = grb.monoid_new(
            grb.binary_op_new(
                lambda a, b: a + b, grb.INT64, grb.INT64, grb.INT64,
                associative=True, commutative=True,
            ),
            0,
        )
        slow = su.segment_reduce(vals, starts, slow_monoid)
        assert fast.tolist() == slow.tolist()

    def test_min_reduce(self):
        vals = np.array([3.0, 1.0, 7.0, -2.0])
        starts = np.array([0, 2], dtype=np.int64)
        out = su.segment_reduce(vals, starts, predefined.MIN_MONOID[grb.FP64])
        assert out.tolist() == [1.0, -2.0]

    def test_empty(self):
        out = su.segment_reduce(
            np.empty(0), np.empty(0, dtype=np.int64),
            predefined.PLUS_MONOID[grb.FP64],
        )
        assert len(out) == 0


class TestRangesConcat:
    def test_basic(self):
        starts = np.array([10, 20], dtype=np.int64)
        counts = np.array([3, 2], dtype=np.int64)
        assert su.ranges_concat(starts, counts).tolist() == [10, 11, 12, 20, 21]

    def test_zero_counts_skipped(self):
        starts = np.array([5, 9, 100], dtype=np.int64)
        counts = np.array([2, 0, 1], dtype=np.int64)
        assert su.ranges_concat(starts, counts).tolist() == [5, 6, 100]

    def test_all_empty(self):
        assert len(su.ranges_concat(
            np.array([1, 2], dtype=np.int64), np.zeros(2, dtype=np.int64)
        )) == 0

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_matches_naive(self, data):
        n = data.draw(st.integers(0, 10))
        starts = np.array(
            data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        counts = np.array(
            data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        want = []
        for s, c in zip(starts, counts):
            want.extend(range(s, s + c))
        assert su.ranges_concat(starts, counts).tolist() == want


class TestGroupStarts:
    def test_runs(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        uniq, starts = su.group_starts(keys)
        assert uniq.tolist() == [2, 5, 7]
        assert starts.tolist() == [0, 2, 3]

    def test_all_unique(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        uniq, starts = su.group_starts(keys)
        assert uniq.tolist() == [1, 2, 3]
        assert starts.tolist() == [0, 1, 2]

    def test_empty(self):
        uniq, starts = su.group_starts(np.empty(0, dtype=np.int64))
        assert len(uniq) == 0 and len(starts) == 0
