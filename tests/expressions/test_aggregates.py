"""The aggregate-function contract: fold, two-phase split, flags.

Every engine path folds through :mod:`repro.expressions.aggregates`, so
these tests pin the contract itself; the engines' agreement with it is
checked by the differential matrices and by the fast-path test below.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.vector import kernels
from repro.engine.vector.batch import ColumnBatch, _np
from repro.expressions.aggregates import (
    DUPLICATE_SENSITIVE,
    ORDER_SENSITIVE,
    TWO_PHASE,
    finalize,
    finalize_avg,
    fold,
    fold_groups,
    partials,
)
from repro.expressions.ast import AGGREGATE_FUNCTIONS, Aggregate
from repro.expressions.builder import col
from repro.sqltypes.values import NULL

FUNCTIONS = sorted(TWO_PHASE)


def typed(value):
    """``value`` with its type, so ``1`` and ``1.0`` (or ``True``) differ."""
    return (type(value).__name__, repr(value))


class TestFold:
    def test_skips_nulls(self):
        values = [3, NULL, 1, NULL, 2]
        assert fold("COUNT", values) == 3
        assert fold("SUM", values) == 6
        assert fold("MIN", values) == 1
        assert fold("MAX", values) == 3
        assert typed(fold("AVG", values)) == typed(2.0)

    @pytest.mark.parametrize("values", [[], [NULL, NULL]])
    def test_empty_gives_count_zero_and_null(self, values):
        assert fold("COUNT", values) == 0
        for function in ("SUM", "AVG", "MIN", "MAX"):
            assert fold(function, values) is NULL

    def test_distinct_keeps_first_of_each_key(self):
        # 1 and 1.0 share a group key; the first one seen survives.
        assert typed(fold("SUM", [1, 1.0, 2, 2], distinct=True)) == typed(3)
        assert fold("COUNT", [1, 1.0, 2, NULL], distinct=True) == 2

    def test_min_max_keep_first_of_ties(self):
        assert typed(fold("MIN", [2, 1.0, 1])) == typed(1.0)
        assert typed(fold("MAX", [3, 1, 3.0])) == typed(3)

    def test_sum_starts_from_the_first_value(self):
        assert typed(fold("SUM", [-0.0])) == typed(-0.0)
        assert typed(fold("SUM", [True])) == typed(True)
        assert typed(fold("SUM", [True, True])) == typed(2)

    def test_one_avg_finalizer(self):
        assert typed(finalize_avg(True, 1)) == typed(1.0)
        assert typed(finalize_avg(7, 2)) == typed(3.5)
        assert typed(finalize_avg(7.0, 2)) == typed(3.5)
        assert finalize_avg(NULL, 0) is NULL

    def test_groups_match_single_group_fold(self):
        values = [5, NULL, 2, 9, 2, NULL, 7]
        group_of = [0, 1, 0, 1, 1, 1, 0]
        order = [6, 5, 4, 3, 2, 1, 0]
        for function in FUNCTIONS:
            for distinct in (False, True):
                expected = [
                    fold(
                        function,
                        [values[r] for r in order if group_of[r] == g],
                        distinct,
                    )
                    for g in range(3)
                ]
                got = fold_groups(function, values, group_of, order, 3, distinct)
                assert [typed(v) for v in got] == [typed(v) for v in expected]


class TestContractTables:
    def test_every_function_is_described(self):
        assert set(TWO_PHASE) == set(AGGREGATE_FUNCTIONS)
        assert ORDER_SENSITIVE <= set(AGGREGATE_FUNCTIONS)
        assert DUPLICATE_SENSITIVE <= set(AGGREGATE_FUNCTIONS)

    def test_partials_keep_the_argument(self):
        for function in FUNCTIONS:
            parts = partials(Aggregate(function, col("T.v")))
            assert [p.function for p, __ in parts] == [
                p for p, __ in TWO_PHASE[function]
            ]
            assert all(p.argument == col("T.v") for p, __ in parts)

    def test_distinct_has_no_partials(self):
        assert partials(Aggregate("SUM", col("T.v"), distinct=True)) is None


def _merge_of_parts(function, parts):
    """Fold each part with the partial functions, merge, finalize."""
    merged = []
    for partial, merge in TWO_PHASE[function]:
        merged.append(fold(merge, [fold(partial, part) for part in parts]))
    return finalize(function, merged)


@st.composite
def split_lists(draw):
    element = draw(
        st.sampled_from([st.integers(-10**6, 10**6), st.booleans()])
    )
    values = draw(st.lists(st.one_of(st.just(NULL), element), max_size=30))
    k = draw(st.integers(1, 5))
    cuts = sorted(
        draw(st.lists(st.integers(0, len(values)), min_size=k - 1, max_size=k - 1))
    )
    bounds = [0] + cuts + [len(values)]
    return values, [values[a:b] for a, b in zip(bounds, bounds[1:])]


class TestTwoPhaseProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=split_lists())
    def test_fold_equals_merged_partials(self, case):
        values, parts = case
        for function in FUNCTIONS:
            assert typed(_merge_of_parts(function, parts)) == typed(
                fold(function, values)
            ), function


@pytest.mark.skipif(_np is None, reason="numpy fast path needs numpy")
class TestFastPathAgainstFold:
    """``np.bincount`` folds must equal the contract's fold exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=40,
            ),
        ),
        data=st.data(),
        reverse=st.booleans(),
    )
    def test_bincount_matches_fold(self, values, data, reverse):
        n = len(values)
        raw = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        keys = sorted(set(raw))
        group_of = [keys.index(k) for k in raw]
        order = list(range(n))[::-1] if reverse else list(range(n))
        batch = ColumnBatch(("g",), [group_of], length=n)
        for function in ("COUNT", "SUM", "AVG"):
            fast = kernels._fold_fast(
                function,
                values,
                batch,
                _np.asarray(group_of, dtype=_np.int64),
                _np.asarray(order, dtype=_np.intp) if reverse else None,
                len(keys),
            )
            assert fast is not None or function != "COUNT"
            if fast is None:
                continue
            expected = fold_groups(function, values, group_of, order, len(keys))
            assert [typed(v) for v in fast] == [typed(v) for v in expected]
