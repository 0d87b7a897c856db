"""The exact comparison helpers of ``scalars`` give the operators' verdicts
and results, on ints and Fractions of either sign and any size, and send
floats through the operators."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction as Q
from operator import itemgetter
from types import SimpleNamespace

from hypothesis import example, given, strategies as st

from mfroots import scalars
from mfroots.scalars import (
    bisect_left,
    bisect_right,
    eq,
    extrapolate,
    inside,
    larger,
    le,
    low_high,
    lt,
    midpoint,
    ordered,
    smaller,
    thirds,
    within,
)

BIG = 2 ** 330  # denominators above 320 bits
sizes = st.one_of(st.integers(1, 12), st.integers(BIG, 4 * BIG))
fractions = st.builds(lambda sign, p, q: sign * Q(p, q),
                      st.sampled_from((1, -1)), st.one_of(st.just(0), sizes), sizes)
# few distinct values, so that ties come often, and an int may equal a Fraction
small = st.one_of(st.builds(Q, st.integers(-4, 4), st.integers(1, 3)), st.integers(-2, 2))
exact = st.one_of(fractions, small, st.integers(-(2 ** 70), 2 ** 70))
INF, NAN = float("inf"), float("nan")


def same(got, want):
    """Equal values of one type."""
    assert type(got) is type(want) and got == want


class TestVerdicts:
    @given(exact, exact)
    @example(Q(1, 3), Q(2, 6))
    @example(3, Q(3))
    @example(Q(-1, BIG), Q(1, BIG + 1))
    def test_comparisons(self, x, y):
        assert lt(x, y) is (x < y)
        assert le(x, y) is (x <= y)
        assert eq(x, y) is (x == y)

    @given(exact, exact, exact)
    @example(Q(1, 2), Q(1, 2), Q(1))
    def test_intervals(self, x, lo, hi):
        assert inside(x, lo, hi) is (lo < x < hi)
        assert within(x, lo, hi) is (lo <= x <= hi)

    @given(exact, exact)
    @example(3, Q(3))
    def test_min_and_max(self, x, y):
        # the first argument wins a tie, as with min and max
        assert smaller(x, y) is min(x, y)
        assert larger(x, y) is max(x, y)
        low, high = low_high(x, y)
        assert low is min(x, y) and high == max(x, y)

    @given(st.lists(exact, max_size=12))
    def test_sorted_order(self, xs):
        # stable: equal values keep their order, whatever their type
        assert [id(v) for v in ordered(xs)] == [id(v) for v in sorted(xs)]
        pairs = [(x, i) for i, x in enumerate(xs)]
        assert ordered(pairs, key=itemgetter(0)) == sorted(pairs, key=itemgetter(0))

    def test_sorted_past_the_common_denominator_bound(self, monkeypatch):
        # two hundred coprime 330-bit denominators: the common one passes the
        # bound after a few of them, and the rest are never put over it
        xs = [Q(i, BIG + 2 * i + 1) for i in range(200, 0, -1)]
        steps = []

        def lcm(*ds):
            steps.append(ds)
            return math.lcm(*ds)

        monkeypatch.setattr(scalars, "math", SimpleNamespace(lcm=lcm))
        assert ordered(xs) == sorted(xs)
        assert len(steps) == scalars._ORDERED_BITS // 330 + 1

    @given(st.lists(exact, max_size=9), exact)
    @example([Q(1, 3), Q(1, 2), Q(1, 2), 1], Q(1, 2))
    def test_bisect_position(self, xs, x):
        seq = sorted(xs)
        assert bisect_left(seq, x) == bisect.bisect_left(seq, x)
        assert bisect_right(seq, x) == bisect.bisect_right(seq, x)


class TestSplits:
    @given(exact, exact)
    @example(1, 2)  # ints take the operators, which give a float here
    def test_midpoint_thirds_and_extrapolation(self, x, y):
        same(midpoint(x, y), (x + y) / 2)
        third = (y - x) / 3
        t1, t2 = thirds(x, y)
        same(t1, x + third)
        same(t2, y - third)
        same(extrapolate(x, y), 2 * x - y)


class TestFloats:
    """A float goes through the operators: an infinity or a NaN, which
    have no integer ratio, gets the operators' verdicts."""

    def test_verdicts(self):
        assert lt(Q(1), INF) and not lt(INF, Q(1)) and le(-INF, Q(0))
        assert not lt(NAN, Q(1)) and not le(Q(1), NAN) and not eq(NAN, NAN)
        assert eq(0.5, Q(1, 2)) and lt(Q(1, 10), 0.1)  # the float lies just above 1/10
        assert not inside(NAN, Q(0), Q(1)) and within(Q(1, 2), Q(0), INF)
        assert smaller(Q(1), INF) == 1 and larger(Q(1), INF) == INF
        assert low_high(INF, Q(2)) == (Q(2), INF)

    def test_orders(self):
        xs = [Q(1, 2), 0.25, Q(1, 3), INF, -INF, 0.5]
        assert [id(v) for v in ordered(xs)] == [id(v) for v in sorted(xs)]
        seq = sorted(xs)
        for x in (0.5, Q(1, 2), NAN, INF, Q(-7)):
            assert bisect_left(seq, x) == bisect.bisect_left(seq, x)
            assert bisect_right(seq, x) == bisect.bisect_right(seq, x)

    def test_splits(self):
        same(midpoint(0.5, Q(1, 4)), 0.375)
        assert thirds(0.0, Q(3)) == (1.0, 2.0)
        same(extrapolate(Q(1), 0.5), 1.5)
