"""Monotone map layer: composition folding, iteration, gluing."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, strategies as st

from mfroots import maps
from mfroots.errors import StructureError
from mfroots.scalars import format_scalar
from mfroots.maps import (
    AffineMap,
    ComposedMap,
    DEC,
    GenericMap,
    GluedMap,
    INC,
    compose_maps,
    iterate_map,
    reflect_map,
)


class TestAffine:
    def test_compose_folds_exactly(self):
        m = compose_maps(AffineMap(Q(1, 2), Q(1, 4)), AffineMap(Q(1, 3), Q(1, 6)))
        assert m == AffineMap(Q(1, 6), Q(1, 3))

    def test_inverse_map(self):
        m = AffineMap(Q(2, 3), Q(1, 5))
        inv = m.inverse_map()
        assert compose_maps(inv, m) == AffineMap(1, 0)

    def test_zero_slope_rejected(self):
        with pytest.raises(StructureError):
            AffineMap(0, 1)
        with pytest.raises(StructureError, match="nonzero slope"):
            AffineMap(Q(0, 5), Q(1, 2))

    def test_iterate_map_negative_powers(self):
        m = AffineMap(Q(1, 4), Q(1, 8))
        assert iterate_map(m, 0) == AffineMap(1, 0)
        assert compose_maps(iterate_map(m, 2), iterate_map(m, -2)) == AffineMap(1, 0)

    def test_reflect_keeps_slope(self):
        m = AffineMap(Q(1, 4), Q(1, 8))
        r = reflect_map(m, Q(1))
        assert r.slope == Q(1, 4)
        # conjugation: r(x) = 1 - x on both sides
        x = Q(1, 3)
        assert r(x) == 1 - m(1 - x)

    def test_orientation_product(self):
        dec = AffineMap(-1, 1)
        inc = AffineMap(Q(1, 2), 0)
        assert compose_maps(dec, dec).orientation is INC
        assert ComposedMap((dec, inc)).orientation is DEC


BOUND = maps._KERNEL_BOUND
# parts on both sides of the argument-size bound: small, near it, far past it
parts = st.one_of(st.integers(1, 2 ** 12), st.integers(BOUND - 4, BOUND + 4),
                  st.integers(BOUND, BOUND ** 3))
fractions = st.builds(lambda sign, p, q: sign * Q(p, q), st.sampled_from((1, -1)), parts, parts)
arguments = st.one_of(fractions, st.integers(-(2 ** 140), 2 ** 140),
                      st.floats(-1e6, 1e6, allow_nan=False))


def same(got, want):
    """Equal values of one type; a float bit for bit."""
    assert type(got) is type(want)
    assert got.hex() == want.hex() if isinstance(want, float) else got == want


def same_map(m, s, t):
    """m is the map x ↦ s·x + t of the Fraction operators: its
    coefficients, integer parts, orientation, repr, equality and hash."""
    s, t = Q(s), Q(t)
    same(m.slope, s)
    same(m.intercept, t)
    assert m._ints == (s.numerator, s.denominator, t.numerator, t.denominator)
    assert m.orientation is (INC if s > 0 else DEC)
    assert repr(m) == f"AffineMap({format_scalar(s)}·x + {format_scalar(t)})"
    built = AffineMap(s, t)
    assert m == built and not m != built and hash(m) == hash(built) == hash((s, t))
    assert m != AffineMap(s, t + 1) and m != AffineMap(2 * s, t)


class TestKernel:
    """The integer kernel gives what the Fraction operators give, for
    small and large coefficients and on both sides of the argument-size
    bound; maps built from integer parts (``after``, ``inverse_map``,
    ``through``) read like maps built from Fractions, whatever the route."""

    @given(fractions, fractions, arguments)
    @example(Q(-3, 7), Q(1, 5), Q(1, BOUND - 1))
    @example(Q(-3, 7), Q(1, 5), Q(1, BOUND))
    @example(Q(1, BOUND), Q(2, 3), Q(5, 9))
    @example(Q(BOUND, 3), Q(2, 3), 5)
    @example(Q(-1, 3), Q(2, 3), 0.1)
    def test_call_and_inverse(self, s, t, x):
        m = AffineMap(s, t)
        same_map(m, s, t)
        same(m(x), s * x + t)
        same(m.inverse(x), (x - t) / s)
        inv = m.inverse_map()
        same(inv(x), (1 / s) * x + (-t / s))
        same(inv.inverse(x), (x - (-t / s)) / (1 / s))

    @given(fractions, fractions, fractions, fractions)
    @example(Q(-3, 7), Q(1, 5), Q(BOUND, 3), Q(1, BOUND))
    def test_inverse_map_and_after(self, s, t, u, v):
        m, inner = AffineMap(s, t), AffineMap(u, v)
        inv = m.inverse_map()
        same_map(inv, 1 / s, -t / s)
        both = m.after(inner)
        same_map(both, s * u, s * v + t)
        # the same maps by other routes
        same_map(inv.inverse_map(), s, t)
        same_map(both.after(inner.inverse_map()), s, t)
        same_map(inv.after(m), 1, 0)

    @given(fractions, fractions, fractions, fractions)
    @example(Q(1, 3), Q(1, 5), Q(1, BOUND), Q(2, 7))
    @example(Q(-2, 3), Q(1, 6), Q(5, 7), Q(-3, 2))
    def test_through(self, x1, y1, x2, y2):
        if x1 == x2 or y1 == y2:
            return
        m = AffineMap.through(x1, y1, x2, y2)
        slope = (y2 - y1) / (x2 - x1)
        same_map(m, slope, y1 - slope * x1)
        same_map(AffineMap.through(y1, x1, y2, x2), 1 / slope, -(y1 - slope * x1) / slope)

    @given(fractions, fractions)
    @example(Q(1), Q(1, 5))
    @example(Q(1), Q(0))
    def test_fixed_point_and_identity(self, s, t):
        m = AffineMap(s, t)
        if s == 1:
            assert m.fixed_point() is None
        else:
            same(m.fixed_point(), t / (1 - s))
        assert m.is_identity is (s == 1 and t == 0)

    def test_integer_parts_of_any_size(self):
        assert AffineMap(Q(-3, 7), Q(1, 5))._ints == (-3, 7, 1, 5)
        assert AffineMap(Q(BOUND ** 2, 3), Q(1, BOUND))._ints == (BOUND ** 2, 3, 1, BOUND)
        same_map(AffineMap(-2, 3), -2, 3)
        same_map(AffineMap(0.5, "1/3"), Q(1, 2), Q(1, 3))
        same_map(AffineMap(slope=Q(-6, 4), intercept=0), Q(-3, 2), 0)

    def test_immutable(self):
        m = AffineMap(Q(-3, 7), Q(1, 5)).after(AffineMap(2, 1))
        for name in ("slope", "intercept", "_ints", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, Q(1))
            with pytest.raises(FrozenInstanceError):
                delattr(m, name)
        same_map(m, Q(-6, 7), Q(-8, 35))
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            same_map(twin, Q(-6, 7), Q(-8, 35))
        # a map is a key: equal maps from different routes find one entry
        assert {m: "m"}[AffineMap(Q(-6, 7), Q(-8, 35))] == "m"
        assert m != (m.slope, m.intercept) and m != "m"


class Sixteenths:
    """Identity piece that reports a break at each multiple of 1/16."""

    orientation = INC

    def __call__(self, x):
        return x

    def breaks(self, lo, hi) -> tuple:
        return tuple(Q(i, 16) for i in range(17) if lo < Q(i, 16) < hi)


class TestGlued:
    def test_increasing_glue_and_inverse(self):
        left = AffineMap(Q(1, 2), 0)                 # on [0, 1/2], value 1/4 at knot
        right = AffineMap(Q(3, 2), Q(-1, 2))         # agrees at 1/2
        g = GluedMap((Q(1, 2),), (left, right))
        assert g(Q(1, 4)) == Q(1, 8)
        assert g(Q(3, 4)) == Q(5, 8)
        for x in (Q(1, 8), Q(1, 2), Q(9, 10)):
            assert g.inverse(g(x)) == x
        inv = g.inverse_map()
        assert inv(g(Q(7, 10))) == Q(7, 10)

    def test_decreasing_glue_inverse_map(self):
        left = AffineMap(Q(-1, 2), Q(3, 4))          # value 1/2 at knot 1/2
        right = AffineMap(Q(-3, 2), Q(5, 4))
        g = GluedMap((Q(1, 2),), (left, right))
        assert g.orientation is DEC
        for x in (Q(1, 5), Q(1, 2), Q(4, 5)):
            assert g.inverse(g(x)) == x
        inv = g.inverse_map()
        for x in (Q(1, 10), Q(3, 5)):
            assert inv(g(x)) == x

    def test_knots_stay_exact_with_a_float_piece(self):
        third = GenericMap(INC, lambda x: float(x) / 3, lambda w: 3 * float(w), ("third",))
        g = GluedMap((Q(1, 2),), (third, AffineMap(Q(1, 3), 0)), (Q(1, 6),))
        for value, exact in ((g(Q(1, 2)), Q(1, 6)), (g.inverse(Q(1, 6)), Q(1, 2)),
                             (g.inverse_map()(Q(1, 6)), Q(1, 2))):
            assert isinstance(value, Q) and value == exact
        # value knots evaluated by the float piece still lead back exactly
        g = GluedMap((Q(1, 2),), (third, AffineMap(Q(1, 3), 0)))
        assert isinstance(g(Q(1, 2)), float)
        back = g.inverse(g(Q(1, 2)))
        assert isinstance(back, Q) and back == Q(1, 2)

    @pytest.mark.parametrize("lo,hi", [
        (0, 1), (Q(1, 4), Q(3, 4)), (Q(1, 4), Q(1, 2)), (Q(1, 2), 1), (0, Q(1, 4)),
        (Q(1, 3), Q(5, 8)), (Q(1, 2), Q(9, 16)), (Q(1, 8), Q(1, 4)), (Q(3, 4), 1)])
    def test_breaks_in_order_with_ends_on_knots(self, lo, hi):
        # knots 1/4, 1/2, 3/4; each piece breaks at the sixteenths
        g = GluedMap((Q(1, 4), Q(1, 2), Q(3, 4)), (Sixteenths(),) * 4,
                     (Q(1, 4), Q(1, 2), Q(3, 4)))
        pts = [k for k in g.knots if lo < k < hi]
        for piece, a, b in g._spans(lo, hi):
            pts.extend(piece.breaks(a, b))
        assert g.breaks(lo, hi) == tuple(sorted(pts))
        assert list(g.breaks(lo, hi)) == [Q(i, 16) for i in range(17) if lo < Q(i, 16) < hi]

    def test_nested_glue_flattens(self):
        a = AffineMap(Q(1, 2), 0)
        b = AffineMap(Q(3, 2), Q(-1, 2))
        inner = GluedMap((Q(1, 2),), (a, b))
        outer = GluedMap((Q(3, 4),), (inner, AffineMap(Q(1, 2), Q(1, 4))))
        assert len(outer.pieces) == 3
        assert outer(Q(1, 4)) == Q(1, 8)
