"""Fundamental-domain scalar constructions: roots, conjugacies, pairings."""

import math
import random
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots import builder, scalar_roots
from mfroots.maps import (
    AffineMap,
    ComposedMap,
    GenericMap,
    GluedMap,
    compose_maps,
    iterate_map,
)
from mfroots.scalar_roots import (
    ScalarRootSeed,
    _OrbitMap,
    _Domain,
    _SeedMap,
    _jump_power,
    _orbit_carry,
    _orbit_land,
    _orbit_power,
    conjugacy,
    decreasing_odd_root,
    decreasing_square_root_pair,
    increasing_nth_root,
    odd_swap_maps,
)
from mfroots.maps import reflect_map
from mfroots.errors import (
    BadSeedError,
    EvaluationRangeError,
    HasInteriorFixedPointError,
    IncompatiblePatternError,
    NoExactProofError,
    WrongSideError,
)
from mfroots.io import load_mf
from mfroots.scalars import format_scalar

from conftest import (
    compositions,
    data_path,
    lazy_objects,
    random_dec_selfpair_target,
    random_direct_routed,
    random_reversing_pair_target,
)

GRID = [Q(i, 997) for i in range(1, 997)]


def max_dev(f, g, points):
    return max(abs(float(f(x)) - float(g(x))) for x in points)


def nfold(f, n):
    def run(x):
        for _ in range(n):
            x = f(x)
        return x
    return run


class TestIncreasingRoot:
    def test_fast_path_exact(self):
        phi = increasing_nth_root(AffineMap(Q(1, 4), 0), 0, Q(1, 2), 2)
        assert phi == AffineMap(Q(1, 2), 0)

    def test_irrational_slope_closed_form(self):
        # no closed form: the orbit root is exact at every point
        phi = increasing_nth_root(AffineMap(Q(1, 3), 0), 0, 1, 2)
        assert phi.recipe[0] == "orbit_root"
        for x in GRID[::37]:
            assert phi(phi(x)) == x / 3

    def test_custom_divisions_still_a_root(self):
        seed = ScalarRootSeed(divisions=(Q(3, 10),))
        phi = increasing_nth_root(AffineMap(Q(1, 4), 0), 0, Q(1, 2), 2, seed)
        for x in GRID[:400]:
            x = x / 2
            assert phi(phi(x)) == x / 4
        assert phi(Q(3, 10)) != Q(3, 20)  # differs from the closed form

    def test_translation_slope_one(self):
        phi = increasing_nth_root(AffineMap(1, Q(-1, 8)), Q(0), Q(1), 4)
        assert phi == AffineMap(1, Q(-1, 32))

    def test_wrong_side(self):
        with pytest.raises(WrongSideError):
            increasing_nth_root(AffineMap(Q(1, 2), Q(1, 2)), 0, 1, 2)

    def test_interior_fixed_point_rejected(self):
        with pytest.raises(HasInteriorFixedPointError):
            increasing_nth_root(AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2), 2)

    def test_bad_seed(self):
        with pytest.raises(BadSeedError):
            increasing_nth_root(AffineMap(Q(1, 4), 0), 0, Q(1, 2), 3,
                                ScalarRootSeed(divisions=(Q(1, 4), Q(3, 8))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=5))
    def test_root_property_random_affine(self, num, n):
        g = AffineMap(Q(num, 16), 0)
        phi = increasing_nth_root(g, 0, 1, n)
        pts = GRID[::37]
        assert max_dev(nfold(phi, n), g, pts) <= 1e-9
        vals = [phi(x) for x in pts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_contract(self):
        seed = ScalarRootSeed(divisions=(Q(5, 16), Q(3, 16)))
        phi = increasing_nth_root(AffineMap(Q(1, 4), 0), 0, Q(1, 2), 3, seed)
        for x in GRID[::53]:
            x = x / 2
            assert phi.inverse(phi(x)) == x

    def test_seed_freedom_contract(self):
        g = AffineMap(Q(1, 4), 0)
        seeds = [ScalarRootSeed(), ScalarRootSeed(divisions=(Q(5, 16),)),
                 ScalarRootSeed(divisions=(Q(1, 4),)),
                 ScalarRootSeed(anchor=Q(3, 8))]
        pts = [x / 2 for x in GRID[::101]]
        images = set()
        for seed in seeds:
            phi = increasing_nth_root(g, 0, Q(1, 2), 2, seed)
            assert max_dev(nfold(phi, 2), g, pts) <= 1e-9
            images.add(float(phi(Q(1, 5))))
        assert len(images) > 1  # genuinely different roots


class TestConjugacy:
    def test_reversing_pair_closed_form(self):
        h = conjugacy(AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2),
                      AffineMap(Q(1, 4), Q(5, 8)), Q(1, 2), 1, mf.DEC)
        assert h == AffineMap(-1, 1)

    def test_identity_self_conjugacy(self):
        g = AffineMap(Q(1, 4), Q(1, 8))
        h = conjugacy(g, 0, Q(1, 2), g, 0, Q(1, 2), mf.INC)
        assert h == AffineMap(1, 0)

    def test_direction_mismatch(self):
        with pytest.raises(IncompatiblePatternError):
            conjugacy(AffineMap(Q(1, 2), 0), 0, 1,
                      AffineMap(Q(1, 2), Q(1, 2)), 0, 1, mf.INC)

    def test_orbit_conjugacy_between_distinct_multipliers(self):
        g1, g2 = AffineMap(Q(1, 4), 0), AffineMap(Q(1, 2), 0)
        h = conjugacy(g1, 0, 1, g2, 0, 1, mf.INC)
        pts = GRID[::41]
        assert max_dev(lambda x: h(g1(x)), lambda x: g2(h(x)), pts) <= 1e-9

    def test_affine_seed_must_commute(self):
        with pytest.raises(BadSeedError):
            conjugacy(AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2),
                      AffineMap(Q(1, 4), Q(5, 8)), Q(1, 2), 1, mf.DEC,
                      ScalarRootSeed(affine=(-1, Q(9, 8))))


class TestSquarePair:
    def test_cross_pair_reproduces_published_pieces(self):
        h, partner = decreasing_square_root_pair(
            AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2),
            AffineMap(Q(1, 4), Q(5, 8)), Q(1, 2), 1,
            seed=ScalarRootSeed(affine=(-1, 1)))
        assert h == AffineMap(-1, 1)
        assert partner == AffineMap(Q(-1, 4), Q(3, 8))
        # partner∘h = g_src and h∘partner = g_dst
        assert compose_maps(partner, h) == AffineMap(Q(1, 4), Q(1, 8))
        assert compose_maps(h, partner) == AffineMap(Q(1, 4), Q(5, 8))

    def test_self_pair_square_root(self):
        psi, partner = decreasing_square_root_pair(
            AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2))
        assert psi is partner
        g = AffineMap(Q(1, 4), Q(1, 8))
        pts = [x / 2 for x in GRID[::31]]
        assert max_dev(nfold(psi, 2), g, pts) <= 1e-9

    def test_self_pair_orbital_when_slope_root_irrational(self):
        g = AffineMap(Q(1, 3), Q(1, 9))  # fixed point 1/6
        psi, _ = decreasing_square_root_pair(g, 0, Q(1, 2))
        pts = [x / 2 for x in GRID[::47]]
        assert max_dev(nfold(psi, 2), g, pts) <= 1e-9

    def test_same_side_cross_pair_rejected(self):
        with pytest.raises(IncompatiblePatternError):
            decreasing_square_root_pair(AffineMap(Q(1, 2), 0), 0, 1,
                                        AffineMap(Q(1, 4), 0), 0, 1)


class TestOddRoot:
    def test_involution_is_its_own_root(self):
        f = decreasing_odd_root(AffineMap(-1, 1), 0, 1, 3)
        assert f == AffineMap(-1, 1)

    def test_rational_cube_slope(self):
        f = decreasing_odd_root(AffineMap(Q(-1, 8), 0), -1, 1, 3)
        assert f == AffineMap(Q(-1, 2), 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_cube_root_random_affine(self, num):
        g = AffineMap(Q(-num, 16), Q(num, 32))
        # keep it a self-map of [0, 1]
        if not (0 <= g(0) <= 1 and 0 <= g(1) <= 1):
            return
        f = decreasing_odd_root(g, 0, 1, 3)
        pts = GRID[::59]
        assert max_dev(nfold(f, 3), g, pts) <= 1e-9

    def test_orbital_swap_when_affine_escapes(self):
        g = AffineMap(Q(-1, 4), Q(13, 16))  # affine root escapes [1/2, 1]
        f = decreasing_odd_root(g, Q(1, 2), 1, 3)
        pts = [Q(1, 2) + x / 2 for x in GRID[::23]]
        assert max_dev(nfold(f, 3), g, pts) <= 1e-12
        vals = [f(x) for x in pts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(Q(1, 2) <= v <= 1 for v in vals)

    def test_even_order_rejected(self):
        with pytest.raises(mf.errors.MfError):
            decreasing_odd_root(AffineMap(Q(-1, 2), Q(3, 4)), 0, 1, 4)

    def test_order_five(self):
        g = AffineMap(Q(-1, 4), Q(13, 16))
        f = decreasing_odd_root(g, Q(1, 2), 1, 5)
        pts = [Q(1, 2) + x / 2 for x in GRID[::67]]
        assert max_dev(nfold(f, 5), g, pts) <= 1e-12


class TestOddSwap:
    def test_cross_interval_swap(self):
        # ranges stay strictly inside the opposite intervals
        A = AffineMap(Q(-1, 2), Q(4, 5))  # (0,1/2) -> (11/20, 4/5)
        B = AffineMap(Q(-1, 4), Q(3, 5))  # (1/2,1) -> (7/20, 19/40)
        map_a, map_b, _phi = odd_swap_maps(A, 0, Q(1, 2), B, Q(1, 2), 1, 3)
        for x in [Q(i, 257) for i in range(129)]:
            # f^3 on the alpha side reproduces A
            w = map_a(map_b(map_a(x)))
            assert abs(float(w) - float(A(x))) <= 1e-12
        for y in [Q(1, 2) + Q(i, 257) for i in range(129)]:
            # f^3 on the beta side reproduces B
            w = map_b(map_a(map_b(y)))
            assert abs(float(w) - float(B(y))) <= 1e-12

    def test_seed_in_the_callers_frame(self):
        # A∘B = x/2 + 1/2 lies above the diagonal on beta = [0, 1], so phi
        # is built reflected; the seed is read in the caller's frame: phi
        # sends the anchor 0 to 1/6 and 1/6 to 1/3 on the way up to 1
        A, B = AffineMap(Q(-1, 2), 2), AffineMap(-1, 3)
        seed = ScalarRootSeed(anchor=0, divisions=(Q(1, 6), Q(1, 3)))
        _, _, phi = odd_swap_maps(A, 2, 3, B, 0, 1, 3, seed)
        assert phi.recipe == ("mirrored", "1", ("orbit_root", 3, "1", ("5/6", "2/3")))
        assert phi(0) == Q(1, 6) and phi(Q(1, 6)) == Q(1, 3)
        G = compose_maps(A, B)
        for x in [Q(i, 17) for i in range(18)]:
            assert phi(phi(phi(x))) == G(x)


def steps(g, z, k):
    """g^k(z) by single steps: the reference for the closed-form jumps."""
    for _ in range(abs(k)):
        z = g(z) if k > 0 else g.inverse(z)
    return z


def land(g, x, anchor):
    return _orbit_land(_Domain(g, anchor), x)


def walked(g, x, anchor):
    """(g^k(x), k) by single steps and the comparison operators: the
    reference for the landing, which compares exact points on integer
    parts and jumps."""
    image = g(anchor)
    down = image < anchor
    k, rose = 0, False
    while True:
        if not rose and ((x > anchor) if down else (x >= image)):
            step = 1 if down else -1
        elif (x <= image) if down else (x < anchor):
            step, rose = (-1 if down else 1), True
        else:
            return x, k
        x, k = (g(x) if step > 0 else g.inverse(x)), k + step


def power(g, z, k):
    return _orbit_power(_Domain(g, Q(1)), z, k)


def counting(g, calls):
    """g as a GenericMap that counts its evaluations."""
    def fwd(x):
        calls.append(1)
        return g(x)

    def bwd(w):
        calls.append(-1)
        return g.inverse(w)

    return GenericMap(mf.INC, fwd, bwd, ("counting",))


contractions = st.builds(
    lambda a, b, p: AffineMap(Q(a, a + b), p * (1 - Q(a, a + b))),
    st.integers(1, 63), st.integers(1, 63),
    st.fractions(min_value=-4, max_value=4, max_denominator=32))


class TestOrbitEngine:
    """The orbit walker: exact affine orbits jump in closed form, the rest
    step, and both give the Fractions single steps give."""

    @settings(max_examples=60, deadline=None)
    @given(contractions, st.fractions(min_value=-8, max_value=8, max_denominator=1000),
           st.integers(-40, 40))
    def test_closed_form_power_matches_steps(self, g, z, k):
        assert power(g, z, k) == steps(g, z, k)

    @settings(max_examples=60, deadline=None)
    @given(contractions, st.sampled_from([1, -1]),
           st.fractions(min_value=Q(1, 100), max_value=3, max_denominator=100),
           st.fractions(min_value=0, max_value=Q(99, 100), max_denominator=100),
           st.integers(-40, 40))
    def test_landing_matches_steps(self, g, side, offset, frac, m):
        # both sides of the fixed point: anchor above it (the orbit root,
        # conjugacy and right half of the self pairing) or below it (the
        # self pairing's inverse)
        p = g.fixed_point()
        anchor = p + side * offset
        image = g(anchor)
        y = anchor + frac * (image - anchor)  # in the domain, closed at anchor
        assert land(g, steps(g, y, m), anchor) == (y, -m)

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 40, -1, -2, -3, -40])
    def test_landing_at_domain_ends(self, side, m):
        # x = g^m(anchor): m = 0 is the anchor, m = 1 its image g(anchor)
        g = AffineMap(Q(3, 5), Q(2, 5) * Q(1, 3))  # fixed point 1/3
        anchor = Q(1, 3) + side * Q(2, 7)
        assert land(g, steps(g, anchor, m), anchor) == (anchor, -m)
        # just inside the open end, closer than a float log can resolve
        image = g(anchor)
        y = image + (anchor - image) * Q(1, 10 ** 30)
        assert land(g, steps(g, y, m), anchor) == (y, -m)

    def test_self_pair_domain_ends(self):
        p = Q(1, 3)
        g = AffineMap(Q(99, 100), p / 100)
        x0, y0 = Q(3, 4), Q(1, 400)
        psi, _ = decreasing_square_root_pair(
            g, 0, 1, seed=ScalarRootSeed(anchor=x0, image_anchor=y0))
        for m in (0, 1, 2, 3, 40):
            # right-hand side: x = g^m(x0); left-hand side: w = g^m(y0)
            assert psi(steps(g, x0, m)) == steps(g, y0, m)
            assert psi.inverse(steps(g, y0, m)) == steps(g, x0, m)
        assert psi.inverse(g.inverse(y0)) == g.inverse(x0)

    @pytest.mark.parametrize("wrap", ["generic", "composed"])
    def test_generic_generator_steps(self, wrap):
        half = AffineMap(Q(1, 2), 0)
        calls = []
        g = counting(half, calls)
        if wrap == "composed":
            g = compose_maps(AffineMap(1, 0), g, AffineMap(1, 0))
        anchor = Q(3, 4)
        dom = _Domain(g, anchor)
        calls.clear()
        assert _orbit_land(dom, anchor) == (anchor, 0)
        assert _orbit_land(dom, dom.image) == (anchor, -1)
        assert calls == [-1]
        calls.clear()
        assert _orbit_land(dom, Q(3, 4 << 30)) == (anchor, -30)
        assert calls == [-1] * 30
        calls.clear()
        assert _orbit_power(dom, anchor, 30) == Q(3, 4 << 30)
        assert calls == [1] * 30

    def test_float_points_step_bit_for_bit(self):
        g = AffineMap(Q(99, 100), 0)
        anchor = Q(3, 4)
        x = 1e-30
        y, k = land(g, x, anchor)
        w, climbed = x, 0
        while w <= g(anchor):
            w, climbed = g.inverse(w), climbed + 1
        assert isinstance(y, float) and (y, k) == (w, -climbed)
        assert power(g, y, k) == steps(g, y, k)

    def test_float_rounding_never_turns_a_rising_walk_down(self):
        # right-hand side: x just above the anchor steps down past the open
        # end by rounding, and comes back up
        g = AffineMap(Q(99, 100), 0)
        x = 0.7500000000000001
        anchor = Q(x) - Q(1, 10 ** 30)
        assert land(g, x, anchor) == (g.inverse(g(x)), 0)
        # left-hand side: x just below the anchor steps up onto the open end
        g = AffineMap(Q(99, 100), Q(1, 300))  # fixed point 1/3
        x = 0.24999999999999994
        anchor = Q(x) + Q(1, 10 ** 30)
        assert land(g, x, anchor) == (g(x), 1)

    def test_step_cap_limits_only_generic_walks(self, monkeypatch):
        monkeypatch.setattr(scalar_roots, "_MAX_ORBIT_STEPS", 50)
        half = AffineMap(Q(1, 2), 0)
        x = Q(1, 2 ** 100)
        with pytest.raises(EvaluationRangeError):
            land(counting(half, []), x, Q(3, 4))
        assert land(half, x, Q(3, 4)) == (Q(1, 2), -99)

    @settings(max_examples=80, deadline=None)
    @given(contractions, st.sampled_from([1, -1]),
           st.fractions(min_value=Q(1, 100), max_value=3, max_denominator=100),
           st.sampled_from(["anchor", "image", "above", "below", "inside"]),
           st.fractions(min_value=0, max_value=Q(99, 100), max_denominator=100),
           st.integers(-6, 6), st.booleans())
    def test_landing_matches_the_operator_walk(self, g, side, offset, where, frac, m,
                                               as_float):
        # the anchor, its image, one step outside either end, or inside the
        # domain, carried m steps; exact points are compared on integer
        # parts, floats with the operators, so both agree with the walk
        anchor = g.fixed_point() + side * offset
        image = g(anchor)
        y = {"anchor": anchor, "image": image, "above": g.inverse(anchor),
             "below": g(image), "inside": anchor + frac * (image - anchor)}[where]
        x = steps(g, y, m)
        if as_float:
            x = float(x)
        got, want = land(g, x, anchor), walked(g, x, anchor)
        assert got == want and type(got[0]) is type(want[0])

    @pytest.mark.parametrize("slope", [Q(10 ** 23 - 1, 10 ** 23), Q(10 ** 12 - 1, 10 ** 12)])
    def test_slope_too_near_one_to_jump(self, slope):
        # log(s) rounds to 0 for the first; the second would jump 10^13
        # steps, whose power takes hours to build.  The estimate is asked
        # first, so that a jump let through fails here rather than hangs.
        with pytest.raises(EvaluationRangeError, match="orbit normalization diverged"):
            _jump_power(slope, Q(1, 10 ** 6), Q(3, 4))
        start = time.perf_counter()
        with pytest.raises(EvaluationRangeError, match="orbit normalization diverged"):
            land(AffineMap(slope, 0), Q(1, 10 ** 6), Q(3, 4))
        assert time.perf_counter() - start < 5

    def test_deep_jumps_within_the_cap(self):
        # x ↦ x/2 at 2^−250000 jumps 250 000 steps, past the walk cap
        assert -_jump_power(Q(1, 2), Q(1, 2 ** 250_000), Q(3, 4)) in (249_999, 250_000)

    def test_deep_point_pays_for_its_jump(self):
        # 3 000 000 steps, fifteen times the walk cap: the power is as
        # large as the point, so the point lands, and quickly
        start = time.perf_counter()
        assert land(AffineMap(Q(1, 2), 0), Q(1, 2 ** 3_000_000), Q(3, 4)) == (Q(1, 2),
                                                                                -2_999_999)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("x", [Q(-1, 8), Q(0)])
    def test_point_at_or_across_the_fixed_point_never_lands(self, x):
        g = AffineMap(Q(1, 2), 0)
        with pytest.raises(EvaluationRangeError):
            land(g, x, Q(3, 4))

    def test_seed_map_rejects_points_outside_its_domain(self):
        root = _OrbitMap.root(AffineMap(Q(1, 2), 0), 0, 1, 2, ScalarRootSeed(anchor=Q(3, 4)))
        assert root.seed.piece(Q(3, 4)) is root.seed.pieces[-1][2]
        for x in (Q(3, 8) - Q(1, 100), Q(3, 4) + Q(1, 100)):
            with pytest.raises(EvaluationRangeError, match="outside the seed domain"):
                root.seed.piece(x)
        for w in (Q(9, 32) - Q(1, 100), Q(9, 16) + Q(1, 100)):  # image [9/32, 9/16]
            with pytest.raises(EvaluationRangeError, match="outside the seed image"):
                root.seed.inverse_piece(w)


def carried_by_power(dom_in, dom_out, x, piece, inverse=False):
    """The value of x carried as the orbit engine carried it before the
    factored form: land x, apply the piece, and carry with _orbit_power."""
    y, k = _orbit_land(dom_in, x)
    return _orbit_power(dom_out, piece.inverse(y) if inverse else piece(y), -k)


def carried(dom_in, dom_out, x, piece, inverse=False):
    y, k = _orbit_land(dom_in, x)
    return _orbit_carry(dom_in, dom_out, x, y, k, piece, inverse)


seed_pieces = st.builds(
    AffineMap, st.fractions(min_value=-8, max_value=8, max_denominator=16).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=64))


def carry_case(g_in, other, same_slope, side, anchors, offset, decades):
    """(dom_in, dom_out, x): anchors on the side ``side`` of each fixed
    point, and x at offset/10^decades from g_in's fixed point on that side.
    With ``same_slope`` both orbits are those of g_in, from two anchors, as
    in an orbit root or a self pairing."""
    g_out = g_in if same_slope else other
    p_in, p_out = g_in.fixed_point(), g_out.fixed_point()
    dom_in = _Domain(g_in, p_in + side * anchors[0])
    dom_out = _Domain(g_out, p_out + side * anchors[1])
    return dom_in, dom_out, p_in + side * offset / 10 ** decades


class TestOrbitCarry:
    """The carry back in factored form gives the value of carrying the
    piece's image by _orbit_power exactly; floats still step bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(contractions, contractions, st.booleans(), st.sampled_from([1, -1]),
           st.tuples(st.fractions(Q(1, 64), 4, max_denominator=64),
                     st.fractions(Q(1, 64), 4, max_denominator=64)),
           st.fractions(Q(1, 1000), 10, max_denominator=1000), st.integers(0, 60),
           seed_pieces, st.booleans())
    def test_deep_points_match_the_power(self, g_in, other, same_slope, side, anchors,
                                         offset, decades, piece, inverse):
        dom_in, dom_out, x = carry_case(g_in, other, same_slope, side, anchors,
                                        offset, decades)
        assert (carried(dom_in, dom_out, x, piece, inverse)
                == carried_by_power(dom_in, dom_out, x, piece, inverse))

    @settings(max_examples=60, deadline=None)
    @given(contractions, contractions, st.booleans(), st.sampled_from([1, -1]),
           st.fractions(Q(1, 64), 4, max_denominator=64),
           st.fractions(0, Q(99, 100), max_denominator=100), st.integers(-400, 400),
           seed_pieces, st.booleans())
    def test_orbit_steps_match_the_power(self, g_in, other, same_slope, side, anchor,
                                         frac, m, piece, inverse):
        # x = g_in^m(y) for y in the domain, so the landing has k = -m
        dom_in, dom_out, _ = carry_case(g_in, other, same_slope, side, (anchor, anchor),
                                        1, 0)
        y = dom_in.anchor + frac * (dom_in.image - dom_in.anchor)
        x = steps(g_in, y, m)
        assert _orbit_land(dom_in, x) == (y, -m)
        assert (carried(dom_in, dom_out, x, piece, inverse)
                == carried_by_power(dom_in, dom_out, x, piece, inverse))

    @settings(max_examples=30, deadline=None)
    @given(contractions, contractions, st.booleans(), st.sampled_from([1, -1]),
           st.fractions(Q(1, 1000), 10, max_denominator=1000), st.integers(0, 9),
           seed_pieces, st.booleans())
    def test_float_points_step(self, g_in, other, same_slope, side, offset, decades,
                               piece, inverse):
        dom_in, dom_out, x = carry_case(g_in, other, same_slope, side,
                                        (Q(1, 2), Q(3, 4)), offset, decades)
        x = float(x)  # 10^-12 from a fixed point of size at most 4 stays off it
        y, k = _orbit_land(dom_in, x)
        # the piece's own inverse, not its inverse map, which rounds otherwise
        z = piece.inverse(y) if inverse else piece(y)
        value = _orbit_carry(dom_in, dom_out, x, y, k, piece, inverse)
        assert type(value) is float and value == steps(dom_out.g, z, -k)

    def test_float_inverse_is_the_pieces_own(self):
        # with slope -3/7 the piece's inverse and its inverse map round
        # apart at about half of all points
        g = AffineMap(Q(99, 100), Q(1, 300))  # fixed point 1/3
        dom = _Domain(g, Q(3, 4))
        piece = AffineMap(Q(-3, 7), Q(1, 3))
        rng = random.Random(5)
        apart = 0
        for _ in range(40):
            x = 1 / 3 + rng.random() * 10 ** -rng.randint(1, 9)
            y, k = _orbit_land(dom, x)
            apart += piece.inverse(y) != piece.inverse_map()(y)
            value = _orbit_carry(dom, dom, x, y, k, piece, inverse=True)
            assert value == steps(g, piece.inverse(y), -k)
        assert apart > 10

    def test_generic_generator_keeps_stepping(self):
        calls = []
        g = counting(AffineMap(Q(1, 2), 0), calls)
        dom = _Domain(g, Q(3, 4))
        x = Q(3, 4 << 30)
        y, k = _orbit_land(dom, x)
        calls.clear()
        piece = AffineMap(Q(1, 2), Q(3, 16))
        assert _orbit_carry(dom, dom, x, y, k, piece) == piece(y) / 2 ** 30
        assert calls == [1] * 30

    def evaluations_at_1e40(self):
        """r2, r3 and the self pairing of the orbit_eval benchmark, each
        called forward and inverse 10^-40 from its attracting point."""
        g = AffineMap(Q(99, 100), 0)
        p = Q(31, 64)
        gp = AffineMap(Q(99, 100), p / 100)
        r2 = increasing_nth_root(g, 0, 1, 2, ScalarRootSeed(anchor=Q(45, 64)))
        r3 = increasing_nth_root(g, 0, 1, 3, ScalarRootSeed(anchor=Q(50, 64)))
        psi, _ = decreasing_square_root_pair(gp, 0, 1, seed=ScalarRootSeed(anchor=Q(3, 4)))
        d = Q(4321, 1000) / 10 ** 41
        calls = []
        for m, base in ((r2, 0), (r3, 0), (psi, p)):
            for side in ((1, -1) if base else (1,)):
                calls += [(m, base + side * d), (m.inverse_map(), base + side * d)]
        return calls

    def test_no_gcd_of_two_large_operands(self, monkeypatch):
        # a gcd of two numbers of ~60k bits is most of an evaluation's cost
        # when it normalizes a product whose factors cancel
        large = []
        gcd = math.gcd

        def watched(*args):
            if sum(abs(a).bit_length() > 10_000 for a in args) >= 2:
                large.append(args)
            return gcd(*args)

        calls = self.evaluations_at_1e40()
        monkeypatch.setattr(math, "gcd", watched)
        values = [m(x) for m, x in calls]
        assert not large
        assert max(v.denominator.bit_length() for v in values) > 50_000
        # the old carry of the same point does multiply two large numbers
        r2, x = calls[0]
        root = r2.forward
        y, _ = _orbit_land(root.land, x)
        carried_by_power(root.land, root.land, x, root.seed.piece(y))
        assert large

    def test_self_pairing_still_refuses_a_value_outside_its_interval(self):
        # the seed-3 pairing of the orbit_eval benchmark: its steep seed
        # sends p + 6517/10^5 below 0, and forward refuses the value
        p = Q(31, 64)
        psi, _ = decreasing_square_root_pair(AffineMap(Q(99, 100), p / 100), 0, 1,
                                             seed=ScalarRootSeed(anchor=Q(1025, 2048)))
        pair = psi.witness.pieces[1]  # the orbit map above p
        ((_, _, seg),) = pair.seed.pieces
        x = p + Q(6517, 10 ** 5)
        y, k = _orbit_land(pair.land, x)
        assert k > scalar_roots._WALK  # carried in factored form
        value = _orbit_carry(pair.land, pair.land, x, y, k, seg)
        assert value == carried_by_power(pair.land, pair.land, x, seg)
        assert value == Q(-9732853, 6600000)
        with pytest.raises(EvaluationRangeError, match=r"-9732853/6600000 outside \[0, 1\]"):
            psi(x)


class TestDeepPoints:
    """Functional equations at points far down the orbit, exactly."""

    @pytest.mark.parametrize("anchor, x", [(Q(3, 4), Q(1, 10 ** 100)),
                                           (Q(1, 10 ** 100), Q(1, 2))])
    def test_increasing_root(self, anchor, x):
        g = AffineMap(Q(99, 100), 0)
        phi = increasing_nth_root(g, 0, 1, 2, ScalarRootSeed(anchor=anchor))
        y = phi(x)
        assert phi(y) == g(x)
        assert phi.inverse(y) == x

    def test_conjugacy(self):
        g1, g2 = AffineMap(Q(99, 100), 0), AffineMap(Q(49, 50), 0)
        h = conjugacy(g1, 0, 1, g2, 0, 1, mf.INC,
                      ScalarRootSeed(anchor=Q(5, 8), image_anchor=Q(7, 8)))
        x = Q(3, 10 ** 100)
        assert h(g1(x)) == g2(h(x))
        assert h.inverse(h(x)) == x

    @pytest.mark.parametrize("side", [1, -1])
    def test_self_pair(self, side):
        p = Q(1, 3)
        g = AffineMap(Q(99, 100), p / 100)
        psi, _ = decreasing_square_root_pair(
            g, 0, 1, seed=ScalarRootSeed(anchor=Q(3, 4), image_anchor=Q(1, 400)))
        x = p + side * Q(7, 10 ** 100)
        y = psi(x)
        assert psi(y) == g(x)
        assert psi.inverse(y) == x

    def test_affine_orbit_past_the_step_cap(self):
        # about 250k halvings from the anchor: more than the step cap
        g = AffineMap(Q(1, 2), 0)
        phi = increasing_nth_root(g, 0, 1, 2, ScalarRootSeed(anchor=Q(3, 4)))
        x = Q(1, 2 ** 250_000)
        y = phi(x)
        assert phi(y) == x / 2
        assert phi.inverse(y) == x


class TestDeclaredIntervals:
    """Orbit maps raise outside their declared interval instead of
    extrapolating along the orbit."""

    def test_seeded_conjugacy(self):
        h = conjugacy(AffineMap(Q(99, 100), 0), 0, 1, AffineMap(Q(49, 50), 0), 0, 1,
                      mf.INC, ScalarRootSeed(anchor=Q(3, 4), image_anchor=Q(1, 2)))
        assert h(Q(3, 4)) == Q(1, 2)
        assert h.inverse(h(1)) == 1
        for x in (Q(-1, 4), Q(5, 4), 2):
            with pytest.raises(EvaluationRangeError):
                h(x)
        with pytest.raises(EvaluationRangeError):
            h.inverse(Q(3, 2))

    def test_seeded_self_pairing(self):
        g = AffineMap(Q(99, 100), Q(1, 300))
        psi, _ = decreasing_square_root_pair(
            g, 0, 1, seed=ScalarRootSeed(anchor=Q(9, 10), image_anchor=Q(1, 300)))
        assert psi(Q(9, 10)) == Q(1, 300)
        assert psi(0) == Q(9, 10)
        assert psi.inverse(Q(1, 300)) == Q(9, 10)
        # this seed sends the top of [0, 1] below 0: psi(1) = -14/255 and
        # psi(19/20) = -0.0258 are refused, not returned
        for x in (Q(-1, 4), Q(5, 4), 1, Q(19, 20)):
            with pytest.raises(EvaluationRangeError):
                psi(x)
        with pytest.raises(EvaluationRangeError):
            psi.inverse(Q(-1, 2))

    def test_mirrored_root_names_the_callers_point(self):
        # x/2 + 1/2 lies above the diagonal on [1/4, 1]: r∘phi∘r with the
        # reflection r(x) = 5/4 − x, which sends 1/8 to 9/8 and 2 to −3/4
        root = scalar_roots._increasing_root_auto(
            AffineMap(Q(1, 2), Q(1, 2)), Q(1, 4), 1, 2, ScalarRootSeed(anchor=Q(1, 4)))
        assert root.recipe[0] == "mirrored"
        for x in (Q(1, 8), 2):
            for direction in (root, root.inverse):
                with pytest.raises(EvaluationRangeError,
                                   match=rf"^{format_scalar(x)} outside \[1/4, 1\]$"):
                    direction(x)
        # 1/4 is an argument of the inverse, but no value of the root
        with pytest.raises(EvaluationRangeError,
                           match=r"^1/4 has no preimage inside \[1/4, 1\]$"):
            root.inverse(Q(1, 4))
        assert root.inverse(root(Q(1, 3))) == Q(1, 3)


def reflected_root_oracle(g, w, p, n, seed, cover=None, confine=None):
    """(forward, backward) of the mirrored root as r∘φ∘r: the orbit root φ
    of the reflected problem between two reflections r(x) = w + p − x,
    refusing an argument outside [w, p] and naming the caller's point when
    a preimage falls outside.  The construction the in-frame orbit map
    replaced, kept as its oracle."""
    pivot = w + p
    r = AffineMap(-1, pivot)
    base = _OrbitMap.root(reflect_map(g, pivot), pivot - p, pivot - w, n,
                          scalar_roots._mirror_seed(seed, pivot),
                          cover=scalar_roots._mirror_triple(cover, pivot),
                          confine=scalar_roots._mirror_triple(confine, pivot))

    def forward(x):
        scalar_roots._in_range(x, w, p)
        return r(base(r(x)))

    def backward(z):
        scalar_roots._in_range(z, w, p)
        try:
            return r(base.inverse(r(z)))
        except EvaluationRangeError:
            raise EvaluationRangeError(
                f"{format_scalar(z)} has no preimage inside "
                f"[{format_scalar(w)}, {format_scalar(p)}]") from None

    return forward, backward


class TestMirroredRoot:
    """A mirrored root is one orbit map of the caller's frame, turned about
    the pivot; it gives the values and the refusals of r∘φ∘r."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_reflected_construction(self, seed):
        rng = random.Random(seed)
        w = Q(rng.randint(0, 8), 16)
        p = w + Q(rng.randint(1, 16), 16)
        s = Q(rng.randint(1, 15), 16)
        g = AffineMap(s, p * (1 - s))  # above the diagonal, attracting to p
        if rng.random() < 0.3:
            g = GenericMap(mf.INC, g, g.inverse, ("g",))  # stepped, not jumped
        n = rng.choice([2, 3, 4])
        anchor = None if rng.random() < 0.5 else w + (p - w) * Q(rng.randint(0, 7), 8)
        cover = confine = None
        if rng.random() < 0.4:
            cover = (rng.randint(1, n - 1), w + (p - w) * Q(rng.randint(1, 7), 8), None)
        if rng.random() < 0.4:
            confine = (rng.randint(1, n - 1), w + (p - w) * Q(rng.randint(1, 7), 8), None)
        args = (g, w, p, n, ScalarRootSeed(anchor=anchor), cover, confine)
        built = outcome(lambda: scalar_roots._root_above(*args, closed_form=False))
        oracle = outcome(lambda: reflected_root_oracle(*args))
        assert built[0] == oracle[0], (built, oracle)
        if built[0] == "error":  # a pin outside the fundamental domain
            assert built == oracle
            return
        root, (forward, backward) = built[2], oracle[2]
        assert root.recipe[0] == "mirrored" and isinstance(root.forward, _OrbitMap)
        assert root.witness is (root.forward if root.forward.exact else None)
        points = [w, p, w - Q(1, 64), p + Q(1, 64),
                  *(w + (p - w) * Q(i, 17) for i in range(1, 17)),
                  *(p - (p - w) / 2 ** k for k in (5, 20, 60))]
        for x in points:
            assert outcome(root, x) == outcome(forward, x), x
            assert outcome(root.inverse, x) == outcome(backward, x), x
            y = outcome(forward, x)
            if y[0] == "ok":
                assert outcome(root.inverse, y[2]) == outcome(backward, y[2]), y


def _glue_cases():
    def root():
        return scalar_roots._increasing_root_auto(
            AffineMap(Q(1, 2), Q(1, 4)), 0, 1, 2, scalar_roots.DEFAULT_SEED,
            cover=(1, Q(1, 10), Q(9, 10)), allow_interior=True)

    def conj(intercept):
        return lambda: conjugacy(AffineMap(Q(1, 2), Q(1, 4)), 0, 1,
                                 AffineMap(Q(1, 3), intercept), 0, 1, mf.INC)

    def odd():
        return decreasing_odd_root(AffineMap(Q(-1, 4), Q(13, 16)), Q(1, 2), 1, 3)

    # (build, domain, q_in, q_out, recipe)
    return {
        "glued_root": (root, (0, 1), Q(1, 2), Q(1, 2), ("glued_root", "1/2")),
        "glued_conjugacy": (conj(Q(1, 3)), (0, 1), Q(1, 2), Q(1, 2),
                            ("glued_conjugacy", "1/2", "1/2")),
        "glued_conjugacy_shifted": (conj(Q(1, 4)), (0, 1), Q(1, 2), Q(3, 8),
                                    ("glued_conjugacy", "1/2", "3/8")),
        "dec_glue": (odd, (Q(1, 2), 1), Q(13, 20), Q(13, 20), ("dec_glue", "13/20")),
    }


class TestMapPattern:
    @pytest.mark.parametrize("pieces, attracting", [
        ((AffineMap(Q(1, 2), Q(1, 4)), AffineMap(Q(1, 4), Q(3, 8))), True),
        ((AffineMap(2, Q(-1, 2)), AffineMap(3, -1)), False),
    ])
    def test_a_sample_on_the_fixed_point(self, pieces, attracting):
        # both pieces fix 1/2, which one of the 65 samples hits exactly
        g = GluedMap((Q(1, 2),), pieces)
        pattern = scalar_roots.map_pattern(g, 0, 1)
        assert pattern == scalar_roots.MapPattern("interior", Q(1, 2), attracting)
        assert isinstance(pattern.fixed, Q)

    def test_two_fixed_points_are_refused(self):
        # fixed points 1/2, a sample, and 151/200, between two samples
        def g(x):
            return x - (x - Q(1, 2)) * (x - Q(151, 200))

        with pytest.raises(IncompatiblePatternError, match="multiple interior"):
            scalar_roots.map_pattern(g, 0, 1)


class TestGlue:
    """One glue serves the interior-fixed-point root, the conjugacy and
    the decreasing odd root."""

    @pytest.mark.parametrize("name", sorted(_glue_cases()))
    def test_glued_map(self, name):
        build, (lo, hi), q_in, q_out, recipe = _glue_cases()[name]
        f = build()
        assert isinstance(f, GenericMap) and f.recipe == recipe
        assert f(q_in) == q_out and f.inverse(q_out) == q_in
        below = [lo + (q_in - lo) * Q(i, 8) for i in range(1, 8)]
        above = [q_in + (hi - q_in) * Q(i, 8) for i in range(1, 8)]
        for x in below + above:
            assert abs(float(f.inverse(f(x)) - x)) <= 1e-12
            w = f(x)
            assert abs(float(f(f.inverse(w)) - w)) <= 1e-12
        values = [f(x) for x in below + [q_in] + above]
        if f.orientation is mf.DEC:
            values.reverse()
        assert all(a < b for a, b in zip(values, values[1:]))


class TestClosedForm:
    """One affine closed form serves every orientation and order, and one
    gate checks its requirements."""

    @pytest.mark.parametrize("g, n, orientation", [
        (AffineMap(Q(1, 4), Q(3, 8)), 2, mf.INC),
        (AffineMap(Q(8, 27), Q(1, 3)), 3, mf.INC),
        (AffineMap(Q(4, 9), Q(5, 18)), 2, mf.DEC),
        (AffineMap(Q(-1, 8), Q(9, 16)), 3, mf.DEC),
        (AffineMap(Q(-1, 32), Q(33, 64)), 5, mf.DEC),
    ])
    def test_exact(self, g, n, orientation):
        phi = scalar_roots._affine_root(g, n, orientation)
        assert isinstance(phi, AffineMap) and phi.orientation is orientation
        assert iterate_map(phi, n) == g
        assert phi(g.fixed_point()) == g.fixed_point()

    @pytest.mark.parametrize("g, n, orientation, recipe", [
        (AffineMap(Q(1, 2), Q(1, 4)), 2, mf.INC, ("orbit_root", 2, "1", ("7/8",))),
        (AffineMap(Q(1, 3), Q(1, 3)), 3, mf.INC, ("orbit_root", 3, "1", ("8/9", "7/9"))),
        (AffineMap(Q(1, 3), Q(1, 9)), 2, mf.DEC, ("self_pair_sqrt", "1", "0")),
        (AffineMap(Q(-1, 4), Q(13, 16)), 3, mf.DEC, ("dec_glue", "13/20")),
        (AffineMap(Q(-1, 2), Q(3, 4)), 5, mf.DEC, ("dec_glue", "1/2")),
    ])
    def test_float_backed(self, g, n, orientation, recipe):
        """An irrational slope root has no closed form: the public entry
        point builds the exact orbit root (on [p, 1] above the fixed point
        p when increasing, on [0, 1] when decreasing)."""
        assert scalar_roots._affine_root(g, n, orientation) is None
        if orientation is mf.INC:
            lo = g.fixed_point()
            phi = increasing_nth_root(g, lo, 1, n)
        elif n == 2:
            lo = 0
            phi, _ = decreasing_square_root_pair(g, 0, 1)
        else:
            lo = 0
            phi = decreasing_odd_root(g, 0, 1, n)
        assert isinstance(phi, GenericMap) and phi.orientation is orientation
        assert phi.recipe == recipe and phi.witness is not None
        pts = [lo + (1 - lo) * x for x in GRID[::97]]
        assert all(iterate_map(phi, n)(x) == g(x) for x in pts)
        assert all(phi.inverse(phi(x)) == x for x in pts)

    def test_no_increasing_root_of_a_decreasing_map(self):
        assert scalar_roots._affine_root(AffineMap(Q(-1, 4), 0), 2, mf.INC) is None

    def test_gate_reads_sorted_ends(self):
        gate = scalar_roots._closed_form
        # the cube root -x/2 + 27/20 sends [0, 1] onto [17/20, 27/20]
        g = AffineMap(Q(-1, 8), Q(81, 80))
        phi = scalar_roots._affine_root(g, 3, mf.DEC)
        assert phi == AffineMap(Q(-1, 2), Q(27, 20))
        # read unsorted, as for an increasing map, its ends stay inside
        assert phi(1) <= 1 and phi(0) >= 0
        assert gate(g, 3, 0, 1, confine=(1, 0, 1), orientation=mf.DEC) is None
        # the square root -x/2 + 3/4 sends [0, 1] onto [1/4, 3/4]
        g = AffineMap(Q(1, 4), Q(3, 8))
        phi = AffineMap(Q(-1, 2), Q(3, 4))
        assert gate(g, 2, 0, 1, (1, None, Q(7, 8)), orientation=mf.DEC) is None
        assert gate(g, 2, 0, 1, (1, Q(1, 8), None), orientation=mf.DEC) is None
        assert gate(g, 2, 0, 1, (1, Q(1, 4), Q(3, 4)), (1, 0, 1),
                    orientation=mf.DEC) == phi
        assert gate(g, 2, 0, 1, confine=(1, Q(1, 2), 1), orientation=mf.DEC) is None

    def test_interior_repelling_form_meets_the_requirements(self):
        # the root 2x - 1/2 of x -> 4x - 3/2 (fixed point 1/2, repelling)
        # sends 0 to -1/2, outside the confinement [0, 1]
        g = AffineMap(4, Q(-3, 2))
        auto = scalar_roots._increasing_root_auto
        assert auto(g, 0, 1, 2, scalar_roots.DEFAULT_SEED,
                    allow_interior=True) == AffineMap(2, Q(-1, 2))
        with pytest.raises(IncompatiblePatternError, match="repelling"):
            auto(g, 0, 1, 2, scalar_roots.DEFAULT_SEED, cover=(1, Q(1, 4), Q(3, 4)),
                 confine=(1, 0, 1), allow_interior=True)
        with pytest.raises(IncompatiblePatternError, match="repelling"):
            auto(g, 0, 1, 2, scalar_roots.DEFAULT_SEED, cover=(1, -1, 2),
                 allow_interior=True)


def seed_inverse_by_scan(seed, w):
    """The seed map's inverse as a scan of every piece's image, in order."""
    for lo, hi, m in seed.pieces:
        ends = (m(lo), m(hi))
        if min(ends) <= w <= max(ends):
            return m.inverse(w)
    raise EvaluationRangeError(f"{format_scalar(w)} outside the seed image")


def outcome(fn, *args):
    try:
        return ("ok", type(value := fn(*args)), value)
    except Exception as exc:
        return ("error", type(exc), str(exc))


class TestSeedMap:
    """The seed map's inverse bisects image ends taken once; it answers as
    the scan did, on seeded orbit roots and on those inside built roots."""

    @pytest.mark.parametrize("seed", range(30))
    def test_inverse_matches_the_scan(self, seed):
        rng = random.Random(seed)
        s = Q(rng.randint(1, 15), 16)
        u = Q(rng.randint(0, 8), 16)
        v = u + Q(rng.randint(1, 16), 16)
        g = AffineMap(s, u * (1 - s))
        n = rng.choice([2, 3, 4, 5])
        anchor = None if rng.random() < 0.5 else u + (v - u) * Q(rng.randint(1, 8), 8)
        if rng.random() < 0.3:
            g = GenericMap(mf.INC, g, g.inverse, ("g",))  # stepped, not jumped
        self.check(_OrbitMap.root(g, u, v, n, ScalarRootSeed(anchor=anchor)))

    @pytest.mark.parametrize("seed", range(30))
    def test_built_roots(self, seed):
        F = random_direct_routed(random.Random(seed))
        for n in (2, 3):
            for br in builder.build_increasing_root(F, n).realized.branches:
                for root in lazy_objects(br.map):
                    if root.name.endswith("orbit root"):
                        self.check(root)

    def check(self, root):
        ends = sorted({e for lo, hi, m in root.seed.pieces for e in (m(lo), m(hi))})
        points = [*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:])),
                  *((2 * a + b) / 3 for a, b in zip(ends, ends[1:])),
                  ends[0] - Q(1, 64), ends[-1] + Q(1, 64), float(ends[1]), float(ends[-1])]
        def inverse(w):
            return root.seed.inverse_piece(w).inverse(w)

        for w in points:
            assert outcome(inverse, w) == outcome(seed_inverse_by_scan, root.seed, w), w


def _generic_maps(m):
    """The generic maps in m, through witnesses, compositions and glues."""
    if isinstance(m, GenericMap):
        yield m
        m = m.witness
    if isinstance(m, (ComposedMap, GluedMap)):
        for part in m.maps if isinstance(m, ComposedMap) else m.pieces:
            yield from _generic_maps(part)


class TestEvaluationCache:
    def lazy_root(self):
        # x -> x/4 on [0, 1], seeded at 1 with division 3/4: an orbit root
        return increasing_nth_root(AffineMap(Q(1, 4), 0), 0, 1, 2,
                                   ScalarRootSeed(anchor=1, divisions=(Q(3, 4),)))

    def test_memoizes_exact_points_only_inside_the_block(self):
        phi = self.lazy_root()
        root = phi.forward
        assert scalar_roots._EVALUATIONS.get() is None
        with scalar_roots.evaluation_cache():
            memo = scalar_roots._EVALUATIONS.get()
            first = phi(Q(1, 3))
            assert phi(Q(1, 3)) == first and len(memo) == 1
            assert phi.inverse(first) == Q(1, 3) and len(memo) == 2
            # keyed on the object's id: another root with equal data has its
            # own entry, and each entry holds its map alive
            other = self.lazy_root()
            assert other(Q(1, 3)) == first and len(memo) == 3
            key = (id(root), _OrbitMap.__call__.__wrapped__, Q, 1, 3)
            assert memo[key][0] is root and memo[key][1] == first
        assert scalar_roots._EVALUATIONS.get() is None

    def test_both_directions_are_built_once(self):
        phi = self.lazy_root()
        root = phi.forward
        assert phi.inverse_map().inverse_map().forward is root
        with scalar_roots.evaluation_cache():
            memo = scalar_roots._EVALUATIONS.get()
            w = phi(Q(1, 3))
            for _ in range(2):
                assert phi.inverse_map()(w) == Q(1, 3) and len(memo) == 2
                assert phi.inverse_map().inverse_map()(Q(1, 3)) == w and len(memo) == 2
            assert memo[(id(root.partner), _OrbitMap.__call__.__wrapped__, Q,
                         w.numerator, w.denominator)] == (root.partner, Q(1, 3))
        assert phi.inverse_map().witness is root.partner and root.partner.partner is root

    def test_float_is_never_served_an_exact_value(self):
        phi = self.lazy_root()
        outside = phi(0.5)
        with scalar_roots.evaluation_cache():
            exact = phi(Q(1, 2))
            inside = phi(0.5)
            assert len(scalar_roots._EVALUATIONS.get()) == 1
        assert isinstance(exact, Q)
        assert type(inside) is float and inside == outside

    def test_errors_are_not_cached(self):
        phi = self.lazy_root()
        with scalar_roots.evaluation_cache():
            for _ in range(2):
                with pytest.raises(EvaluationRangeError):
                    phi(Q(3, 2))
            assert not scalar_roots._EVALUATIONS.get()

    def test_dropped_when_the_block_raises(self):
        with pytest.raises(KeyError):
            with scalar_roots.evaluation_cache():
                self.lazy_root()(Q(1, 3))
                raise KeyError("boom")
        assert scalar_roots._EVALUATIONS.get() is None

    def finish_case(self):
        F = load_mf(data_path("absorbing_target.mf"))
        art = builder.build_increasing_root(F, 3)
        return F, art

    def test_finish_shares_one_cache_and_drops_it(self, monkeypatch):
        F, art = self.finish_case()
        seen = []
        real_verify = builder.verify_root

        def spy(f, G, n):
            seen.append(dict(scalar_roots._EVALUATIONS.get()))
            return real_verify(f, G, n)

        monkeypatch.setattr(builder, "verify_root", spy)
        again = builder._finish(F, art.realized, 3, "increasing", "inc", {})
        assert again.verification == art.verification
        # validation filled the cache that verification then read
        assert len(seen) == 1 and seen[0]
        assert scalar_roots._EVALUATIONS.get() is None

    def test_finish_drops_the_cache_when_it_raises(self, monkeypatch):
        F, art = self.finish_case()

        def failing(f, G, n):
            assert scalar_roots._EVALUATIONS.get()
            raise EvaluationRangeError("verification failed")

        monkeypatch.setattr(builder, "verify_root", failing)
        with pytest.raises(EvaluationRangeError):
            builder._finish(F, art.realized, 3, "increasing", "inc", {})
        assert scalar_roots._EVALUATIONS.get() is None
        # a root that fails validation raises before verification
        br = art.realized.branches[0]
        bent = GenericMap(mf.INC, lambda x: -x, lambda w: -w, ("bent",))
        broken = mf.Multifunction(art.realized.domain, mf.INC,
                                  (mf.Branch(br.lo, br.hi, bent), *art.realized.branches[1:]),
                                  art.realized.jumps)
        with pytest.raises(mf.errors.MfError, match="fails validation"):
            builder._finish(F, broken, 3, "increasing", "inc", {})
        assert scalar_roots._EVALUATIONS.get() is None

    @pytest.mark.parametrize("kind", ["glued", "mirrored"])
    def test_finish_hashes_no_composed_map(self, kind, monkeypatch):
        # a decreasing square root glues two conjugacies, and a decreasing
        # cubic root holds a mirrored orbit root inside its compositions,
        # as the orbit map itself, not as a generic map
        if kind == "glued":
            F, n = random_reversing_pair_target(random.Random(0)), 2
            art = builder.build_decreasing_square_root(F)
        else:
            F, n = random_dec_selfpair_target(random.Random(0)), 3
            art = builder.build_decreasing_odd_root(F, 3)
        recipes = {m.recipe[0] for br in art.realized.branches
                   for m in _generic_maps(br.map)}
        chained = {m.recipe[0] for br in art.realized.branches
                   for chain in compositions(br.map) for m in chain.maps
                   if isinstance(m, _OrbitMap) and m.recipe}
        if kind == "glued":
            assert "glued_conjugacy" in recipes
        else:
            assert "mirrored" in chained and "mirrored" not in recipes
        hashed, evaluated = [], []
        call = ComposedMap.__call__
        monkeypatch.setattr(ComposedMap, "__hash__", lambda m: hashed.append(m) or id(m))
        monkeypatch.setattr(ComposedMap, "__call__",
                            lambda m, x: evaluated.append(m) or call(m, x))
        again = builder._finish(F, art.realized, n, art.recipe.pipeline,
                                art.recipe.orientation, art.recipe.payload)
        assert again.verification == art.verification
        assert evaluated and not hashed

    def test_orbit_steps_of_a_build(self, monkeypatch):
        # building and checking the cube root of the absorbing fixture
        # lands points on fundamental domains 304 times without the shared
        # cache and the proven validation, and 107 times with them
        calls = []
        land = scalar_roots._orbit_land

        def counted(dom, x):
            calls.append(x)
            return land(dom, x)

        monkeypatch.setattr(scalar_roots, "_orbit_land", counted)
        builder.build_increasing_root(load_mf(data_path("absorbing_target.mf")), 3)
        assert 0 < len(calls) <= 200

    def test_orbit_spans_are_not_memoized(self):
        # an orbit map keeps its cells itself (TestOrbitCells), so its spans
        # answer the same inside and outside a cache and are not stored
        phi = self.lazy_root()
        root = phi.forward
        lo, hi = Q(1, 1000), Q(1, 2)
        outside = self.lazy_root().forward.breaks(lo, hi)
        with scalar_roots.evaluation_cache():
            memo = scalar_roots._EVALUATIONS.get()
            for _ in range(2):
                assert root.breaks(lo, hi) == phi.breaks(lo, hi) == outside
                with pytest.raises(NoExactProofError, match="accumulate"):
                    root.breaks(Q(0), hi)  # the span holds the attracting point
            assert not memo
        assert scalar_roots._EVALUATIONS.get() is None
        assert root.breaks(lo, hi) == outside

    def test_glued_and_composed_spans_are_not_memoized(self):
        phi = self.lazy_root()
        r = AffineMap(-1, 1)
        lo, hi = Q(1, 10), Q(3, 4)

        def maps():
            composed = compose_maps(r, phi, r)  # reflected: attracting at 1
            glued = GluedMap((Q(1, 2),), (phi, AffineMap(Q(3, 2), Q(-1, 2))), (phi(Q(1, 2)),))
            return composed, glued

        outside = [(m.breaks(lo, hi), m.limits(lo, hi)) for m in maps()]
        assert outside[0][1] == () and outside[1][0]
        for m, want in zip(maps(), outside):
            with scalar_roots.evaluation_cache():
                memo = scalar_roots._EVALUATIONS.get()
                for _ in range(2):
                    assert (m.breaks(lo, hi), m.limits(lo, hi)) == want
                assert not any(entry[0] is m for entry in memo.values())
            assert (m.breaks(lo, hi), m.limits(lo, hi)) == want


def old_orbit_points(dom, knots, lo, hi):
    """The orbit points as they were taken with a set and a sort: the
    reference for the ordered walk."""
    k_lo, k_hi = sorted((_orbit_land(dom, lo)[1], _orbit_land(dom, hi)[1]))
    out = set()
    for t in knots:
        y = _orbit_land(dom, t)[0]
        for k in range(k_lo, k_hi + 1):
            x = _orbit_power(dom, y, -k)
            if lo < x < hi:
                out.add(x)
    return sorted(out)


def old_breaks(m, lo, hi) -> tuple:
    seed = m.seed
    knots = {*seed.img_los, *seed.img_his} if m.inverted else (*seed.los, seed.top)
    return tuple(old_orbit_points(m.land, knots, lo, hi))


class TestOrbitPoints:
    """An orbit map's breaks come from its seed's knots landed once per
    seed, walked power by power in order: the same points as the set and
    sort gave."""

    def orbit_map(self, kind, s, anchor, n):
        """An orbit root of x ↦ sx on [0, 1], or the orbit map of a self
        pairing around 1/3 (above 1/3; its partner lies below)."""
        if kind == "root":
            return _OrbitMap.root(AffineMap(s, 0), 0, 1, n, ScalarRootSeed(anchor=anchor))
        p = Q(1, 3)
        g = AffineMap(s, p * (1 - s))
        psi, _ = decreasing_square_root_pair(
            g, 0, 1, seed=ScalarRootSeed(anchor=p + (1 - p) * anchor,
                                         image_anchor=g(0) * anchor))
        return psi.witness.pieces[1]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["root", "pair"]), st.booleans(),
           st.fractions(min_value=Q(1, 16), max_value=Q(15, 16), max_denominator=16),
           st.fractions(min_value=Q(1, 4), max_value=1, max_denominator=8),
           st.integers(2, 4),
           st.lists(st.fractions(min_value=Q(1, 10 ** 6), max_value=1,
                                 max_denominator=10 ** 6), min_size=2, max_size=2, unique=True))
    def test_breaks_match_the_set_and_sort(self, kind, inverted, s, anchor, n, ends):
        m = self.orbit_map(kind, s, anchor, n)
        if inverted:
            m = m.partner
        # a span between the attracting point and the domain's anchor
        base = m.ends[0][0]
        lo, hi = sorted(base + t * (m.land.anchor - base) for t in ends)
        try:
            want = old_breaks(m, lo, hi)
        except EvaluationRangeError:
            with pytest.raises(EvaluationRangeError):
                m.breaks(lo, hi)
            return
        got = m.breaks(lo, hi)
        assert got == want
        assert all(a < b for a, b in zip(got, got[1:]))

    def test_both_walk_directions(self):
        # the self pairing's orbit map lands above p, where g moves points
        # down, and its partner below p, where g moves them up
        m, p = self.orbit_map("pair", Q(1, 2), Q(3, 4), 2), Q(1, 3)
        assert m.land.down and not m.partner.land.down
        for om, lo, hi in ((m, p + Q(1, 1000), Q(1)), (m.partner, Q(1, 1000), p - Q(1, 1000))):
            got = om.breaks(lo, hi)
            assert len(got) > 4 and got == old_breaks(om, lo, hi)

    @pytest.mark.parametrize("kind,inverted", [("root", False), ("root", True),
                                               ("pair", False), ("pair", True)])
    def test_cells_are_taken_once_per_knot_and_cell(self, kind, inverted, monkeypatch):
        m = self.orbit_map(kind, Q(1, 2), Q(3, 4), 3)
        if inverted:
            m = m.partner
        base, anchor = m.ends[0][0], m.land.anchor
        # overlapping spans between the attracting point and the anchor
        spans = [tuple(sorted((base + t * (anchor - base), base + u * (anchor - base))))
                 for t, u in ((Q(1, 1000), Q(1, 2)), (Q(1, 100), Q(3, 4)),
                              (Q(1, 3000), Q(1, 10)), (Q(1, 1000), Q(1, 2)))]
        calls = []
        power = scalar_roots._orbit_power
        monkeypatch.setattr(scalar_roots, "_orbit_power",
                            lambda dom, z, k: calls.append((z, k)) or power(dom, z, k))
        got = [m.breaks(lo, hi) for lo, hi in spans]
        knots = m.seed.landed(m.land, m.inverted)
        cells = {k for _, k in calls}
        assert len(cells) > 4 and sorted(calls) == sorted((z, k) for z in knots for k in cells)
        monkeypatch.setattr(scalar_roots, "_orbit_power", power)
        fresh = self.orbit_map(kind, Q(1, 2), Q(3, 4), 3)
        if inverted:
            fresh = fresh.partner
        for (lo, hi), want in zip(spans, got):
            assert fresh.breaks(lo, hi) == want == old_breaks(m, lo, hi)

    def test_new_domain_reuses_no_cells(self):
        g = AffineMap(Q(1, 2), 0)
        root = _OrbitMap.root(g, 0, 1, 2, ScalarRootSeed(anchor=1))
        lo, hi = Q(1, 100), Q(7, 8)
        before = root.breaks(lo, hi)
        assert before == old_breaks(root, lo, hi)
        # a domain of x ↦ x/4 at the same anchor: its orbits differ
        root.land = _Domain(AffineMap(Q(1, 4), 0), Q(1))
        after = root.breaks(lo, hi)
        assert after == old_breaks(root, lo, hi) and after != before

    def test_reseeded_map_reads_no_stale_knots(self):
        g = AffineMap(Q(1, 2), 0)
        root = _OrbitMap.root(g, 0, 1, 2, ScalarRootSeed(anchor=1))
        lo, hi = Q(1, 100), Q(1, 1)
        before = root.breaks(lo, hi)
        assert Q(3, 4) in before
        # move the division from 3/4 to 5/8, as a mutation test does
        (a, b, m0), (c, d, m1) = root.seed.pieces
        root.seed = root.partner.seed = _SeedMap([(a, Q(5, 8), m0), (Q(5, 8), d, m1)])
        after = root.breaks(lo, hi)
        assert Q(5, 8) in after and Q(3, 4) not in after
        assert after == old_breaks(root, lo, hi)
        assert root.partner.breaks(lo, Q(1, 2)) == old_breaks(root.partner, lo, Q(1, 2))
