"""Exact verification of lazy roots (``core.prove_equivalent``).

The proof must agree with the grid wherever both apply, must never pass a
root whose data were perturbed, and must leave the grid only to roots
that hold an opaque map without a witness, saying so in the report.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots.builder import (
    Certificate,
    RootArtifact,
    _end_orbit_hit,
    _finish,
    build_decreasing_odd_root,
    build_decreasing_square_root,
    build_increasing_root,
    recheck_certificate,
    verify_root,
)
from mfroots.core import (
    Branch,
    JumpPoint,
    Multifunction,
    ValueSet,
    _exact_value,
    _piece_points,
    _prove_monotone,
    _span_pieces,
    _witness_spans,
    equivalent,
    iterate,
    prove_equivalent,
)
from mfroots.errors import DomainMismatchError, MfError, NoExactProofError
from mfroots.io import load_mf
from mfroots.maps import (
    AffineMap,
    ComposedMap,
    GenericMap,
    GluedMap,
    Guard,
    compose_maps,
    iterate_map,
)
from mfroots.scalar_roots import (
    ScalarRootSeed,
    _OrbitMap,
    _SeedMap,
    increasing_nth_root,
)

from conftest import (
    compositions,
    data_path,
    lazy_objects,
    random_dec_selfpair_target,
    random_direct_routed,
    random_reversing_pair_target,
)

DELTA = Q(1, 2 ** 40)


def build(kind, seed, n=2):
    rng = random.Random(seed)
    if kind == "inc":
        F = random_direct_routed(rng)
        return F, n, build_increasing_root(F, n)
    if kind == "sq":
        F = random_reversing_pair_target(rng)
        return F, 2, build_decreasing_square_root(F)
    F = random_dec_selfpair_target(rng)
    return F, 3, build_decreasing_odd_root(F, 3)


def float_root() -> GenericMap:
    """An opaque user map without a witness: the square root x/√2 of x/2."""
    a = 0.5 ** 0.5
    return GenericMap(mf.INC, lambda x: a * float(x), lambda w: float(w) / a,
                      ("user sqrt",))


class TestAgainstGrid:
    """Every built root is verified exactly, is validated from its witnesses
    without sampling, and passes the grid with deviation 0."""

    def check(self, F, n, art):
        if not isinstance(art, RootArtifact):
            return
        v = art.verification
        assert v.passed and v.exact, v
        assert art.realized.validate().sampled == ()
        grid = equivalent(iterate(art.realized, n), F)
        assert grid.equal and grid.max_deviation == 0, grid

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
    def test_direct_routed(self, seed, n):
        self.check(*build("inc", seed, n))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reversing_pair(self, seed):
        self.check(*build("sq", seed))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_dec_selfpair(self, seed):
        self.check(*build("odd", seed))


# ---------------------------------------------------------------------------
# mutations: perturb one datum by 2^-40, the proof must not pass
# ---------------------------------------------------------------------------

def exact_roots(kind, n=2, count=6):
    """Built roots (F, n, artifact); each must be verified exactly, since a
    grid check passes a perturbation of 2^-40."""
    out = []
    for seed in range(count):
        F, k, art = build(kind, seed, n)
        if isinstance(art, RootArtifact):
            assert art.verification.exact, art.verification
            out.append((F, k, art))
    return out


def is_a(obj, name):
    """Whether obj is either direction of an orbit map called ``name``."""
    return isinstance(obj, _OrbitMap) and obj.name.removeprefix("inverse ") == name


def roots_with(kind, name, n=2, count=40):
    """Exactly verified roots (F, n, artifact) whose maps hold an orbit map
    called ``name``."""
    out = []
    for F, k, art in exact_roots(kind, n, count):
        if any(
                is_a(o, name) for br in art.realized.branches
                for o in lazy_objects(br.map)):
            out.append((F, k, art))
    return out


def first(art, name):
    return next(o for br in art.realized.branches for o in lazy_objects(br.map)
                if is_a(o, name))


def reseed(orbit_map, pieces):
    """Give both directions of an orbit map, which read one seed, the seed
    map of ``pieces``."""
    orbit_map.seed = orbit_map.partner.seed = _SeedMap(pieces)


def nudge(m: AffineMap) -> AffineMap:
    return AffineMap(m.slope, m.intercept + DELTA)


def assert_not_passed(f, F, n):
    try:
        report = verify_root(f, F, n)
    except mf.errors.MfError:
        return  # e.g. the perturbed root maps out of the domain: refused
    assert not report.passed, report


class TestMutations:
    @pytest.mark.parametrize("kind,n", [("inc", 2), ("inc", 3), ("odd", 3)])
    def test_seed_division(self, kind, n):
        cases = roots_with(kind, "orbit root", n)
        assert cases
        for F, k, art in cases[:4]:
            root = first(art, "orbit root")
            pieces = list(root.seed.pieces)
            lo, hi, m = pieces[1]
            prev_lo, _, prev_m = pieces[0]
            pieces[0] = (prev_lo, lo - DELTA, prev_m)
            pieces[1] = (lo - DELTA, hi, m)
            reseed(root, pieces)
            assert_not_passed(art.realized, F, k)

    @pytest.mark.parametrize("kind,name,n", [("inc", "orbit root", 2),
                                             ("odd", "orbit root", 3),
                                             ("sq", "orbit conjugacy", 2)],
                             ids=["inc-orbit_root-2", "odd-orbit_root-3",
                                  "sq-orbit_conjugacy-2"])
    def test_seed_piece(self, kind, name, n):
        cases = roots_with(kind, name, n)
        assert cases
        for F, k, art in cases[:4]:
            obj = first(art, name)
            # a conjugacy's seed is its one segment
            pieces = list(obj.seed.pieces)
            lo, hi, m = pieces[0]
            pieces[0] = (lo, hi, nudge(m))
            reseed(obj, pieces)
            assert_not_passed(art.realized, F, k)

    @pytest.mark.parametrize("kind,n", [("inc", 2), ("inc", 3), ("odd", 3)])
    def test_seed_piece_turned_about_its_end(self, kind, n):
        # the piece keeps its value at its lower end, and the next piece
        # takes over at its upper end: the map is wrong only inside it
        for F, k, art in roots_with(kind, "orbit root", n)[:4]:
            root = first(art, "orbit root")
            pieces = list(root.seed.pieces)
            for i, (lo, hi, m) in enumerate(pieces):
                turned = AffineMap(m.slope + DELTA, m.intercept - DELTA * lo)
                reseed(root, [*pieces[:i], (lo, hi, turned), *pieces[i + 1:]])
                assert_not_passed(art.realized, F, k)
            reseed(root, pieces)

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    def test_extension_branch(self, kind):
        for F, k, art in exact_roots(kind):
            f = art.realized
            branches = list(f.branches)
            br = branches[-1]
            branches[-1] = Branch(br.lo, br.hi, compose_maps(AffineMap(1, DELTA), br.map))
            assert_not_passed(Multifunction(f.domain, f.orientation, tuple(branches),
                                            f.jumps), F, k)

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    def test_root_jump_value(self, kind):
        for F, k, art in exact_roots(kind):
            f = art.realized
            jp = f.jumps[0]
            c = jp.value.components[0]
            value = ValueSet((mf.ClosedInterval(c.lo + DELTA, c.hi),
                              *jp.value.components[1:]))
            jumps = (JumpPoint(jp.location, value), *f.jumps[1:])
            assert_not_passed(Multifunction(f.domain, f.orientation, f.branches, jumps),
                              F, k)

    def test_self_pairing_segment(self):
        # x -> 99x/100 + 1/300 maps [3/10, 2/5] into itself around its
        # fixed point 1/3; the seed keeps the pairing off its closed form
        g = AffineMap(Q(99, 100), Q(1, 300))
        u, v = Q(3, 10), Q(2, 5)
        F = Multifunction.build(u, v, [(u, v, g.slope, g.intercept)])
        psi, _ = mf.decreasing_square_root_pair(
            g, u, v, seed=ScalarRootSeed(anchor=v, image_anchor=u))
        f = Multifunction(F.domain, mf.DEC, (Branch(u, v, psi),), ())
        report = verify_root(f, F, 2)
        assert report.passed and report.exact, report
        # psi's two directions glued at the fixed point read one segment
        pair = next(lazy_objects(psi))
        ((lo, hi, seg),) = pair.seed.pieces
        reseed(pair, [(lo, hi, nudge(seg))])
        assert_not_passed(f, F, 2)


# ---------------------------------------------------------------------------
# the pieces maps report
# ---------------------------------------------------------------------------

class TestWitnesses:
    def quarter_root(self):
        # square root of x -> x/4 on [0, 1], seeded at 1 with division 3/4
        return increasing_nth_root(AffineMap(Q(1, 4), 0), 0, 1, 2,
                                   ScalarRootSeed(anchor=1, divisions=(Q(3, 4),)))

    def test_orbit_root_pieces(self):
        phi = self.quarter_root()
        assert phi.recipe[0] == "orbit_root"
        # knots 1, 3/4 (and 1/4 = g(1)) and their orbit images
        assert phi.breaks(Q(1, 8), Q(15, 16)) == (Q(3, 16), Q(1, 4), Q(3, 4))
        assert phi.limits(0, 1) == (0,)
        assert phi.limits(Q(1, 8), 1) == ()
        with pytest.raises(NoExactProofError):
            phi.breaks(0, 1)
        assert phi.germ(0, 1) == [phi.witness]
        assert phi.witness.generators(0) == (AffineMap(Q(1, 4), 0),) * 2
        assert phi.witness.generators(Q(1, 2)) is None
        # the inverse reports the images of the forward pieces
        inv = phi.inverse_map()
        assert inv.breaks(Q(1, 64), Q(3, 4)) == tuple(
            sorted(phi(x) for x in phi.breaks(phi.inverse(Q(1, 64)), phi.inverse(Q(3, 4)))))
        # between breaks the map is affine
        pts = (Q(1, 8), *phi.breaks(Q(1, 8), Q(15, 16)), Q(15, 16))
        for a, b in zip(pts, pts[1:]):
            mid = (a + b) / 2
            assert phi(mid) - phi(a) == phi(b) - phi(mid)

    def test_composed_pullback(self):
        phi = self.quarter_root()
        K = AffineMap(Q(1, 4), 0)
        # the inner map sends [0, 1] onto [1/8, 5/8], where phi breaks at
        # 3/16 and 1/4; they pull back to 1/8 and 1/4
        word = compose_maps(K.inverse_map(), phi, AffineMap(Q(1, 2), Q(1, 8)))
        assert word.breaks(0, 1) == (Q(1, 8), Q(1, 4))
        assert word.limits(0, 1) == ()
        assert word.limits(Q(-1, 4), 1) == (Q(-1, 4),)

    def test_glued_germ_guards(self):
        root = mf.scalar_roots._increasing_root_auto(
            AffineMap(Q(1, 2), Q(1, 4)), 0, 1, 2, mf.scalar_roots.DEFAULT_SEED,
            cover=(1, Q(1, 10), Q(9, 10)), allow_interior=True)
        assert root.recipe[0] == "glued_root"
        assert root.limits(0, 1) == (Q(1, 2),)
        left, right = root.germ(Q(1, 2), -1), root.germ(Q(1, 2), 1)
        assert isinstance(left[0], Guard) and left[0].knots == (Q(1, 2),)
        # the mirrored piece is one orbit map of this frame, attracting to
        # 1/2 along g itself on both sides
        g = AffineMap(Q(1, 2), Q(1, 4))
        assert len(left) == 2 and isinstance(left[1], _OrbitMap)
        assert left[1].recipe[0] == "mirrored" and right[1].recipe[0] == "orbit_root"
        assert left[1] is not right[1]
        assert left[1].generators(Q(1, 2)) == (g, g)
        assert right[1].generators(Q(1, 2)) == (g, g)

    @pytest.mark.parametrize("slope", [Q(1, 4), Q(1, 9)])
    def test_generator_handed_on_once_per_orbit_map(self, slope, monkeypatch):
        # phi2 ∘ (x ↦ 2x) ∘ (x ↦ x − 1/2) ∘ phi1 near 1/2, where phi1 is an
        # orbit root attracting to 1/2 along x ↦ 1/2 + (x − 1/2)/4 and phi2
        # one attracting to 0 along x ↦ slope·x: the two affine items hand
        # phi1's generator on as x ↦ x/4, conjugated once
        half = Q(1, 2)
        phi1 = _OrbitMap.root(AffineMap(Q(1, 4), half * Q(3, 4)), half, 1, 2,
                              ScalarRootSeed(anchor=1))
        phi2 = _OrbitMap.root(AffineMap(slope, 0), 0, 1, 2, ScalarRootSeed(anchor=1))
        W = ComposedMap((phi2, AffineMap(2, 0), AffineMap(1, -half), phi1))
        calls = []
        compose = mf.core.compose_maps
        monkeypatch.setattr(mf.core, "compose_maps", lambda *m: calls.append(m) or compose(*m))
        if slope == Q(1, 4):
            assert mf.core._reduce_at(W, half, 1, Q(3, 4)) == Q(9, 16)
        else:
            with pytest.raises(NoExactProofError) as err:
                mf.core._reduce_at(W, half, 1, Q(3, 4))
            assert str(err.value) == ("orbit root: its generator AffineMap(1/9·x + 0) does "
                                      "not match the one handed on, AffineMap(1/4·x + 0)")
        # g0 for phi1, and one conjugation for phi2
        assert len(calls) == 2

    def test_float_root_names_itself(self):
        # the library builds no float root; a user's opaque one has no witness
        real = float_root()
        with pytest.raises(NoExactProofError, match="no exact witness for user sqrt"):
            real.breaks(Q(1, 2), 1)
        with pytest.raises(NoExactProofError, match="no exact witness for user sqrt"):
            real.inverse_map().limits(0, 1)
        F = Multifunction.build(0, 1, [(0, 1, Q(1, 2), 0)])
        f = Multifunction(F.domain, mf.INC, (Branch(0, 1, real),), ())
        report = verify_root(f, F, 2)
        assert report.passed and not report.exact
        assert report.detail == "grid comparison (no exact witness for user sqrt)"

    def test_lazy_root_is_proved(self):
        phi = self.quarter_root()
        F = Multifunction.build(0, 1, [(0, 1, Q(1, 4), 0)])
        f = Multifunction(F.domain, mf.INC, (Branch(0, 1, phi),), ())
        report = prove_equivalent(iterate(f, 2), F)
        assert report.equal and report.exact
        # the same root is not a cube root
        wrong = Multifunction.build(0, 1, [(0, 1, Q(1, 8), 0)])
        report = prove_equivalent(iterate(f, 3), wrong)
        assert not report.equal and report.exact
        assert report.worst_point is not None
        x = report.worst_point
        assert phi(phi(phi(x))) != x / 8

    def test_opaque_map_falls_back(self):
        half = AffineMap(Q(1, 2), 0)
        opaque = GenericMap(mf.INC, half, half.inverse, ("counting",))
        F = Multifunction.build(0, 1, [(0, 1, Q(1, 4), 0)])
        f = Multifunction(F.domain, mf.INC, (Branch(0, 1, opaque),), ())
        report = verify_root(f, F, 2)
        assert report.passed and not report.exact
        assert "no exact witness for counting" in report.detail


# ---------------------------------------------------------------------------
# validation proved from the witnesses
# ---------------------------------------------------------------------------

def ref_composed_breaks(chain: ComposedMap, lo, hi) -> tuple:
    """ComposedMap.breaks as it was when it fitted every map of the chain,
    the last non-affine one included, and carried the affine maps after
    it; the oracle of the version that reads the chain only up to its last
    non-affine map and does not fit that one."""
    segments = [(lo, hi, Q(1), Q(0))]
    for m in reversed(chain.maps):
        if isinstance(m, AffineMap):
            segments = [(p, q, m.slope * a, m.slope * b + m.intercept)
                        for p, q, a, b in segments]
            continue
        split = []
        for p, q, a, b in segments:
            ends = (a * p + b, a * q + b)
            cuts = [(y - b) / a for y in m.breaks(min(ends), max(ends))]
            pts = [p, *sorted(cuts), q]
            for p2, q2 in zip(pts, pts[1:]):
                t1, t2 = p2 + (q2 - p2) / 3, q2 - (q2 - p2) / 3
                z1, z2 = m(a * t1 + b), m(a * t2 + b)
                a2 = (z2 - z1) / (t2 - t1)
                split.append((p2, q2, a2, z1 - a2 * t1))
        segments = split
    return tuple(p for p, _, _, _ in segments[1:])


def breaks_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def assert_breaks_match(chain, lo, hi):
    assert isinstance(chain, ComposedMap)
    assert (breaks_outcome(chain.breaks, lo, hi)
            == breaks_outcome(ref_composed_breaks, chain, lo, hi)), (chain, lo, hi)


def breaks_outcomes(m, lo, hi) -> list:
    """m.breaks on [lo, hi] and on two spans inside each cell between the
    limits of m there, nearer a limit with more cuts."""
    cells = sorted({lo, hi, *m.limits(lo, hi)})
    spans = [(lo, hi)] + [(a + (b - a) * t, b - (b - a) * t)
                          for a, b in zip(cells, cells[1:]) for t in (Q(1, 4), Q(1, 64))]
    return [breaks_outcome(m.breaks, a, b) for a, b in spans]


def assert_fitting_breaks_agree(m, lo, hi, monkeypatch) -> int:
    """The breaks of m equal those it has when every composition inside it,
    however deeply nested, answers through the fitting oracle; returns how
    many compositions the oracle answered."""
    got = breaks_outcomes(m, lo, hi)
    calls = []

    def oracle(chain, a, b):
        calls.append(chain)
        return ref_composed_breaks(chain, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(ComposedMap, "breaks", oracle)
        want = breaks_outcomes(m, lo, hi)
    assert got == want, (m, lo, hi)
    return len(calls)


def fixture_roots():
    """(name, n, artifact) for the tests/data targets that build."""
    return [(name, n, build_root(load_mf(data_path(f"{name}.mf")), n))
            for name, n, build_root in [
                ("absorbing_target", 3, build_increasing_root),
                ("endpoint_target", 2, build_increasing_root),
                ("square_target", 3, build_increasing_root),
                ("square_target", 2, lambda F, n: build_decreasing_square_root(F)),
                ("tail_jump_target", 3, build_increasing_root),
                ("dec_cube_root", 3, build_decreasing_odd_root)]]


class TestComposedBreaks:
    """ComposedMap.breaks reads its chain only up to the last non-affine
    map and does not fit that one, and gives the cuts the version that
    fitted every map gave."""

    def two_piece(self):
        # x/2 on [0, 1/2] and 3x/2 - 1/2 on [1/2, 1]; G^-1(1/2) = 2/3
        return GluedMap((Q(1, 2),), (AffineMap(Q(1, 2), 0), AffineMap(Q(3, 2), Q(-1, 2))))

    def test_one_map_at_two_positions(self):
        # the inner G is not the last map although it is the same object
        G = self.two_piece()
        chain = ComposedMap((G, G))
        assert chain.breaks(0, 1) == (Q(1, 2), Q(2, 3))
        for lo, hi in [(0, 1), (Q(1, 3), Q(3, 4)), (Q(1, 2), 1), (Q(3, 5), Q(7, 10))]:
            assert_breaks_match(chain, lo, hi)
        assert_breaks_match(ComposedMap((G, G, G)), 0, 1)

    def test_iterated_orbit_root(self):
        phi = TestWitnesses().quarter_root()
        for times in (2, 3):
            chain = iterate_map(phi, times)
            # the chain holds the orbit map itself, not its generic wrapper
            assert isinstance(phi.witness, _OrbitMap)
            assert chain.maps == (phi.witness,) * times
            for lo, hi in [(Q(1, 8), Q(15, 16)), (Q(1, 64), Q(1, 2)), (0, 1)]:
                assert_breaks_match(chain, lo, hi)

    def test_mixed_chains(self):
        phi = TestWitnesses().quarter_root()
        G = self.two_piece()
        K = AffineMap(Q(1, 4), 0)
        chains = [compose_maps(K.inverse_map(), phi, AffineMap(Q(1, 2), Q(1, 8))),
                  compose_maps(G, phi, G), compose_maps(phi, G, phi),
                  compose_maps(phi, AffineMap(Q(1, 2), Q(1, 4)), G),
                  compose_maps(AffineMap(Q(1, 2), Q(1, 4)), G, phi.inverse_map(), G)]
        for chain in chains:
            for lo, hi in [(Q(1, 8), Q(15, 16)), (Q(1, 4), Q(3, 4)), (0, 1)]:
                assert_breaks_match(chain, lo, hi)

    @pytest.mark.parametrize("seed", range(30))
    def test_branches_of_built_iterates(self, seed):
        F, n, art = build("inc", seed, n=2 + seed % 2)
        for br in iterate(art.realized, n).branches:
            if not isinstance(br.map, ComposedMap):
                continue
            cells = sorted({br.lo, br.hi, *br.map.limits(br.lo, br.hi)})
            assert_breaks_match(br.map, br.lo, br.hi)
            for a, b in zip(cells, cells[1:]):
                for margin in (Q(1, 4), Q(1, 64)):  # nearer a limit, more cuts
                    assert_breaks_match(br.map, a + (b - a) * margin, b - (b - a) * margin)

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    @pytest.mark.parametrize("seed", range(8))
    def test_roots_of_the_families_and_their_iterates(self, kind, seed, monkeypatch):
        F, n, art = build(kind, seed, n=2 + seed % 2)
        assert isinstance(art, RootArtifact)
        answered = 0
        for f in (art.realized, iterate(art.realized, n)):
            for br in f.branches:
                answered += assert_fitting_breaks_agree(br.map, br.lo, br.hi, monkeypatch)
        assert answered

    def test_roots_of_the_fixtures_and_their_iterates(self, monkeypatch):
        answered = 0
        for name, n, art in fixture_roots():
            assert isinstance(art, RootArtifact), name
            for f in (art.realized, iterate(art.realized, n)):
                for br in f.branches:
                    answered += assert_fitting_breaks_agree(br.map, br.lo, br.hi,
                                                            monkeypatch)
        assert answered

    def test_mirrored_root_evaluates_no_orbit_map(self):
        # x/2 + 1/2 lies above the diagonal on [1/4, 1]: the root is one
        # orbit map of this frame, attracting to 1 along x/2 + 1/2 itself;
        # r∘φ∘r for r(x) = 5/4 − x is then a chain with an orbit map inside
        g = AffineMap(Q(1, 2), Q(1, 2))
        root = mf.scalar_roots._increasing_root_auto(
            g, Q(1, 4), 1, 2, ScalarRootSeed(anchor=Q(1, 4)))
        phi = root.witness
        assert isinstance(phi, _OrbitMap) and phi.recipe[0] == "mirrored"
        assert root.forward is phi and root.backward is phi.partner
        assert phi.generators(1) == (g, g)
        r = AffineMap(-1, Q(5, 4))
        calls = []

        def counted(x):
            calls.append(x)
            return phi(x)

        chain = ComposedMap((r, GenericMap(mf.INC, counted, phi.partner, (), phi), r))
        lo, hi = Q(3, 8), Q(15, 16)
        cuts = chain.breaks(lo, hi)
        assert cuts and calls == []
        assert cuts == ref_composed_breaks(chain, lo, hi) and calls
        # in a square the inner φ is still fitted, the outer one is not;
        # the reflections between them fold to the identity, which drops
        square = compose_maps(chain, chain)
        assert square.maps == (r, chain.maps[1], chain.maps[1], r)
        calls.clear()
        got = square.breaks(lo, hi)
        fitted = len(calls)
        calls.clear()
        assert got == ref_composed_breaks(square, lo, hi)
        assert 0 < fitted < len(calls)


IDENTITY = AffineMap(1, 0)


def assert_flat(chain):
    """A chain of orbit maps and affine maps: no generic map, no identity
    and no two affine maps side by side."""
    assert isinstance(chain, ComposedMap), chain
    maps = chain.maps
    assert not any(isinstance(m, GenericMap) for m in maps), chain
    assert not any(isinstance(m, AffineMap) and m == IDENTITY for m in maps), chain
    assert not any(isinstance(a, AffineMap) and isinstance(b, AffineMap)
                   for a, b in zip(maps, maps[1:])), chain


class TestFlatChains:
    """Compositions hold the orbit maps themselves: a chain holds no
    generic wrapper of an orbit map, no identity and no affine pair."""

    def mirrored(self, slope):
        # above the diagonal on [1/4, 1], attracting to 1
        root = mf.scalar_roots._root_above(
            AffineMap(slope, 1 - slope), Q(1, 4), 1, 3, ScalarRootSeed(anchor=Q(1, 4)))
        assert root.recipe[0] == "mirrored" and isinstance(root.witness, _OrbitMap)
        return root

    def test_composed_mirrored_roots(self):
        phi, psi = self.mirrored(Q(1, 2)), self.mirrored(Q(3, 4))
        pair = compose_maps(phi, psi)
        assert pair.maps == (phi.witness, psi.witness)
        assert compose_maps(phi, psi.inverse_map()).maps == (phi.witness, psi.witness.partner)
        assert iterate_map(phi, 3).maps == (phi.witness,) * 3
        # reflections between them fold, and the identity they make drops
        r = AffineMap(-1, Q(5, 4))
        reflected = compose_maps(r, phi, r, r, psi, r)
        assert reflected.maps == (r, phi.witness, psi.witness, r)
        assert compose_maps(phi, IDENTITY, psi).maps == pair.maps
        assert compose_maps(IDENTITY, phi) is phi and compose_maps(r, r) == IDENTITY
        for chain in (pair, reflected, compose_maps(phi, AffineMap(1, Q(1, 8)), r, psi)):
            assert_flat(chain)
            for lo, hi in [(Q(5, 16), Q(7, 8)), (Q(3, 8), Q(15, 16))]:
                assert_breaks_match(chain, lo, hi)

    def census_odd_root(self):
        # odd-census target 31: R∘F for a draw F of intensity 1, order 3
        D = Multifunction.build(0, 1, [(0, Q(15, 16), Q(-1, 6), Q(225, 256)),
                                       (Q(15, 16), 1, Q(-89, 16), Q(185, 32))],
                                [(Q(15, 16), (Q(145, 256), Q(185, 256)))])
        art = build_decreasing_odd_root(D, 3)
        assert isinstance(art, RootArtifact) and art.verification.exact
        return D, art

    def test_iterates_of_a_census_odd_root(self):
        D, art = self.census_odd_root()
        inner = mirrored = 0
        for br in iterate(art.realized, 3).branches:
            chains = list(compositions(br.map))
            # f³ composes the root's glued maps, which keep their wrapper
            # and its memo; every chain inside them is flat
            top, rest = chains[0], chains[1:]
            assert top is br.map
            assert all(isinstance(m.witness, GluedMap) for m in top.maps
                       if isinstance(m, GenericMap))
            for chain in rest:
                assert_flat(chain)
                mirrored += sum(m.recipe[:1] == ("mirrored",) for m in chain.maps
                                if isinstance(m, _OrbitMap))
            inner += len(rest)
        assert inner and mirrored

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    def test_no_identity_in_built_chains(self, kind):
        cases = [(n, art) for _, n, art in (build(kind, seed, 2 + seed % 2)
                                            for seed in range(8))
                 if isinstance(art, RootArtifact)]
        pipeline = {"inc": "increasing", "sq": "dec_square", "odd": "dec_odd"}[kind]
        cases += [(n, art) for _, n, art in fixture_roots()
                  if art.recipe.pipeline == pipeline]
        if kind == "odd":
            cases.append((3, self.census_odd_root()[1]))
        chains = 0
        for n, art in cases:
            for f in (art.realized, iterate(art.realized, n)):
                for br in f.branches:
                    for chain in compositions(br.map):
                        assert IDENTITY not in chain.maps, chain
                        chains += 1
        assert chains


def one_branch(m, orientation=mf.INC):
    return Multifunction(mf.ClosedInterval(0, 1), orientation, (Branch(0, 1, m),), ())


class TestProvenValidation:
    def quarter_root(self):
        return increasing_nth_root(AffineMap(Q(1, 4), 0), 0, 1, 2,
                                   ScalarRootSeed(anchor=1, divisions=(Q(3, 4),)))

    def test_witnessed_branches_are_proved(self):
        report = one_branch(self.quarter_root()).validate()
        assert report.ok and report.sampled == ()
        glued = GluedMap((Q(1, 2),), (AffineMap(Q(1, 2), 0), AffineMap(Q(3, 2), Q(-1, 2))))
        report = one_branch(glued).validate()
        assert report.ok and report.sampled == ()

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    def test_built_roots_are_proved(self, kind):
        for F, k, art in exact_roots(kind):
            report = art.realized.validate()
            assert report.ok and report.sampled == (), report

    def test_float_root_is_sampled(self):
        report = one_branch(float_root()).validate()
        assert report.ok and report.sampled == (0,)
        assert report.summary() == "valid"
        bent = GenericMap(mf.INC, lambda x: (float(x) - 0.5) ** 2,
                          lambda w: w, ("bent",))
        report = one_branch(bent).validate()
        assert [v.kind for v in report.violations] == ["monotonicity"]
        assert report.sampled == (0,)

    def test_glued_map_with_a_decreasing_piece(self):
        glued = GluedMap((Q(1, 2),), (AffineMap(1, 0), AffineMap(-1, 1)))
        assert glued.orientation is mf.INC
        report = one_branch(glued).validate()
        assert report.sampled == ()
        assert report.violations == (
            mf.core.Violation("monotonicity", Q(2, 3), "branch not strictly monotone"),)

    def test_glued_map_stepping_back_at_its_knot(self):
        # both pieces increase, but the right one restarts below the knot
        # value: W(1/2+) = 1/4 < W(1/2) = 1/2
        glued = GluedMap((Q(1, 2),), (AffineMap(1, 0), AffineMap(1, Q(-1, 4))))
        report = one_branch(glued).validate()
        assert report.sampled == ()
        assert [(v.kind, v.where) for v in report.violations] == [("monotonicity", Q(1, 2))]

    def test_orbit_root_with_a_reversed_seed_piece(self):
        phi = self.quarter_root()
        root = phi.forward
        (lo, hi, m), *rest = root.seed.pieces
        reversed_piece = AffineMap(-m.slope, m.slope * (lo + hi) + m.intercept)
        assert {reversed_piece(lo), reversed_piece(hi)} == {m(lo), m(hi)}
        reseed(root, [(lo, hi, reversed_piece), *rest])
        report = one_branch(phi).validate()
        assert report.sampled == ()
        assert [v.kind for v in report.violations] == ["monotonicity"]

    def test_reversed_piece_near_the_accumulation_point(self):
        # the reversed seed piece repeats along the orbit toward 0, so a
        # branch on (0, 1/8) holds only its images
        phi = self.quarter_root()
        root = phi.forward
        pieces = list(root.seed.pieces)
        lo, hi, m = pieces[-1]
        pieces[-1] = (lo, hi, AffineMap(-m.slope, m.slope * (lo + hi) + m.intercept))
        reseed(root, pieces)
        f = Multifunction(mf.ClosedInterval(0, Q(1, 8)), mf.INC,
                          (Branch(0, Q(1, 8), phi),), ())
        report = f.validate()
        assert report.sampled == ()
        assert "monotonicity" in [v.kind for v in report.violations]

    def test_decreasing_branch(self):
        # the second self pairing is psi of the orbit_eval benchmark, seed 1
        for g, anchor in [(AffineMap(Q(99, 100), Q(1, 200)), 1),
                          (AffineMap(Q(99, 100), Q(7, 1600)), Q(485, 512))]:
            psi = mf.decreasing_square_root_pair(
                g, 0, 1, seed=ScalarRootSeed(anchor=anchor, image_anchor=0))[0]
            # the orbit map above the fixed point, glued to its inverse after g
            assert psi.orientation is mf.DEC and isinstance(psi.witness, GluedMap)
            assert [o.name for o in lazy_objects(psi)] == ["inverse self pairing",
                                                           "self pairing"]
            # psi sends the anchor to 0, and [0, anchor] into itself
            f = Multifunction(mf.ClosedInterval(0, anchor), mf.DEC,
                              (Branch(0, anchor, psi),), ())
            report = f.validate()
            assert report.ok and report.sampled == ()
            F = Multifunction.build(0, anchor, [(0, anchor, g.slope, g.intercept)])
            report = verify_root(f, F, 2)
            assert report.passed and report.exact, report


def piece_points_by_sort(cells, pieces) -> list:
    """The points of a proof as a set and a sort took them: the reference
    for the merge."""
    points = set(cells)
    for p, q in pieces:
        third = (q - p) / 3
        points.update((p, p + third, q - third, q))
    return sorted(points)


def prove_monotone_by_dicts(W, u, v, inc):
    """``_prove_monotone`` as it read its values from Fraction-keyed dicts
    and sorted its marks: the reference for the index walk."""
    cells, spans = _witness_spans(W, u, v, W.limits(u, v))
    pieces = [piece for lo, hi in spans for piece in _span_pieces(W, lo, hi)]
    w = {x: _exact_value(W, x) for x in piece_points_by_sort(cells, pieces)}
    marks = {(x, 1): w[x] for x in cells}
    for p, q in pieces:
        third = (q - p) / 3
        w1, w2 = w[p + third], w[q - third]
        if not (w1 < w2 if inc else w1 > w2):
            return p + third
        marks[p, 1], marks[q, 1] = w[p], w[q]
        marks[p, 2], marks[q, 0] = 2 * w1 - w2, 2 * w2 - w1
    prev = None
    for (x, _), value in sorted(marks.items()):
        if prev is not None and (value < prev if inc else value > prev):
            return x
        prev = value
    return None


def branch_maps(art, n=None):
    """(map, lo, hi, increasing) of every generic branch of a root and of
    its n-th iterate (none when n is None)."""
    for f in (art.realized,) if n is None else (art.realized, iterate(art.realized, n)):
        for br in f.branches:
            if not isinstance(br.map, AffineMap):
                yield br.map, br.lo, br.hi, f.orientation is mf.INC


class TestPiecePoints:
    """A proof's points merge in one pass, and the monotonicity proof walks
    them by index: the same points and verdicts as sets, sorts and
    Fraction-keyed dicts gave."""

    @pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
    def test_merge_matches_the_set_and_sort(self, kind):
        reduced = 0
        for F, n, art in exact_roots(kind, n=2 if kind != "odd" else 3):
            for W, lo, hi, _ in branch_maps(art, n):
                limits = W.limits(lo, hi)
                cells, spans = _witness_spans(W, lo, hi, limits)
                pieces = [piece for a, b in spans for piece in _span_pieces(W, a, b)]
                points, at = _piece_points(cells, pieces)
                assert points == piece_points_by_sort(cells, pieces)
                assert [(points[i], points[i + 3]) for i in at] == pieces
                # spans near an accumulation point stop short of it
                ends = {e for piece in pieces for e in piece}
                reduced += any(e not in ends for e in limits)
        assert reduced

    @pytest.mark.parametrize("kind,n", [("inc", 2), ("inc", 3), ("odd", 3)])
    def test_verdicts_match_on_turned_seed_pieces(self, kind, n):
        # as in TestMutations: each seed piece turned about its lower end,
        # so the map fails to be monotone, or holds, on some pieces
        verdicts = []
        for F, k, art in roots_with(kind, "orbit root", n)[:3]:
            root = first(art, "orbit root")
            pieces = list(root.seed.pieces)
            for i, (lo, hi, m) in enumerate(pieces):
                for slope in (-m.slope, m.slope / 2, m.slope + DELTA):
                    turned = AffineMap(slope, m(lo) - slope * lo)
                    reseed(root, [*pieces[:i], (lo, hi, turned), *pieces[i + 1:]])
                    for W, a, b, inc in branch_maps(art):
                        want = outcome(prove_monotone_by_dicts, W, a, b, inc)
                        assert outcome(_prove_monotone, W, a, b, inc) == want
                        verdicts.append(want[0] == "ok" and want[1] is None)
            reseed(root, pieces)
        assert True in verdicts and False in verdicts


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except mf.errors.MfError as exc:
        return ("error", type(exc), str(exc))


# ---------------------------------------------------------------------------
# decreasing cubic roots: no end lands on a jump
# ---------------------------------------------------------------------------

class TestDecreasingCubic:
    def end_on_jump_target(self):
        return Multifunction.build(
            0, 1, [(0, Q(3, 4), Q(-1, 8), Q(9, 16)), (Q(3, 4), 1, Q(-1, 8), Q(33, 64))],
            [(Q(3, 4), (Q(27, 64), Q(15, 32)))])

    def test_closed_form_landing_on_the_jump_falls_back(self):
        F = self.end_on_jump_target()
        # the closed form -x/2 + 3/4 sends 0 onto the jump at 3/4
        closed = Multifunction.build(
            0, 1, [(0, Q(3, 4), Q(-1, 2), Q(3, 4)), (Q(3, 4), 1, Q(-1, 2), Q(3, 4))],
            [(Q(3, 4), (Q(3, 8), Q(3, 8) + Q(1, 64)))])
        assert _end_orbit_hit(F, closed, 3) == (0, 1, Q(3, 4))
        art = build_decreasing_odd_root(F, 3)
        assert isinstance(art, RootArtifact)
        assert art.verification.passed and art.verification.exact
        assert art.recipe.payload["maps"]["0"] == ["generic", "('dec_glue', '1/2')"]
        assert 0 < art.realized(0).singleton_value() < Q(3, 4)
        assert _end_orbit_hit(F, art.realized, 3) is None

    def test_sweep_of_slope_eighth_targets(self):
        outcomes = set()
        for seed in range(300):
            F = random_dec_selfpair_target(random.Random(seed), 2)
            out = build_decreasing_odd_root(F, 3)
            if isinstance(out, RootArtifact):
                assert out.verification.passed and out.verification.exact
                outcomes.add("root")
            else:
                assert out.rule == "EndpointInfeasible" and recheck_certificate(out, F)
                outcomes.add("certificate")
        assert "root" in outcomes

    def test_end_orbit_certificate_rechecks(self):
        F = self.end_on_jump_target()
        cert = Certificate("EndpointInfeasible", "", inputs={"order": "3"},
                           witnesses={"endpoint": Q(0), "image": Q(3, 4), "power": 1})
        assert recheck_certificate(cert, F)
        for bad in ({"endpoint": Q(3, 4)}, {"image": Q(1, 2)}, {"power": 3}):
            w = {**cert.witnesses, **bad}
            assert not recheck_certificate(
                Certificate(cert.rule, "", cert.inputs, w), F)


# ---------------------------------------------------------------------------
# refusals and reports of the proof paths
# ---------------------------------------------------------------------------

def third_root():
    """The orbit square root of x ↦ x/3 on [0, 1]."""
    return increasing_nth_root(AffineMap(Q(1, 3), 0), 0, 1, 2)


def inexact_root():
    """The square root of x ↦ x/3 with its witness, but giving floats."""
    phi = third_root()
    return GenericMap(mf.INC, lambda x: float(phi(x)), phi.inverse, ("lie",), phi.witness)


class TestRefusals:
    THIRD = Multifunction.build(0, 1, [(0, 1, Q(1, 3), 0)])

    def test_inexact_values_are_sampled_and_refused_by_the_proof(self):
        f = one_branch(inexact_root())
        report = f.validate()
        assert report.ok and report.sampled == (0,)
        G = Multifunction.build(0, 1, [(0, 1, Q(1, 2), 0)])
        v = verify_root(f, G, 1)
        assert not v.passed and not v.exact, v
        assert v.detail.endswith("(GenericMap(inc, lie) gives the inexact value 0.0)"), v

    def test_inexact_values_in_a_chain_fall_back_to_the_grid(self):
        # the chain's breaks are fitted on its maps' values, which are floats
        f = one_branch(inexact_root())
        v = verify_root(f, self.THIRD, 2)
        assert v.passed and not v.exact, v
        assert v.detail == "grid comparison (GenericMap(inc, lie) gives an inexact value)"
        with pytest.raises(NoExactProofError, match=r"GenericMap\(inc, lie\) gives an inexact"):
            prove_equivalent(iterate(f, 2), self.THIRD)

    def test_root_of_another_target_fails_verification(self):
        F = Multifunction.build(0, 1, [(0, 1, Q(1, 4), 0)])
        with pytest.raises(MfError) as exc:
            _finish(F, one_branch(third_root()), 2, "increasing", "inc", {})
        message = str(exc.value)
        assert message.startswith("constructed root fails verification: ")
        assert "branch maps differ at 1/3 on (0, 1)" in message

    def test_orientations_and_domains_must_agree(self):
        f = one_branch(third_root())
        report = prove_equivalent(f, Multifunction.build(0, 1, [(0, 1, -1, 1)]))
        assert not report.equal and report.exact and report.reason == "orientations differ"
        with pytest.raises(DomainMismatchError):
            prove_equivalent(f, Multifunction.build(0, 2, [(0, 2, Q(1, 2), 0)]))
