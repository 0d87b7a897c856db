"""The bisected structure layer against its plain-loop references.

The reference implementations below are the straightforward quadratic
loops for intensity (with its jump pullback), compose, Multifunction.image,
Multifunction.one_sided_limit, validate, classify_jump and
transition_table.  They are test oracles only:
every case must give equal results, or equal error classes and messages.
"""

import random
from fractions import Fraction as Q
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots.core import (
    Branch,
    ClosedInterval,
    JumpPoint,
    Multifunction,
    ValidationReport,
    ValueSet,
    Violation,
    _tol_close,
)
from mfroots.errors import (
    NoSingleTargetError,
    NoSuchSideError,
    NotAJumpError,
    OutOfDomainError,
    RangeEscapeError,
    StructureError,
)
from mfroots.maps import INC, AffineMap, compose_maps
from mfroots.scalars import as_scalar, format_scalar
from mfroots.structure import IntensityResult, JumpClass, TransitionTable

from conftest import (
    random_dec_selfpair_target,
    random_monotone_increasing,
    random_reversing_pair_target,
    random_with_intensity,
    staircase,
)


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def ref_jump_at(F, x):
    for jp in F.jumps:
        if jp.location == x:
            return jp
    return None


def ref_branch_containing(F, x, closure=False):
    for br in F.branches:
        if br.lo < x < br.hi:
            return br
    if closure and F.branches:
        if x == F.domain.lo and F.includes_left_endpoint:
            return F.branches[0]
        if x == F.domain.hi and F.includes_right_endpoint:
            return F.branches[-1]
    return None


def ref_one_sided_limit(F, x, side):
    x = as_scalar(x)
    if not F.domain.contains(x):
        raise OutOfDomainError(f"{format_scalar(x)} outside {F.domain}")
    if side is mf.LEFT:
        if x == F.domain.lo:
            raise NoSuchSideError("no left limit at the left endpoint")
        for br in F.branches:
            if br.lo < x <= br.hi:
                return br.limit(x)
    else:
        if x == F.domain.hi:
            raise NoSuchSideError("no right limit at the right endpoint")
        for br in F.branches:
            if br.lo <= x < br.hi:
                return br.limit(x)
    raise StructureError(f"no adjacent branch at {format_scalar(x)}")


def ref_evaluate(F, x):
    jp = ref_jump_at(F, x)
    if jp is not None:
        return jp.value
    br = ref_branch_containing(F, x, closure=True)
    if br is None:
        raise StructureError(f"no piece covers {format_scalar(x)}")
    return ValueSet.point(br.map(x))


def ref_pullback(F, targets):
    hits = set()
    for s in targets:
        for br in F.branches:
            ends = (br.map(br.lo), br.map(br.hi))
            if min(ends) < s < max(ends):
                x = br.map.inverse(s)
                if br.lo < x < br.hi:
                    hits.add(x)
    for endpoint, included, br in (
            (F.domain.lo, F.includes_left_endpoint, F.branches[0] if F.branches else None),
            (F.domain.hi, F.includes_right_endpoint, F.branches[-1] if F.branches else None)):
        if included and br is not None and br.map(endpoint) in targets:
            hits.add(endpoint)
    return hits


def ref_intensity(F, cap=64):
    current = set(F.jump_locations)
    trace: List[int] = [0, len(current)]
    if trace[0] == trace[1]:
        return IntensityResult(0, cap, (0, 0))
    for k in range(1, cap + 1):
        nxt = set(F.jump_locations) | ref_pullback(F, current)
        trace.append(len(nxt))
        if len(nxt) == len(current):
            return IntensityResult(k, cap, tuple(trace))
        current = nxt
    return IntensityResult(None, cap, tuple(trace))


def ref_image(F, S):
    a, b = F.domain.lo, F.domain.hi
    if S.min_value < a or S.max_value > b:
        raise OutOfDomainError(f"{S} escapes {F.domain}")
    pieces = []
    for comp in S.components:
        p, q = comp.lo, comp.hi
        for jp in F.jumps:
            if p <= jp.location <= q:
                pieces.extend(jp.value.components)
        for br in F.branches:
            u = max(br.lo, p)
            v = min(br.hi, q)
            interior_point = u == v and br.lo < u < br.hi
            if u < v or interior_point:
                lo_img, hi_img = br.map(u), br.map(v)
                pieces.append(ClosedInterval(min(lo_img, hi_img), max(lo_img, hi_img)))
        if p == q and ref_jump_at(F, p) is None:
            br = ref_branch_containing(F, p, closure=True)
            if br is not None and not (br.lo < p < br.hi):
                pieces.append(ClosedInterval(br.map(p), br.map(p)))
    return ValueSet.from_intervals(pieces)


def ref_compose(G, F):
    rng = ref_image(F, ValueSet((F.domain,)))
    if rng.min_value < G.domain.lo or rng.max_value > G.domain.hi:
        raise RangeEscapeError(f"range {rng} of inner multifunction escapes {G.domain}")
    locations = set(F.jump_locations)
    for d in G.jump_locations:
        for br in F.branches:
            lo_img, hi_img = br.map(br.lo), br.map(br.hi)
            if min(lo_img, hi_img) < d < max(lo_img, hi_img):
                x = br.map.inverse(d)
                if br.lo < x < br.hi:
                    locations.add(x)
        if F.includes_left_endpoint and F.branches:
            if F.branches[0].map(F.domain.lo) == d:
                locations.add(F.domain.lo)
        if F.includes_right_endpoint and F.branches:
            if F.branches[-1].map(F.domain.hi) == d:
                locations.add(F.domain.hi)
    jumps = []
    for loc in sorted(locations):
        value = ref_image(G, ref_evaluate(F, loc))
        if value.has_multiple_points:
            jumps.append(JumpPoint(loc, value))
    a, b = F.domain.lo, F.domain.hi
    cuts = [a] + [j.location for j in jumps] + [b]
    branches = []
    for u, v in zip(cuts, cuts[1:]):
        if not u < v:
            continue
        inner = ref_branch_containing(F, (u + v) / 2)
        if inner is None:
            raise StructureError("composition lost a branch piece")
        mid_val = inner.map((u + v) / 2)
        outer = ref_branch_containing(G, mid_val, closure=True)
        if outer is None:
            raise StructureError(
                f"branch value {format_scalar(mid_val)} sits on a jump of the outer map")
        branches.append(Branch(u, v, compose_maps(outer.map, inner.map)))
    return Multifunction(F.domain, G.orientation * F.orientation,
                         tuple(branches), tuple(jumps))


def ref_validate(F, tol=None, samples=64):
    if tol is None:
        tol = 0.0 if F.is_exact else 1e-9
    out = []
    a, b = F.domain.lo, F.domain.hi
    inc = F.orientation is INC
    for br in F.branches:
        if br.map.orientation is not F.orientation:
            out.append(Violation("orientation", br.lo, "branch map orientation disagrees"))
        if not isinstance(br.map, AffineMap):
            step = (br.hi - br.lo) / (samples + 1)
            prev = None
            for i in range(1, samples + 1):
                val = br.map(br.lo + step * i)
                if prev is not None and not (val > prev if inc else val < prev):
                    out.append(Violation("monotonicity", br.lo + step * i,
                                         "branch not strictly monotone"))
                    break
                prev = val
    for jp in F.jumps:
        c, V = jp.location, jp.value
        left = right = None
        for br in F.branches:
            if br.hi == c:
                left = br.limit(c)
            if br.lo == c:
                right = br.limit(c)
        lo_expected = left if inc else right
        hi_expected = right if inc else left
        if lo_expected is not None and not _tol_close(V.min_value, lo_expected, tol):
            out.append(Violation(
                "usc", c,
                f"min of jump value is {format_scalar(V.min_value)}, adjacent "
                f"limit is {format_scalar(lo_expected)}"))
        if hi_expected is not None and not _tol_close(V.max_value, hi_expected, tol):
            out.append(Violation(
                "usc", c,
                f"max of jump value is {format_scalar(V.max_value)}, adjacent "
                f"limit is {format_scalar(hi_expected)}"))
    prev_hi = prev_where = None
    for kind, obj in F._ordered_pieces():
        if kind == "branch":
            ends = (obj.limit(obj.lo), obj.limit(obj.hi))
            lo_val, hi_val = min(ends), max(ends)
            where = obj.lo
        else:
            lo_val, hi_val = obj.value.min_value, obj.value.max_value
            where = obj.location
        enter, leave = (lo_val, hi_val) if inc else (hi_val, lo_val)
        if prev_hi is not None:
            good = prev_hi <= enter if inc else prev_hi >= enter
            if not good and not _tol_close(prev_hi, enter, tol):
                out.append(Violation(
                    "monotonicity", where,
                    f"values cross between pieces at {format_scalar(prev_where)} "
                    f"and {format_scalar(where)}"))
        prev_hi, prev_where = leave, where
        for v in (lo_val, hi_val):
            if not (a <= v <= b) and not (_tol_close(v, a, tol) or _tol_close(v, b, tol)):
                out.append(Violation("range", where,
                                     f"value {format_scalar(v)} escapes {F.domain}"))
    return ValidationReport(tuple(out))


def ref_transition_table(F):
    delta: Dict[int, int] = {}
    for i, br in enumerate(F.branches):
        ends = (br.map(br.lo), br.map(br.hi))
        img_lo, img_hi = min(ends), max(ends)
        for c in F.jump_locations:
            if img_lo < c < img_hi:
                raise NoSingleTargetError(i, c)
        target = None
        for j, iv in enumerate(F.branches):
            if iv.lo <= img_lo and img_hi <= iv.hi:
                target = j
                break
        if target is None:
            raise StructureError(
                f"image ({format_scalar(img_lo)}, {format_scalar(img_hi)}) of "
                f"interval {i} not contained in any partition interval")
        delta[i] = target
    return TransitionTable(delta)


def ref_classify_jump(F, c):
    c = as_scalar(c)
    jp = ref_jump_at(F, c)
    if jp is None:
        raise NotAJumpError(f"{format_scalar(c)} is not a jump")
    hit = tuple(d for d in F.jump_locations if jp.value.contains(d))
    others = tuple(d for d in hit if d != c)
    if not hit:
        return JumpClass("J1", (), None)
    if c in hit and not others:
        return JumpClass("J2", (), None)
    if c not in hit:
        return JumpClass("J3", others, len(others))
    return JumpClass("J4", others, len(others))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the error class and message must match too
        return ("error", type(exc), str(exc))


def special_points(F):
    return sorted({F.domain.lo, F.domain.hi, *F.jump_locations,
                   *(br.lo for br in F.branches), Q(1, 3), Q(5, 7)})


def value_sets(F, rng):
    """Points, intervals and unions over the break points of F."""
    pts = special_points(F)
    mids = [(u + v) / 2 for u, v in zip(pts, pts[1:])]
    pool = sorted(set(pts + mids))
    out = [ValueSet((F.domain,))]
    out += [ValueSet.point(p) for p in pool]
    for _ in range(12):
        ends = sorted(rng.sample(pool, min(len(pool), 2 * rng.randint(1, 3))))
        comps = [ClosedInterval(ends[i], ends[i + 1]) for i in range(0, len(ends) - 1, 2)]
        if rng.random() < 0.3:
            comps.append(ClosedInterval(ends[0], ends[0]))
        out.append(ValueSet.from_intervals(comps))
    return out


def perturbed(F, rng):
    """F with one jump value replaced, usually breaking usc, monotonicity
    or the range, so that validate has violations to report."""
    if not F.jumps:
        return F
    k = rng.randrange(len(F.jumps))
    lo = Q(rng.randint(-8, 40), 32)
    hi = lo + Q(rng.randint(1, 16), 32)
    jumps = list(F.jumps)
    jumps[k] = JumpPoint(jumps[k].location, ValueSet.interval(lo, hi))
    return Multifunction(F.domain, F.orientation, F.branches, tuple(jumps))


def assert_matches_reference(F, rng):
    assert outcome(mf.intensity, F) == outcome(ref_intensity, F)
    assert outcome(mf.intensity, F, 5) == outcome(ref_intensity, F, 5)
    assert outcome(F.validate) == outcome(ref_validate, F)
    G = perturbed(F, rng)
    assert outcome(G.validate) == outcome(ref_validate, G)
    for S in value_sets(G, rng):
        assert outcome(G.image, S) == outcome(ref_image, G, S)
    assert outcome(mf.transition_table, F) == outcome(ref_transition_table, F)
    for c in special_points(F):
        assert outcome(mf.classify_jump, F, c) == outcome(ref_classify_jump, F, c)
    assert outcome(mf.compose, F, F) == outcome(ref_compose, F, F)
    for S in value_sets(F, rng):
        assert outcome(F.image, S) == outcome(ref_image, F, S)
    pts = special_points(F)
    for x in [*pts, *((u + v) / 2 for u, v in zip(pts, pts[1:])),
              F.domain.lo - 1, F.domain.hi + 1]:
        for side in (mf.LEFT, mf.RIGHT):
            assert (outcome(F.one_sided_limit, x, side)
                    == outcome(ref_one_sided_limit, F, x, side))


FAMILIES = {
    "monotone_increasing": lambda r: random_monotone_increasing(r, 6),
    "intensity_1": lambda r: random_with_intensity(r, 1),
    "intensity_2": lambda r: random_with_intensity(r, 2),
    "intensity_3": lambda r: random_with_intensity(r, 3),
    "dec_selfpair": random_dec_selfpair_target,
    "reversing_pair": random_reversing_pair_target,
}


class TestAgainstReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_family(self, family, seed):
        rng = random.Random(seed)
        assert_matches_reference(FAMILIES[family](rng), rng)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(0, 10_000))
    def test_staircase(self, jumps, seed):
        assert_matches_reference(staircase(jumps), random.Random(seed))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_compose_distinct_maps(self, seed_g, seed_f):
        G = random_monotone_increasing(random.Random(seed_g), 6)
        F = random_dec_selfpair_target(random.Random(seed_f))
        assert outcome(mf.compose, G, F) == outcome(ref_compose, G, F)
        assert outcome(mf.compose, F, G) == outcome(ref_compose, F, G)

    def test_overlapping_branch_images(self):
        # not a valid multifunction: the branch images (0, 1/4), (0, 3/4)
        # and (1/4, 1/2) overlap, and the last one lies inside the middle
        # one, so a target above 1/2 must walk past it; every target in
        # two images gets both preimages
        F = Multifunction.build(0, 1,
            pieces=[(0, "1/4", 1, 0), ("1/4", "1/2", 3, "-3/4"), ("1/2", 1, "1/2", 0)],
            jumps=[("1/4", ("0", "1/4")), ("1/2", ("1/4", "3/4"))])
        assert not F.validate().ok
        G = Multifunction.build(0, 1,
            pieces=[(0, "3/16", 1, 0), ("3/16", "5/8", 1, 0), ("5/8", 1, 1, 0)],
            jumps=[("3/16", ("1/8", "1/4")), ("5/8", ("1/2", "3/4"))])
        H = mf.compose(G, F)
        assert H == ref_compose(G, F)
        # 3/16 has preimages 3/16 and 5/16, 5/8 only 11/24
        assert H.jump_locations == (Q(3, 16), Q(1, 4), Q(5, 16), Q(11, 24), Q(1, 2))
        assert mf.intensity(F) == ref_intensity(F)
        assert_matches_reference(F, random.Random(0))

    @pytest.mark.parametrize("intercept", ["-1/8", "5/8"])
    def test_branch_image_leaving_the_domain(self, intercept):
        # the first branch maps below 0 or the last one above 1: no
        # partition interval holds that image
        F = Multifunction.build(0, 1,
            pieces=[(0, "1/2", "1/2", intercept), ("1/2", 1, "1/2", "3/4")],
            jumps=[("1/2", ("1/4", "7/8"))])
        assert outcome(mf.transition_table, F)[0] == "error"
        assert_matches_reference(F, random.Random(1))
