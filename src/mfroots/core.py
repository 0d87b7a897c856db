"""Strictly monotone usc multifunctions on a closed interval.

A multifunction is stored as ordered single-valued branches on the maximal
jump-free open subintervals plus set-valued jump points.  Domain endpoints
belong to the adjacent branch closure unless a jump sits there.  All
composition/iteration bookkeeping follows the jump-propagation law: x is a
jump of G∘F iff x is a jump of F or F(x) is a singleton lying on a jump
of G.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .errors import (
    DomainMismatchError,
    EvaluationRangeError,
    MfError,
    NoExactProofError,
    NoSuchSideError,
    OutOfDomainError,
    RangeEscapeError,
    StructureError,
)
from .maps import (
    _IDENTITY,
    AffineMap,
    Guard,
    INC,
    MonotoneMap,
    Orientation,
    compose_maps,
    map_is_exact_rational,
    memoized_call,
    reflect_map,
)
from .scalars import (
    Scalar,
    as_scalar,
    bisect_left,
    bisect_right,
    eq,
    extrapolate,
    format_scalar,
    inside,
    is_exact,
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


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


LEFT = Side.LEFT
RIGHT = Side.RIGHT


# ---------------------------------------------------------------------------
# intervals and value sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class ClosedInterval:
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        object.__setattr__(self, "lo", as_scalar(self.lo))
        object.__setattr__(self, "hi", as_scalar(self.hi))
        if not le(self.lo, self.hi):
            raise StructureError(f"interval needs lo <= hi, got {self}")

    @property
    def is_point(self) -> bool:
        return eq(self.lo, self.hi)

    @property
    def is_exact(self) -> bool:
        return is_exact(self.lo) and is_exact(self.hi)

    def contains(self, x: Scalar) -> bool:
        return within(x, self.lo, self.hi)

    def reflected(self, pivot_sum: Scalar) -> "ClosedInterval":
        return ClosedInterval(pivot_sum - self.hi, pivot_sum - self.lo)

    def __repr__(self):
        if self.is_point:
            return f"[{format_scalar(self.lo)}]"
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"


@dataclass(frozen=True)
class ValueSet:
    """Finite ordered union of pairwise disjoint closed intervals."""

    components: Tuple[ClosedInterval, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise StructureError("value set must be nonempty")
        for left, right in zip(comps, comps[1:]):
            if not lt(left.hi, right.lo):
                raise StructureError(f"components must be strictly increasing: {comps}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_los", tuple(c.lo for c in comps))

    @classmethod
    def from_intervals(cls, intervals: Iterable[ClosedInterval]) -> "ValueSet":
        """Normalize arbitrary closed intervals: sort and merge overlaps
        (touching intervals merge; the union is exact, never the hull).
        Intervals with the same lower end merge whatever their order."""
        items = ordered(intervals, key=lambda iv: iv.lo)
        if not items:
            raise StructureError("value set must be nonempty")
        merged = [items[0]]
        for iv in items[1:]:
            last = merged[-1]
            if le(iv.lo, last.hi):
                if lt(last.hi, iv.hi):
                    merged[-1] = ClosedInterval(last.lo, iv.hi)
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @classmethod
    def point(cls, x: Scalar) -> "ValueSet":
        return cls((ClosedInterval(x, x),))

    @classmethod
    def interval(cls, lo: Scalar, hi: Scalar) -> "ValueSet":
        return cls((ClosedInterval(lo, hi),))

    @property
    def min_value(self) -> Scalar:
        return self.components[0].lo

    @property
    def max_value(self) -> Scalar:
        return self.components[-1].hi

    @property
    def is_singleton(self) -> bool:
        return len(self.components) == 1 and self.components[0].is_point

    @property
    def has_multiple_points(self) -> bool:
        return not self.is_singleton

    @property
    def is_single_interval(self) -> bool:
        return len(self.components) == 1

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.components)

    def contains(self, x: Scalar) -> bool:
        idx = bisect_right(self._los, x) - 1
        return idx >= 0 and self.components[idx].contains(x)

    def singleton_value(self) -> Scalar:
        if not self.is_singleton:
            raise StructureError(f"{self} is not a singleton")
        return self.components[0].lo

    def reflected(self, pivot_sum: Scalar) -> "ValueSet":
        return ValueSet(tuple(c.reflected(pivot_sum) for c in reversed(self.components)))

    def union(self, other: "ValueSet") -> "ValueSet":
        return ValueSet.from_intervals(self.components + other.components)

    def coarsened(self, tol: float) -> "ValueSet":
        """Merge components separated by gaps below tol (numeric noise)."""
        merged = [self.components[0]]
        for c in self.components[1:]:
            last = merged[-1]
            if c.lo - last.hi <= tol:
                merged[-1] = ClosedInterval(last.lo, max(last.hi, c.hi))
            else:
                merged.append(c)
        return ValueSet(tuple(merged))

    def __repr__(self):
        return "{" + " ∪ ".join(repr(c) for c in self.components) + "}"


@dataclass(frozen=True)
class JumpPoint:
    location: Scalar
    value: ValueSet

    def __post_init__(self):
        object.__setattr__(self, "location", as_scalar(self.location))
        if self.value.is_singleton:
            raise StructureError(
                f"jump at {format_scalar(self.location)} must be genuinely set-valued"
            )


@dataclass(frozen=True)
class Branch:
    """Single-valued strictly monotone piece on the open core (lo, hi)."""

    lo: Scalar
    hi: Scalar
    map: MonotoneMap

    def __post_init__(self):
        object.__setattr__(self, "lo", as_scalar(self.lo))
        object.__setattr__(self, "hi", as_scalar(self.hi))
        if not lt(self.lo, self.hi):
            raise StructureError("branch needs lo < hi")

    def limit(self, side_point: Scalar) -> Scalar:
        """One-sided endpoint limit via closure evaluation of the map."""
        return self.map(side_point)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    where: Optional[Scalar]
    detail: str

    def __repr__(self):
        loc = "" if self.where is None else f" at {format_scalar(self.where)}"
        return f"{self.kind}{loc}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[Violation, ...]
    # lo of each generic branch whose monotonicity was only sampled (its
    # map has no witness); every other branch was checked exactly
    sampled: Tuple[Scalar, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(repr(v) for v in self.violations)


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    exact: bool
    max_deviation: float
    worst_point: Optional[Scalar]
    reason: str

    def __repr__(self):
        status = "equal" if self.equal else "unequal"
        mode = "exact" if self.exact else "grid"
        return f"EquivalenceReport({status}, {mode}, maxdev={self.max_deviation:.3e}, {self.reason})"


# ---------------------------------------------------------------------------
# the multifunction
# ---------------------------------------------------------------------------

def _tol_close(x: Scalar, y: Scalar, tol: float) -> bool:
    if is_exact(x) and is_exact(y):
        return eq(x, y)
    return abs(x - y) <= tol


@dataclass(frozen=True)
class Multifunction:
    domain: ClosedInterval
    orientation: Orientation
    branches: Tuple[Branch, ...]
    jumps: Tuple[JumpPoint, ...]

    # -- construction -------------------------------------------------------

    def __post_init__(self):
        a, b = self.domain.lo, self.domain.hi
        if not lt(a, b):
            raise StructureError("domain must be nondegenerate")
        locs = [j.location for j in self.jumps]
        if any(not within(c, a, b) for c in locs):
            raise StructureError("jump outside domain")
        if any(not lt(x, y) for x, y in zip(locs, locs[1:])):
            raise StructureError("jumps must be strictly increasing")
        cuts = [a] + locs + [b]
        expected = [(u, v) for u, v in zip(cuts, cuts[1:]) if lt(u, v)]
        got = [(br.lo, br.hi) for br in self.branches]
        if len(expected) != len(got) or not all(
                eq(u, p) and eq(v, q) for (u, v), (p, q) in zip(expected, got)):
            raise StructureError(
                f"branches {got} do not tile the jump-free gaps {expected}"
            )
        # sorted lookup keys, built once: every point query bisects them
        object.__setattr__(self, "_jump_locs", tuple(locs))
        object.__setattr__(self, "_branch_los", tuple(u for u, _ in got))
        object.__setattr__(self, "_branch_his", tuple(v for _, v in got))

    @classmethod
    def build(cls, lo, hi, pieces, jumps=()) -> "Multifunction":
        """Convenience constructor from affine piece and jump descriptions.

        pieces: iterable of (lo, hi, slope, intercept); jumps: iterable of
        (location, value) where value is (lo, hi) or a list of such pairs.
        """
        branches = [
            Branch(as_scalar(a), as_scalar(b),
                   AffineMap(Fraction(as_scalar(s)), Fraction(as_scalar(t))))
            for a, b, s, t in pieces
        ]
        jps = []
        for loc, val in jumps:
            if val and not isinstance(val[0], (tuple, list)):
                val = [val]
            comps = [ClosedInterval(as_scalar(p), as_scalar(q)) for p, q in val]
            jps.append(JumpPoint(as_scalar(loc), ValueSet.from_intervals(comps)))
        jps = ordered(jps, key=lambda j: j.location)
        branches = ordered(branches, key=lambda br: br.lo)
        orientation = branches[0].map.orientation if branches else INC
        return cls(ClosedInterval(as_scalar(lo), as_scalar(hi)), orientation,
                   tuple(branches), tuple(jps))

    # -- basic accessors ----------------------------------------------------

    @property
    def jump_locations(self) -> Tuple[Scalar, ...]:
        return self._jump_locs

    @property
    def includes_left_endpoint(self) -> bool:
        """Domain endpoint a is covered by the first branch closure."""
        return not (self.jumps and eq(self.jumps[0].location, self.domain.lo))

    @property
    def includes_right_endpoint(self) -> bool:
        return not (self.jumps and eq(self.jumps[-1].location, self.domain.hi))

    @property
    def is_exact(self) -> bool:
        return (self.domain.is_exact
                and all(map_is_exact_rational(br.map) for br in self.branches)
                and all(is_exact(j.location) and j.value.is_exact for j in self.jumps))

    def jump_at(self, x: Scalar) -> Optional[JumpPoint]:
        locs = self._jump_locs
        i = bisect_left(locs, x)
        if i < len(locs) and eq(locs[i], x):
            return self.jumps[i]
        return None

    def branch_containing(self, x: Scalar, closure: bool = False) -> Optional[Branch]:
        """Branch whose open core contains x; with closure=True also match
        endpoint inclusion at a/b when no jump sits there."""
        i = bisect_right(self._branch_los, x) - 1
        if i >= 0:
            br = self.branches[i]
            if inside(x, br.lo, br.hi):
                return br
        if closure:
            if (eq(x, self.domain.lo) and self.includes_left_endpoint
                    and self.branches):
                return self.branches[0]
            if (eq(x, self.domain.hi) and self.includes_right_endpoint
                    and self.branches):
                return self.branches[-1]
        return None

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Scalar) -> ValueSet:
        x = as_scalar(x)
        if not self.domain.contains(x):
            raise OutOfDomainError(f"{format_scalar(x)} outside {self.domain}")
        jp = self.jump_at(x)
        if jp is not None:
            return jp.value
        br = self.branch_containing(x, closure=True)
        if br is None:
            raise StructureError(f"no piece covers {format_scalar(x)}")
        return ValueSet.point(br.map(x))

    def one_sided_limit(self, x: Scalar, side: Side) -> Scalar:
        x = as_scalar(x)
        if not self.domain.contains(x):
            raise OutOfDomainError(f"{format_scalar(x)} outside {self.domain}")
        if side is LEFT:
            if eq(x, self.domain.lo):
                raise NoSuchSideError("no left limit at the left endpoint")
            # the first branch ending at or after x, if it starts before x
            i = bisect_left(self._branch_his, x)
            if i < len(self.branches) and lt(self.branches[i].lo, x):
                return self.branches[i].limit(x)
        else:
            if eq(x, self.domain.hi):
                raise NoSuchSideError("no right limit at the right endpoint")
            # the last branch starting at or before x, if it ends after x
            i = bisect_right(self._branch_los, x) - 1
            if i >= 0 and lt(x, self.branches[i].hi):
                return self.branches[i].limit(x)
        raise StructureError(f"no adjacent branch at {format_scalar(x)}")

    def image(self, S: ValueSet) -> ValueSet:
        """Exact image of a value set.

        Branch contributions are taken as closed intervals between endpoint
        limits; for valid usc multifunctions the limits are attained through
        the adjacent jump values, so the closure is exact, and gaps appear
        exactly where finite-set jump values leave them.
        """
        a, b = self.domain.lo, self.domain.hi
        if lt(S.min_value, a) or lt(b, S.max_value):
            raise OutOfDomainError(f"{S} escapes {self.domain}")
        pieces: List[ClosedInterval] = []
        for comp in S.components:
            p, q = comp.lo, comp.hi
            for jp in self.jumps[bisect_left(self._jump_locs, p):
                                 bisect_right(self._jump_locs, q)]:
                pieces.extend(jp.value.components)
            # branches meeting [p, q] in more than an endpoint of theirs:
            # hi > p and lo < q (for p == q, the branch whose core holds p)
            for br in self.branches[bisect_right(self._branch_his, p):
                                    bisect_left(self._branch_los, q)]:
                u = larger(br.lo, p)
                v = smaller(br.hi, q)
                pieces.append(ClosedInterval(*low_high(br.map(u), br.map(v))))
            if eq(p, q) and self.jump_at(p) is None:
                br = self.branch_containing(p, closure=True)
                if br is not None and not inside(p, br.lo, br.hi):
                    pieces.append(ClosedInterval(br.map(p), br.map(p)))
        return ValueSet.from_intervals(pieces)

    # -- algebra ------------------------------------------------------------

    def reflected(self) -> "Multifunction":
        """G(x) = (a+b) − F((a+b)−x); an involution preserving orientation."""
        s = self.domain.lo + self.domain.hi
        branches = tuple(
            Branch(s - br.hi, s - br.lo, reflect_map(br.map, s))
            for br in reversed(self.branches)
        )
        jumps = tuple(
            JumpPoint(s - jp.location, jp.value.reflected(s))
            for jp in reversed(self.jumps)
        )
        return Multifunction(self.domain, self.orientation, branches, jumps)

    def restricted(self, lo: Scalar, hi: Scalar) -> "Multifunction":
        """Restriction to [lo, hi] ⊂ [a, b]; jump values at the new
        endpoints are clipped, degenerate clips stop being jumps."""
        lo, hi = as_scalar(lo), as_scalar(hi)
        if not (le(self.domain.lo, lo) and lt(lo, hi) and le(hi, self.domain.hi)):
            raise OutOfDomainError("restriction interval escapes the domain")
        branches = []
        for br in self.branches:
            u, v = larger(br.lo, lo), smaller(br.hi, hi)
            if lt(u, v):
                branches.append(Branch(u, v, br.map))
        jumps = []
        for jp in self.jumps:
            if not within(jp.location, lo, hi):
                continue
            comps = [ClosedInterval(larger(c.lo, lo), smaller(c.hi, hi))
                     for c in jp.value.components
                     if le(lo, c.hi) and le(c.lo, hi)]
            if not comps:
                raise OutOfDomainError(
                    f"value at {format_scalar(jp.location)} lies entirely "
                    "outside the restriction window")
            clipped = ValueSet.from_intervals(comps)
            if clipped.has_multiple_points:
                jumps.append(JumpPoint(jp.location, clipped))
            elif inside(jp.location, lo, hi):
                # an interior jump clipped to one point can match at most
                # one adjacent limit, so the window breaks usc
                raise OutOfDomainError(
                    f"window reduces the interior value at "
                    f"{format_scalar(jp.location)} to a single point")
        return Multifunction(ClosedInterval(lo, hi), self.orientation,
                             tuple(branches), tuple(jumps))

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the class membership invariants; empty report = valid.

        Two halves: each branch map's orientation and strict monotonicity,
        then the structural checks (``_structure_violations``).  A generic
        branch map is proved strictly monotone through its witness
        (``_prove_monotone``).  One without a witness, or whose proof fails
        to evaluate, is sampled at 64 points instead, as before, and the
        report lists it in ``sampled``.  A built root is usually proved
        valid by the walk of its verification instead (``_prove_root``)."""
        out: List[Violation] = []
        sampled: List[Scalar] = []
        inc = self.orientation is INC

        for br in self.branches:
            if br.map.orientation is not self.orientation:
                out.append(Violation("orientation", br.lo,
                                     "branch map orientation disagrees"))
            if not isinstance(br.map, AffineMap):
                try:
                    bad = _prove_monotone(br.map, br.lo, br.hi, inc)
                except MfError:
                    sampled.append(br.lo)
                    bad = _sample_monotone(br.map, br.lo, br.hi, inc)
                if bad is not None:
                    out.append(Violation("monotonicity", bad,
                                         "branch not strictly monotone"))
        out.extend(self._structure_violations())
        return ValidationReport(tuple(out), tuple(sampled))

    def _structure_violations(self) -> List[Violation]:
        """``validate``'s checks beyond the branch maps themselves: usc at
        each jump, the order of the values across consecutive pieces, and
        the range."""
        tol = 0.0 if self.is_exact else 1e-9
        out: List[Violation] = []
        a, b = self.domain.lo, self.domain.hi
        inc = self.orientation is INC

        for jp in self.jumps:
            c, V = jp.location, jp.value
            left = right = None
            # the branches tile the gaps between jumps, so branch i opens
            # at c and branch i - 1 closes there (none at a domain end)
            i = bisect_left(self._branch_los, c)
            if i > 0:
                left = self.branches[i - 1].limit(c)
            if i < len(self.branches):
                right = self.branches[i].limit(c)
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

        # strict monotonicity across consecutive pieces
        prev_hi = None  # sup of values seen so far (inc) / inf (dec)
        prev_where = None
        for kind, obj in self._ordered_pieces():
            if kind == "branch":
                lo_val, hi_val = low_high(obj.limit(obj.lo), obj.limit(obj.hi))
                where = obj.lo
            else:
                lo_val, hi_val = obj.value.min_value, obj.value.max_value
                where = obj.location
            enter, leave = (lo_val, hi_val) if inc else (hi_val, lo_val)
            if prev_hi is not None:
                good = le(prev_hi, enter) if inc else le(enter, prev_hi)
                if not good and not _tol_close(prev_hi, enter, tol):
                    out.append(Violation(
                        "monotonicity", where,
                        f"values cross between pieces at {format_scalar(prev_where)} "
                        f"and {format_scalar(where)}"))
            prev_hi, prev_where = leave, where
            for v in (lo_val, hi_val):
                if not within(v, a, b) and not (
                        _tol_close(v, a, tol) or _tol_close(v, b, tol)):
                    out.append(Violation("range", where,
                                         f"value {format_scalar(v)} escapes {self.domain}"))
        return out

    def _ordered_pieces(self):
        # a jump at c precedes the branch opening at c: the jumps come
        # first, and the sort is stable
        items = [(jp.location, "jump", jp) for jp in self.jumps]
        items += [(br.lo, "branch", br) for br in self.branches]
        return [(kind, obj) for _, kind, obj in ordered(items, key=lambda kv: kv[0])]


# ---------------------------------------------------------------------------
# composition and iteration
# ---------------------------------------------------------------------------

class _Pullback:
    """``pullback(targets)``: the non-jump points x with F(x) a single
    point lying in ``targets``.

    The branch images are taken once, sorted by their lower end; each
    target bisects them and walks down past every image that can still
    reach it.  Images of a valid multifunction are disjoint, so the walk
    stops after one step; overlapping images each give their preimage.
    """

    def __init__(self, F: Multifunction):
        self.F = F
        images = ordered(((*low_high(br.map(br.lo), br.map(br.hi)), br) for br in F.branches),
                         key=lambda im: im[0])
        self.images = images
        self.img_los = [im[0] for im in images]
        self.reach = list(itertools.accumulate((im[1] for im in images), larger))

    def __call__(self, targets) -> set:
        F, images, reach = self.F, self.images, self.reach
        hits = set()
        for s in targets:
            i = bisect_left(self.img_los, s) - 1
            while i >= 0 and lt(s, reach[i]):
                _, img_hi, br = images[i]
                if lt(s, img_hi):
                    x = br.map.inverse(s)
                    if inside(x, br.lo, br.hi):
                        hits.add(x)
                i -= 1
        for endpoint, included, br in (
                (F.domain.lo, F.includes_left_endpoint, F.branches[0] if F.branches else None),
                (F.domain.hi, F.includes_right_endpoint, F.branches[-1] if F.branches else None)):
            if included and br is not None and br.map(endpoint) in targets:
                hits.add(endpoint)
        return hits


def compose(G: Multifunction, F: Multifunction) -> Multifunction:
    """G∘F with structural jump propagation.

    New jump locations are the preimages of G's jumps through F's branches
    (plus F's own jumps); jump values go through set images, so usc and
    strict monotonicity are preserved whenever both inputs are valid and
    the range of F stays inside G's domain.
    """
    rng = F.image(ValueSet((F.domain,)))
    if lt(rng.min_value, G.domain.lo) or lt(G.domain.hi, rng.max_value):
        raise RangeEscapeError(
            f"range {rng} of inner multifunction escapes {G.domain}")

    locations = set(F.jump_locations)
    if G.jumps:
        locations |= _Pullback(F)(set(G.jump_locations))

    jumps = []
    for loc in ordered(locations):
        value = G.image(F(loc))
        if value.has_multiple_points:
            jumps.append(JumpPoint(loc, value))

    a, b = F.domain.lo, F.domain.hi
    cuts = [a] + [j.location for j in jumps] + [b]
    branches = []
    for u, v in zip(cuts, cuts[1:]):
        if not lt(u, v):
            continue
        mid = midpoint(u, v)
        inner = F.branch_containing(mid)
        if inner is None:
            raise StructureError("composition lost a branch piece")
        mid_val = inner.map(mid)
        outer = G.branch_containing(mid_val, closure=True)
        if outer is None:
            raise StructureError(
                f"branch value {format_scalar(mid_val)} sits on a jump of the outer map")
        branches.append(Branch(u, v, compose_maps(outer.map, inner.map)))

    return Multifunction(F.domain, G.orientation * F.orientation,
                         tuple(branches), tuple(jumps))


def iterate(F: Multifunction, n: int) -> Multifunction:
    """n-fold self-composition, n >= 1."""
    if n < 1:
        raise MfError(f"iteration order must be >= 1, got {n}")
    acc = F
    for _ in range(n - 1):
        acc = compose(acc, F)
    return acc


def reflect(F: Multifunction) -> Multifunction:
    return F.reflected()


def evaluate(F: Multifunction, x: Scalar) -> ValueSet:
    return F(x)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceConfig:
    grid: int = 1024
    tol: float = 1e-9


def _match_jumps(F, G, tol):
    fl, gl = F.jump_locations, G.jump_locations
    if len(fl) != len(gl):
        return False, f"jump counts differ: {len(fl)} vs {len(gl)}"
    for x, y in zip(fl, gl):
        if not _tol_close(x, y, tol):
            return False, f"jump locations differ: {format_scalar(x)} vs {format_scalar(y)}"
    for jf, jg in zip(F.jumps, G.jumps):
        vf, vg = jf.value, jg.value
        if not vf.is_exact:
            vf = vf.coarsened(tol)
        if not vg.is_exact:
            vg = vg.coarsened(tol)
        if len(vf.components) != len(vg.components):
            return False, (f"jump value component counts differ at "
                           f"{format_scalar(jf.location)}")
        for cf, cg in zip(vf.components, vg.components):
            if not (_tol_close(cf.lo, cg.lo, tol) and _tol_close(cf.hi, cg.hi, tol)):
                return False, f"jump values differ at {format_scalar(jf.location)}"
    return True, ""


@functools.lru_cache(maxsize=8)
def _grid_offsets(grid: int) -> Tuple[Fraction, ...]:
    """Relative positions of the grid points: cell midpoints of [0, 1]."""
    return tuple(Fraction(2 * i + 1, 2 * grid) for i in range(grid))


def equivalent(F: Multifunction, G: Multifunction,
               cfg: EquivalenceConfig = EquivalenceConfig()) -> EquivalenceReport:
    """Exact structural equality when both sides are exact, grid comparison
    otherwise."""
    if F.domain != G.domain:
        raise DomainMismatchError(f"{F.domain} vs {G.domain}")
    if F.orientation is not G.orientation:
        return EquivalenceReport(False, F.is_exact and G.is_exact, float("inf"),
                                 None, "orientations differ")

    if F.is_exact and G.is_exact:
        if F.jumps != G.jumps:
            ok, why = _match_jumps(F, G, 0.0)
            return EquivalenceReport(False, True, float("inf"), None,
                                     why or "jump sets differ")
        for bf, bg in zip(F.branches, G.branches):
            if (bf.lo, bf.hi) != (bg.lo, bg.hi) or bf.map != bg.map:
                return EquivalenceReport(False, True, float("inf"), bf.lo,
                                         f"branch maps differ on ({format_scalar(bf.lo)},"
                                         f" {format_scalar(bf.hi)})")
        return EquivalenceReport(True, True, 0.0, None, "exact equality")

    ok, why = _match_jumps(F, G, cfg.tol)
    if not ok:
        return EquivalenceReport(False, False, float("inf"), None, why)

    jumps = set(F.jump_locations) | set(G.jump_locations)
    boundary = sorted(jumps | {F.domain.lo, F.domain.hi})
    tol = cfg.tol
    max_dev, worst = 0.0, None
    for u, v in zip(boundary, boundary[1:]):
        if not u < v:
            continue
        width = v - u
        # every jump is a boundary, so only u and v can be the jump near x
        u_jump, v_jump = u in jumps, v in jumps
        for t in _grid_offsets(cfg.grid):
            x = u + width * t
            if (u_jump and abs(x - u) <= tol) or (v_jump and abs(x - v) <= tol):
                continue
            fv, gv = F(x), G(x)
            if not (fv.is_singleton and gv.is_singleton):
                return EquivalenceReport(False, False, float("inf"), x,
                                         "unexpected multivalued point on grid")
            dev = abs(float(fv.singleton_value() - gv.singleton_value()))
            if dev > max_dev:
                max_dev, worst = dev, x
    equal = max_dev <= cfg.tol
    reason = "grid comparison" if equal else "branch deviation exceeds tolerance"
    return EquivalenceReport(equal, False, max_dev, worst, reason)


# ---------------------------------------------------------------------------
# exact proof of equality through map witnesses
# ---------------------------------------------------------------------------

# halvings of a fundamental domain's outer end before its neighbourhood
# gives up on fitting inside the glue pieces of the maps
_MAX_HALVINGS = 64


def _as_affine(m) -> AffineMap:
    return m if isinstance(m, AffineMap) else compose_maps(*m.maps)


def _guards_hold(items, zs, x0) -> bool:
    """Whether the image of the neighbourhood between e and x0 stays inside
    one piece of every glued map the germ passes; zs[i] is the image of e
    that reaches items[i]."""
    x = x0
    for it, z in zip(items, zs):
        if isinstance(it, Guard):
            lo, hi = low_high(z, x)
            if any(inside(k, lo, hi) for k in it.knots):
                return False
        else:
            x = it(x)
    return True


def _reduce_at(W, e, side, x0):
    """Where the check of W = A near a point e of accumulating pieces may
    stop: g0(x0') for a generator g0 attracting to e and an x0' between e
    and x0, or e itself when no pieces accumulate on this side.

    Along W's germ at e, each orbit map must sit at its attracting point
    and take the generator the previous maps hand on (an affine map a
    hands on a∘g∘a⁻¹); then W∘g0 = g'∘W near e, and g' fixes W(e).  Every
    point of the neighbourhood is a g0-iterate of a point of the
    fundamental domain [g0(x0'), x0'], so W = A there and at e gives
    W = A on all of it once A∘g0 = g'∘A.  That needs no check of its own:
    g' and A∘g0∘A⁻¹ are affine maps that both fix A(e) = W(e) and both
    send A(x0') = W(x0') to A(g0(x0')) = W(g0(x0')), so they are equal.

    The affine items between two orbit maps fold into one map a, so the
    generator is handed on as a∘g∘a⁻¹ once per orbit map."""
    items = W.germ(e, side)
    # the affine items since the last orbit map, or since the germ's start
    a, g0, g = _IDENTITY, None, None
    z = e
    zs = []  # the image of e that reaches each item
    for it in items:
        zs.append(z)
        if isinstance(it, Guard):
            continue
        if isinstance(it, AffineMap):
            a = it.after(a)
        else:
            gens = it.generators(z)
            if gens is None:
                raise NoExactProofError(
                    f"{it!r} is used near {format_scalar(z)}, away from its attracting point")
            if g is None:
                g0 = compose_maps(a.inverse_map(), gens[0], a)
            else:
                if a is not _IDENTITY:
                    g = compose_maps(a, g, a.inverse_map())
                if g != gens[0]:
                    raise NoExactProofError(f"{it!r}: its generator {gens[0]!r} does not "
                                            f"match the one handed on, {g!r}")
            a, g = _IDENTITY, gens[1]
        z = it(z)
    if g is None:
        return e
    for _ in range(_MAX_HALVINGS):
        if _guards_hold(items, zs, x0):
            return g0(x0)
        x0 = midpoint(e, x0)
    raise NoExactProofError(f"no neighbourhood of {format_scalar(e)} fits the glue pieces")


def _witness_spans(W, u, v, limits):
    """(cells, spans): the cells are u, v and the points ``limits`` of
    [u, v] where W's pieces accumulate; spans[i] is the part of
    [cells[i], cells[i + 1]] left once the neighbourhoods of the cells in
    ``limits``, which equivariance settles from one fundamental domain
    (``_reduce_at``), are taken off."""
    cells = ordered({u, v, *limits})
    spans = []
    for a, b in zip(cells, cells[1:]):
        if a in limits and b in limits:
            mid = midpoint(a, b)
            spans.append((_reduce_at(W, a, 1, mid), _reduce_at(W, b, -1, mid)))
        else:
            spans.append((_reduce_at(W, a, 1, b) if a in limits else a,
                          _reduce_at(W, b, -1, a) if b in limits else b))
    return cells, spans


def _span_pieces(W, lo, hi) -> list:
    """[lo, hi] split at W's breaks: the pieces (p, q), in increasing
    order, open intervals on each of which W is affine."""
    ends = (lo, *W.breaks(lo, hi), hi)
    return list(zip(ends, ends[1:]))


def _piece_points(cells, pieces):
    """(points, at): the cells, the ends of each piece and two inner points
    of it, where an affine piece is settled whether or not W is continuous
    at its ends, in increasing order and each once; piece i's lower end is
    points[at[i]], and its inner points and upper end follow it.

    The pieces come in increasing order, and no cell lies inside one, so
    the cells merge in one pass; consecutive pieces of a span share an end."""
    points: list = []
    at = []

    def add(x):
        if not points or (x is not points[-1] and not eq(x, points[-1])):
            points.append(x)

    c = 0
    for p, q in pieces:
        while c < len(cells) and le(cells[c], p):
            add(cells[c])
            c += 1
        add(p)
        at.append(len(points) - 1)
        points.extend((*thirds(p, q), q))
    for x in cells[c:]:
        add(x)
    return points, at


def _exact_value(W, x):
    w = W(x)
    if not is_exact(w):
        raise NoExactProofError(f"{W!r} gives the inexact value {w!r}")
    return w


def _prove_chain(maps, u, v, A=None, inc=None, limits=None):
    """(pieces, x) for the chain of ``maps``, first map first, composed as
    ``iterate`` composes it: its witness splits [u, v] into ``pieces``
    affine pieces, accumulating at ``limits`` (asked of the chain when
    None), and x is the first point where the chain is not proved equal to
    the affine map A or, when ``inc`` is given, where maps[0] is not
    proved strictly increasing (``inc``) or decreasing; else None.  A is
    compared as each value comes, and the monotonicity verdict waits for
    all of maps[0]'s.  Raises ``NoExactProofError`` when a map has no
    witness or gives an inexact value."""
    W = maps[-1]
    for m in maps[-2::-1]:
        W = compose_maps(W, m)
    cells, spans = _witness_spans(W, u, v, W.limits(u, v) if limits is None else limits)
    pieces = [piece for lo, hi in spans for piece in _span_pieces(W, lo, hi)]
    points, at = _piece_points(cells, pieces)
    first = maps[0]
    w = []  # first's values
    for x in points:
        y = _exact_value(first, x)
        w.append(y)
        for m in maps[1:]:
            y = _exact_value(m, y)
        if A is not None and not eq(y, A(x)):
            return len(pieces), x
    if inc is not None and not isinstance(first, AffineMap):
        # a gap the chain leaves at a cell, where first is affine (see
        # ``_root_walk``); the census, the odd census and roots seeds 29 and
        # 41 show 998 gaps, each at an orbit map of first's own
        for c, d, (lo, hi) in zip(cells, cells[1:], spans):
            for cell, end, side in ((c, lo, 1), (d, hi, -1)):
                if not eq(end, cell) and _affine_germ(first, cell, side):
                    return len(pieces), cell
    return len(pieces), None if inc is None else _monotone_verdict(points, at, w, inc)


def _prove_monotone(W, u, v, inc: bool):
    """None when W is proved strictly increasing (``inc``) or decreasing
    on [u, v], else a point where it is not; raises ``NoExactProofError``
    when W has no witness or an inexact value.

    On each affine piece two inner points give the slope, whose sign must
    be the orientation's.  Along x, the values W(x−), W(x), W(x+) at the
    cells and piece ends, the one-sided ones extrapolated from the pieces,
    must come in non-strict order.  Near an accumulation point e, W∘g0 =
    g'∘W for increasing affine g0, g' (``_reduce_at``), so W is strictly
    monotone there once it is on one fundamental domain, and W(e), the
    fixed point of g', bounds the values there once it bounds the domain's."""
    return _prove_chain((W,), u, v, inc=inc)[1]


def _monotone_verdict(points, at, w, inc: bool):
    """``_prove_chain``'s test of the values w of a map at ``points``
    (``_piece_points``; the pieces open at the indices ``at``): None when
    they prove it strictly increasing (``inc``) or decreasing, else the
    first point where they do not."""
    # W(x+) at each piece's lower end and W(x−) at its upper end, taken
    # from the piece; once its slope has the right sign, the values at its
    # inner points lie strictly between these two
    after, before = {}, {}
    for i in at:
        w1, w2 = w[i + 1], w[i + 2]
        if not (lt(w1, w2) if inc else lt(w2, w1)):
            return points[i + 1]
        after[i], before[i + 3] = extrapolate(w1, w2), extrapolate(w2, w1)
    prev = None
    for i, x in enumerate(points):
        for value in (before.get(i), w[i], after.get(i)):
            if value is None:
                continue
            if prev is not None and (lt(value, prev) if inc else lt(prev, value)):
                return x
            prev = value
    return None


def _sample_monotone(W, u, v, inc: bool):
    """A sampled point where W fails to be strictly monotone on (u, v),
    or None; a spot check for maps without a witness."""
    samples = 64
    step = (v - u) / (samples + 1)
    prev = None
    for i in range(1, samples + 1):
        val = W(u + step * i)
        if prev is not None and not (val > prev if inc else val < prev):
            return u + step * i
        prev = val
    return None


def prove_equivalent(F: Multifunction, G: Multifunction) -> EquivalenceReport:
    """Exact proof, or exact disproof, that F = G for an exact G.

    Jumps compare exactly.  On each branch, F's map W reports its pieces
    (see ``maps``): near each point where they accumulate, equivariance
    reduces W = A to one fundamental domain, and the rest splits into
    finitely many affine pieces, each compared with G's affine map A at
    its ends and at two inner points.  Raises ``NoExactProofError`` naming
    the map when some map carries no witness or a witness does not fit."""
    if F.domain != G.domain:
        raise DomainMismatchError(f"{F.domain} vs {G.domain}")
    if F.orientation is not G.orientation:
        return EquivalenceReport(False, True, float("inf"), None, "orientations differ")
    if not G.is_exact:
        raise NoExactProofError("the target is not exact")
    try:
        # asks every map for its witness first, so that a missing one is
        # named before its inexact values show up in the jumps
        limits = [bf.map.limits(bf.lo, bf.hi) for bf in F.branches]
    except NoExactProofError:
        raise
    except MfError as exc:
        raise NoExactProofError(f"evaluation failed: {exc}") from exc
    if not all(is_exact(jp.location) and jp.value.is_exact for jp in F.jumps):
        raise NoExactProofError("the jump data are inexact")
    if F.jumps != G.jumps:
        ok, why = _match_jumps(F, G, 0.0)
        return EquivalenceReport(False, True, float("inf"), None,
                                 why or "jump sets differ")
    total = 0
    for bf, bg, lims in zip(F.branches, G.branches, limits):
        A = _as_affine(bg.map)
        try:
            pieces, x = _prove_chain((bf.map,), bf.lo, bf.hi, A, limits=lims)
        except EvaluationRangeError as exc:
            # every evaluation is at a point of the branch or at its image
            # under the maps applied so far: F is undefined there, G is not
            return EquivalenceReport(
                False, True, float("inf"), None,
                f"branch map on ({format_scalar(bf.lo)}, {format_scalar(bf.hi)}) "
                f"is not defined everywhere: {exc}")
        except NoExactProofError:
            raise
        except MfError as exc:
            raise NoExactProofError(f"evaluation failed: {exc}") from exc
        if x is not None:
            return EquivalenceReport(
                False, True, abs(float(bf.map(x) - A(x))), x,
                f"branch maps differ at {format_scalar(x)} on "
                f"({format_scalar(bf.lo)}, {format_scalar(bf.hi)})")
        total += pieces
    return EquivalenceReport(True, True, 0.0, None,
                             f"exact proof over {total} affine pieces")


# ---------------------------------------------------------------------------
# one proof walk per built root
# ---------------------------------------------------------------------------

def _prove_root(f: Multifunction, F: Multifunction, n: int) -> Optional[EquivalenceReport]:
    """The report of ``prove_equivalent(iterate(f, n), F)`` when f is valid
    and fⁿ = F, proved by ``_root_walk`` without composing fⁿ; None when
    the walk does not go through.  Inside an evaluation cache the answer
    is kept for the next call with the same f, F and n."""
    return memoized_call(_root_walk, f, F, n)


def _root_walk(f: Multifunction, F: Multifunction, n: int) -> Optional[EquivalenceReport]:
    """Proof that f is valid and that fⁿ = F, in one walk per branch of F:
    a passing report, or None when a step fails or does not apply.

    Iterating only adds jumps, J(f) ⊆ J(fⁿ), so when fⁿ = F each branch
    (u, v) of F lies in one branch of f, and F's partition is fⁿ's.  For
    each branch (u, v) of F:

    1. route (``_route``): (u, v) is carried through f n times, each image
       by the branch of f whose closure holds it; an f-jump strictly inside
       an image would be a jump of fⁿ that F does not have;
    2. equality (``_prove_chain``): the chain of the n branch maps equals
       F's affine map at the points of its witness pieces, the proof
       ``prove_equivalent`` gives one map, so the report counts the same
       pieces;
    3. monotonicity: the chain's first map is f's branch map on (u, v).  The
       chain's pieces lie inside its affine pieces and the chain's cells
       hold the points where it accumulates, so its values at the chain's
       points, taken on the way, feed ``_monotone_verdict``.  Where the
       chain stops short of a cell, equivariance settles the neighbourhood
       it leaves out (``_reduce_at``); that covers this map only when an
       orbit map of its own accumulates there, so a root where the map is
       affine near such a cell is left to ``validate``.  The values at u
       and v are in the test, so the walks on the two sides of a jump of F
       inside a branch of f meet in the one value there, and their
       one-sided values close the order across it.

    At each jump c of F, n − 1 set images through f of f(c) must give F(c),
    and an end of the domain where F does not jump must, with its orbit,
    miss f's jumps (``_route``): then fⁿ has F's jumps.  f must pass
    ``validate``'s structural checks, on which ``compose``'s set images
    rely.  Roots whose branch maps are all affine, inexact targets and maps
    without a witness are left to ``iterate`` and ``prove_equivalent`` or
    ``equivalent``."""
    try:
        if (n < 1 or all(map_is_exact_rational(br.map) for br in f.branches)
                or not F.is_exact or f.domain != F.domain
                or (f.orientation if n % 2 else INC) is not F.orientation
                or any(br.map.orientation is not f.orientation for br in f.branches)
                or f._structure_violations()):
            return None
        for jp in F.jumps:
            V = f(jp.location)
            for _ in range(n - 1):
                V = f.image(V)
            if not V.is_exact or V != jp.value:
                return None
        a, b = f.domain.lo, f.domain.hi
        total = 0
        inc = f.orientation is INC
        for bg in F.branches:
            maps = _route(f, bg.lo, bg.hi, n, eq(bg.lo, a) and F.includes_left_endpoint,
                          eq(bg.hi, b) and F.includes_right_endpoint)
            if maps is None:
                return None
            pieces, x = _prove_chain(maps, bg.lo, bg.hi, _as_affine(bg.map), inc)
            if x is not None:
                return None
            total += pieces
    except MfError:
        return None
    return EquivalenceReport(True, True, 0.0, None, f"exact proof over {total} affine pieces")


def _route(f: Multifunction, u, v, n: int, free_lo: bool, free_hi: bool):
    """The branch maps of f that carry (u, v) on n times, first one first;
    None when an f-jump lies strictly inside one of the images, or when the
    orbit of u (``free_lo``) or of v (``free_hi``), which must miss f's
    jumps, meets one.  Each image's ends are the branch map's values at the
    ends of the one before, so the orbits of u and v come on the way."""
    maps = []
    x, y = u, v
    for _ in range(n):
        lo, hi = low_high(x, y)
        i = bisect_right(f._branch_los, lo) - 1
        if i < 0 or lt(f._branch_his[i], hi):
            return None
        if (free_lo and f.jump_at(x) is not None) or (free_hi and f.jump_at(y) is not None):
            return None
        m = f.branches[i].map
        maps.append(m)
        x, y = m(x), m(y)
    return maps


def _affine_germ(W, z, side) -> bool:
    """Whether W's germ at z on ``side`` holds no orbit map, so that no
    equivariance settles W near z."""
    return all(isinstance(it, (Guard, AffineMap)) for it in W.germ(z, side))
