"""Fundamental-domain constructions for single-valued monotone maps.

All constructions share one engine: pick a fundamental domain of the
orbit structure, seed it with a piecewise-linear map, and extend along
orbits by conjugation.  An affine map whose slope has a rational n-th
root may instead take the affine root that keeps its fixed point
(``_affine_root``), which ``_closed_form`` accepts only when it meets the
requirements the engine would pin; an irrational slope root is always
left to the engine.  Lazy evaluation stays exact-rational pointwise when
the underlying map is affine over the rationals.  A lazy evaluation k
orbit steps from the fundamental domain costs a number of exact
operations logarithmic in k when the orbit's generator is an exact affine
map (g^k(x) = p + s^k (x - p) in closed form), and k single steps for
generic generators and float points.

Every lazy map is built from ``_OrbitMap``, one direction of which lands
its argument in a fundamental domain of g_in, applies the seed piece, and
carries the value back along g_out, so f∘g_in = g_out∘f.  Its inverse is
the partner direction, built once, which reads the same seed.  The orbit
root and the orbit conjugacy are its two constructors; a mirrored root is
the orbit root of the reflected problem turned about the pivot into one
orbit map of the caller's frame, and a self pairing glues the orbit map ψ
from one side of the fixed point to the other with ψ⁻¹∘g.  Over exact
affine data an orbit map is its own witness for ``core.prove_equivalent``:
it commutes with its generators, it sends the attracting point of g_in to
that of g_out, and it is affine between the orbit images of its seed's
knots; a composition or glue of orbit maps is proved through them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    BadSeedError,
    EvaluationRangeError,
    HasInteriorFixedPointError,
    IncompatiblePatternError,
    MfError,
    NoExactProofError,
    WrongSideError,
)
from .maps import (
    AffineMap,
    DEC,
    INC,
    GenericMap,
    GluedMap,
    Orientation,
    _EVALUATIONS,  # re-exported with evaluation_cache
    _memoized,
    compose_maps,
    evaluation_cache,  # re-exported: the builder opens it around a proof
    iterate_map,
    reflect_map,
)
from .scalars import (
    Scalar,
    as_scalar,
    bisect_left,
    bisect_right,
    eq,
    format_scalar,
    inside,
    is_exact,
    le,
    low_high,
    lt,
    midpoint,
    ordered,
    rational_nth_root,
    within,
)

_MAX_ORBIT_STEPS = 200_000
# Single steps an orbit takes before an exact affine orbit jumps in closed
# form: most evaluations land within two steps, where stepping is cheaper.
_WALK = 2


@dataclass(frozen=True)
class ScalarRootSeed:
    """Free data of a fundamental-domain construction.

    anchor: where the fundamental domain is pinned (defaults to the outer
    end of the attraction basin); divisions: explicit subdivision points
    t_1, ..., t_{n-1}, the images of the anchor under the root's powers, in
    the caller's frame also where the root is built reflected;
    image_anchor: where the anchor is sent (pairings/conjugacies);
    affine: (slope, intercept) requesting an explicit affine seed segment.
    Linear interpolation throughout.
    """

    anchor: Optional[Scalar] = None
    divisions: Optional[Tuple[Scalar, ...]] = None
    image_anchor: Optional[Scalar] = None
    affine: Optional[Tuple[Scalar, Scalar]] = None

    def normalized(self) -> "ScalarRootSeed":
        return ScalarRootSeed(
            None if self.anchor is None else as_scalar(self.anchor),
            None if self.divisions is None else tuple(as_scalar(d) for d in self.divisions),
            None if self.image_anchor is None else as_scalar(self.image_anchor),
            None if self.affine is None else (as_scalar(self.affine[0]),
                                              as_scalar(self.affine[1])),
        )

    @property
    def is_default(self) -> bool:
        return (self.anchor is None and self.divisions is None
                and self.image_anchor is None and self.affine is None)


DEFAULT_SEED = ScalarRootSeed()


def _affine_through(x1, y1, x2, y2) -> AffineMap:
    x1, y1, x2, y2 = map(as_scalar, (x1, y1, x2, y2))
    if all(map(is_exact, (x1, y1, x2, y2))):
        return AffineMap.through(x1, y1, x2, y2)
    slope = Fraction(y2 - y1) / Fraction(x2 - x1)
    return AffineMap(slope, Fraction(y1) - slope * Fraction(x1))


# ---------------------------------------------------------------------------
# map patterns relative to the diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapPattern:
    kind: str  # "below" | "above" | "interior" | "identity"
    fixed: Optional[Scalar] = None  # interior fixed point
    attracting: Optional[bool] = None  # interior case: basin on both sides


def map_pattern(g, lo: Scalar, hi: Scalar, samples: int = 65) -> MapPattern:
    """Position of an increasing map relative to the diagonal on [lo, hi]."""
    if isinstance(g, AffineMap):
        s, t = g.slope, g.intercept
        if eq(s, 1):
            if g.is_identity:
                return MapPattern("identity")
            return MapPattern("below" if lt(t, 0) else "above")
        p = g.fixed_point()
        if inside(p, lo, hi):
            return MapPattern("interior", p, attracting=lt(s, 1))
        mid = midpoint(lo, hi)
        return MapPattern("below" if lt(g(mid), mid) else "above")
    signs = []
    pts = [lo + (hi - lo) * Fraction(i, samples - 1) for i in range(samples)]
    for x in pts:
        d = g(x) - x
        signs.append(0 if d == 0 else (1 if d > 0 else -1))
    if all(s == 0 for s in signs):
        return MapPattern("identity")
    crossings = [i for i in range(len(signs) - 1)
                 if signs[i] * signs[i + 1] < 0]
    # a sample on the fixed point itself, between opposite signs
    zeros = [i for i in range(1, len(signs) - 1)
             if signs[i] == 0 and signs[i - 1] * signs[i + 1] < 0]
    if not crossings and not zeros:
        if any(s > 0 for s in signs) and any(s < 0 for s in signs):
            raise IncompatiblePatternError("diagonal pattern not resolvable by sampling")
        return MapPattern("below" if any(s < 0 for s in signs) else "above")
    if len(crossings) + len(zeros) > 1:
        raise IncompatiblePatternError("multiple interior fixed points")
    if zeros:
        i = zeros[0]
        return MapPattern("interior", pts[i], attracting=signs[i - 1] > 0)
    i = crossings[0]
    return MapPattern("interior", _crossing(g, pts[i], pts[i + 1], signs[i]),
                      attracting=signs[i] > 0)


def _crossing(g, a, b, sign_left) -> float:
    """Float bisection for the point between a and b where g crosses the
    diagonal; g(x) − x has the sign sign_left at a."""
    a, b = float(a), float(b)
    for _ in range(200):
        m = (a + b) / 2
        d = g(m) - m
        if d == 0 or m in (a, b):
            return m
        if (d > 0) == (sign_left > 0):
            a = m
        else:
            b = m
    return (a + b) / 2


# ---------------------------------------------------------------------------
# fundamental-domain subdivisions
# ---------------------------------------------------------------------------

def _arith(top, bottom, count):
    """count-1 interior points descending from top toward bottom."""
    return tuple(top - (top - bottom) * Fraction(i, count) for i in range(1, count))


def _divisions(x0, gx0, n, custom=None, floor_last=None, pins=()):
    """Division points t_1 > ... > t_{n-1} of the fundamental domain
    [g(x0), x0]; arithmetic by default, respaced to honor constraints.

    floor_last: require t_{n-1} strictly above this value (keeps images of
    the respaced bottom piece under the cap g(x0)).
    pins: (slot, bound, sense) with sense "ge"/"le"; binding bounds are
    pinned exactly and the remaining slots re-spaced arithmetically.
    """
    if custom is not None:
        divs = tuple(as_scalar(d) for d in custom)
        if len(divs) != n - 1:
            raise BadSeedError(f"need {n - 1} divisions, got {len(divs)}")
        chain = (x0, *divs, gx0)
        if any(u <= v for u, v in zip(chain, chain[1:])):
            raise BadSeedError(f"divisions must decrease strictly inside ({gx0}, {x0})")
        return divs
    divs = _arith(x0, gx0, n)
    if floor_last is not None and divs[-1] <= floor_last:
        if not gx0 < floor_last < x0:
            raise IncompatiblePatternError(
                f"cannot keep the root below the cap: bound {format_scalar(floor_last)} "
                f"outside ({format_scalar(gx0)}, {format_scalar(x0)})")
        divs = _arith(x0, floor_last, n)  # last division = bound + gap/n > bound
    pins = [(s, as_scalar(b), sense) for s, b, sense in pins if 1 <= s <= n - 1]
    if not pins:
        return divs
    pinned: dict = {}
    for _ in range(len(pins) + 1):
        violated = False
        for slot, bound, sense in pins:
            value = divs[slot - 1]
            bad = ((sense == "ge" and value < bound)
                   or (sense == "le" and value > bound)
                   or (sense == "gt" and value <= bound)
                   or (sense == "lt" and value >= bound))
            if bad:
                # strict senses re-pin a notch inside the bound
                target = bound
                if sense == "gt":
                    target = bound + (x0 - bound) / (2 * n)
                elif sense == "lt":
                    target = bound - (bound - gx0) / (2 * n)
                if not gx0 < target < x0:
                    raise IncompatiblePatternError(
                        f"division pin {format_scalar(target)} outside the "
                        f"fundamental domain ({format_scalar(gx0)}, {format_scalar(x0)})")
                pinned[slot] = target
                violated = True
        if not violated:
            return divs
        anchors = [(0, x0)] + sorted(pinned.items()) + [(n, gx0)]
        for (s1, v1), (s2, v2) in zip(anchors, anchors[1:]):
            if not (s1 < s2 and v1 > v2):
                raise IncompatiblePatternError(
                    "division pins conflict: "
                    + ", ".join(f"t_{s}={format_scalar(v)}" for s, v in pinned.items()))
        rebuilt = []
        for (s1, v1), (s2, v2) in zip(anchors, anchors[1:]):
            rebuilt.extend(_arith(v1, v2, s2 - s1))
            if s2 < n:
                rebuilt.append(v2)
        divs = tuple(rebuilt)
    raise IncompatiblePatternError("division pins do not stabilize")


class _SeedMap:
    """Piecewise monotone bijection given by ordered pieces (lo, hi, map):
    increasing pieces, or one decreasing piece; the ends of the piece
    images, taken once, are in the same order.  It answers which piece
    holds a point or a value; the orbit carry applies the piece."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.los = [p[0] for p in pieces]
        self.top = pieces[-1][1]
        images = [low_high(m(lo), m(hi)) for lo, hi, m in pieces]
        self.img_los = [a for a, _ in images]
        self.img_his = [b for _, b in images]
        self._landed: dict = {}  # images -> (domain, landed knots)

    def landed(self, dom: "_Domain", images: bool) -> tuple:
        """The ends of the pieces, or of their images when ``images``,
        landed in dom along its orbits: in increasing order, each once.
        Taken once per seed and domain, so a new seed reads no old knots."""
        entry = self._landed.get(images)
        if entry is None or entry[0] is not dom:
            knots = (*self.img_los, *self.img_his) if images else (*self.los, self.top)
            entry = self._landed[images] = (
                dom, tuple(ordered({_orbit_land(dom, t)[0] for t in knots})))
        return entry[1]

    def piece(self, x):
        """The map of the piece that holds x: the last that starts at or
        below x."""
        i = bisect_right(self.los, x) - 1
        if i >= 0 and le(x, self.top):
            return self.pieces[i][2]
        raise EvaluationRangeError(f"{format_scalar(x)} outside the seed domain")

    def inverse_piece(self, w):
        """The map of the piece whose image holds w: the first whose image
        reaches w, if it starts at or below w."""
        i = bisect_left(self.img_his, w)
        if i < len(self.pieces) and le(self.img_los[i], w):
            return self.pieces[i][2]
        raise EvaluationRangeError(f"{format_scalar(w)} outside the seed image")


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

class _Domain:
    """Fundamental domain of an increasing map g: the points between the
    anchor (closed) and image = g(anchor) (open).

    fixed is g's fixed point p when g is an exact affine map with slope
    s != 1 and the anchor is exact, so that orbits of exact points have
    the closed form g^k(x) = p + s^k (x − p); otherwise None.  Float
    points always step, so their results stay those of single steps bit
    for bit."""

    def __init__(self, g, anchor):
        self.g, self.anchor, self.image = g, anchor, g(anchor)
        self.down = lt(self.image, anchor)  # g moves points down
        self.fixed = None
        if isinstance(g, AffineMap) and g.orientation is INC and is_exact(anchor):
            self.fixed = g.fixed_point()


def _log_abs(q: Fraction) -> float:
    # logs of the integer parts stay finite at any depth
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def _jump_power(s: Fraction, e: Fraction, t: Fraction) -> int:
    """Estimate of the k with s^k·e between t (closed) and s·t (open),
    within one of the exact value; e and t are offsets from the fixed
    point, and e must lie on t's side of it.

    The jump builds s^k, of |k| times the bits of s.  A deep point pays for
    its power with its own size (x ↦ x/2 at 2^−N builds 2N bits), so the
    power may take four times the point's bits, plus a byte for each step
    the walk cap _MAX_ORBIT_STEPS allows.  A larger power is refused: that
    is a slope so near 1 that a shallow point needs a power of 10^13 bits,
    or that log(s) rounds to 0."""
    if not e or not t or (e.numerator < 0) != (t.numerator < 0):
        raise EvaluationRangeError("orbit never reaches the fundamental domain")
    log_s = math.log(s)
    if log_s:
        k = -math.floor((_log_abs(e) - _log_abs(t)) / log_s)
        power = abs(k) * max(s.numerator.bit_length(), s.denominator.bit_length())
        point = max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        if power <= 4 * point + 8 * _MAX_ORBIT_STEPS:
            return k
    raise EvaluationRangeError("orbit normalization diverged")


def _orbit_land(dom: _Domain, x):
    """(g^k(x), k) for the k that lands x in the domain dom of g.

    Points already in the domain cost two comparisons, and near ones a
    step or two.  Past _WALK steps an exact affine orbit jumps to the
    estimated power, lands within a step of the domain, and the walk
    finishes.  Points above the domain step down first, and a walk that
    stepped up never steps down again: only float rounding could ask it to."""
    g, anchor, image, down, p = dom.g, dom.anchor, dom.image, dom.down, dom.fixed
    k = walked = 0
    rose = False
    while True:
        if not rose and (lt(anchor, x) if down else le(image, x)):
            step = 1 if down else -1
        elif le(x, image) if down else lt(x, anchor):
            step, rose = (-1 if down else 1), True
        else:
            return x, k
        if walked == _WALK and p is not None and is_exact(x):
            e = x - p
            j = _jump_power(g.slope, e, anchor - p)
            x, k, rose = p + g.slope ** j * e, k + j, False
        else:
            x = g(x) if step > 0 else g.inverse(x)
            k += step
        walked += 1
        if walked > _MAX_ORBIT_STEPS:
            raise EvaluationRangeError("orbit normalization diverged")


def _orbit_power(dom: _Domain, z, k):
    """g^k(z) for the map g of dom: in closed form for exact affine orbits
    longer than _WALK, else as |k| single steps."""
    g, p = dom.g, dom.fixed
    if abs(k) > _WALK and p is not None and is_exact(z):
        return p + g.slope ** k * (z - p)
    step = g if k > 0 else g.inverse
    for _ in range(abs(k)):
        z = step(z)
    return z


def _orbit_carry(dom_in: _Domain, dom_out: _Domain, x, y, k, piece, inverse=False):
    """g_out^(−k)(σ(y)), where (y, k) is the landing of x in dom_in and σ
    the piece (its inverse when ``inverse``) that sends y toward dom_out.

    When both orbits are exact affine, longer than _WALK, and σ(y) =
    a·y + b is affine, the value is taken in factored form.  With
    e = x − p_in, y − p_in = s_in^k·e exactly, so the value is
    p_out + a·(s_in/s_out)^k·e + s_out^(−k)·(σ(p_in) − p_out), and for
    s_in = s_out the power is e/(y − p_in).  Each product then pairs a
    small number with a large one, where s_out^(−k)·(σ(y) − p_out) would
    normalize two large numbers that cancel.  Otherwise, as for float
    points, σ(y) is carried by _orbit_power."""
    p_in, p_out = dom_in.fixed, dom_out.fixed
    if (abs(k) <= _WALK or p_in is None or p_out is None or not is_exact(x)
            or not isinstance(piece, AffineMap)):
        return _orbit_power(dom_out, piece.inverse(y) if inverse else piece(y), -k)
    a = 1 / piece.slope if inverse else piece.slope
    c = (piece.inverse(p_in) if inverse else piece(p_in)) - p_out
    e, s_in, s_out = x - p_in, dom_in.g.slope, dom_out.g.slope
    if eq(s_in, s_out):
        return p_out + a * e + c * e / (y - p_in)
    return p_out + a * (s_in / s_out) ** k * e + c * s_out ** -k


def _orbit_points(dom: _Domain, knots: tuple, lo, hi, cells: dict) -> list:
    """The points of the orbits under dom's map g of knots, which lie in
    dom in increasing order, strictly inside (lo, hi), in increasing order;
    [lo, hi] lies in the basin of the attracting point.  ``cells`` keeps,
    per orbit cell k, the knots' images under g^(−k), taken when first
    asked for.

    The points that g^k lands in dom form one interval for each k, and
    the intervals follow each other as k rises when g moves points down,
    as k falls when it moves them up.  So only the powers of lo and of hi
    reach past an end."""
    k_lo, k_hi = _orbit_land(dom, lo)[1], _orbit_land(dom, hi)[1]
    step = 1 if dom.down else -1
    out: list = []
    for k in range(k_lo, k_hi + step, step):
        points = cells.get(k)
        if points is None:
            points = cells[k] = tuple(_orbit_power(dom, y, -k) for y in knots)
        if k == k_lo or k == k_hi:
            out.extend(x for x in points if inside(x, lo, hi))
        else:
            out.extend(points)
    return out


def _exact_generator(g, fixed) -> bool:
    """g is an exact affine map with slope in (0, 1) fixing ``fixed``."""
    return (isinstance(g, AffineMap) and inside(g.slope, 0, 1)
            and is_exact(fixed) and eq(g(fixed), fixed))


def _in_range(x, lo, hi):
    """x itself when it lies in [lo, hi]; orbit maps never extrapolate."""
    if not within(x, lo, hi):
        raise EvaluationRangeError(
            f"{format_scalar(x)} outside [{format_scalar(lo)}, {format_scalar(hi)}]")
    return x


def _preimage_in(w, x, lo, hi):
    """x, the preimage of w, when it lies in [lo, hi]."""
    if not within(x, lo, hi):
        raise EvaluationRangeError(
            f"{format_scalar(w)} has no preimage inside "
            f"[{format_scalar(lo)}, {format_scalar(hi)}]")
    return x


# ---------------------------------------------------------------------------
# the lazy orbit map
# ---------------------------------------------------------------------------

class _OrbitMap:
    """One direction of a lazy map f with f∘g_in = g_out∘f.

    f lands its argument in the fundamental domain ``land`` of g_in along
    the g_in-orbit, applies the seed piece that holds the landed point, and
    carries the value back along the g_out-orbit (``carry``).  ``partner``,
    built once with the map, is the inverse direction: it reads the same
    seed through ``inverse_piece``, lands in ``carry``, the domain anchored
    at the image of the anchor, and carries along ``land``.  ``ends`` are
    the (point, value) pairs taken exactly, the attracting point of g_in
    first; ``checks`` holds, for this direction and then for its partner,
    the closed intervals (or None) outside which an argument and a value
    are refused.

    When ``exact`` (exact affine generators and knots) the map is its own
    witness: it commutes with its generators, it sends the attracting point
    of g_in to that of g_out, and it is affine between the orbit images of
    its seed's knots."""

    def __init__(self, name, orientation, seed: _SeedMap, land: _Domain, carry: _Domain,
                 ends, exact, recipe=(), checks=((None, None), (None, None)), partner=None):
        self.name, self.orientation, self.exact, self.recipe = name, orientation, exact, recipe
        self.seed, self.land, self.carry, self.ends = seed, land, carry, ends
        (self.args, self.values), back = checks
        self.inverted = partner is not None
        self._cells = (None, None, {})  # (seed, land, cells of _orbit_points)
        self.partner = partner or _OrbitMap(
            f"inverse {name}", orientation, seed, carry, land, tuple((b, a) for a, b in ends),
            exact, checks=(back, checks[0]), partner=self)

    @classmethod
    def root(cls, g, u, v, n, seed: ScalarRootSeed = DEFAULT_SEED, floor_last=None,
             cover=None, confine=None):
        """n-th iterative root of g on [u, v], where g(x) < x on (u, v) and
        g(u) = u, seeded on the fundamental domain [g(x0), x0] with knots
        x0 = t_0 > t_1 > ... > t_n = g(x0): the root maps [t_i, t_{i-1}]
        onto [t_{i+1}, t_i] affinely, and its bottom piece is forced to
        g ∘ (chain)^{-1}.  The upper bounds of the coverage and the
        confinement (power, lo, hi) of [u, v]'s image under the root's
        power pin divisions (``_divisions``)."""
        anchor = seed.anchor
        pins = [(t[0], t[2], sense) for t, sense in ((cover, "ge"), (confine, "lt"))
                if t is not None and t[2] is not None]
        if n < 2:
            raise MfError("orbit root needs order >= 2")
        if not eq(g(u), u):
            raise IncompatiblePatternError(
                f"attracting end {format_scalar(u)} must be fixed")
        top_fixed = eq(g(v), v)
        if top_fixed:
            # both ends fixed: the orbit extension is onto, pins are moot
            floor_last, pins = None, ()
        if anchor is None:
            anchor = midpoint(u, v) if top_fixed else v
        if not (lt(u, anchor) and le(anchor, v)) or eq(g(anchor), anchor):
            raise BadSeedError(f"anchor {format_scalar(anchor)} unusable")
        outer = _Domain(g, anchor)  # the seed domain [g(x0), x0]
        divs = _divisions(anchor, outer.image, n, seed.divisions,
                          floor_last=floor_last, pins=pins)
        knots = (anchor, *divs, outer.image)
        pieces = []
        chain = AffineMap(Fraction(1), Fraction(0))
        for i in range(n - 1):
            seg = _affine_through(knots[i + 1], knots[i + 2], knots[i], knots[i + 1])
            pieces.append((knots[i + 1], knots[i], seg))
            chain = compose_maps(seg, chain)
        # bottom piece [t_n, t_{n-1}] -> g([t_1, t_0]) via the chain inverse
        pieces.append((knots[n], knots[n - 1], compose_maps(g, chain.inverse_map())))
        pieces = ordered(pieces, key=lambda p: p[0])
        exact = _exact_generator(g, u) and all(map(is_exact, knots[:-1]))
        recipe = ("orbit_root", n, format_scalar(anchor), tuple(map(format_scalar, divs)))
        return cls("orbit root", INC, _SeedMap(pieces), outer, _Domain(g, knots[1]),
                   ((u, u), (v, v)) if top_fixed else ((u, u),), exact, recipe,
                   (((u, v), None), ((u, v), (u, v))))

    @classmethod
    def conjugacy(cls, g1, u1, v1, g2, u2, v2, seed: ScalarRootSeed):
        """h on [u1, v1] with h∘g1 = g2∘h between two below-diagonal
        increasing maps, sending [g1(x1), x1] affinely onto [g2(x2), x2]
        for the seed's anchor x1 (v1 by default) and image anchor x2 (v2)."""
        x1 = v1 if seed.anchor is None else seed.anchor
        x2 = v2 if seed.image_anchor is None else seed.image_anchor
        if not (u1 < x1 <= v1 and u2 < x2 <= v2):
            raise BadSeedError("conjugacy anchors outside the intervals")
        dom1, dom2 = _Domain(g1, x1), _Domain(g2, x2)
        seg = _affine_through(dom1.image, dom2.image, x1, x2)
        exact = (_exact_generator(g1, u1) and _exact_generator(g2, u2)
                 and is_exact(x1) and is_exact(x2))
        return cls("orbit conjugacy", INC, _SeedMap([(dom1.image, x1, seg)]), dom1, dom2,
                   ((u1, u2),), exact,
                   ("orbit_conjugacy", format_scalar(x1), format_scalar(x2)),
                   (((u1, v1), None), (None, (u1, v1))))

    def reflected(self, c) -> "_OrbitMap":
        """r∘self∘r for the reflection r(x) = c − x as one orbit map: the
        domains, seed pieces, ends and checks turned about c."""
        def turn(dom):
            return _Domain(reflect_map(dom.g, c), c - dom.anchor)

        def flip(span):
            return None if span is None else (c - span[1], c - span[0])

        seed = _SeedMap([(c - hi, c - lo, reflect_map(m, c))
                         for lo, hi, m in reversed(self.seed.pieces)])
        checks = tuple((flip(d.args), flip(d.values)) for d in (self, self.partner))
        return _OrbitMap(self.name, self.orientation, seed, turn(self.land), turn(self.carry),
                         tuple((c - a, c - b) for a, b in self.ends), self.exact and is_exact(c),
                         ("mirrored", format_scalar(c), self.recipe), checks)

    @_memoized
    def __call__(self, x):
        for a, b in self.ends:
            if eq(x, a):
                return b
        if self.args is not None:
            _in_range(x, *self.args)
        y, k = _orbit_land(self.land, x)
        piece = self.seed.inverse_piece(y) if self.inverted else self.seed.piece(y)
        value = _orbit_carry(self.land, self.carry, x, y, k, piece, self.inverted)
        return value if self.values is None else _preimage_in(x, value, *self.values)

    def inverse(self, w):
        return self.partner(w)

    def inverse_map(self) -> "_OrbitMap":
        return self.partner

    def as_map(self) -> GenericMap:
        return GenericMap(self.orientation, self, self.partner, self.recipe,
                          self if self.exact else None)

    def breaks(self, lo, hi) -> tuple:
        fixed = self.ends[0][0]
        if within(fixed, lo, hi):
            raise NoExactProofError(
                f"{self.name}: pieces accumulate at {format_scalar(fixed)}")
        # the ends of the seed's pieces, or of their images, along the orbit;
        # the cells are kept for one seed and domain, so a new seed or
        # domain reuses no old cells
        seed, dom, cells = self._cells
        if seed is not self.seed or dom is not self.land:
            seed, dom, cells = self._cells = (self.seed, self.land, {})
        return tuple(_orbit_points(dom, seed.landed(dom, self.inverted), lo, hi, cells))

    def limits(self, lo, hi) -> tuple:  # one comparison pair: cheaper than a lookup
        fixed = self.ends[0][0]
        return (fixed,) if within(fixed, lo, hi) else ()

    def germ(self, z, side) -> list:
        return [self]

    def generators(self, z):
        """(g_in, g_out) when z is the attracting point, else None."""
        return (self.land.g, self.carry.g) if eq(z, self.ends[0][0]) else None

    def __repr__(self):
        return self.name


# evaluations of a glued lazy map, memoized as an orbit map's
_forward = _memoized(lambda m, x: m(x))
_backward = _memoized(lambda m, w: m.inverse(w))


def _glued(q_in, q_out, left, right, recipe) -> GenericMap:
    """Map sending q_in to q_out, by left below q_in and right above it,
    evaluated through the evaluation cache; its own witness when exact."""
    glue = GluedMap((q_in,), (left, right), (q_out,))
    return GenericMap(glue.orientation, functools.partial(_forward, glue),
                      functools.partial(_backward, glue), recipe,
                      glue if is_exact(q_in) and is_exact(q_out) else None)


def _affine_root(g: AffineMap, n: int, orientation: Orientation):
    """The affine n-th root of g with the given orientation that keeps g's
    fixed point p: x ↦ p + a(x − p) with a = ±|s|^(1/n) for g's slope s.
    None when |s|^(1/n) is irrational, where the orbit engine builds an
    exact root instead, and for an increasing root of a map with s <= 0."""
    s = g.slope
    if orientation is INC and s <= 0:
        return None
    if s == 1:  # a translation: only increasing roots are asked of one
        return AffineMap(Fraction(1), g.intercept / n)
    alpha = rational_nth_root(abs(s), n)
    if alpha is None:
        return None
    p = g.fixed_point()
    a = alpha if orientation is INC else -alpha
    return AffineMap(a, p * (1 - a))


def _closed_form(g, n, lo, hi, cover=None, confine=None, floor_last=None,
                 orientation=INC):
    """g's affine root (``_affine_root``) when it meets the requirements
    on [lo, hi], else None: the cap g(hi) on phi(floor_last), the coverage
    (power, need_lo, need_hi) and the confinement (power, c_lo, c_hi) of
    the image of [lo, hi] under phi^power; None bounds are not checked.
    The image's ends are sorted, so both orientations read them alike."""
    phi = _affine_root(g, n, orientation)
    if phi is None:
        return None
    if floor_last is not None and not phi(floor_last) < g(hi):
        return None
    if cover is not None:
        low, high = low_high(*map(iterate_map(phi, cover[0]), (lo, hi)))
        if ((cover[1] is not None and low > cover[1])
                or (cover[2] is not None and high < cover[2])):
            return None
    if confine is not None:
        low, high = low_high(*map(iterate_map(phi, confine[0]), (lo, hi)))
        if ((confine[1] is not None and low < confine[1])
                or (confine[2] is not None and high > confine[2])):
            return None
    return phi


def _root_below(g, u, v, n, seed: ScalarRootSeed, floor_last=None, cover=None,
                confine=None, closed_form=True):
    """Root on a below-diagonal piece [u, v] (attracting fixed end u);
    closed_form=False skips the affine closed form."""
    if cover is not None and cover[1] is not None and cover[1] < u:
        raise IncompatiblePatternError(
            f"required range undercuts the attracting end {format_scalar(u)}")
    if confine is not None and confine[1] is not None and confine[1] > u:
        raise IncompatiblePatternError(
            "cannot keep iterated values above the attracting end")
    if (closed_form and isinstance(g, AffineMap) and seed.divisions is None
            and seed.anchor is None):
        below = None if cover is None else (cover[0], None, cover[2])
        fast = _closed_form(g, n, u, v, below, confine, floor_last)
        if fast is not None:
            return fast
    return _OrbitMap.root(g, u, v, n, seed, floor_last, cover, confine).as_map()


def _mirror_seed(seed: ScalarRootSeed, pivot=None, image_pivot=None) -> ScalarRootSeed:
    """The seed in reflected frames: its anchor and divisions through
    x ↦ pivot − x, its image anchor through x ↦ image_pivot − x; a None
    pivot leaves its side as it is.  No affine request survives."""
    def flip(c, x):
        return x if c is None or x is None else c - x
    return ScalarRootSeed(
        flip(pivot, seed.anchor),
        None if seed.divisions is None else tuple(flip(pivot, d) for d in seed.divisions),
        flip(image_pivot, seed.image_anchor), None)


def _mirror_triple(triple, pivot):
    if triple is None:
        return None
    power, lo, hi = triple
    return (power, None if hi is None else pivot - hi,
            None if lo is None else pivot - lo)


def _root_above(g, w, p, n, seed: ScalarRootSeed, cover=None, confine=None,
                closed_form=True):
    """Root on an above-diagonal piece [w, p] (attracting fixed end p): the
    root of the reflected, below-diagonal problem, built about the pivot
    w + p, turned back into this frame (``_OrbitMap.reflected``); the
    reflection also carries the seed over."""
    pivot = w + p
    if (closed_form and isinstance(g, AffineMap) and seed.divisions is None
            and seed.anchor is None):
        above = None if cover is None else (cover[0], cover[1], None)
        fast = _closed_form(g, n, w, p, above, confine)
        if fast is not None:
            return fast
    if cover is not None and cover[2] is not None and cover[2] > p:
        raise IncompatiblePatternError(
            f"required range overshoots the attracting end {format_scalar(p)}")
    if confine is not None and confine[2] is not None and confine[2] < p:
        raise IncompatiblePatternError("cannot keep iterated values below the attracting end")
    base = _OrbitMap.root(reflect_map(g, pivot), pivot - p, pivot - w, n,
                          _mirror_seed(seed, pivot), cover=_mirror_triple(cover, pivot),
                          confine=_mirror_triple(confine, pivot))
    return base.reflected(pivot).as_map()


def _split_cover(triple, q, for_lower):
    """Restrict a coverage requirement to one side of the fixed point."""
    if triple is None:
        return None
    power, lo, hi = triple
    if for_lower:
        return None if lo is None or lo >= q else (power, lo, None)
    return None if hi is None or hi <= q else (power, None, hi)


def _split_confine(triple, q, for_lower):
    """Restrict a confinement requirement to one side of the fixed point;
    the bound toward the fixed point is automatic."""
    if triple is None:
        return None
    power, lo, hi = triple
    if for_lower:
        if lo is not None and lo >= q:
            raise IncompatiblePatternError(
                "confinement bound conflicts with the fixed point")
        return None if lo is None else (power, lo, None)
    if hi is not None and hi <= q:
        raise IncompatiblePatternError(
            "confinement bound conflicts with the fixed point")
    return None if hi is None else (power, None, hi)


def _increasing_root_auto(g, lo, hi, n, seed: ScalarRootSeed,
                          floor_last=None, cover=None, confine=None,
                          allow_interior=False, closed_form=True):
    """Dispatch an increasing n-th root by diagonal pattern;
    closed_form=False keeps to the orbit engine wherever it applies."""
    seed = seed.normalized()
    pat = map_pattern(g, lo, hi)
    if pat.kind == "identity":
        return AffineMap(Fraction(1), Fraction(0))
    if pat.kind == "below":
        return _root_below(g, lo, hi, n, seed, floor_last=floor_last,
                           cover=cover, confine=confine, closed_form=closed_form)
    if pat.kind == "above":
        return _root_above(g, lo, hi, n, seed, cover=cover, confine=confine,
                           closed_form=closed_form)
    if not allow_interior:
        raise HasInteriorFixedPointError(pat.fixed)
    if not pat.attracting:
        if isinstance(g, AffineMap) and seed.is_default:
            fast = _closed_form(g, n, lo, hi, cover, confine, floor_last)
            if fast is not None:
                return fast
        raise IncompatiblePatternError(
            "interior repelling fixed point not supported by the orbit engine")
    q = pat.fixed
    if (closed_form and isinstance(g, AffineMap) and seed.is_default
            and cover is None and confine is None):
        fast = _closed_form(g, n, lo, hi)
        if fast is not None:
            return fast
    if cover is not None:
        power, need_lo, need_hi = cover
        if not (need_lo is None or need_lo < q) or not (need_hi is None or need_hi > q):
            raise IncompatiblePatternError(
                "coverage requirement does not straddle the fixed point")
    left = _root_above(g, lo, q, n, seed,
                       cover=_split_cover(cover, q, True),
                       confine=_split_confine(confine, q, True),
                       closed_form=closed_form)
    right = _root_below(g, q, hi, n, seed,
                        cover=_split_cover(cover, q, False),
                        confine=_split_confine(confine, q, False),
                        closed_form=closed_form)
    return _glued(q, q, left, right, ("glued_root", format_scalar(q)))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def increasing_nth_root(g, lo: Scalar, hi: Scalar, n: int,
                        seed: ScalarRootSeed = DEFAULT_SEED):
    """Increasing n-th iterative root of a fixed-point-free increasing
    self-map with g(x) < x on (lo, hi); the mirrored case must be served
    through reflection by the caller."""
    if n < 2:
        raise MfError("root order must be at least 2")
    lo, hi = as_scalar(lo), as_scalar(hi)
    pat = map_pattern(g, lo, hi)
    if pat.kind == "interior":
        raise HasInteriorFixedPointError(pat.fixed)
    if pat.kind == "above":
        raise WrongSideError("g(x) > x; reflect the problem first")
    if pat.kind == "identity":
        return AffineMap(Fraction(1), Fraction(0))
    return _root_below(g, lo, hi, n, seed.normalized())


def _conj_increasing(g1, lo1, hi1, g2, lo2, hi2, seed: ScalarRootSeed):
    p1 = map_pattern(g1, lo1, hi1)
    p2 = map_pattern(g2, lo2, hi2)
    if p1.kind != p2.kind:
        raise IncompatiblePatternError(
            f"diagonal patterns differ: {p1.kind} vs {p2.kind}")
    if p1.kind == "identity":
        return _affine_through(lo1, lo2, hi1, hi2)
    if p1.kind == "below":
        return _OrbitMap.conjugacy(g1, lo1, hi1, g2, lo2, hi2, seed).as_map()
    if p1.kind == "above":
        # reflect both problems onto the below-diagonal normal form
        pivot1, pivot2 = lo1 + hi1, lo2 + hi2
        inner = _OrbitMap.conjugacy(reflect_map(g1, pivot1), lo1, hi1,
                                    reflect_map(g2, pivot2), lo2, hi2,
                                    _mirror_seed(seed, pivot1, pivot2)).as_map()
        return compose_maps(AffineMap(-1, pivot2), inner, AffineMap(-1, pivot1))
    if p1.attracting != p2.attracting:
        raise IncompatiblePatternError("interior fixed-point types differ")
    q1, q2 = p1.fixed, p2.fixed
    left = _conj_increasing(g1, lo1, q1, g2, lo2, q2, seed)
    right = _conj_increasing(g1, q1, hi1, g2, q2, hi2, seed)
    return _glued(q1, q2, left, right,
                  ("glued_conjugacy", format_scalar(q1), format_scalar(q2)))


def conjugacy(g1, lo1: Scalar, hi1: Scalar, g2, lo2: Scalar, hi2: Scalar,
              orientation: Orientation, seed: ScalarRootSeed = DEFAULT_SEED):
    """h on [lo1, hi1] with h∘g1 = g2∘h, increasing or decreasing.

    Affine seeds/candidates are verified by exact commutation and returned
    in closed form; otherwise a fundamental segment is extended along
    orbits (ends map to ends, fixed points to fixed points).
    """
    lo1, hi1 = as_scalar(lo1), as_scalar(hi1)
    lo2, hi2 = as_scalar(lo2), as_scalar(hi2)
    seed = seed.normalized()

    if isinstance(g1, AffineMap) and isinstance(g2, AffineMap):
        if seed.affine is not None:
            cand = AffineMap(Fraction(seed.affine[0]), Fraction(seed.affine[1]))
        elif orientation is INC:
            cand = _affine_through(lo1, lo2, hi1, hi2)
        else:
            cand = _affine_through(lo1, hi2, hi1, lo2)
        if compose_maps(cand, g1) == compose_maps(g2, cand):
            if cand.orientation is orientation:
                return cand
        if seed.affine is not None:
            raise BadSeedError("affine seed does not commute with the pair")

    if orientation is INC:
        return _conj_increasing(g1, lo1, hi1, g2, lo2, hi2, seed)

    # decreasing conjugacy: reflect the target and compose back
    pivot = lo2 + hi2
    inner = _conj_increasing(g1, lo1, hi1, reflect_map(g2, pivot), lo2, hi2,
                             _mirror_seed(seed, image_pivot=pivot))
    return compose_maps(AffineMap(-1, pivot), inner)


# ---------------------------------------------------------------------------
# decreasing square roots (pairings)
# ---------------------------------------------------------------------------

def _self_pairing(g, u, v, p, x0, y0) -> GenericMap:
    """Decreasing square root of an increasing map g on [u, v] around its
    interior attracting fixed point p: above p the orbit map psi from the
    right of p to the left, seeded by the segment sending [g(x0), x0] onto
    [g(y0), y0], and below p psi^{-1} ∘ g."""
    if y0 > g(u):
        raise BadSeedError(
            f"image anchor {format_scalar(y0)} must not exceed g({format_scalar(u)})")
    if not p < x0 <= v or not u <= y0 < p:
        raise BadSeedError("pairing anchors must sit on opposite sides of the fixed point")
    right, left = _Domain(g, x0), _Domain(g, y0)
    seg = _affine_through(right.image, left.image, x0, y0)  # decreasing
    psi = _OrbitMap("self pairing", DEC, _SeedMap([(right.image, x0, seg)]), right, left,
                    ((p, p),), _exact_generator(g, p) and is_exact(x0) and is_exact(y0))
    glue = GluedMap((p,), (compose_maps(psi.inverse_map(), g), psi), (p,))
    # the glue alone would not refuse an argument below u: psi^{-1} takes
    # the same values in the inverse direction.  A seed can also send part
    # of [u, v] outside it; such values are refused.
    return GenericMap(DEC, lambda x: _in_range(glue(_in_range(x, u, v)), u, v),
                      lambda z: _preimage_in(z, glue.inverse(z), u, v),
                      ("self_pair_sqrt", format_scalar(x0), format_scalar(y0)),
                      glue if psi.exact else None)


def decreasing_square_root_pair(g_src, lo_src: Scalar, hi_src: Scalar,
                                g_dst=None, lo_dst: Scalar = None,
                                hi_dst: Scalar = None,
                                seed: ScalarRootSeed = DEFAULT_SEED,
                                cover_top: Scalar = None):
    """(h, partner) with partner∘h = g_src and h∘partner = g_dst for the
    cross pairing; the self pairing (g_dst None) returns (psi, psi) with
    psi² = g_src around its interior fixed point.

    cover_top asks the self pairing's range to reach at least that value
    (needed when other intervals extend through psi's inverse)."""
    lo_src, hi_src = as_scalar(lo_src), as_scalar(hi_src)
    seed = seed.normalized()
    if g_dst is not None:
        pat1 = map_pattern(g_src, lo_src, hi_src)
        pat2 = map_pattern(g_dst, as_scalar(lo_dst), as_scalar(hi_dst))
        compatible = (
            (pat1.kind == "below" and pat2.kind == "above")
            or (pat1.kind == "above" and pat2.kind == "below")
            or (pat1.kind == "interior" and pat2.kind == "interior"
                and pat1.attracting == pat2.attracting)
            or pat1.kind == pat2.kind == "identity")
        if not compatible:
            raise IncompatiblePatternError(
                f"cross pairing needs mirrored patterns, got {pat1.kind}/{pat2.kind}")
        h = conjugacy(g_src, lo_src, hi_src, g_dst, lo_dst, hi_dst, DEC, seed)
        partner = compose_maps(g_src, h.inverse_map())
        return h, partner

    pat = map_pattern(g_src, lo_src, hi_src)
    if pat.kind != "interior" or not pat.attracting:
        raise IncompatiblePatternError(
            "self pairing needs an interior fixed point attracting from both sides")
    p = pat.fixed
    if isinstance(g_src, AffineMap) and seed.is_default:
        # psi maps [lo, hi] into itself and psi(lo) reaches cover_top
        cand = _closed_form(g_src, 2, lo_src, hi_src, cover=(1, None, cover_top),
                            confine=(1, lo_src, hi_src), orientation=DEC)
        if cand is not None:
            return cand, cand
    x0 = hi_src if seed.anchor is None else seed.anchor
    y0 = lo_src if seed.image_anchor is None else seed.image_anchor
    if cover_top is not None and seed.is_default and cover_top > p:
        # pin the seed so that psi(lo) reaches exactly cover_top: anchor at
        # the needed value, send it to g(lo)
        if not p < cover_top < hi_src:
            raise IncompatiblePatternError(
                f"coverage requirement {format_scalar(cover_top)} outside "
                "the pairing interval")
        x0, y0 = cover_top, g_src(lo_src)
    psi = _self_pairing(g_src, lo_src, hi_src, p, x0, y0)
    return psi, psi


# ---------------------------------------------------------------------------
# decreasing odd roots
# ---------------------------------------------------------------------------

def odd_swap_maps(A, lo_a: Scalar, hi_a: Scalar, B, lo_b: Scalar, hi_b: Scalar,
                  k: int, seed: ScalarRootSeed = DEFAULT_SEED,
                  cover_alpha=None, cover_beta=None):
    """Branch maps of an odd-order decreasing root on a swapped pair.

    A maps the alpha interval into the beta interval, B back; phi is an
    increasing k-th root of A∘B on beta whose m-th power covers the closed
    range of A, and the root branches are phi^{-m}∘A and A^{-1}∘phi^{m+1}
    with k = 2m+1.

    cover_alpha/cover_beta widen the coverage requirement on phi^m so that
    extensions can pull further values back through the root's square
    (alpha-side needs are transported through A).

    Raises IncompatiblePatternError when A∘B repels from a fixed point
    inside beta: no orbit root serves it, and no affine root both covers
    A's range with phi^m and keeps phi^{m+1} inside it.
    """
    return _odd_swap_maps(A, lo_a, hi_a, B, lo_b, hi_b, k, seed,
                          cover_alpha, cover_beta)


def _odd_swap_maps(A, lo_a, hi_a, B, lo_b, hi_b, k, seed=DEFAULT_SEED,
                   cover_alpha=None, cover_beta=None, closed_form=True):
    """odd_swap_maps; closed_form=False builds phi by the orbit engine,
    whose confinement pin keeps phi^{m+1} strictly inside A's range, so
    the root sends no end of beta onto an end of alpha."""
    if k < 3 or k % 2 == 0:
        raise MfError("odd swap needs odd order k >= 3")
    m = (k - 1) // 2
    lo_a, hi_a = as_scalar(lo_a), as_scalar(hi_a)
    G = compose_maps(A, B)
    ends = (A(lo_a), A(hi_a))
    need_lo, need_hi = min(ends), max(ends)
    if cover_beta is not None:
        need_lo = min(need_lo, as_scalar(cover_beta[0]))
        need_hi = max(need_hi, as_scalar(cover_beta[1]))
    if cover_alpha is not None:
        sent = (A(as_scalar(cover_alpha[0])), A(as_scalar(cover_alpha[1])))
        need_lo = min(need_lo, min(sent))
        need_hi = max(need_hi, max(sent))
    # phi^{m+1} feeds A's inverse, so it must stay inside A's closed range
    confine = (m + 1, min(ends), max(ends))
    phi = _increasing_root_auto(G, as_scalar(lo_b), as_scalar(hi_b), k, seed,
                                cover=(m, need_lo, need_hi),
                                confine=confine,
                                allow_interior=True, closed_form=closed_form)
    map_alpha = compose_maps(iterate_map(phi, m).inverse_map(), A)
    map_beta = compose_maps(A.inverse_map(), iterate_map(phi, m + 1))
    return map_alpha, map_beta, phi


def decreasing_odd_root(g, lo: Scalar, hi: Scalar, k: int,
                        seed: ScalarRootSeed = DEFAULT_SEED, cover=None):
    """Decreasing k-th iterative root (k odd >= 3) of a strictly
    decreasing self-map of [lo, hi].

    cover = (lo, hi) requires the root's (k-1)-th power to cover that value
    range (needed when other intervals extend through it)."""
    return _decreasing_odd_root(g, lo, hi, k, seed, cover)


def _decreasing_odd_root(g, lo, hi, k, seed=DEFAULT_SEED, cover=None,
                         closed_form=True):
    """decreasing_odd_root; closed_form=False skips every closed form,
    whose exact landings can send an end of [lo, hi] onto the other end."""
    if k % 2 == 0:
        raise MfError("even order requested; decreasing maps have no even-order roots")
    if k < 3:
        raise MfError("order must be >= 3")
    lo, hi = as_scalar(lo), as_scalar(hi)
    if g(lo) < g(hi):
        raise MfError("decreasing map required")
    seed = seed.normalized()
    if closed_form and isinstance(g, AffineMap) and seed.is_default:
        # f maps [lo, hi] into itself and f^(k-1) covers the cover range
        needed = None if cover is None else (k - 1, cover[0], cover[1])
        cand = _closed_form(g, k, lo, hi, needed, (1, lo, hi), orientation=DEC)
        if cand is not None:
            return cand
    # involution test: g² = id makes g its own odd root
    probes = [lo, (lo + hi) / 2, hi]
    if all(g(g(x)) == x for x in probes):
        return g
    # unique fixed point of a decreasing map
    p = g.fixed_point() if isinstance(g, AffineMap) else _crossing(g, lo, hi, 1)
    if not lo < p < hi:
        raise IncompatiblePatternError("decreasing self-map must cross the diagonal inside")
    cover_alpha = cover_beta = None
    if cover is not None:
        clo, chi = as_scalar(cover[0]), as_scalar(cover[1])
        if clo < p:
            cover_beta = (clo, min(chi, p))
        if chi > p:
            cover_alpha = (max(clo, p), chi)
    # A = g on (p, hi] into the left side, B = g on [lo, p) back
    right, left, _phi = _odd_swap_maps(g, p, hi, g, lo, p, k, seed,
                                       cover_alpha, cover_beta, closed_form)
    return _glued(p, p, left, right, ("dec_glue", format_scalar(p)))
