"""Single-valued strictly monotone maps on an interval.

Two kinds: exact affine maps over rationals, and generic lazily-evaluated
maps (root/conjugacy constructions, glues, opaque user maps).  Every map
answers forward evaluation, inverse evaluation and orientation; generic
maps additionally promise pure evaluation (same input, same output).  An
affine map holds its coefficients as reduced integer parts and builds
its compositions, inverses and fits from them, making the coefficients'
Fractions only when they are read.
Compositions hold the lazy orbit maps themselves, not the generic maps
that present them (``compose_maps``).

Maps also report their pieces, for exact proofs of equalities:
``breaks(lo, hi)`` lists the points of (lo, hi) between which the map is
affine, ``limits(lo, hi)`` the points of [lo, hi] where such points
accumulate, and ``germ(z, side)`` the chain of primitive maps the map
equals just above (side 1) or just below (side -1) z.  A primitive is an
``AffineMap`` or an orbit map (a lazy map that commutes with affine
generators and is its own witness, see ``scalar_roots``); ``Guard``
items in a germ hold the knots that the image of the neighbourhood must
not cross.  Affine, composed and glued maps answer from their structure;
a generic map answers through the witness its constructor attached, and
raises ``NoExactProofError`` naming the map when it has none.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from contextvars import ContextVar
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Tuple

from .errors import NoExactProofError, StructureError
from .scalars import (
    Scalar,
    bisect_left,
    bisect_right,
    eq,
    format_scalar,
    is_exact,
    larger,
    lt,
    ordered,
    smaller,
    thirds,
)


class Orientation(enum.Enum):
    INC = "inc"
    DEC = "dec"

    def __mul__(self, other: "Orientation") -> "Orientation":
        # Sign rule for composition: Dec∘Dec = Inc, mixed = Dec.
        return Orientation.INC if self is other else Orientation.DEC


INC = Orientation.INC
DEC = Orientation.DEC


# AffineMap evaluates and inverts on its state, the coefficients' integer
# parts, and the argument's integer ratio (``as_integer_ratio()``, as the
# comparison helpers of ``scalars`` read it), and builds each result with
# one Fraction(num, den), where Fraction's operators normalize after every
# step.  One normalization costs O(bits²) in the argument, while the
# operators take gcds only against the small coefficients, so an argument
# whose denominator reaches this bound takes the operators.  Measured on
# a·x + c with 3-bit coefficients (min of 15 runs on a 2-vCPU VM, Python
# 3.11), the integer path is 19 % faster at 256 bits (2.38 against
# 2.94 µs), 16 % faster at 320 bits, even at 384 bits (3.31 against
# 3.32 µs) and 6 % slower at 448 bits; the bound stays below the crossover.
_KERNEL_BOUND = 1 << 320


class AffineMap:
    """x ↦ slope·x + intercept with exact rational coefficients.

    Its state is the coefficients' reduced integer parts ``_ints`` =
    (slope num, slope den, intercept num, intercept den), denominators
    positive.  Calls, inverses and compositions are computed on them, and
    a map built from another is reduced with one gcd per coefficient; the
    Fractions ``slope`` and ``intercept`` are made when first read.  Every
    result is the same canonical Fraction (or float) that the Fraction
    operators give.  Immutable; equal maps have equal coefficients."""

    __slots__ = ("_ints", "_slope", "_intercept")

    def __init__(self, slope, intercept):
        # a Fraction is kept as it is: re-wrapping one costs a Rational check
        if type(slope) is not Fraction:
            slope = Fraction(slope)
        if type(intercept) is not Fraction:
            intercept = Fraction(intercept)
        ints = (*slope.as_integer_ratio(), *intercept.as_integer_ratio())
        if not ints[0]:
            raise StructureError("affine map must have nonzero slope")
        _set_ints(self, ints)
        _set_slope(self, slope)
        _set_intercept(self, intercept)

    @classmethod
    def _reduced(cls, sn, sd, tn, td) -> "AffineMap":
        """The map with slope sn/sd and intercept tn/td, for sn != 0 and
        positive denominators, each pair reduced by one gcd."""
        m = object.__new__(cls)
        g, h = gcd(sn, sd), gcd(tn, td)
        _set_ints(m, (sn // g, sd // g, tn // h, td // h))
        _set_slope(m, None)
        _set_intercept(m, None)
        return m

    @property
    def slope(self) -> Fraction:
        s = self._slope
        if s is None:
            s = Fraction(self._ints[0], self._ints[1])
            _set_slope(self, s)
        return s

    @property
    def intercept(self) -> Fraction:
        t = self._intercept
        if t is None:
            t = Fraction(self._ints[2], self._ints[3])
            _set_intercept(self, t)
        return t

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._ints == other._ints
        return NotImplemented

    def __hash__(self):
        return hash((self.slope, self.intercept))

    def __reduce__(self):
        return AffineMap, (self.slope, self.intercept)

    @property
    def orientation(self) -> Orientation:
        return INC if self._ints[0] > 0 else DEC

    def __call__(self, x: Scalar) -> Scalar:
        if type(x) is Fraction or type(x) is int:
            p, q = x.as_integer_ratio()
            if q < _KERNEL_BOUND:
                sn, sd, tn, td = self._ints
                return Fraction(sn * p * td + tn * sd * q, sd * q * td)
        return self.slope * x + self.intercept

    def inverse(self, y: Scalar) -> Scalar:
        if type(y) is Fraction or type(y) is int:
            p, q = y.as_integer_ratio()
            if q < _KERNEL_BOUND:
                sn, sd, tn, td = self._ints
                return Fraction((p * td - tn * q) * sd, q * td * sn)
        return (y - self.intercept) / self.slope

    def inverse_map(self) -> "AffineMap":
        sn, sd, tn, td = self._ints
        if sn < 0:
            return AffineMap._reduced(-sd, -sn, tn * sd, -td * sn)
        return AffineMap._reduced(sd, sn, -tn * sd, td * sn)

    def after(self, inner: "AffineMap") -> "AffineMap":
        """self ∘ inner: x ↦ self(inner(x))."""
        sn, sd, tn, td = self._ints
        un, ud, vn, vd = inner._ints
        return AffineMap._reduced(sn * un, sd * ud, sn * vn * td + tn * sd * vd, sd * vd * td)

    @classmethod
    def through(cls, x1, y1, x2, y2) -> "AffineMap":
        """The affine map sending x1 to y1 and x2 to y2, for exact points
        with x1 != x2 and y1 != y2."""
        a, b, c, d = x1.denominator, y1.denominator, x2.denominator, y2.denominator
        # y1 − slope·x1 has the same value over the unreduced slope parts
        sn, sd = (y2.numerator * b - y1.numerator * d) * a * c, b * d * (x2.numerator * a
                                                                      - x1.numerator * c)
        if sd < 0:
            sn, sd = -sn, -sd
        return cls._reduced(sn, sd, y1.numerator * sd * a - sn * x1.numerator * b, b * sd * a)

    def fixed_point(self) -> Optional[Fraction]:
        sn, sd, tn, td = self._ints
        if sn == sd:
            return None
        return Fraction(tn * sd, td * (sd - sn))

    @property
    def is_identity(self) -> bool:
        return self._ints == (1, 1, 0, 1)

    def breaks(self, lo, hi) -> tuple:
        return ()

    def limits(self, lo, hi) -> tuple:
        return ()

    def germ(self, z, side) -> list:
        return [self]

    def __repr__(self):
        return f"AffineMap({format_scalar(self.slope)}·x + {format_scalar(self.intercept)})"


_set_ints = AffineMap._ints.__set__
_set_slope = AffineMap._slope.__set__
_set_intercept = AffineMap._intercept.__set__


@dataclass(frozen=True)
class Guard:
    """Germ item: the image of the neighbourhood at this point of the
    chain must not have any of these knots strictly inside."""

    knots: Tuple


def _unwitnessed(recipe) -> str:
    while recipe and recipe[0] == "inverse":
        recipe = recipe[1]
    return f"no exact witness for {recipe[0] if recipe else 'opaque map'}"


@dataclass(frozen=True)
class GenericMap:
    """Lazily evaluated strictly monotone map.

    ``forward``/``backward`` must be pure and defined on the closure of the
    declared domain; ``recipe`` is an opaque, JSON-able description used for
    reproducible serialization of root recipes.
    """

    orientation: Orientation
    forward: Callable[[Scalar], Scalar]
    backward: Callable[[Scalar], Scalar]
    recipe: Tuple = ()
    # answers breaks/limits/germ for ``forward``; None when no exact
    # description exists (opaque maps)
    witness: object = field(default=None, compare=False, repr=False)

    def __call__(self, x: Scalar) -> Scalar:
        return self.forward(x)

    def inverse(self, y: Scalar) -> Scalar:
        return self.backward(y)

    def inverse_map(self) -> "GenericMap":
        return GenericMap(self.orientation, self.backward, self.forward,
                          ("inverse", self.recipe),
                          None if self.witness is None else self.witness.inverse_map())

    def _witnessed(self):
        if self.witness is None:
            raise NoExactProofError(_unwitnessed(self.recipe))
        return self.witness

    def breaks(self, lo, hi) -> tuple:
        return self._witnessed().breaks(lo, hi)

    def limits(self, lo, hi) -> tuple:
        return self._witnessed().limits(lo, hi)

    def germ(self, z, side) -> list:
        return self._witnessed().germ(z, side)

    def __repr__(self):
        kind = self.recipe[0] if self.recipe else "opaque"
        return f"GenericMap({self.orientation.value}, {kind})"


MonotoneMap = object  # duck type: AffineMap | GenericMap | ComposedMap | GluedMap


# ---------------------------------------------------------------------------
# evaluation cache
# ---------------------------------------------------------------------------

# while a cache is open, two kinds of entry: (id of a map, method, then
# each argument's type, numerator and denominator) -> (the map, result)
# for a point's value, and (a function, then the id of each argument) ->
# (the arguments, result) for ``memoized_call``.  An entry keeps its
# objects alive, so no other object takes an id while the key stands
_EVALUATIONS: ContextVar[Optional[dict]] = ContextVar("mfroots_evaluations",
                                                      default=None)


@contextlib.contextmanager
def evaluation_cache():
    """Memoize, inside the block, the exact evaluations of the lazy orbit
    maps (both directions of each ``scalar_roots._OrbitMap``) and of the
    glued lazy maps: a proof asks the same maps at the same points again
    and again.  Spans are not memoized: few of a build's span lookups
    repeat one, and an orbit map keeps the points of its orbit cells
    itself.  The cache is re-entrant: a block opened inside another joins
    the open memo, so each build opens it once and its construction's
    probes and its proof share it.  The memo is dropped when the outermost
    block ends, also when it raises."""
    if _EVALUATIONS.get() is not None:
        yield
        return
    token = _EVALUATIONS.set({})
    try:
        yield
    finally:
        _EVALUATIONS.reset(token)


def memoized_call(fn, *args):
    """``fn(*args)``, looked up in the open evaluation cache by ``fn`` and
    the identity of each argument; called plainly when no cache is open."""
    memo = _EVALUATIONS.get()
    if memo is None:
        return fn(*args)
    key = (fn, *map(id, args))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (args, fn(*args))
    return entry[1]


def _memoized(method):
    """``method(self, *args)`` looked up in the open evaluation cache.  Only
    exact arguments are looked up or stored, so a float is never answered
    with an exact value; a call that raises stores nothing."""
    @functools.wraps(method)
    def cached(self, *args):
        memo = _EVALUATIONS.get()
        if memo is None:
            return method(self, *args)
        # keyed on the parts: hashing a Fraction takes a modular inverse,
        # and hashing a composed map walks its chain
        key = [id(self), method]
        for a in args:
            if not is_exact(a):
                return method(self, *args)
            key += type(a), *a.as_integer_ratio()
        key = tuple(key)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (self, method(self, *args))
        return entry[1]
    return cached


class GluedMap:
    """Continuous strictly monotone map glued from pieces at interior
    knots; the adjacent pieces must agree at each knot.  ``value_knots``,
    the images of the knots, are evaluated when not given.  A knot maps to
    its value knot and back exactly, whatever the pieces compute there."""

    def __init__(self, knots, pieces, value_knots=None):
        assert len(pieces) == len(knots) + 1
        flat_knots: list = []
        flat_pieces: list = []
        for knot, piece in zip(list(knots) + [None], pieces):
            if isinstance(piece, GluedMap):
                flat_knots.extend(piece.knots)
                flat_pieces.extend(piece.pieces)
            else:
                flat_pieces.append(piece)
            if knot is not None:
                flat_knots.append(knot)
        self.knots = tuple(flat_knots)
        self.pieces = tuple(flat_pieces)
        self.orientation = self.pieces[0].orientation
        if value_knots is None:
            value_knots = tuple(piece(k) for k, piece in zip(self.knots, self.pieces))
        self.value_knots = tuple(value_knots)

    def __call__(self, x: Scalar) -> Scalar:
        i = bisect_left(self.knots, x)  # the knots below x
        if i < len(self.knots) and eq(x, self.knots[i]):
            return self.value_knots[i]
        return self.pieces[i](x)

    def inverse(self, w: Scalar) -> Scalar:
        # the value knots below w, or above it when the map decreases
        values = self.value_knots
        if self.orientation is INC:
            i = bisect_left(values, w)
        else:
            i = 0
            while i < len(values) and lt(w, values[i]):
                i += 1
        if i < len(values) and eq(w, values[i]):
            return self.knots[i]
        return self.pieces[i].inverse(w)

    def inverse_map(self) -> "GluedMap":
        inv_pieces = tuple(p.inverse_map() for p in self.pieces)
        if self.orientation is INC:
            return GluedMap(self.value_knots, inv_pieces, self.knots)
        return GluedMap(tuple(reversed(self.value_knots)),
                        tuple(reversed(inv_pieces)), tuple(reversed(self.knots)))

    def _spans(self, lo, hi):
        """(piece, a, b): each piece with the part [a, b] of [lo, hi] it
        covers; a is lo itself, not only equal to it, unless the piece
        opens at a knot above lo."""
        ends = (None, *self.knots, None)
        for i, piece in enumerate(self.pieces):
            a = lo if ends[i] is None else larger(lo, ends[i])
            b = hi if ends[i + 1] is None else smaller(hi, ends[i + 1])
            if lt(a, b):
                yield piece, a, b

    def breaks(self, lo, hi) -> tuple:
        # in order: each piece's breaks lie inside its span, which opens at
        # a knot unless it opens at lo
        pts: list = []
        for piece, a, b in self._spans(lo, hi):
            if a is not lo:
                pts.append(a)
            pts.extend(piece.breaks(a, b))
        return tuple(pts)

    def limits(self, lo, hi) -> tuple:
        return tuple(ordered({e for piece, a, b in self._spans(lo, hi)
                              for e in piece.limits(a, b)}))

    def germ(self, z, side) -> list:
        i = (bisect_right if side > 0 else bisect_left)(self.knots, z)
        return [Guard(self.knots), *self.pieces[i].germ(z, side)]

    def __repr__(self):
        return f"GluedMap({len(self.pieces)} pieces)"


@dataclass(frozen=True)
class ComposedMap:
    """Right-to-left composition chain of monotone maps."""

    maps: Tuple  # applied right to left: maps[0] ∘ maps[1] ∘ ... ∘ maps[-1]

    @property
    def orientation(self) -> Orientation:
        o = INC
        for m in self.maps:
            o = o * m.orientation
        return o

    def __call__(self, x: Scalar) -> Scalar:
        for m in reversed(self.maps):
            x = m(x)
        return x

    def inverse(self, y: Scalar) -> Scalar:
        for m in self.maps:
            y = m.inverse(y)
        return y

    def inverse_map(self):
        return ComposedMap(tuple(m.inverse_map() for m in reversed(self.maps)))

    def breaks(self, lo, hi) -> tuple:
        """Carried forward map by map: the chain applied so far is affine
        on each open segment between the cuts found so far, so the next
        map's breaks on a segment's image pull back by solving that affine
        map, and two inner points give the next affine map.  Only forward
        evaluations are used, and no continuity at the cuts is assumed.
        Affine maps add no cut, so the chain is read only through its last
        non-affine map, and that map is not fitted, as only its cuts are
        read; it is told by its position, as one map can recur in a chain."""
        chain = self.maps[::-1]
        last = max((i for i, m in enumerate(chain) if not isinstance(m, AffineMap)),
                   default=-1)
        segments = [(lo, hi, _IDENTITY)]  # the chain so far is affine on (p, q)
        for i, m in enumerate(chain[:last + 1]):
            if isinstance(m, AffineMap):
                segments = [(p, q, m.after(c)) for p, q, c in segments]
                continue
            split = []
            for p, q, c in segments:
                # m's breaks come in increasing order, and c turns them
                # about when it decreases
                if c.orientation is INC:
                    cuts = [c.inverse(y) for y in m.breaks(c(p), c(q))]
                else:
                    cuts = [c.inverse(y) for y in reversed(m.breaks(c(q), c(p)))]
                pts = [p, *cuts, q]
                for p2, q2 in zip(pts, pts[1:]):
                    if i == last:
                        split.append((p2, q2, None))
                        continue
                    t1, t2 = thirds(p2, q2)
                    w1, w2 = m(c(t1)), m(c(t2))
                    if not (is_exact(w1) and is_exact(w2)):
                        raise NoExactProofError(f"{m!r} gives an inexact value")
                    split.append((p2, q2, AffineMap.through(t1, w1, t2, w2)))
            segments = split
        return tuple(p for p, _, _ in segments[1:])

    def limits(self, lo, hi) -> tuple:
        """Each map's accumulation points on the image of [lo, hi] that
        reaches it, pulled back through the inverses and checked going
        forward, so a point comes back only if it truly maps there."""
        found = set()
        inner: list = []  # maps already applied, innermost first
        for m in reversed(self.maps):
            for e in m.limits(lo, hi):
                x = e
                for a in reversed(inner):
                    x = a.inverse(x)
                y = x
                for a in inner:
                    y = a(y)
                if not eq(y, e):
                    raise NoExactProofError(
                        f"{m!r}: an accumulation point does not pull back through the chain")
                found.add(x)
            lo, hi = (m(lo), m(hi)) if m.orientation is INC else (m(hi), m(lo))
            inner.append(m)
        return tuple(ordered(found))

    def germ(self, z, side) -> list:
        items: list = []
        for m in reversed(self.maps):
            items.extend(m.germ(z, side))
            z = m(z)
            if m.orientation is DEC:
                side = -side
        return items

    def __repr__(self):
        return "ComposedMap[" + " ∘ ".join(repr(m) for m in self.maps) + "]"


_IDENTITY = AffineMap(Fraction(1), Fraction(0))


def compose_maps(*maps) -> MonotoneMap:
    """Compose maps (leftmost applied last), folding affine runs exactly and
    dropping identities.  In a chain, a generic map whose forward is its own
    witness (an exact orbit map's ``as_map``) stands as that orbit map."""
    flat = []
    for m in maps:
        if isinstance(m, ComposedMap):
            flat.extend(m.maps)
        else:
            flat.append(m)
    folded = []
    for m in flat:
        if folded and isinstance(folded[-1], AffineMap) and isinstance(m, AffineMap):
            folded.append(folded.pop().after(m))
        else:
            folded.append(m)
    if len(folded) > 1:
        folded = [m for m in folded if not (isinstance(m, AffineMap) and m.is_identity)]
    if len(folded) <= 1:
        return folded[0] if folded else _IDENTITY
    return ComposedMap(tuple(m.witness if isinstance(m, GenericMap) and m.forward is m.witness
                             else m for m in folded))


def iterate_map(m, times: int) -> MonotoneMap:
    if times < 0:
        return iterate_map(m.inverse_map(), -times)
    return compose_maps(*([m] * times))


def reflect_map(m, pivot_sum: Scalar) -> MonotoneMap:
    """Conjugate by the reflection r(x) = pivot_sum − x."""
    refl = AffineMap(Fraction(-1), Fraction(pivot_sum))
    return compose_maps(refl, m, refl)


def map_is_exact_rational(m) -> bool:
    return isinstance(m, AffineMap) or (
        isinstance(m, ComposedMap) and all(isinstance(x, AffineMap) for x in m.maps)
    )
