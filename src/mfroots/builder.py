"""Assembly of multifunction iterative roots and nonexistence certificates.

The increasing pipeline splits at inclusion fixed points, normalizes each
piece below the diagonal (reflecting when needed), takes a scalar root on
the absorbing interval and extends it to the other intervals by the
direct-routing formula.  Decreasing roots of increasing targets pair
invariant intervals through a reversing conjugacy; decreasing targets of
odd order run through the square.  Every pipeline ends in one jump
realization (``_realize``) for both orientations: jump values come from
orbit pullbacks (J1) or the interval between the root's one-sided limits
(J2).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .core import (
    Branch,
    ClosedInterval,
    EquivalenceConfig,
    JumpPoint,
    Multifunction,
    ValueSet,
    _prove_root,
    equivalent,
    iterate,
    prove_equivalent,
)
from .errors import (
    BadSeedError,
    ConditionJStarViolatedError,
    EvaluationRangeError,
    IncompatiblePatternError,
    InvalidMultifunctionError,
    MfError,
    NoExactProofError,
    NonCompactJumpValueError,
    NotDecreasingError,
    NotIncreasingError,
    RootConstructionError,
    UnsupportedCaseError,
)
from .maps import AffineMap, DEC, INC, compose_maps, iterate_map
from .scalar_roots import (
    DEFAULT_SEED,
    ScalarRootSeed,
    _decreasing_odd_root,
    _increasing_root_auto,
    _odd_swap_maps,
    decreasing_odd_root,
    decreasing_square_root_pair,
    evaluation_cache,
    odd_swap_maps,
)
from .scalars import Scalar, as_scalar, format_scalar, larger, low_high, smaller, within
from .structure import (
    _require_exclusive,
    classify_jump,
    hypothesis_H,
    intensity,
    invariant_intervals,
    split_at_inclusion_fixed_points,
    transition_table,
)

ANY = "any"


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record that a nonexistence/infeasibility rule
    applies; ``witnesses`` carries the arithmetic needed to re-check it."""

    rule: str
    claim: str
    inputs: Dict[str, str] = field(default_factory=dict)
    witnesses: Dict[str, object] = field(default_factory=dict)
    also: Tuple[str, ...] = ()

    _KEY_ORDER = ("m", "ell", "n", "jumps", "intensity", "jump", "interval",
                  "target", "absorbing", "endpoint", "image")

    def text(self) -> str:
        keys = [k for k in self._KEY_ORDER if k in self.witnesses]
        keys += sorted(k for k in self.witnesses if k not in keys)
        parts = [self.rule]
        parts += [f"{k}={_fmt(self.witnesses[k])}" for k in keys]
        return " ".join(parts)


def _fmt(v) -> str:
    if isinstance(v, (Fraction, float)):
        return format_scalar(v)
    return str(v)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    exact: bool
    max_deviation: float
    worst_point: Optional[Scalar]
    detail: str

    def __repr__(self):
        status = "pass" if self.passed else "fail"
        mode = "exact" if self.exact else "grid"
        return f"VerificationReport({status}, {mode}, maxdev={self.max_deviation:.3e}, {self.detail})"


@dataclass(frozen=True)
class RootRecipe:
    """Reproducible description: rebuilding from the recipe yields the
    identical artifact."""

    pipeline: str  # "increasing" | "dec_square" | "dec_odd"
    order: int
    orientation: str
    payload: Dict[str, object]


@dataclass(frozen=True)
class RootArtifact:
    recipe: RootRecipe
    realized: Multifunction
    verification: VerificationReport


BuildOutcome = Union[RootArtifact, Certificate]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_root(f: Multifunction, F: Multifunction, n: int,
                cfg: EquivalenceConfig = EquivalenceConfig()) -> VerificationReport:
    """Check fⁿ = F in the identity sense (set-image composition).

    A root whose lazy maps carry witnesses, checked against an exact F, is
    proved in one walk over F's partition (``core._prove_root``): iterating
    only adds jumps, J(f) ⊆ J(fⁿ), so when fⁿ = F each branch of F lies in
    a branch of f.  Each is carried through f n times, and the chain of
    branch maps it meets is proved equal to F's map there, without
    composing fⁿ.  When that walk does not go through, and for the inputs
    it does not take, fⁿ is composed: exact inputs compare structurally;
    otherwise fⁿ = F is proved or disproved in exact arithmetic through the
    witnesses of f's lazy maps (``core.prove_equivalent``).  Only when some
    map has none, as an opaque user map, or gives an inexact value does the
    check fall back to the grid, and the report's detail names that map.
    The report is the same either way."""
    eq = _prove_root(f, F, n)
    if eq is None:
        fn = iterate(f, n)
        if fn.is_exact and F.is_exact:
            eq = equivalent(fn, F, cfg)
        else:
            try:
                eq = prove_equivalent(fn, F)
            except NoExactProofError as exc:
                eq = equivalent(fn, F, cfg)
                eq = dataclasses.replace(eq, reason=f"{eq.reason} ({exc})")
    return VerificationReport(eq.equal, eq.exact, eq.max_deviation,
                              eq.worst_point, eq.reason)


def _require_valid(F: Multifunction) -> None:
    report = F.validate()
    if not report.ok:
        raise InvalidMultifunctionError(report)


# ---------------------------------------------------------------------------
# shared pullback helpers
# ---------------------------------------------------------------------------

def _piecewise_inverse(branches: Tuple[Branch, ...], ranges: list, w: Scalar) -> Scalar:
    """The preimage of w under the first branch whose image holds it;
    ``ranges`` keeps the ends of each branch image, taken when first needed."""
    for i, br in enumerate(branches):
        if ranges[i] is None:
            ranges[i] = low_high(br.map(br.lo), br.map(br.hi))
        lo, hi = ranges[i]
        if within(w, lo, hi):
            return br.map.inverse(w)
    raise MfError(f"pullback value {format_scalar(w)} misses every branch range")


def _pullback_valueset(branches: Tuple[Branch, ...], V: ValueSet,
                       times: int) -> ValueSet:
    ranges = [None] * len(branches)
    for _ in range(times):
        comps = []
        for c in V.components:
            p = _piecewise_inverse(branches, ranges, c.lo)
            q = _piecewise_inverse(branches, ranges, c.hi)
            comps.append(ClosedInterval(*low_high(p, q)))
        V = ValueSet.from_intervals(comps)
    return V


def _realize(F: Multifunction, root_maps, n: int) -> Multifunction:
    """Root of order n from its branch maps on F's partition, ``root_maps[i]``
    on F's i-th branch, in the orientation the maps have: each branch is
    probed at both closure ends so that partial orbit maps fail fast, J1
    jump values are pulled back n − 1 times, and J2 values span the root's
    one-sided limits.  The top end of an increasing piece is a cut at an
    inclusion fixed point, so a J2 value there reaches the end itself:
    [f(b−), b].  A J1 value that pulls back to one point would need a root
    continuous there, which is not constructed (``UnsupportedCaseError``)."""
    root_branches = tuple(Branch(br.lo, br.hi, root_maps[i])
                          for i, br in enumerate(F.branches))
    ends = []
    for br in root_branches:
        try:
            ends.append((br.map(br.lo), br.map(br.hi)))
        except EvaluationRangeError as exc:
            raise IncompatiblePatternError(
                f"extension cannot cover the image on ({format_scalar(br.lo)}, "
                f"{format_scalar(br.hi)}): {exc}") from exc
    orientation = INC if ends[0][0] < ends[0][1] else DEC

    root_jumps = []
    for jp in F.jumps:
        c = jp.location
        kind = classify_jump(F, c).kind
        if kind in ("J3", "J4"):
            raise UnsupportedCaseError(
                f"jump {format_scalar(c)} in case {kind}; decreasing "
                "roots there remain open")
        if kind == "J1":
            try:
                value = _pullback_valueset(root_branches, jp.value, n - 1)
            except MfError as exc:
                raise ConditionJStarViolatedError(c, str(exc)) from exc
            if value.is_singleton:
                raise UnsupportedCaseError(
                    f"the value at jump {format_scalar(c)} pulls back to the point "
                    f"{format_scalar(value.singleton_value())}; a root without a jump "
                    "there is not constructed")
        else:  # J2
            if not jp.value.is_single_interval:
                raise NonCompactJumpValueError(c)
            left = [hi for br, (_, hi) in zip(root_branches, ends) if br.hi == c]
            right = [lo for br, (lo, _) in zip(root_branches, ends) if br.lo == c]
            if orientation is INC and c == F.domain.hi:
                right = [c]
            low, high = (left, right) if orientation is INC else (right, left)
            if not low or not high:
                # hypothesis H keeps jumps off an increasing piece's lower
                # end, so only a decreasing root gets here
                raise UnsupportedCaseError(
                    f"J2 jump at the boundary {format_scalar(c)} for a "
                    "decreasing root is not constructed")
            lo_lim, hi_lim = low[0], high[0]
            if not lo_lim < hi_lim:
                raise ConditionJStarViolatedError(
                    c, "one-sided limits of the root do not leave a gap")
            inside = [d for d in F.jump_locations if lo_lim <= d <= hi_lim]
            if inside != [c]:
                raise ConditionJStarViolatedError(
                    c, f"[{format_scalar(lo_lim)}, {format_scalar(hi_lim)}] "
                       f"covers jumps {inside}, need exactly the jump itself")
            value = ValueSet.interval(lo_lim, hi_lim)
        root_jumps.append(JumpPoint(c, value))
    return Multifunction(F.domain, orientation, root_branches, tuple(root_jumps))


def _seed_to_payload(seed: Optional[ScalarRootSeed]):
    if seed is None:
        return None
    s = seed.normalized()
    return {
        "anchor": None if s.anchor is None else format_scalar(s.anchor),
        "divisions": None if s.divisions is None else [format_scalar(d) for d in s.divisions],
        "image_anchor": None if s.image_anchor is None else format_scalar(s.image_anchor),
        "affine": None if s.affine is None else [format_scalar(s.affine[0]),
                                                 format_scalar(s.affine[1])],
    }


def seed_from_payload(data) -> Optional[ScalarRootSeed]:
    """The seed of a JSON payload: an object whose keys anchor and
    image_anchor hold a scalar, divisions a list of them and affine the
    pair [slope, intercept], each optional.  Raises ``BadSeedError`` for
    any other payload."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise BadSeedError(f"a seed is a JSON object, not a {type(data).__name__}")

    def read(key, many=False):
        value = data.get(key)
        if value is None:
            return None
        try:
            if not many:
                return as_scalar(value)
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected a list, got {value!r}")
            return tuple(as_scalar(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise BadSeedError(f"seed {key}: {exc}") from None

    affine = read("affine", many=True)
    if affine is not None and len(affine) != 2:
        raise BadSeedError("seed affine: expected [slope, intercept]")
    return ScalarRootSeed(read("anchor"), read("divisions", many=True),
                          read("image_anchor"), affine)


def _map_recipe(m) -> object:
    if isinstance(m, AffineMap):
        return ["affine", format_scalar(m.slope), format_scalar(m.intercept)]
    recipe = getattr(m, "recipe", ())
    return ["generic", repr(recipe)]


def _one_cache(build):
    """``build`` run inside one evaluation cache (``evaluation_cache``),
    dropped when it returns or raises: the construction's probes and
    ``_finish``'s proof ask the same lazy maps at many of the same points."""
    @functools.wraps(build)
    def cached(*args, **kwargs):
        with evaluation_cache():
            return build(*args, **kwargs)
    return cached


def _finish(F: Multifunction, realized: Multifunction, n: int,
            pipeline: str, orientation: str,
            payload: Dict[str, object]) -> RootArtifact:
    """Validate a constructed root, verify fⁿ = F and attach its recipe.

    The walk of the verification (``core._prove_root``) proves the root
    valid too: it runs validation's structural checks and reads each
    branch map's monotonicity from the points of its proof, so a root it
    proves is not validated again, and ``verify_root`` reads the walk's
    report from the evaluation cache.  A root it does not prove is
    validated in full before ``verify_root`` composes fⁿ, as before, so
    a failure reads the same.  Everything runs in one evaluation cache:
    the build's, which the cache is re-entrant to join, or one of its own
    when called alone, dropped on return."""
    with evaluation_cache():
        if _prove_root(realized, F, n) is None:
            report = realized.validate()
            if not report.ok:
                raise MfError(f"constructed root fails validation: {report.summary()}")
        verification = verify_root(realized, F, n)
    if not verification.passed:
        raise MfError(f"constructed root fails verification: {verification}")
    return RootArtifact(RootRecipe(pipeline, n, orientation, payload),
                        realized, verification)


# ---------------------------------------------------------------------------
# the increasing pipeline
# ---------------------------------------------------------------------------

def _build_piece_increasing(W: Multifunction, n: int,
                            seed: Optional[ScalarRootSeed]):
    """Root of a normalized piece (hypothesis holds directly); returns a
    Multifunction or a Certificate."""
    a, b = W.domain.lo, W.domain.hi
    jump_locs = W.jump_locations
    m = len(jump_locs)

    for jp in W.jumps:
        cls = classify_jump(W, jp.location)
        if cls.kind == "J4":
            raise UnsupportedCaseError(
                f"jump {format_scalar(jp.location)} lies in case J4; "
                "no construction is known")
        if cls.kind == "J3":
            bound = m - cls.ell + 1
            if n > bound:
                return Certificate(
                    "J3OrderBound",
                    claim=(f"a jump in case J3 with m={m}, ell={cls.ell} rules out "
                           f"strictly increasing usc roots of order n > {bound}"),
                    inputs={"order": str(n)},
                    witnesses={"m": m, "ell": cls.ell, "n": n,
                               "jump": jp.location},
                )
            raise UnsupportedCaseError(
                f"jump {format_scalar(jp.location)} lies in case J3 with "
                f"n <= m - ell + 1 = {bound}; the construction is open")

    K = W.branches[0]
    if K.lo != a:
        raise UnsupportedCaseError("no absorbing interval at the left endpoint")
    others = W.branches[1:]

    if others or m:
        table = transition_table(W)
        for i in range(1, len(W.branches)):
            if table.delta[i] != 0:
                iv = W.branches[i]
                return Certificate(
                    "RoutingInfeasible",
                    claim=("the image of a partition interval is not contained in "
                           "the absorbing interval, so the direct-routing extension "
                           "formula does not apply"
                           + ("; no increasing usc root of this order exists "
                              "(every root chain has length at most the jump count)"
                              if n >= m else "")),
                    inputs={"order": str(n)},
                    witnesses={"interval": (iv.lo, iv.hi),
                               "target": table.delta[i],
                               "absorbing": (K.lo, K.hi),
                               "n": n, "m": m,
                               "sound_nonexistence": n >= m},
                )

    cap_bound = None
    if others:
        cap_bound = max(br.map(br.hi) for br in others)
    phi = _increasing_root_auto(K.map, K.lo, K.hi, n,
                                seed if seed is not None else DEFAULT_SEED,
                                floor_last=cap_bound)

    inv_K = K.map.inverse_map()
    root_maps = [phi] + [compose_maps(inv_K, phi, br.map) for br in others]

    if not (jump_locs and jump_locs[-1] == b):
        fb = root_maps[-1](b)
        if fb in jump_locs:
            return Certificate(
                "EndpointInfeasible",
                claim=("the forced image of the right endpoint lands exactly on a "
                       "jump, which would create a jump of the iterate at the "
                       "endpoint; the construction with this seed fails"),
                inputs={"order": str(n)},
                witnesses={"endpoint": b, "image": fb,
                           "phi": _map_recipe(phi)},
            )
    return _realize(W, root_maps, n)


def _merge_piece_roots(domain: ClosedInterval,
                       roots: List[Multifunction]) -> Multifunction:
    from .maps import GluedMap

    branches: List[Branch] = []
    values: Dict[Scalar, ValueSet] = {}
    for piece in roots:
        branches.extend(piece.branches)
        for jp in piece.jumps:
            if jp.location in values:
                values[jp.location] = values[jp.location].union(jp.value)
            else:
                values[jp.location] = jp.value
    # fuse branches meeting at a cut point that is not a jump of the root
    fused: List[Branch] = []
    for br in branches:
        if fused and fused[-1].hi == br.lo and br.lo not in values:
            prev = fused.pop()
            if prev.map == br.map:
                fused.append(Branch(prev.lo, br.hi, prev.map))
            else:
                fused.append(Branch(prev.lo, br.hi,
                                    GluedMap((br.lo,), (prev.map, br.map))))
        else:
            fused.append(br)
    jumps = tuple(JumpPoint(loc, values[loc]) for loc in sorted(values))
    return Multifunction(domain, INC, tuple(fused), jumps)


@_one_cache
def build_increasing_root(F: Multifunction, n: int,
                          seed: Optional[ScalarRootSeed] = None) -> BuildOutcome:
    """Strictly increasing order-n root of an increasing exclusive
    multifunction, or a certificate explaining why the construction (and,
    where the theory says so, any root) cannot exist."""
    if n < 2:
        raise MfError("root order must be >= 2")
    _require_valid(F)
    if F.orientation is not INC:
        raise NotIncreasingError("increasing pipeline needs an increasing target")
    _require_exclusive(F)

    split = split_at_inclusion_fixed_points(F)
    piece_roots: List[Multifunction] = []
    piece_payload = []
    for piece in split.pieces:
        H = hypothesis_H(piece)
        if H.holds:
            work, reflected = piece, False
        elif H.needs_reflection:
            work, reflected = piece.reflected(), True
        else:
            raise UnsupportedCaseError(
                f"hypothesis fails at {format_scalar(H.witness)} even after "
                "reflection; the piece straddles the diagonal at a jump")
        outcome = _build_piece_increasing(work, n, seed)
        if isinstance(outcome, Certificate):
            return outcome
        root_piece = outcome.reflected() if reflected else outcome
        piece_roots.append(root_piece)
        piece_payload.append({
            "domain": [format_scalar(piece.domain.lo), format_scalar(piece.domain.hi)],
            "reflected": reflected,
            "phi": _map_recipe(outcome.branches[0].map),
        })

    realized = _merge_piece_roots(F.domain, piece_roots)
    return _finish(F, realized, n, "increasing", "inc", {
        "seed": _seed_to_payload(seed),
        "cuts": [format_scalar(c) for c in split.cuts],
        "pieces": piece_payload,
    })


# ---------------------------------------------------------------------------
# ends and retries of decreasing roots
# ---------------------------------------------------------------------------

def _end_orbit_hit(F: Multifunction, f: Multifunction, n: int):
    """(a, j, x) for a domain end a where F has no jump but the j-th image
    x = f^j(a), 0 < j < n, is a jump of f, so that fⁿ jumps at a; else None.
    Raises ``IncompatiblePatternError`` when an image the walk steps from
    has left the domain: f then is no self-map, whatever F is."""
    for a in (F.domain.lo, F.domain.hi):
        if F.jump_at(a) is not None:
            continue
        x = a
        for j in range(1, n):
            if not f.domain.contains(x):
                raise IncompatiblePatternError(
                    f"the root sends the domain end {format_scalar(a)} to "
                    f"{format_scalar(x)} at power {j - 1}, outside {f.domain}")
            x = f(x).singleton_value()
            if f.jump_at(x) is not None:
                return a, j, x
    return None


def _end_orbit_certificate(n, a, j, x) -> Certificate:
    return Certificate(
        "EndpointInfeasible",
        claim=("an image of a domain endpoint under the constructed root lands "
               "exactly on a jump, which would create a jump of the iterate at "
               "the endpoint; the construction with this seed fails"),
        inputs={"order": str(n)},
        witnesses={"endpoint": a, "image": x, "power": j},
    )


def _finish_decreasing(F: Multifunction, n: int, pipeline: str, seed,
                       construct, retry, extra) -> BuildOutcome:
    """``_finish`` for the decreasing root with ``construct()``'s branch
    maps.  When an image of a domain end lands on a jump (``_end_orbit_hit``),
    ``retry(hit)`` may give another construction to try; the certificate of
    the last hit is returned when none gets off the jumps."""
    root_maps = construct()
    realized = _realize(F, root_maps, n)
    hit = _end_orbit_hit(F, realized, n)
    again = retry(hit) if hit is not None else None
    if again is not None:
        try:
            root_maps = again()
            realized = _realize(F, root_maps, n)
        except RootConstructionError:
            return _end_orbit_certificate(n, *hit)
        hit = _end_orbit_hit(F, realized, n)
    if hit is not None:
        return _end_orbit_certificate(n, *hit)
    return _finish(F, realized, n, pipeline, "dec", {
        "seed": _seed_to_payload(seed if seed is not DEFAULT_SEED else None),
        **extra,
        "maps": {str(i): _map_recipe(mp) for i, mp in sorted(root_maps.items())},
    })


def _pullback_hulls(branches, delta, invariant, unrouted: str):
    """{t: (lo, hi)}: the hull of the values that the extension pulls back
    through each invariant interval t from the intervals mapped into it."""
    hulls: Dict[int, Tuple[Scalar, Scalar]] = {}
    for i, br in enumerate(branches):
        if i in invariant:
            continue
        t = delta[i]
        if t not in invariant:
            raise UnsupportedCaseError(
                f"interval {i} maps into a non-invariant interval{unrouted}")
        ends = low_high(br.map(br.lo), br.map(br.hi))
        old = hulls.get(t, ends)
        hulls[t] = (smaller(old[0], ends[0]), larger(old[1], ends[1]))
    return hulls


# ---------------------------------------------------------------------------
# decreasing square roots of increasing targets
# ---------------------------------------------------------------------------

@_one_cache
def build_decreasing_square_root(F: Multifunction,
                                 pairing: Optional[List[Tuple[int, int]]] = None,
                                 seed: Optional[ScalarRootSeed] = None) -> BuildOutcome:
    """Strictly decreasing f with f² = F for increasing exclusive F, built
    from a pairing of the invariant intervals."""
    _require_valid(F)
    if F.orientation is not INC:
        raise NotIncreasingError("decreasing square roots need an increasing target")
    seed = seed if seed is not None else DEFAULT_SEED

    lam = invariant_intervals(F)  # also requires F to be exclusive
    if pairing is None:
        if len(lam) == 2:
            pairing = [(lam[0], lam[1])]
        elif len(lam) == 1:
            pairing = [(lam[0], lam[0])]
        else:
            raise IncompatiblePatternError(
                f"{len(lam)} invariant intervals; an explicit pairing is required")
    pair_of: Dict[int, int] = {}
    for i, j in pairing:
        pair_of[i] = j
        pair_of[j] = i
    if set(pair_of) != set(lam):
        raise IncompatiblePatternError("pairing must cover the invariant intervals")

    branches = list(F.branches)
    table = transition_table(F)
    hulls = _pullback_hulls(branches, table.delta, pair_of,
                            "; chain routing for decreasing roots is not constructed")

    def construct(self_seeds):
        root_maps: Dict[int, object] = {}
        for i, j in pairing:
            bi = branches[i]
            if i == j:
                root_maps[i], _ = decreasing_square_root_pair(
                    bi.map, bi.lo, bi.hi, seed=self_seeds.get(i, seed),
                    cover_top=hulls[i][1] if i in hulls else None)
            else:
                bj = branches[j]
                root_maps[i], root_maps[j] = decreasing_square_root_pair(
                    bi.map, bi.lo, bi.hi, bj.map, bj.lo, bj.hi, seed=seed)

        for i in range(len(branches)):
            if i in root_maps:
                continue
            i1 = pair_of[table.delta[i]]
            root_maps[i] = compose_maps(root_maps[i1].inverse_map(), branches[i].map)
        return root_maps

    def retry(hit):
        # the default self pairing sends hi onto lo, which an end's orbit
        # hits when lo is a jump; send hi to the lowest value pulled back
        # through the interval instead, never above g(lo) as the seed needs
        for i, j in pairing:
            bi = branches[i]
            if i == j and seed.is_default and hit[2] == bi.lo:
                y0 = min(bi.map(bi.lo), hulls[i][0]) if i in hulls else bi.map(bi.lo)
                return functools.partial(construct, {i: ScalarRootSeed(image_anchor=y0)})
        return None

    return _finish_decreasing(F, 2, "dec_square", seed, functools.partial(construct, {}),
                              retry, {"pairing": [[i, j] for i, j in pairing]})


# ---------------------------------------------------------------------------
# decreasing odd roots of decreasing targets
# ---------------------------------------------------------------------------

@_one_cache
def build_decreasing_odd_root(F: Multifunction, k: int,
                              seed: Optional[ScalarRootSeed] = None) -> BuildOutcome:
    """Strictly decreasing k-th root (k odd) of a decreasing exclusive
    multifunction, working on the invariant structure of F²."""
    _require_valid(F)
    if F.orientation is not DEC:
        raise NotDecreasingError("odd-root pipeline needs a decreasing target")
    if k % 2 == 0:
        return Certificate(
            "DecreasingNoEvenRoot",
            claim=("a strictly decreasing usc multifunction has no usc iterative "
                   "roots of even order: even iterates of monotone multifunctions "
                   "are increasing"),
            inputs={"order": str(k)},
            witnesses={"n": k},
        )
    if k < 3:
        raise MfError("odd root order must be >= 3")
    _require_exclusive(F)
    seed = seed if seed is not None else DEFAULT_SEED

    F2 = iterate(F, 2)
    lam2 = invariant_intervals(F2)
    table_F = transition_table(F)
    lam_set = set(lam2)
    for i in lam2:
        j = table_F.delta[i]
        if j not in lam_set or table_F.delta[j] != i:
            raise IncompatiblePatternError(
                "the target does not swap its square-invariant intervals pairwise")

    branches = list(F.branches)
    m = (k - 1) // 2
    # extension pullbacks run through the root square on the target interval
    hulls = _pullback_hulls(branches, table_F.delta, lam_set,
                            " of F²; chain routing is not constructed")

    def construct(closed_form):
        odd_root, swap_maps = decreasing_odd_root, odd_swap_maps
        if not closed_form:
            odd_root = functools.partial(_decreasing_odd_root, closed_form=False)
            swap_maps = functools.partial(_odd_swap_maps, closed_form=False)
        root_maps: Dict[int, object] = {}
        squares: Dict[int, object] = {}
        done = set()
        for i in lam2:
            if i in done:
                continue
            j = table_F.delta[i]
            if i == j:
                bi = branches[i]
                root_maps[i] = odd_root(bi.map, bi.lo, bi.hi, k, seed,
                                        cover=hulls.get(i))
                squares[i] = compose_maps(root_maps[i], root_maps[i])
                done.add(i)
            else:
                A, Bi = branches[i], branches[j]
                map_i, map_j, phi = swap_maps(A.map, A.lo, A.hi,
                                              Bi.map, Bi.lo, Bi.hi, k, seed,
                                              cover_alpha=hulls.get(i),
                                              cover_beta=hulls.get(j))
                root_maps[i], root_maps[j] = map_i, map_j
                squares[i] = compose_maps(map_j, map_i)
                squares[j] = compose_maps(map_i, map_j)
                done.update((i, j))

        for i in range(len(branches)):
            if i in root_maps:
                continue
            t = table_F.delta[i]
            root_maps[i] = compose_maps(iterate_map(squares[t], m).inverse_map(),
                                        branches[i].map)
        return root_maps

    # when a closed form sends a domain end onto a jump, the orbit engine
    # pins the end's image strictly inside instead
    return _finish_decreasing(F, k, "dec_odd", seed, functools.partial(construct, True),
                              lambda hit: functools.partial(construct, False), {})


# ---------------------------------------------------------------------------
# nonexistence certificates
# ---------------------------------------------------------------------------

def certify_nonexistence(F: Multifunction, n: int,
                         root_orientation=ANY) -> Optional[Certificate]:
    """First matching nonexistence rule with witnesses, or None
    (inconclusive: existence is neither claimed nor denied)."""
    if n < 1:
        raise MfError(f"root order must be >= 1, got {n}")
    _require_valid(F)
    if isinstance(root_orientation, str):
        root_orientation = {"inc": INC, "dec": DEC, ANY: ANY}[root_orientation.lower()]
    rules: List[Tuple[str, str, Dict[str, object]]] = []
    z = intensity(F)
    zeta = None if z.exceeded else z.value
    jump_count = len(F.jump_locations)

    if F.orientation is DEC and n % 2 == 0:
        rules.append((
            "DecreasingNoEvenRoot",
            "even iterates of monotone multifunctions are increasing, so a "
            "decreasing target has no usc root of even order",
            {"n": n}))
    if F.orientation is INC and root_orientation is DEC and n % 2 == 1:
        rules.append((
            "IncreasingNoOddDecreasingRoot",
            "odd iterates of a decreasing multifunction are decreasing, so an "
            "increasing target has no decreasing root of odd order",
            {"n": n}))
    if zeta is None or (zeta is not None and zeta > 1):
        zeta_repr = f">{z.cap}" if z.exceeded else zeta
        if jump_count == 1 and n >= 2:
            rules.append((
                "UniqueJumpIntensity",
                "a multifunction with a unique jump and intensity above one has "
                "no usc iterative roots of any order at least two",
                {"jumps": 1, "intensity": zeta_repr, "n": n}))
        if n > jump_count:
            rules.append((
                "IntensityOrderBound",
                "with intensity above one, any usc root of order n forces a "
                "strictly increasing chain of jump counts of length n inside "
                "the jump set of the target",
                {"jumps": jump_count, "intensity": zeta_repr, "n": n}))
    if F.orientation is DEC and n == 2 and zeta == 1:
        rules.append((
            "DecreasingNoContinuousSquareRoot",
            "a strictly decreasing exclusive multifunction has no square "
            "iterative roots that are continuous off the jump set",
            {"n": n}))
    if (F.orientation is INC and zeta == 1
            and (root_orientation is INC or (root_orientation is ANY and n % 2 == 1))):
        H = hypothesis_H(F)
        if H.holds or H.needs_reflection:
            jumps_view = F if H.holds else F.reflected()
            m = len(jumps_view.jump_locations)
            for c in jumps_view.jump_locations:
                cls = classify_jump(jumps_view, c)
                if cls.kind == "J3" and n > m - cls.ell + 1:
                    rules.append((
                        "J3OrderBound",
                        "a jump whose value meets only other jumps bounds the "
                        "order of increasing usc roots by m - ell + 1",
                        {"m": m, "ell": cls.ell, "n": n, "jump": c}))
                    break

    if not rules:
        return None
    rule, claim, witnesses = rules[0]
    also = tuple(r for r, _, _ in rules[1:])
    return Certificate(rule, claim, inputs={"order": str(n)},
                       witnesses=witnesses, also=also)


def recheck_certificate(cert: Certificate, F: Multifunction,
                        samples: int = 10_000) -> bool:
    """Re-verify a certificate's arithmetic claim from its witnesses,
    using independent routes (iterate-and-count intensity, grid search)."""
    w = cert.witnesses
    rule = cert.rule
    if rule == "DecreasingNoEvenRoot":
        return F.orientation is DEC and w["n"] % 2 == 0
    if rule == "IncreasingNoOddDecreasingRoot":
        return F.orientation is INC and w["n"] % 2 == 1
    if rule in ("UniqueJumpIntensity", "IntensityOrderBound"):
        # oracle route: compose explicitly and compare jump counts
        from .core import compose
        grows = len(compose(F, F).jump_locations) > len(F.jump_locations)
        if rule == "UniqueJumpIntensity":
            return len(F.jump_locations) == 1 and grows and w["n"] >= 2
        return grows and w["n"] > len(F.jump_locations)
    if rule == "DecreasingNoContinuousSquareRoot":
        return (F.orientation is DEC and w["n"] == 2
                and intensity(F).value == 1)
    if rule == "J3OrderBound":
        cls = None
        for view in (F, F.reflected()):
            try:
                cls = classify_jump(view, w["jump"])
            except MfError:
                continue
            if cls.kind == "J3":
                m = len(view.jump_locations)
                return w["m"] == m and w["ell"] == cls.ell and w["n"] > m - cls.ell + 1
        return False
    if rule == "RoutingInfeasible":
        lo, hi = w["interval"]
        k_lo, k_hi = w["absorbing"]
        width = hi - lo
        for i in range(1, samples):
            x = lo + width * Fraction(i, samples)
            V = F(x)
            if not (k_lo < V.min_value and V.max_value < k_hi):
                return True
        return False
    if rule == "EndpointInfeasible":
        if "power" in w:  # an end's orbit under a decreasing root
            return (w["image"] in F.jump_locations and 0 < w["power"] < int(cert.inputs["order"])
                    and w["endpoint"] in (F.domain.lo, F.domain.hi)
                    and F.jump_at(w["endpoint"]) is None)
        return w["image"] in F.jump_locations and w["endpoint"] == F.domain.hi
    raise MfError(f"unknown certificate rule {rule}")


# ---------------------------------------------------------------------------
# J3 chain diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class J3ChainReport:
    jump: Scalar
    S: Tuple[Tuple[Scalar, ...], ...]  # S_1..S_n
    pairwise_distinct: bool
    inclusions_ok: bool
    chain_intervals: Tuple[Tuple[int, ...], ...]
    reaches_absorbing: bool


def j3_chain_report(f: Multifunction, F: Multifunction, n: int) -> J3ChainReport:
    """Orbit-of-the-jump diagnostics for a verified root in case J3."""
    from .errors import NotAJumpError

    vr = verify_root(f, F, n)
    if not vr.passed:
        raise MfError("j3 chain diagnostics need a verified root")
    j3 = [c for c in F.jump_locations if classify_jump(F, c).kind == "J3"]
    if not j3:
        raise NotAJumpError("target has no jump in case J3")
    c = j3[-1]
    jump_locs = F.jump_locations
    part_intervals = [(br.lo, br.hi) for br in F.branches]

    orbit = []
    V = f(c)
    for _ in range(n):
        orbit.append(V)
        V = f.image(V)
    S = tuple(tuple(d for d in jump_locs if Vj.contains(d)) for Vj in orbit)

    pairwise = all(
        set(S[i]) - set(S[j]) for i in range(len(S)) for j in range(len(S))
        if i != j)

    f_of_J = f.image(ValueSet.from_intervals(
        [ClosedInterval(d, d) for d in jump_locs]))
    inclusions = True
    for j in range(len(S) - 1):
        if not S[j]:
            continue
        f_Sj = f.image(ValueSet.from_intervals(
            [ClosedInterval(d, d) for d in S[j]]))
        lhs = {d for d in jump_locs if f_Sj.contains(d)}
        rhs = {d for d in S[j + 1] if f_of_J.contains(d)}
        if lhs != rhs:
            inclusions = False

    chain = []
    for Vj in orbit:
        hit = tuple(i for i, (lo, hi) in enumerate(part_intervals)
                    if any(comp.lo < hi and comp.hi > lo
                           for comp in Vj.components))
        chain.append(hit)
    reaches = bool(chain) and chain[-1] == (0,)
    return J3ChainReport(c, S, pairwise, inclusions, tuple(chain), reaches)


# ---------------------------------------------------------------------------
# recipe replay
# ---------------------------------------------------------------------------

def rebuild_from_recipe(F: Multifunction, recipe: RootRecipe) -> RootArtifact:
    """Replay a recipe; the construction is deterministic, so the result
    is identical to the original artifact.  A replay reads only the target,
    order, seed and pairing: a recipe written while irrational slope roots
    were float closed forms replays to the exact orbit root built now."""
    seed = seed_from_payload(recipe.payload.get("seed"))
    if recipe.pipeline == "increasing":
        outcome = build_increasing_root(F, recipe.order, seed=seed)
    elif recipe.pipeline == "dec_square":
        pairing = recipe.payload.get("pairing")
        pairing = None if pairing is None else [tuple(p) for p in pairing]
        outcome = build_decreasing_square_root(F, pairing=pairing, seed=seed)
    elif recipe.pipeline == "dec_odd":
        outcome = build_decreasing_odd_root(F, recipe.order, seed=seed)
    else:
        raise MfError(f"unknown pipeline {recipe.pipeline}")
    if not isinstance(outcome, RootArtifact):
        raise MfError("recipe replay produced a certificate, not a root")
    return outcome
