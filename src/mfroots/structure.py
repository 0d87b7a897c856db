"""Structural analysis of strictly monotone usc multifunctions.

Jump growth under iteration is governed by pullbacks: a point becomes a
new jump of F² exactly when its (single) value sits on a jump of F.  The
intensity is the step at which the jump count stops growing; intensity-1
multifunctions admit a transition table between partition intervals, whose
cycles are the invariant intervals, and every interval is absorbed into an
invariant one after finitely many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import ClosedInterval, Multifunction, _Pullback
from .errors import (
    InexactCutError,
    MfError,
    NoSingleTargetError,
    NotAJumpError,
    NotExclusiveError,
    NotIncreasingError,
    StructureError,
)
from .maps import INC, AffineMap
from .scalars import (
    Scalar,
    as_scalar,
    bisect_left,
    bisect_right,
    eq,
    format_scalar,
    inside,
    is_exact,
    low_high,
    lt,
    ordered,
)


def jump_set(F: Multifunction) -> Tuple[Scalar, ...]:
    return F.jump_locations


@dataclass(frozen=True)
class Partition:
    """Maximal jump-free open intervals, in order; empty ones dropped."""

    intervals: Tuple[ClosedInterval, ...]  # open cores, stored by endpoints
    jumps: Tuple[Scalar, ...]


def partition(F: Multifunction) -> Partition:
    # the branch cores are exactly the maximal jump-free open intervals
    return Partition(tuple(ClosedInterval(br.lo, br.hi) for br in F.branches),
                     F.jump_locations)


@dataclass(frozen=True)
class TransitionTable:
    delta: Dict[int, int]


def transition_table(F: Multifunction) -> TransitionTable:
    """delta with F(I_i) ⊂ I_delta(i); fails with the straddled jump as
    witness, which certifies intensity > 1 on the branch part."""
    locs = F.jump_locations
    los = [br.lo for br in F.branches]
    his = [br.hi for br in F.branches]
    delta: Dict[int, int] = {}
    for i, br in enumerate(F.branches):
        img_lo, img_hi = low_high(br.map(br.lo), br.map(br.hi))
        k = bisect_right(locs, img_lo)
        if k < len(locs) and lt(locs[k], img_hi):
            raise NoSingleTargetError(i, locs[k])
        # the first partition interval reaching img_hi holds the image iff
        # it starts at or below img_lo
        j = bisect_left(his, img_hi)
        if j == len(his) or lt(img_lo, los[j]):
            raise StructureError(
                f"image ({format_scalar(img_lo)}, {format_scalar(img_hi)}) of "
                f"interval {i} not contained in any partition interval")
        delta[i] = j
    return TransitionTable(delta)


@dataclass(frozen=True)
class IntensityResult:
    value: Optional[int]  # None = exceeded the cap (stands in for +∞)
    cap: int
    trace: Tuple[int, ...]  # #J(F^k) for k = 0..stabilization (or cap)

    @property
    def exceeded(self) -> bool:
        return self.value is None


def intensity(F: Multifunction, cap: int = 64) -> IntensityResult:
    """Least k with #J(F^k) = #J(F^{k+1}), via incremental jump pullback
    (never by recomposition).

    J(F^{k+1}) = J(F) ∪ F⁻¹(J(F^k)) only grows with k, and the pullback
    distributes over unions, so each round pulls back just the points the
    previous round added.
    """
    current = set(F.jump_locations)  # J(F^1)
    trace: List[int] = [0, len(current)]
    if trace[0] == trace[1]:
        return IntensityResult(0, cap, (0, 0))
    pullback = _Pullback(F)
    frontier = current
    for k in range(1, cap + 1):
        frontier = pullback(frontier) - current
        trace.append(len(current) + len(frontier))
        if not frontier:
            return IntensityResult(k, cap, tuple(trace))
        current |= frontier
    return IntensityResult(None, cap, tuple(trace))


def _require_exclusive(F: Multifunction) -> None:
    z = intensity(F)
    if z.exceeded or z.value not in (0, 1):
        raise NotExclusiveError(
            f"intensity {'>' + str(z.cap) if z.exceeded else z.value}, need 1")


def invariant_intervals(F: Multifunction) -> Tuple[int, ...]:
    """Indices i with F(I_i) ⊂ I_i (the set Λ(F))."""
    if F.orientation is not INC:
        raise NotIncreasingError("invariant intervals need an increasing multifunction")
    _require_exclusive(F)
    table = transition_table(F)
    return tuple(i for i in sorted(table.delta) if table.delta[i] == i)


@dataclass(frozen=True)
class AbsorbingData:
    lambda_indices: Tuple[int, ...]
    kappa: Dict[int, int]
    target: Dict[int, int]
    ell: int


def absorbing_data(F: Multifunction) -> AbsorbingData:
    """Absorbing times into the invariant intervals; κ is 1 on invariant
    intervals by convention, ℓ is the maximum over the partition."""
    lam = invariant_intervals(F)
    if not lam:
        raise MfError("no invariant interval; increasing exclusive input expected")
    table = transition_table(F)
    lam_set = set(lam)
    kappa: Dict[int, int] = {}
    target: Dict[int, int] = {}
    for i in sorted(table.delta):
        seen = [i]
        j = table.delta[i]
        steps = 1
        while j not in lam_set:
            if j in seen:
                raise MfError(f"transition cycle without invariant interval at {i}")
            seen.append(j)
            j = table.delta[j]
            steps += 1
        if len(set(seen)) != len(seen):
            raise MfError(f"absorbing chain from {i} revisits an interval")
        kappa[i] = steps
        target[i] = j
    return AbsorbingData(lam, kappa, target, max(kappa.values()))


# ---------------------------------------------------------------------------
# fixed points and splitting
# ---------------------------------------------------------------------------

def _branch_fixed_points(F: Multifunction, samples: int = 256):
    """Interior branch fixed points; (point, exact_flag) pairs."""
    out = []
    for br in F.branches:
        if isinstance(br.map, AffineMap):
            if eq(br.map.slope, 1):
                if br.map.is_identity:
                    raise MfError(
                        f"identity branch on ({format_scalar(br.lo)}, "
                        f"{format_scalar(br.hi)}) has a continuum of fixed points")
                continue
            x = br.map.fixed_point()
            if x is not None and inside(x, br.lo, br.hi):
                out.append((x, True))
        else:
            lo, hi = br.lo, br.hi
            step = (hi - lo) / samples
            prev_x, prev_d = lo, br.map(lo) - lo
            for i in range(1, samples + 1):
                x = lo + step * i
                d = br.map(x) - x
                if prev_d == 0 and lo < prev_x < hi:
                    # a sample hit, exact when the point and its value are
                    out.append((prev_x, is_exact(prev_d)))
                elif prev_d < 0 < d or d < 0 < prev_d:
                    a_, b_ = prev_x, x
                    for _ in range(80):
                        m = (a_ + b_) / 2
                        dm = br.map(m) - m
                        if dm == 0:
                            break
                        if (dm < 0) == (prev_d < 0):
                            a_ = m
                        else:
                            b_ = m
                    out.append((float((a_ + b_) / 2), False))
                prev_x, prev_d = x, d
    return out


def inclusion_fixed_points(F: Multifunction):
    """Interior points c with c ∈ F(c); (point, exact) pairs, sorted."""
    pts = list(_branch_fixed_points(F))
    a, b = F.domain.lo, F.domain.hi
    for jp in F.jumps:
        if inside(jp.location, a, b) and jp.value.contains(jp.location):
            pts.append((jp.location, is_exact(jp.location)))
    return [(p, e) for (p, e) in ordered(pts, key=lambda pe: pe[0]) if inside(p, a, b)]


@dataclass(frozen=True)
class SplitResult:
    cuts: Tuple[Scalar, ...]
    pieces: Tuple[Multifunction, ...]


def split_at_inclusion_fixed_points(F: Multifunction) -> SplitResult:
    """Cut the domain at every interior c with c ∈ F(c); jump values at the
    cut are clipped to each side (degenerate clips stop being jumps)."""
    if F.orientation is not INC:
        raise NotIncreasingError("splitting applies to increasing multifunctions")
    found = inclusion_fixed_points(F)
    inexact = [p for p, e in found if not e]
    if inexact:
        raise InexactCutError(
            f"fixed point near {format_scalar(inexact[0])} located by bisection "
            "only; the domain cannot be cut there exactly")
    cuts = tuple(p for p, _ in found)
    bounds = [F.domain.lo, *cuts, F.domain.hi]
    pieces = tuple(F.restricted(u, v) for u, v in zip(bounds, bounds[1:]))
    return SplitResult(cuts, pieces)


# ---------------------------------------------------------------------------
# hypothesis and jump classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HReport:
    holds: bool
    needs_reflection: bool
    witness: Optional[Scalar] = None


def _below_diagonal(F: Multifunction) -> Optional[Scalar]:
    """None when max F(x) < x on (a,b) and max F(b) <= b; else a witness."""
    a, b = F.domain.lo, F.domain.hi
    for br in F.branches:
        d_lo = br.map(br.lo) - br.lo
        d_hi = br.map(br.hi) - br.hi
        # interior fixed points were ruled out before this is called, so
        # nonpositive endpoint differences pin the whole open piece below
        # the diagonal (affine case); identity pieces are flagged.
        if d_lo > 0 or d_hi > 0 or (d_lo == 0 and d_hi == 0):
            return br.hi if d_hi >= 0 else br.lo
        if not isinstance(br.map, AffineMap):
            # affine sign control does not apply; spot check
            step = (br.hi - br.lo) / 33
            for i in range(1, 33):
                x = br.lo + step * i
                if br.map(x) >= x:
                    return x
    for jp in F.jumps:
        c = jp.location
        if eq(c, a):
            return a  # a multivalued left endpoint already violates F(a) = {a}
        if eq(c, b):
            if lt(b, jp.value.max_value):
                return b
        elif not lt(jp.value.max_value, c):
            return c
    return None


def hypothesis_H(F: Multifunction) -> HReport:
    """max F(x) < x inside and max F(b) <= b, directly or after reflection;
    interior inclusion-fixed-points are reported as violations."""
    if F.orientation is not INC:
        raise NotIncreasingError("hypothesis check applies to increasing multifunctions")
    fixed = inclusion_fixed_points(F)
    if fixed:
        return HReport(False, False, fixed[0][0])
    direct = _below_diagonal(F)
    if direct is None:
        return HReport(True, False, None)
    mirrored = _below_diagonal(F.reflected())
    if mirrored is None:
        return HReport(False, True, None)
    return HReport(False, False, direct)


@dataclass(frozen=True)
class JumpClass:
    kind: str  # "J1" | "J2" | "J3" | "J4"
    others: Tuple[Scalar, ...]  # jump locations other than c hit by F(c)
    ell: Optional[int]

    def __repr__(self):
        if self.kind == "J1":
            return "J1"
        if self.kind == "J2":
            return "J2"
        others = " ".join(format_scalar(x) for x in self.others)
        return f"{self.kind}(ell={self.ell}, others={{{others}}})"


def classify_jump(F: Multifunction, c: Scalar) -> JumpClass:
    """Classify by J(F) ∩ F(c): empty (J1), {c} (J2), other jumps only
    (J3, with their count ℓ), or other jumps plus c (J4)."""
    c = as_scalar(c)
    jp = F.jump_at(c)
    if jp is None:
        raise NotAJumpError(f"{format_scalar(c)} is not a jump")
    locs = F.jump_locations
    hit = tuple(d for comp in jp.value.components
                for d in locs[bisect_left(locs, comp.lo):
                              bisect_right(locs, comp.hi)])
    self_hit = c in hit
    others = tuple(d for d in hit if d != c)
    if not hit:
        return JumpClass("J1", (), None)
    if self_hit and not others:
        return JumpClass("J2", (), None)
    if not self_hit:
        return JumpClass("J3", others, len(others))
    return JumpClass("J4", others, len(others))
