"""Independent correctness checks, run after the timed phase.

None of these goes through the code path it checks: roots are checked by
evaluating them point by point (never through ``equivalent`` or
``compose``), composition jump sets by a bisection oracle, intensity by
iterating and counting, and certificates by recomputing their claims.
"""

from __future__ import annotations

import random
from fractions import Fraction

TOL = 1e-9  # the library's own grid tolerance, used only for float values


def close(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= TOL


def check_points(rng: random.Random, count: int, lo=Fraction(0), hi=Fraction(1)):
    """Seeded rational points strictly inside (lo, hi)."""
    den = 10007  # prime, so the points avoid the small-denominator jump sets
    return [lo + (hi - lo) * Fraction(rng.randint(1, den - 1), den)
            for _ in range(count)]


def root_mismatch(f, F, n, points):
    """First point where the n-fold pointwise evaluation of f differs from
    F, or None.  Points whose orbit meets a jump of f are skipped."""
    avoid = set(F.jump_locations) | set(f.jump_locations)
    for x in points:
        if x in avoid:
            continue
        y = x
        for _ in range(n):
            V = f(y)
            if not V.is_singleton:
                break
            y = V.singleton_value()
        else:
            W = F(x)
            if not W.is_singleton or not close(y, W.singleton_value()):
                return f"f^{n}({x}) = {y} but F({x}) = {W}"
    return None


def oracle_compose_jumps(G, F, inc):
    """Jump set of G∘F without the composition engine: pointwise
    multivaluedness plus bisection pullbacks of G's jumps, rationalized
    and confirmed pointwise."""
    found = set()
    for c in F.jump_locations:
        if G.image(F(c)).has_multiple_points:
            found.add(c)
    ends = []
    if F.includes_left_endpoint:
        ends.append(F.domain.lo)
    if F.includes_right_endpoint:
        ends.append(F.domain.hi)
    for x in ends:
        V = F(x)
        if V.is_singleton and G.image(V).has_multiple_points:
            found.add(x)
    for d in G.jump_locations:
        for br in F.branches:
            lo_v, hi_v = sorted((br.map(br.lo), br.map(br.hi)))
            if lo_v < d < hi_v:
                x = _bisect_preimage(br, d, inc)
                if x is not None:
                    found.add(x)
    return sorted(found)


def brute_jump_counts(F, upto, inc):
    """#J(F^k) for k = 1..upto, composing jump sets by the oracle and the
    values pointwise: F^k's jump set is found from F^(k-1) and F."""
    counts = []
    current = None
    for k in range(1, upto + 1):
        if k == 1:
            current = list(F.jump_locations)
        else:
            current = _oracle_iterate_jumps(F, current, inc)
        counts.append(len(current))
    return counts


def _oracle_iterate_jumps(F, previous, inc):
    """Jump set of F^k given that of F^(k-1): a point is a jump of F^k if
    it is a jump of F, or F maps it (single-valued) onto a jump of F^(k-1)
    (found by bisection on each branch, as in ``oracle_compose_jumps``)."""
    found = set(F.jump_locations)
    for d in previous:
        for br in F.branches:
            lo_v, hi_v = sorted((br.map(br.lo), br.map(br.hi)))
            if lo_v < d < hi_v:
                x = _bisect_preimage(br, d, inc)
                if x is not None:
                    found.add(x)
        for x, included, br in (
                (F.domain.lo, F.includes_left_endpoint, F.branches[0]),
                (F.domain.hi, F.includes_right_endpoint, F.branches[-1])):
            if included and br.map(x) == d:
                found.add(x)
    return sorted(found)


def _bisect_preimage(br, d, inc):
    """Rational x inside the branch with br.map(x) == d, located by float
    bisection (not by the library's inverse) and confirmed exactly."""
    a, b = float(br.lo), float(br.hi)
    rising = br.map.orientation is inc
    for _ in range(200):
        m = (a + b) / 2
        val = br.map(m)
        if val == d:
            a = b = m
            break
        if (val < d) == rising:
            a = m
        else:
            b = m
    x_hat = (a + b) / 2
    candidates = [Fraction(x_hat).limit_denominator(cap)
                  for cap in (10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12)]
    slope = getattr(br.map, "slope", None)
    if slope is not None:
        # deep pullbacks outgrow any denominator cap: solve the affine
        # equation and accept it only where the bisection found the root
        exact = (d - br.map.intercept) / slope
        if abs(float(exact) - x_hat) <= 1e-9:
            candidates.append(exact)
    for x_star in candidates:
        if br.lo < x_star < br.hi and br.map(x_star) == d:
            return x_star
    return None


def brute_intensity(F, upto, inc):
    """Least k with #J(F^k) = #J(F^(k+1)) (with #J(F^0) = 0) if it is at
    most ``upto``, else None."""
    counts = [0] + brute_jump_counts(F, upto + 1, inc)
    for k in range(upto + 1):
        if counts[k] == counts[k + 1]:
            return k
    return None


def certificate_mismatch(cert, F, inc, dec):
    """Recompute the claim a certificate rests on; None if it holds."""
    w = cert.witnesses
    rule = cert.rule
    jumps = len(F.jump_locations)
    if rule == "DecreasingNoEvenRoot":
        ok = F.orientation is dec and w["n"] % 2 == 0
    elif rule == "IncreasingNoOddDecreasingRoot":
        ok = F.orientation is inc and w["n"] % 2 == 1
    elif rule in ("UniqueJumpIntensity", "IntensityOrderBound"):
        counts = brute_jump_counts(F, 2, inc)
        grows = counts[1] > counts[0]
        if rule == "UniqueJumpIntensity":
            ok = grows and jumps == 1 and w["n"] >= 2
        else:
            ok = grows and w["n"] > jumps
    elif rule == "DecreasingNoContinuousSquareRoot":
        ok = F.orientation is dec and w["n"] == 2 and brute_intensity(F, 3, inc) == 1
    elif rule == "J3OrderBound":
        ok = w["m"] == jumps and w["n"] > w["m"] - w["ell"] + 1
    else:
        return f"no independent check for rule {rule}"
    return None if ok else f"{rule} claim does not hold"
