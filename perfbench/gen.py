"""Seeded instance generators for the benchmark.

Ported from the random families the test suite uses, so the suite can
change without moving the benchmark.  Every generator takes a
``random.Random`` and draws from it in a fixed order: the same seed gives
the same instances.  No instance is filtered by whether a build succeeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mfroots import Multifunction, intensity
from mfroots.errors import MfError

HALF = Fraction(1, 2)


def _rational(rng: random.Random, lo: Fraction, hi: Fraction,
              denom: int = 64) -> Fraction:
    lo_n = int(lo * denom) + 1
    hi_n = int(hi * denom) - 1
    if hi_n < lo_n:
        return (lo + hi) / 2
    return Fraction(rng.randint(lo_n, hi_n), denom)


def _increasing_rationals(rng: random.Random, count: int, lo: Fraction,
                          hi: Fraction, denom: int = 128):
    picks = sorted(rng.sample(range(int(lo * denom) + 1, int(hi * denom)), count))
    return [Fraction(p, denom) for p in picks]


def monotone_increasing(rng: random.Random, jumps: int) -> Multifunction:
    """Valid increasing multifunction with ``jumps`` interval-valued jumps;
    usc is built in by deriving jump values from the adjacent limits."""
    cuts = _increasing_rationals(rng, jumps, Fraction(0), Fraction(1))
    bounds = [Fraction(0), *cuts, Fraction(1)]
    profile = _increasing_rationals(rng, 2 * (jumps + 1), Fraction(0), Fraction(1), 256)
    pieces, jps = [], []
    for i in range(jumps + 1):
        lo, hi = bounds[i], bounds[i + 1]
        y0, y1 = profile[2 * i], profile[2 * i + 1]
        slope = (y1 - y0) / (hi - lo)
        pieces.append((lo, hi, slope, y0 - slope * lo))
        if i < jumps:
            jps.append((bounds[i + 1], (y1, profile[2 * i + 2])))
    return Multifunction.build(0, 1, pieces, jps)


def direct_routed(rng: random.Random, jumps: int, lam_16ths=None) -> Multifunction:
    """Exclusive increasing multifunction satisfying the diagonal
    hypothesis, every interval feeding the absorbing one directly: the
    family on which every increasing build is meant to succeed.  The
    absorbing branch has slope ``lam_16ths``/16 (drawn from 1..7 if None)."""
    cuts = _increasing_rationals(rng, jumps, Fraction(1, 4), Fraction(1))
    bounds = [Fraction(0), *cuts, Fraction(1)]
    c1 = cuts[0]
    lam = Fraction(lam_16ths or rng.randint(1, 7), 16)
    pieces = [(Fraction(0), c1, lam, Fraction(0))]
    top = lam * c1
    # later branches map into (top, c1) with strictly increasing values
    profile = _increasing_rationals(rng, 2 * jumps, top, c1, 512)
    jps = []
    prev_end = top
    for i in range(jumps):
        lo, hi = bounds[i + 1], bounds[i + 2]
        y0, y1 = profile[2 * i], profile[2 * i + 1]
        slope = (y1 - y0) / (hi - lo)
        pieces.append((lo, hi, slope, y0 - slope * lo))
        jps.append((lo, (prev_end, y0)))
        prev_end = y1
    return Multifunction.build(0, 1, pieces, jps)


def with_intensity(rng: random.Random, target: int) -> Multifunction:
    """Multifunction with intensity exactly ``target`` (1, 2 or 3), built
    from controlled crossing chains through a single jump at 1/2."""
    if target == 1:
        return direct_routed(rng, rng.randint(1, 3))
    for _ in range(500):
        lam = Fraction(rng.randint(1, 7), 16)
        if target == 2:
            s = Fraction(rng.randint(2, 30), 32)
            t = HALF - s * Fraction(3, 4)  # crossing at 3/4
        else:
            # send x2 -> x1 -> 1/2 with the next preimage escaping
            x1 = HALF + Fraction(rng.randint(2, 12), 64)
            x2 = x1 + Fraction(rng.randint(2, 12), 64)
            if x2 >= 1:
                continue
            s = (x1 - HALF) / (x2 - x1)
            t = HALF - s * x1
        lo_lim = lam * HALF
        hi_lim = s * HALF + t
        if not lo_lim < hi_lim or not 0 < s + t <= 1 or t < 0:
            continue
        try:
            F = Multifunction.build(0, 1,
                pieces=[(0, HALF, lam, 0), (HALF, 1, s, t)],
                jumps=[(HALF, (lo_lim, hi_lim))])
        except MfError:
            continue
        if F.validate().ok and intensity(F).value == target:
            return F
    raise RuntimeError(f"could not generate an intensity-{target} instance")


def reversing_pair_target(rng: random.Random) -> Multifunction:
    """Increasing target with two invariant intervals around a central
    jump whose value straddles it: admits decreasing square roots."""
    for _ in range(200):
        p0 = _rational(rng, Fraction(1, 8), Fraction(3, 8), 32)
        p1 = _rational(rng, Fraction(5, 8), Fraction(7, 8), 32)
        lam0 = Fraction(rng.randint(2, 12), 16)
        lam1 = Fraction(rng.randint(2, 12), 16)
        g0 = (lam0, p0 * (1 - lam0))
        g1 = (lam1, p1 * (1 - lam1))
        lo_lim = lam0 * HALF + g0[1]
        hi_lim = lam1 * HALF + g1[1]
        if not 0 < lo_lim < HALF < hi_lim < 1:
            continue
        F = Multifunction.build(0, 1,
            pieces=[(0, HALF, *g0), (HALF, 1, *g1)],
            jumps=[(HALF, (lo_lim, hi_lim))])
        if F.validate().ok and intensity(F).value == 1:
            return F
    raise RuntimeError("could not generate a reversing-pair target")


def dec_selfpair_target(rng: random.Random, slope_16ths=None) -> Multifunction:
    """Decreasing target with one interval invariant under the square and
    a single jump avoiding the jump set: admits decreasing odd roots.  The
    first branch has slope -``slope_16ths``/16 (drawn from 1..6 if None)."""
    for _ in range(500):
        c = _rational(rng, Fraction(5, 8), Fraction(7, 8), 16)
        p = _rational(rng, Fraction(1, 4), c - Fraction(1, 8), 32)
        s = Fraction(slope_16ths or rng.randint(1, 6), 16)
        g0 = (-s, p * (1 + s))
        top = g0[1]
        bottom = g0[0] * c + g0[1]
        if not (0 < bottom and top < c):
            continue
        width = _rational(rng, Fraction(1, 64), Fraction(1, 16), 64)
        v_hi = bottom
        v_lo = bottom - width
        if not 0 < v_lo:
            continue
        s1 = Fraction(rng.randint(1, 4), 32)
        g1 = (-s1, v_lo + s1 * c)
        tail_min = g1[0] + g1[1]
        if not 0 < tail_min < v_lo:
            continue
        try:
            F = Multifunction.build(0, 1,
                pieces=[(0, c, *g0), (c, 1, *g1)],
                jumps=[(c, (v_lo, v_hi))])
        except MfError:
            continue
        if F.validate().ok and intensity(F).value == 1:
            return F
    raise RuntimeError("could not generate a decreasing self-pair target")
