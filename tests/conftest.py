"""Shared fixtures: the worked multifunctions and random generators."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from mfroots import Multifunction, intensity
from mfroots.maps import ComposedMap, GenericMap, GluedMap
from mfroots.scalar_roots import _OrbitMap

# deterministic example generation keeps runtimes stable across runs
settings.register_profile(
    "suite", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


def data_path(name: str) -> str:
    return str(DATA / name)


# ---------------------------------------------------------------------------
# canonical fixtures (programmatic twins of tests/data/*.mf)
# ---------------------------------------------------------------------------

def square_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", "1/8"), ("1/2", 1, "1/4", "5/8")],
        jumps=[("1/2", ("1/4", "3/4"))])


def square_root_mf() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", -1, 1), ("1/2", 1, "-1/4", "3/8")],
        jumps=[("1/2", ("1/4", "1/2"))])


def noncompact_value() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/16", 0), ("1/2", 1, "1/16", "1/32")],
        jumps=[("1/2", ("1/32", "1/16")), (1, [("3/32", "3/32"), (1, 1)])])


def j3_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", 0), ("1/2", "3/4", "1/6", "1/12"),
                ("3/4", 1, "4/15", "2/15")],
        jumps=[("1/2", ("1/8", "1/6")), ("3/4", ("5/24", "1/3")),
               (1, ("2/5", "1/2"))])


def j3_root() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/2", 0), ("1/2", "3/4", "1/3", "1/6"),
                ("3/4", 1, "4/5", "-1/10")],
        jumps=[("1/2", ("1/4", "1/3")), ("3/4", ("5/12", "1/2")),
               (1, ("7/10", "3/4"))])


def j4_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", 0), ("1/2", 1, "1/6", "1/12")],
        jumps=[("1/2", ("1/8", "1/6")), (1, ("1/4", 1))])


def j4_root() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/2", 0), ("1/2", 1, "1/3", "1/6")],
        jumps=[("1/2", ("1/4", "1/3")), (1, ("1/2", 1))])


def absorbing_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", 0), ("1/2", 1, "1/16", "5/32")],
        jumps=[("1/2", ("1/8", "3/16"))])


def growth_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", "1/4"), ("1/2", 1, "1/4", "5/16")],
        jumps=[("1/2", ("3/8", "7/16"))])


def tail_jump_target() -> Multifunction:
    return Multifunction.build(0, 1, pieces=[(0, 1, "1/3", 0)],
                               jumps=[(1, ("1/3", 1))])


def dec_cube_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "3/4", "-1/8", "9/20"), ("3/4", 1, "-1/8", "69/160")],
        jumps=[("3/4", ("27/80", "57/160"))])


def dec_cube_root() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "3/4", "-1/2", "3/5"), ("3/4", 1, "-1/2", "21/40")],
        jumps=[("3/4", ("3/20", "9/40"))])


def chain_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", 0), ("1/2", "3/4", "1/4", "1/16"),
                ("3/4", 1, "1/4", "11/32")],
        jumps=[("1/2", ("1/8", "3/16")),
               ("3/4", [("1/4", "1/4"), ("17/32", "17/32")])])


def endpoint_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "1/4", 0), ("1/2", 1, "1/8", "1/8")],
        jumps=[("1/2", ("1/8", "3/16"))])


def dec_simple_target() -> Multifunction:
    return Multifunction.build(0, 1,
        pieces=[(0, "1/2", "-1/2", "3/4"), ("1/2", 1, "-1/2", "5/8")],
        jumps=[("1/2", ("3/8", "1/2"))])


# ---------------------------------------------------------------------------
# random generators (deterministic via a seeded Random instance)
# ---------------------------------------------------------------------------

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


def random_monotone_increasing(rng: random.Random, max_jumps: int = 5) -> Multifunction:
    """Random valid increasing multifunction with interval-valued jumps;
    usc is built in by deriving jump values from the adjacent limits."""
    m = rng.randint(1, max_jumps)
    cuts = _increasing_rationals(rng, m, Fraction(0), Fraction(1))
    bounds = [Fraction(0), *cuts, Fraction(1)]
    # strictly increasing value profile: 2 endpoint values per piece
    profile = _increasing_rationals(rng, 2 * (m + 1), Fraction(0), Fraction(1), 256)
    pieces = []
    jumps = []
    for i in range(m + 1):
        lo, hi = bounds[i], bounds[i + 1]
        y0, y1 = profile[2 * i], profile[2 * i + 1]
        slope = (y1 - y0) / (hi - lo)
        pieces.append((lo, hi, slope, y0 - slope * lo))
        if i < m:
            jumps.append((bounds[i + 1], (y1, profile[2 * i + 2])))
    return Multifunction.build(0, 1, pieces, jumps)


def random_direct_routed(rng: random.Random, max_jumps: int = 3) -> Multifunction:
    """Random exclusive increasing multifunction satisfying the diagonal
    hypothesis with every interval feeding the absorbing one directly;
    every build of an increasing root must succeed on it."""
    m = rng.randint(1, max_jumps)
    cuts = _increasing_rationals(rng, m, Fraction(1, 4), Fraction(1))
    bounds = [Fraction(0), *cuts, Fraction(1)]
    c1 = cuts[0]
    lam = Fraction(rng.randint(1, 7), 16)
    pieces = [(Fraction(0), c1, lam, Fraction(0))]
    top = lam * c1
    # later branches map into (top, c1) with strictly increasing values
    profile = _increasing_rationals(rng, 2 * m, top, c1, 512)
    jumps = []
    prev_end = top
    for i in range(m):
        lo, hi = bounds[i + 1], bounds[i + 2]
        y0, y1 = profile[2 * i], profile[2 * i + 1]
        slope = (y1 - y0) / (hi - lo)
        pieces.append((lo, hi, slope, y0 - slope * lo))
        jumps.append((lo, (prev_end, y0)))
        prev_end = y1
    F = Multifunction.build(0, 1, pieces, jumps)
    assert F.validate().ok
    return F


def random_with_intensity(rng: random.Random, target: int) -> Multifunction:
    """Exclusive-or-not fixtures with intensity exactly 1, 2 or 3, built
    from controlled crossing chains through the single jump at 1/2."""
    if target == 1:
        return random_direct_routed(rng)
    half = Fraction(1, 2)
    for _ in range(500):
        lam = Fraction(rng.randint(1, 7), 16)
        if target == 2:
            s = Fraction(rng.randint(2, 30), 32)  # in (0, 1)
            t = half - s * Fraction(3, 4)         # crossing at 3/4
        else:
            # send x2 -> x1 -> 1/2 with the next preimage escaping
            x1 = half + Fraction(rng.randint(2, 12), 64)
            x2 = x1 + Fraction(rng.randint(2, 12), 64)
            if x2 >= 1:
                continue
            s = (x1 - half) / (x2 - x1)
            t = half - s * x1
        lo_lim = lam * half
        hi_lim = s * half + t
        if not lo_lim < hi_lim or not 0 < s + t <= 1 or t < 0:
            continue
        try:
            F = Multifunction.build(0, 1,
                pieces=[(0, half, lam, 0), (half, 1, s, t)],
                jumps=[(half, (lo_lim, hi_lim))])
        except Exception:
            continue
        if F.validate().ok and intensity(F).value == target:
            return F
    raise AssertionError(f"could not generate intensity-{target} fixture")


def random_reversing_pair_target(rng: random.Random) -> Multifunction:
    """Increasing target with two invariant intervals around a central
    jump whose value straddles it: the shape that admits decreasing
    square roots through a cross pairing."""
    half = Fraction(1, 2)
    for _ in range(200):
        p0 = _rational(rng, Fraction(1, 8), Fraction(3, 8), 32)
        p1 = _rational(rng, Fraction(5, 8), Fraction(7, 8), 32)
        lam0 = Fraction(rng.randint(2, 12), 16)
        lam1 = Fraction(rng.randint(2, 12), 16)
        g0 = (lam0, p0 * (1 - lam0))
        g1 = (lam1, p1 * (1 - lam1))
        lo_lim = lam0 * half + g0[1]
        hi_lim = lam1 * half + g1[1]
        if not 0 < lo_lim < half < hi_lim < 1:
            continue
        F = Multifunction.build(0, 1,
            pieces=[(0, half, *g0), (half, 1, *g1)],
            jumps=[(half, (lo_lim, hi_lim))])
        if F.validate().ok and intensity(F).value == 1:
            return F
    raise AssertionError("could not generate a reversing-pair target")


def random_dec_selfpair_target(rng: random.Random, slope_16ths=None) -> Multifunction:
    """Decreasing target with one interval invariant under the square and
    a single jump avoiding the jump set: admits decreasing odd roots.  The
    first branch has slope -``slope_16ths``/16 (drawn from 1..6 if None)."""
    for _ in range(500):
        c = _rational(rng, Fraction(5, 8), Fraction(7, 8), 16)
        p = _rational(rng, Fraction(1, 4), c - Fraction(1, 8), 32)
        s = Fraction(slope_16ths or rng.randint(1, 6), 16)
        # branch on (0, c) fixing p with slope -s; must self-map [0, c]
        g0 = (-s, p * (1 + s))
        top = g0[0] * 0 + g0[1]
        bottom = g0[0] * c + g0[1]
        if not (0 < bottom and top < c):
            continue
        # jump value below the left branch's reach, then the tail branch
        width = _rational(rng, Fraction(1, 64), Fraction(1, 16), 64)
        v_hi = bottom
        v_lo = bottom - width
        if not 0 < v_lo:
            continue
        s1 = Fraction(rng.randint(1, 4), 32)
        g1 = (-s1, v_lo + s1 * c)
        tail_min = g1[0] * 1 + g1[1]
        if not 0 < tail_min < v_lo:
            continue
        try:
            F = Multifunction.build(0, 1,
                pieces=[(0, c, *g0), (c, 1, *g1)],
                jumps=[(c, (v_lo, v_hi))])
        except Exception:
            continue
        if F.validate().ok and intensity(F).value == 1:
            return F
    raise AssertionError("could not generate a decreasing self-pair target")


def lazy_objects(m):
    """The lazy construction objects behind a map, through compositions
    and glued maps."""
    if isinstance(m, _OrbitMap):
        yield m
    elif isinstance(m, ComposedMap):
        for a in m.maps:
            yield from lazy_objects(a)
    elif isinstance(m, GluedMap):
        for p in m.pieces:
            yield from lazy_objects(p)
    elif isinstance(m, GenericMap) and m.witness is not None:
        yield from lazy_objects(m.witness)


def compositions(m):
    """The composition chains in a map, through witnesses, compositions
    and glued maps, outermost first."""
    if isinstance(m, GenericMap):
        m = m.witness
    if isinstance(m, ComposedMap):
        yield m
    if isinstance(m, (ComposedMap, GluedMap)):
        for part in m.maps if isinstance(m, ComposedMap) else m.pieces:
            yield from compositions(part)


def staircase(count: int) -> Multifunction:
    """Increasing multifunction on [0, 1] with ``count`` interior jumps:
    with N = count + 1 and eps = 1/(4N²), branch i on (i/N, (i+1)/N) is
    x/2 + i·eps and the jump at i/N bridges its neighbours' limits.  Its
    jump set grows for about log2(count) rounds under iteration."""
    N = count + 1
    eps = Fraction(1, 4 * N * N)
    pieces = [(Fraction(i, N), Fraction(i + 1, N), Fraction(1, 2), i * eps)
              for i in range(N)]
    jumps = [(Fraction(i, N), (Fraction(i, 2 * N) + (i - 1) * eps,
                               Fraction(i, 2 * N) + i * eps))
             for i in range(1, N)]
    return Multifunction.build(0, 1, pieces, jumps)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
