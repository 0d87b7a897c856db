"""Jump sets, partitions, transition tables, intensity, absorbing data,
splitting, the diagonal hypothesis, and jump classification."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots.builder import RootArtifact, build_increasing_root
from mfroots.errors import (
    InexactCutError,
    NoSingleTargetError,
    NotAJumpError,
    NotIncreasingError,
)
from mfroots.scalar_roots import DEFAULT_SEED, MapPattern, _increasing_root_auto, map_pattern
from mfroots.structure import _below_diagonal, inclusion_fixed_points

from conftest import (
    absorbing_target,
    chain_target,
    growth_target,
    j3_target,
    j4_target,
    random_direct_routed,
    random_with_intensity,
    square_target,
    staircase,
)


class TestJumpSetPartition:
    def test_jump_set(self):
        assert mf.jump_set(j3_target()) == (Q(1, 2), Q(3, 4), Q(1))
        assert mf.jump_set(square_target()) == (Q(1, 2),)
        plain = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)])
        assert mf.jump_set(plain) == ()

    def test_partition_drops_trailing_empty(self):
        part = mf.partition(j3_target())
        assert [(iv.lo, iv.hi) for iv in part.intervals] == [
            (0, Q(1, 2)), (Q(1, 2), Q(3, 4)), (Q(3, 4), 1)]

    def test_partition_of_square_target(self):
        part = mf.partition(square_target())
        assert [(iv.lo, iv.hi) for iv in part.intervals] == [
            (0, Q(1, 2)), (Q(1, 2), 1)]

    def test_partition_without_jumps(self):
        plain = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)])
        assert [(iv.lo, iv.hi) for iv in mf.partition(plain).intervals] == [(0, 1)]


class TestTransitionTable:
    def test_square_target_self_maps(self):
        assert mf.transition_table(square_target()).delta == {0: 0, 1: 1}

    def test_absorbing_target_feeds_first(self):
        assert mf.transition_table(absorbing_target()).delta == {0: 0, 1: 0}

    def test_growth_target_straddles(self):
        with pytest.raises(NoSingleTargetError) as err:
            mf.transition_table(growth_target())
        assert err.value.interval_index == 1
        assert err.value.witness_jump == Q(1, 2)

    def test_chain_structure(self):
        assert mf.transition_table(chain_target()).delta == {0: 0, 1: 0, 2: 1}


class TestIntensity:
    def test_exclusive(self):
        z = mf.intensity(square_target())
        assert z.value == 1 and z.trace == (0, 1, 1)

    def test_growth_two(self):
        z = mf.intensity(growth_target())
        assert z.value == 2 and z.trace == (0, 1, 2, 2)

    def test_no_jumps(self):
        plain = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)])
        assert mf.intensity(plain).value == 0

    def test_cap_stands_in_for_unbounded_growth(self):
        # the jump's preimage cascade converges to the expanding branch's
        # fixed end and never stops producing new jumps
        F = mf.Multifunction.build(0, 1,
            pieces=[(0, "1/4", 2, 0), ("1/4", 1, "1/16", "35/64")],
            jumps=[("1/4", ("1/2", "9/16"))])
        assert F.validate().ok
        z = mf.intensity(F, cap=12)
        assert z.exceeded and z.value is None
        assert len(z.trace) == 14  # 0..cap+1 counts, strictly growing
        assert all(a < b for a, b in zip(z.trace, z.trace[1:]))
        from mfroots.builder import certify_nonexistence
        cert = certify_nonexistence(F, 2)
        assert cert.rule == "UniqueJumpIntensity"

    def test_trace_matches_iterate_oracle(self):
        # brute-force oracle: iterate explicitly and count jump points
        F = growth_target()
        z = mf.intensity(F)
        for k in range(1, len(z.trace) - 1):
            assert len(mf.iterate(F, k).jump_locations) == z.trace[k]

    def test_quotient_law_on_growth(self):
        F2 = mf.iterate(growth_target(), 2)
        assert mf.intensity(F2).value == 1  # ceil(2/2)


class TestInvariantAbsorbing:
    def test_square_target_both(self):
        assert mf.invariant_intervals(square_target()) == (0, 1)

    def test_absorbing_target_first(self):
        assert mf.invariant_intervals(absorbing_target()) == (0,)

    def test_j3_target_first(self):
        assert mf.invariant_intervals(j3_target()) == (0,)

    def test_not_increasing_rejected(self):
        Fd = mf.Multifunction.build(0, 1, pieces=[(0, 1, "-1/2", "3/4")])
        with pytest.raises(NotIncreasingError):
            mf.invariant_intervals(Fd)

    def test_absorbing_data_direct(self):
        ad = mf.absorbing_data(absorbing_target())
        assert ad.lambda_indices == (0,)
        assert ad.kappa == {0: 1, 1: 1}
        assert ad.ell == 1

    def test_absorbing_data_j3(self):
        assert mf.absorbing_data(j3_target()).ell == 1

    def test_absorbing_data_chain(self):
        ad = mf.absorbing_data(chain_target())
        assert ad.kappa[2] == 2 and ad.ell == 2
        assert ad.target == {0: 0, 1: 0, 2: 0}


class TestSplit:
    def test_square_target_cuts(self):
        res = mf.split_at_inclusion_fixed_points(square_target())
        assert res.cuts == (Q(1, 6), Q(1, 2), Q(5, 6))
        assert len(res.pieces) == 4
        # the jump value is clipped on each side of the middle cut
        left, right = res.pieces[1], res.pieces[2]
        assert left(Q(1, 2)) == mf.ValueSet.interval("1/4", "1/2")
        assert right(Q(1, 2)) == mf.ValueSet.interval("1/2", "3/4")
        for piece in res.pieces:
            assert piece.validate().ok

    def test_no_cuts(self):
        res = mf.split_at_inclusion_fixed_points(absorbing_target())
        assert res.cuts == () and len(res.pieces) == 1

    def test_strictly_below_diagonal_single_piece(self):
        F = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)])
        assert len(mf.split_at_inclusion_fixed_points(F).pieces) == 1

    def test_fixed_point_on_a_sample_is_exact(self):
        # the glued root of x ↦ x/3 + 1/3 fixes 1/2, a sample of the scan
        phi = _increasing_root_auto(mf.AffineMap(Q(1, 3), Q(1, 3)), 0, 1, 2,
                                    DEFAULT_SEED, allow_interior=True)
        assert not isinstance(phi, mf.AffineMap) and phi(Q(1, 2)) == Q(1, 2)
        F = mf.Multifunction(mf.ClosedInterval(0, 1), mf.INC, (mf.Branch(0, 1, phi),), ())
        assert inclusion_fixed_points(F) == [(Q(1, 2), True)]
        assert mf.split_at_inclusion_fixed_points(F).cuts == (Q(1, 2),)
        art = build_increasing_root(F, 2)
        assert isinstance(art, RootArtifact) and art.verification.passed, art


def opaque(forward):
    """An increasing branch map with no witness, which the structure layer
    can only sample; it takes no inverse."""
    return mf.GenericMap(mf.INC, forward, lambda y: pytest.fail("inverse taken"), ("opaque",))


def one_branch(m):
    return mf.Multifunction(mf.ClosedInterval(0, 1), mf.INC, (mf.Branch(0, 1, m),), ())


class TestSampledStructure:
    """A branch map without a witness is sampled, and a crossing of the
    diagonal between samples is bisected in floats; these pin the results."""

    def test_irrational_crossing(self):
        # x ↦ x²/2 + 1/4 fixes 1 − 1/√2, an attracting point
        g = opaque(lambda x: x * x / 2 + Q(1, 4))
        pattern = map_pattern(g, 0, 1)
        assert pattern == MapPattern("interior", 0.2928932188134525, attracting=True)
        assert math.isclose(pattern.fixed, 1 - 1 / math.sqrt(2))
        F = one_branch(g)
        assert inclusion_fixed_points(F) == [(0.2928932188134525, False)]
        with pytest.raises(InexactCutError, match=r"^fixed point near 0\.292893218813 "
                           "located by bisection only; the domain cannot be cut there exactly$"):
            mf.split_at_inclusion_fixed_points(F)

    def test_rational_crossing_off_the_samples(self):
        # x ↦ x/2 + 1/6 fixes 1/3, which neither scan samples: both return
        # floats, and the two bisections end on different ones
        g = opaque(lambda x: x / 2 + Q(1, 6))
        assert map_pattern(g, 0, 1) == MapPattern("interior", 0.33333333333333326,
                                                  attracting=True)
        assert inclusion_fixed_points(one_branch(g)) == [(0.3333333333333333, False)]

    def test_spot_check_finds_a_bump_the_scan_misses(self):
        # 999x/1000 plus a tent of height 1/5000 and slopes ±2/5 at 1/33 rises
        # above the diagonal only within 1/2000 of 1/33: between the scan's
        # samples 7/256 and 8/256, at the spot check's first point
        F = one_branch(opaque(lambda x: Q(999, 1000) * x
                              + max(Q(0), Q(1, 5000) - Q(2, 5) * abs(x - Q(1, 33)))))
        assert inclusion_fixed_points(F) == []
        assert _below_diagonal(F) == Q(1, 33)
        assert mf.hypothesis_H(F) == mf.HReport(False, False, Q(1, 33))


class TestHypothesis:
    def test_holds(self):
        assert mf.hypothesis_H(absorbing_target()).holds

    def test_needs_reflection(self):
        rep = mf.hypothesis_H(mf.reflect(absorbing_target()))
        assert not rep.holds and rep.needs_reflection

    def test_violation_witness(self):
        rep = mf.hypothesis_H(square_target())
        assert not rep.holds and not rep.needs_reflection
        assert rep.witness == Q(1, 6)


class TestClassify:
    def test_j3(self):
        cls = mf.classify_jump(j3_target(), 1)
        assert cls.kind == "J3" and cls.others == (Q(1, 2),) and cls.ell == 1

    def test_j4(self):
        cls = mf.classify_jump(j4_target(), 1)
        assert cls.kind == "J4" and cls.others == (Q(1, 2),)

    def test_j2(self):
        assert mf.classify_jump(square_target(), Q(1, 2)).kind == "J2"

    def test_j1(self):
        assert mf.classify_jump(absorbing_target(), Q(1, 2)).kind == "J1"

    def test_not_a_jump(self):
        with pytest.raises(NotAJumpError):
            mf.classify_jump(square_target(), Q(1, 4))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestIntensityLaws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_quotient_law(self, seed, target, i):
        F = random_with_intensity(random.Random(seed), target)
        zF = mf.intensity(F).value
        assert zF == target
        zFi = mf.intensity(mf.iterate(F, i)).value
        assert zFi == math.ceil(zF / i)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=3))
    def test_trace_stabilizes(self, seed, target):
        F = random_with_intensity(random.Random(seed), target)
        z = mf.intensity(F)
        assert all(a <= b for a, b in zip(z.trace, z.trace[1:]))
        assert z.trace[z.value] == z.trace[z.value + 1]
        # once stabilized, iterated jump sets stay put
        J_stable = set(mf.iterate(F, z.value).jump_locations)
        assert set(mf.iterate(F, z.value + 1).jump_locations) == J_stable

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_interval_exists(self, seed):
        F = random_direct_routed(random.Random(seed))
        assert mf.invariant_intervals(F)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_table_iff_exclusive_on_branches(self, seed):
        F = random_with_intensity(random.Random(seed), 2)
        with pytest.raises(NoSingleTargetError):
            mf.transition_table(F)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_absorbing_chain_distinct(self, seed):
        F = random_direct_routed(random.Random(seed))
        ad = mf.absorbing_data(F)
        table = mf.transition_table(F)
        for i in ad.kappa:
            seen = [i]
            j = i
            for _ in range(ad.kappa[i]):
                j = table.delta[j]
                if j in ad.lambda_indices:
                    break
                assert j not in seen
                seen.append(j)


class TestStaircaseScale:
    """Jump counts in the thousands: these finish in about a second only
    while each intensity round stays near-linear in the jump count."""

    def test_intensity_at_400_jumps(self):
        z = mf.intensity(staircase(400))
        assert z.value == 9
        assert z.trace == (0, 400, 600, 700, 750, 775, 787, 793, 796, 797, 797)

    def test_analyze_at_3000_jumps(self, tmp_path):
        from mfroots.cli import main
        from mfroots.io import save_mf
        path = tmp_path / "staircase.mf"
        save_mf(staircase(3000), path)
        assert main(["analyze", str(path)]) == 0
