"""Root assembly, certificates, verification, and diagnostics."""

import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots import builder, maps
from mfroots.builder import (
    Certificate,
    RootArtifact,
    build_decreasing_odd_root,
    build_decreasing_square_root,
    build_increasing_root,
    certify_nonexistence,
    j3_chain_report,
    rebuild_from_recipe,
    recheck_certificate,
    verify_root,
)
from mfroots.errors import (
    ConditionJStarViolatedError,
    IncompatiblePatternError,
    MfError,
    NonCompactJumpValueError,
    NotExclusiveError,
    OutOfDomainError,
    StructureError,
    UnsupportedCaseError,
)
from mfroots.scalar_roots import ScalarRootSeed

from conftest import (
    absorbing_target,
    chain_target,
    dec_cube_root,
    dec_cube_target,
    dec_simple_target,
    endpoint_target,
    growth_target,
    j3_root,
    j3_target,
    j4_root,
    j4_target,
    noncompact_value,
    random_dec_selfpair_target,
    random_direct_routed,
    random_reversing_pair_target,
    square_root_mf,
    square_target,
    tail_jump_target,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


class TestIncreasingBuilder:
    def test_absorbing_target_exact_root(self):
        art = build_increasing_root(absorbing_target(), 2)
        assert isinstance(art, RootArtifact)
        assert art.verification.passed and art.verification.exact
        maps = [br.map for br in art.realized.branches]
        assert maps[0] == mf.AffineMap(Q(1, 2), 0)
        assert maps[1] == mf.AffineMap(Q(1, 8), Q(5, 16))
        assert art.realized.jumps[0].value == mf.ValueSet.interval("1/4", "3/8")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_absorbing_target_higher_orders(self, n):
        art = build_increasing_root(absorbing_target(), n)
        assert art.verification.passed
        assert art.verification.max_deviation <= 1e-9

    def test_tail_jump_value(self):
        art = build_increasing_root(tail_jump_target(), 2)
        value = art.realized.jumps[0].value
        # the exact orbit root of x/3 sends 1 to 2/3
        assert value.min_value == Q(2, 3)
        assert value.max_value == 1
        assert art.verification.passed and art.verification.exact

    def test_noncompact_rejected(self):
        with pytest.raises(NonCompactJumpValueError):
            build_increasing_root(noncompact_value(), 2)

    def test_j3_low_order_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            build_increasing_root(j3_target(), 2)

    def test_j3_high_order_certificate(self):
        cert = build_increasing_root(j3_target(), 4)
        assert isinstance(cert, Certificate)
        assert cert.rule == "J3OrderBound"
        assert cert.witnesses["m"] == 3 and cert.witnesses["ell"] == 1
        assert recheck_certificate(cert, j3_target())

    def test_j4_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            build_increasing_root(j4_target(), 2)

    def test_not_exclusive_rejected(self):
        with pytest.raises(NotExclusiveError):
            build_increasing_root(growth_target(), 2)

    def test_routing_infeasible_certificate(self):
        cert = build_increasing_root(chain_target(), 2)
        assert isinstance(cert, Certificate)
        assert cert.rule == "RoutingInfeasible"
        assert cert.witnesses["sound_nonexistence"] is True
        assert recheck_certificate(cert, chain_target())

    def test_endpoint_infeasible_with_forcing_seed(self):
        # the canonical seed dodges the jump; this one hits it exactly
        cert = build_increasing_root(endpoint_target(), 2,
                                     seed=ScalarRootSeed(divisions=(Q(1, 4),)))
        assert isinstance(cert, Certificate)
        assert cert.rule == "EndpointInfeasible"
        assert cert.witnesses["image"] == Q(1, 2)
        assert recheck_certificate(cert, endpoint_target())

    def test_endpoint_target_default_seed_builds(self):
        art = build_increasing_root(endpoint_target(), 2)
        assert isinstance(art, RootArtifact) and art.verification.passed

    def test_splitting_pipeline_on_square_target(self):
        # interior fixed points force splitting; both diagonal sides occur
        art = build_increasing_root(square_target(), 2)
        assert isinstance(art, RootArtifact)
        assert art.verification.passed
        f = art.realized
        assert f(Q(1, 6)) == mf.ValueSet.point(Q(1, 6))
        assert f(Q(5, 6)) == mf.ValueSet.point(Q(5, 6))
        V = f(Q(1, 2))
        assert V.min_value < Q(1, 2) < V.max_value

    def test_custom_seed_root_differs_but_verifies(self):
        art = build_increasing_root(absorbing_target(), 2,
                                    seed=ScalarRootSeed(divisions=(Q(5, 16),)))
        assert art.verification.passed
        assert art.realized.branches[0].map != mf.AffineMap(Q(1, 2), 0)


class TestDecreasingSquareBuilder:
    def test_reproduces_published_root_with_seed(self):
        art = build_decreasing_square_root(square_target(),
                                           seed=ScalarRootSeed(affine=(-1, 1)))
        assert isinstance(art, RootArtifact)
        assert art.verification.exact and art.verification.passed
        assert mf.equivalent(art.realized, square_root_mf()).equal

    def test_default_seed_also_roots(self):
        art = build_decreasing_square_root(square_target())
        assert art.verification.passed
        assert mf.equivalent(mf.iterate(art.realized, 2), square_target()).equal

    def test_single_interval_without_fixed_point_rejected(self):
        with pytest.raises(IncompatiblePatternError):
            build_decreasing_square_root(absorbing_target())

    def test_self_pairing_with_interior_fixed_point(self):
        # one invariant interval whose branch crosses the diagonal inside;
        # the second interval extends through the pairing's inverse
        F = mf.Multifunction.build(0, 1,
            pieces=[(0, "1/2", "1/4", "1/8"), ("1/2", 1, "1/8", "1/4")],
            jumps=[("1/2", ("1/4", "5/16"))])
        assert F.validate().ok
        art = build_decreasing_square_root(F)
        assert art.verification.passed
        assert art.verification.max_deviation == 0.0

    def test_jump_isolation_closed_reading(self):
        # the jump's own location may sit on the boundary of the root value
        # (the open-interval reading would reject this very case)
        F = square_target()
        art = build_decreasing_square_root(F)
        jump_value = art.realized.jumps[0].value
        assert jump_value.min_value <= Q(1, 2) <= jump_value.max_value
        assert jump_value == mf.ValueSet.interval("1/4", "1/2")


class TestDecreasingOddBuilder:
    def test_exact_cube_root(self):
        art = build_decreasing_odd_root(dec_cube_target(), 3)
        assert isinstance(art, RootArtifact)
        assert art.verification.exact and art.verification.passed
        assert mf.equivalent(art.realized, dec_cube_root()).equal

    def test_even_order_certificate(self):
        cert = build_decreasing_odd_root(dec_cube_target(), 2)
        assert isinstance(cert, Certificate)
        assert cert.rule == "DecreasingNoEvenRoot"
        assert recheck_certificate(cert, dec_cube_target())

    def test_jump_free_involution(self):
        F = mf.Multifunction.build(0, 1, pieces=[(0, 1, -1, 1)])
        art = build_decreasing_odd_root(F, 3)
        assert art.verification.passed
        assert art.realized.branches[0].map == mf.AffineMap(-1, 1)

    def test_order_five(self):
        art = build_decreasing_odd_root(dec_cube_target(), 5)
        assert art.verification.passed
        assert art.verification.max_deviation <= 1e-9

    def test_degenerate_limits_rejected(self):
        # swapping target whose branch limits pinch the jump: no root exists
        with pytest.raises((IncompatiblePatternError, ConditionJStarViolatedError)):
            build_decreasing_odd_root(dec_simple_target(), 3)

    def test_end_image_outside_the_domain_is_a_bad_root(self):
        # the built root sends 0 to 1631/1536: a bad root, not bad input
        F = mf.Multifunction.build(0, 1,
            pieces=[(0, "1/128", "-91/2", "133/256"),
                    ("1/128", 1, "-8/127", "1913/16256")],
            jumps=[("1/128", ("15/128", "21/128"))])
        with pytest.raises(IncompatiblePatternError,
                           match="domain end 0 to 1631/1536 at power 1"):
            build_decreasing_odd_root(F, 3)


class TestRealize:
    """The jump realization on hand-made affine root maps: its refusals,
    which no census build reaches."""

    @staticmethod
    def realize(F, coefficients, n=2):
        return builder._realize(F, [mf.AffineMap(Q(s), Q(t)) for s, t in coefficients], n)

    @staticmethod
    def halves(value):
        """x/2 on [0, 1/2) and x/2 + 1/2 on (1/2, 1], with F(1/2) = ``value``."""
        return mf.Multifunction.build(0, 1,
            pieces=[(0, "1/2", "1/2", 0), ("1/2", 1, "1/2", "1/2")],
            jumps=[("1/2", value)])

    def test_j2_value_of_two_components(self):
        F = self.halves([("1/4", "3/8"), ("1/2", "3/4")])
        with pytest.raises(NonCompactJumpValueError):
            self.realize(F, [(-1, 1), (-1, 1)])

    def test_j2_at_the_end_of_a_decreasing_root(self):
        F = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)],
                                   jumps=[(1, ("1/2", 1))])
        with pytest.raises(UnsupportedCaseError, match="boundary 1 for a decreasing root"):
            self.realize(F, [(-1, 1)])

    def test_root_continuous_at_the_jump(self):
        F = self.halves(("1/4", "3/4"))
        with pytest.raises(ConditionJStarViolatedError, match="do not leave a gap"):
            self.realize(F, [(-1, 1), (-1, 1)])

    def test_limits_cover_another_jump(self):
        F = mf.Multifunction.build(0, 1,
            pieces=[(0, "1/4", "1/2", 0), ("1/4", "1/2", "1/4", "5/16"),
                    ("1/2", 1, "17/16", "-1/16")],
            jumps=[("1/4", ("1/8", "3/8")), ("1/2", ("7/16", "15/32"))])
        with pytest.raises(ConditionJStarViolatedError, match="covers jumps"):
            self.realize(F, [(-1, 1), ("-1/2", "1/4"), ("-1/8", "1/8")])

    def test_collapsed_pullback(self):
        # F's own maps send both ends of F(3/4) back to 3/4
        F = mf.Multifunction.build(0, 1,
            pieces=[(0, "3/4", "1/3", 0), ("3/4", 1, 2, -1)],
            jumps=[("3/4", ("1/4", "1/2"))])
        with pytest.raises(UnsupportedCaseError,
                           match="pulls back to the point 3/4; a root without a jump"):
            self.realize(F, [("1/3", 0), (2, -1)])


class TestCertify:
    def test_parity_rules(self):
        c = certify_nonexistence(dec_simple_target(), 2, "any")
        assert c.rule == "DecreasingNoEvenRoot"
        assert "DecreasingNoContinuousSquareRoot" in c.also
        c = certify_nonexistence(dec_simple_target(), 4, "any")
        assert c.rule == "DecreasingNoEvenRoot"
        c = certify_nonexistence(square_target(), 3, "dec")
        assert c.rule == "IncreasingNoOddDecreasingRoot"
        assert recheck_certificate(c, square_target())

    def test_unique_jump_intensity(self):
        for n in (2, 3, 5):
            c = certify_nonexistence(growth_target(), n, "any")
            assert c.rule == "UniqueJumpIntensity"
            assert recheck_certificate(c, growth_target())

    def test_intensity_order_bound(self):
        # two jumps, intensity 2: orders above the jump count are barred
        F = growth_target()
        F2 = mf.compose(F, F)
        assert len(F2.jump_locations) == 2
        # build a two-jump intensity-2 example directly
        G = mf.Multifunction.build(0, 1,
            pieces=[(0, "1/2", "1/4", "1/4"), ("1/2", "7/8", "1/4", "5/16"),
                    ("7/8", 1, "1/4", "23/64")],
            jumps=[("1/2", ("3/8", "7/16")), ("7/8", ("17/32", "37/64"))])
        assert G.validate().ok
        assert mf.intensity(G).value > 1
        c = certify_nonexistence(G, 3, "any")
        assert c.rule == "IntensityOrderBound"
        assert recheck_certificate(c, G)

    def test_j3_bound(self):
        c = certify_nonexistence(j3_target(), 4, "inc")
        assert c.rule == "J3OrderBound"
        assert c.witnesses == {"m": 3, "ell": 1, "n": 4, "jump": 1}
        assert certify_nonexistence(j3_target(), 2, "inc") is None

    def test_theorem_rule_fires_for_decreasing_exclusive_order_two(self):
        for F in (dec_simple_target(), dec_cube_target()):
            c = certify_nonexistence(F, 2, "any")
            rules = {c.rule, *c.also}
            assert "DecreasingNoContinuousSquareRoot" in rules

    def test_inconclusive_cases(self):
        assert certify_nonexistence(square_target(), 2, "any") is None
        assert certify_nonexistence(absorbing_target(), 2, "inc") is None
        assert certify_nonexistence(dec_cube_target(), 3, "any") is None


class TestVerify:
    def test_published_roots(self):
        assert verify_root(square_root_mf(), square_target(), 2).exact
        assert verify_root(j3_root(), j3_target(), 2).exact
        assert verify_root(j4_root(), j4_target(), 2).exact
        assert verify_root(dec_cube_root(), dec_cube_target(), 3).exact

    def test_perturbed_root_fails(self):
        f = j3_root()
        broken = mf.Multifunction(
            f.domain, f.orientation,
            (mf.Branch(f.branches[0].lo, f.branches[0].hi,
                       mf.AffineMap(Q(51, 100), 0)),) + f.branches[1:],
            f.jumps)
        report = verify_root(broken, j3_target(), 2)
        assert not report.passed

    def test_wrong_order_fails(self):
        assert not verify_root(square_root_mf(), square_target(), 3).passed


class TestJ3Chain:
    def test_fixture_chain(self):
        rep = j3_chain_report(j3_root(), j3_target(), 2)
        assert rep.jump == 1
        assert rep.S == ((Q(3, 4),), (Q(1, 2),))
        assert rep.pairwise_distinct and rep.inclusions_ok
        assert rep.reaches_absorbing

    def test_requires_j3_case(self):
        from mfroots.errors import NotAJumpError
        art = build_increasing_root(absorbing_target(), 2)
        with pytest.raises(NotAJumpError):
            j3_chain_report(art.realized, absorbing_target(), 2)


class TestRecipes:
    def test_replay_increasing_bitwise(self):
        from mfroots.io import recipe_to_json, serialize_mf
        art = build_increasing_root(absorbing_target(), 2)
        art2 = rebuild_from_recipe(absorbing_target(), art.recipe)
        assert recipe_to_json(art.recipe) == recipe_to_json(art2.recipe)
        assert serialize_mf(art.realized) == serialize_mf(art2.realized)

    def test_replay_generic_root(self):
        art = build_increasing_root(absorbing_target(), 3)
        art2 = rebuild_from_recipe(absorbing_target(), art.recipe)
        xs = [Q(i, 173) for i in range(1, 173)]
        for x in xs:
            assert art.realized(x) == art2.realized(x)

    def test_replay_decreasing(self):
        from mfroots.io import serialize_mf
        art = build_decreasing_square_root(square_target(),
                                           seed=ScalarRootSeed(affine=(-1, 1)))
        art2 = rebuild_from_recipe(square_target(), art.recipe)
        assert serialize_mf(art.realized) == serialize_mf(art2.realized)

    def test_replay_decreasing_odd(self):
        from mfroots.io import recipe_to_json, serialize_mf
        art = build_decreasing_odd_root(dec_cube_target(), 3)
        art2 = rebuild_from_recipe(dec_cube_target(), art.recipe)
        assert recipe_to_json(art.recipe) == recipe_to_json(art2.recipe)
        assert serialize_mf(art.realized) == serialize_mf(art2.realized)


class TestJumpFreeTargets:
    def test_exact_scalar_case(self):
        F = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/4", 0)])
        art = build_increasing_root(F, 2)
        assert art.verification.exact
        assert art.realized.branches[0].map == mf.AffineMap(Q(1, 2), 0)

    def test_irrational_scalar_case(self):
        F = mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/2", 0)])
        art = build_increasing_root(F, 2)
        assert art.verification.passed
        assert art.verification.max_deviation <= 1e-9

    def test_jump_free_not_j3(self):
        from mfroots.errors import NotAJumpError
        art = build_increasing_root(
            mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/4", 0)]), 2)
        with pytest.raises(NotAJumpError):
            j3_chain_report(art.realized,
                            mf.Multifunction.build(0, 1, pieces=[(0, 1, "1/4", 0)]), 2)

    def test_j4_target_has_no_j3_chain(self):
        from mfroots.errors import NotAJumpError
        with pytest.raises(NotAJumpError):
            j3_chain_report(j4_root(), j4_target(), 2)


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=2, max_value=3))
    def test_random_direct_routed_builds(self, seed, n):
        F = random_direct_routed(random.Random(seed))
        outcome = build_increasing_root(F, n)
        assert isinstance(outcome, RootArtifact)
        assert outcome.verification.passed
        assert outcome.realized.validate().ok

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_random_reversing_pairs_square_root(self, seed):
        from conftest import random_reversing_pair_target
        F = random_reversing_pair_target(random.Random(seed))
        outcome = build_decreasing_square_root(F)
        assert isinstance(outcome, RootArtifact)
        rep = outcome.verification
        assert rep.passed and (rep.exact or rep.max_deviation <= 1e-9)
        assert outcome.realized.orientation is mf.DEC
        assert outcome.realized.validate().ok

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000),
           st.sampled_from([3, 5]))
    def test_random_decreasing_odd_roots(self, seed, k):
        from conftest import random_dec_selfpair_target
        F = random_dec_selfpair_target(random.Random(seed))
        outcome = build_decreasing_odd_root(F, k)
        assert isinstance(outcome, RootArtifact)
        rep = outcome.verification
        assert rep.passed and (rep.exact or rep.max_deviation <= 1e-9)
        assert outcome.realized.validate().ok


class TestPlantedSample:
    """Targets F = fⁿ with a known root f (ROADMAP's planted census): no
    builder may deny the root, and a refusal is a construction's typed
    error, never one that reports bad input."""

    DRAWS = 120

    @staticmethod
    def build(f, F, n):
        if f.orientation is mf.INC:
            return build_increasing_root(F, n)
        if n == 2:
            return build_decreasing_square_root(F)
        return build_decreasing_odd_root(F, 3)

    def test_no_denial_and_no_input_error(self):
        reflection = mf.Multifunction.build(0, 1, pieces=[(0, 1, -1, 1)])
        rng = random.Random(11)
        wrong = []
        for i in range(self.DRAWS):
            f = gen.monotone_increasing(rng, rng.randint(1, 4))
            if i % 2:
                f = mf.compose(reflection, f)
            for n in (2, 3):
                F = mf.iterate(f, n)
                if mf.intensity(F).value != 1:
                    continue
                cert = certify_nonexistence(F, n, f.orientation.value)
                if cert is not None:
                    wrong.append((i, n, cert.text()))
                try:
                    outcome = self.build(f, F, n)
                except (StructureError, OutOfDomainError) as exc:
                    wrong.append((i, n, repr(exc)))
                    continue
                except MfError:
                    continue
                if isinstance(outcome, Certificate):
                    wrong.append((i, n, outcome.text()))
                elif not (outcome.verification.passed and outcome.verification.exact):
                    wrong.append((i, n, repr(outcome.verification)))
        assert wrong == []


class CountingCache:
    """Stands for ``maps._EVALUATIONS`` and counts the caches opened."""

    def __init__(self, var):
        self.var, self.opened = var, 0

    def get(self):
        return self.var.get()

    def set(self, memo):
        self.opened += 1
        return self.var.set(memo)

    def reset(self, token):
        self.var.reset(token)


class TestOneCachePerBuild:
    """A build opens the evaluation cache once: its construction's probes
    and ``_finish``'s proof read one memo, which is dropped when the build
    returns or raises."""

    def watch(self, monkeypatch, names):
        counter = CountingCache(maps._EVALUATIONS)
        monkeypatch.setattr(maps, "_EVALUATIONS", counter)
        seen = []
        for name in names:
            def spied(*args, real=getattr(builder, name), name=name, **kwargs):
                seen.append((name, counter.get()))
                return real(*args, **kwargs)
            monkeypatch.setattr(builder, name, spied)
        return counter, seen

    @pytest.mark.parametrize("kind", ["square", "odd"])
    def test_decreasing_builds(self, kind, monkeypatch):
        probes = ("_realize", "_end_orbit_hit", "_finish", "verify_root")
        counter, seen = self.watch(monkeypatch, probes)
        if kind == "square":
            art = build_decreasing_square_root(random_reversing_pair_target(random.Random(0)))
        else:
            art = build_decreasing_odd_root(random_dec_selfpair_target(random.Random(0)), 3)
        assert art.verification.passed and art.verification.exact
        assert {name for name, _ in seen} == set(probes)
        memo = seen[0][1]
        assert memo and all(m is memo for _, m in seen)
        assert counter.opened == 1 and maps._EVALUATIONS.get() is None

    def test_increasing_build(self, monkeypatch):
        probes = ("_build_piece_increasing", "_finish", "verify_root")
        counter, seen = self.watch(monkeypatch, probes)
        assert build_increasing_root(absorbing_target(), 3).verification.exact
        assert [name for name, _ in seen] == list(probes)
        assert seen[0][1] is not None and all(m is seen[0][1] for _, m in seen)
        assert counter.opened == 1 and maps._EVALUATIONS.get() is None

    def test_dropped_when_the_build_raises(self, monkeypatch):
        counter, seen = self.watch(monkeypatch, ("_end_orbit_hit",))

        def failing(f, F, n):
            assert maps._EVALUATIONS.get() is seen[0][1]
            raise mf.errors.MfError("verification failed")

        monkeypatch.setattr(builder, "verify_root", failing)
        with pytest.raises(mf.errors.MfError, match="verification failed"):
            build_decreasing_square_root(random_reversing_pair_target(random.Random(0)))
        assert counter.opened == 1 and maps._EVALUATIONS.get() is None
