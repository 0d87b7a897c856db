"""One proof walk per built root (``core._prove_root``).

``verify_root`` proves fⁿ = F by carrying each branch of F through f, and
``_finish`` reads the root's monotonicity from the same walk.  Reports and
outcomes must be those of validating f in full, composing fⁿ and proving
it (``iterate`` and ``prove_equivalent``), as before the walk.
"""

import dataclasses
import random
import sys
import types
from fractions import Fraction as Q
from pathlib import Path

import pytest

import mfroots as mf
from mfroots import builder, core
from mfroots.builder import RootArtifact, VerificationReport, verify_root
from mfroots.core import (
    Branch,
    EquivalenceConfig,
    Multifunction,
    _prove_root,
    equivalent,
    iterate,
    prove_equivalent,
)
from mfroots.errors import MfError, NoExactProofError
from mfroots.maps import AffineMap, GenericMap, GluedMap, compose_maps
from mfroots.scalar_roots import (
    ScalarRootSeed,
    _SeedMap,
    evaluation_cache,
    increasing_nth_root,
)

import test_proof

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import workloads  # noqa: E402


def composed_report(f, F, n, cfg=EquivalenceConfig()) -> VerificationReport:
    """``verify_root`` as it read before the walk: fⁿ composed, then
    compared or proved."""
    fn = iterate(f, n)
    if fn.is_exact and F.is_exact:
        eq = equivalent(fn, F, cfg)
    else:
        try:
            eq = prove_equivalent(fn, F)
        except NoExactProofError as exc:
            eq = equivalent(fn, F, cfg)
            eq = dataclasses.replace(eq, reason=f"{eq.reason} ({exc})")
    return VerificationReport(eq.equal, eq.exact, eq.max_deviation, eq.worst_point,
                              eq.reason)


def composed_finish(F, f, n) -> VerificationReport:
    """``_finish`` as it read before the walk: full validation first."""
    with evaluation_cache():
        report = f.validate()
        if not report.ok:
            raise MfError(f"constructed root fails validation: {report.summary()}")
        verification = composed_report(f, F, n)
    if not verification.passed:
        raise MfError(f"constructed root fails verification: {verification}")
    return verification


def run(call) -> tuple:
    """(outcome, error): the outcome is ("ok", result, its repr) or
    ("error", type, text), and error the exception raised, or None."""
    try:
        result = call()
    except Exception as exc:  # every error is an outcome
        return ("error", type(exc), str(exc)), exc
    return ("ok", result, repr(result)), None


def attempt(call) -> tuple:
    return run(call)[0]


def replay(outcome, error):
    """The result of the call ``run`` made, or its error raised again."""
    if error is not None:
        raise error
    return outcome[1]


# ---------------------------------------------------------------------------
# the build sets: the census of ROADMAP.md and the benchmark's roots blocks
# ---------------------------------------------------------------------------

def census(odd: bool):
    """The census targets' builds as calls: ``random.Random(1)``, draws of
    ``gen.monotone_increasing`` with 1 to 4 jumps kept at intensity 1, 80
    of them; the odd census composes each draw with x ↦ 1 − x."""
    reflection = Multifunction.build(0, 1, pieces=[(0, 1, -1, 1)])
    rng = random.Random(1)
    kept = 0
    while kept < 80:
        F = gen.monotone_increasing(rng, rng.randint(1, 4))
        if odd:
            F = core.compose(reflection, F)
        if mf.structure.intensity(F).value != 1:
            continue
        kept += 1
        if odd:
            k = rng.choice([3, 5])
            yield lambda F=F, k=k: builder.build_decreasing_odd_root(F, k)
        else:
            n = rng.choice([2, 3])
            yield lambda F=F, n=n: builder.build_increasing_root(F, n)
            yield lambda F=F: builder.build_decreasing_square_root(F)


def roots_blocks(seed, tmp_path):
    lib = types.SimpleNamespace(builder=builder)
    return [op.call for block in workloads.Roots(lib, seed, tmp_path).blocks for op in block]


@pytest.mark.parametrize("which", ["census", "odd-census", "roots-1", "roots-2", "roots-3"])
def test_reports_and_outcomes_are_those_of_composing(which, tmp_path, monkeypatch):
    if which.startswith("roots"):
        calls = roots_blocks(int(which[-1]), tmp_path)
    else:
        calls = list(census(which == "odd-census"))
    real_verify, real_finish = builder.verify_root, builder._finish
    walked, composed = [], []

    def verify(f, F, n):
        got, error = run(lambda: real_verify(f, F, n))
        want = attempt(lambda: composed_report(f, F, n))
        assert got == want
        # every exact proof that passes comes from the walk
        if want[0] == "ok" and want[1].passed and want[1].detail.startswith("exact proof"):
            walked.append(_prove_root(f, F, n))
        return replay(got, error)

    def finish(F, realized, n, *rest):
        got, error = run(lambda: real_finish(F, realized, n, *rest))
        want = attempt(lambda: composed_finish(F, realized, n))
        if got[0] == "ok":
            assert want[0] == "ok" and got[1].verification == want[1]
            assert repr(got[1].verification) == want[2]
        else:
            assert got == want
        composed.append(want)
        return replay(got, error)

    monkeypatch.setattr(builder, "verify_root", verify)
    monkeypatch.setattr(builder, "_finish", finish)
    for call in calls:
        attempt(call)
    assert composed and walked and None not in walked


# ---------------------------------------------------------------------------
# every mutation of TestMutations reports as composing does
# ---------------------------------------------------------------------------

def mutation_cases():
    cls = test_proof.TestMutations
    for name in sorted(vars(cls)):
        if not name.startswith("test_"):
            continue
        marks = [m for m in getattr(getattr(cls, name), "pytestmark", [])
                 if m.name == "parametrize"]
        if not marks:
            yield pytest.param(name, {}, id=name)
            continue
        names = [a.strip() for a in marks[0].args[0].split(",")]
        for values in marks[0].args[1]:
            values = values if isinstance(values, tuple) else (values,)
            yield pytest.param(name, dict(zip(names, values)),
                               id="-".join([name, *map(str, values)]))


@pytest.mark.parametrize("name,kwargs", mutation_cases())
def test_mutated_roots_report_as_composing(name, kwargs, monkeypatch):
    not_passed = test_proof.assert_not_passed
    checked = []

    def compare(f, F, n):
        got = attempt(lambda: verify_root(f, F, n))
        assert got == attempt(lambda: composed_report(f, F, n))
        checked.append(got)
        not_passed(f, F, n)

    monkeypatch.setattr(test_proof, "assert_not_passed", compare)
    getattr(test_proof.TestMutations(), name)(**kwargs)
    assert checked


# ---------------------------------------------------------------------------
# a passing build composes no iterate and proves its monotonicity once
# ---------------------------------------------------------------------------

def generic(art) -> bool:
    return any(not isinstance(br.map, AffineMap) for br in art.realized.branches)


@pytest.mark.parametrize("kind", ["inc", "sq", "odd"])
def test_a_passing_build_composes_nothing_and_walks_once(kind, monkeypatch):
    counts = {"iterate": 0, "prove_monotone": 0, "walks": 0}
    inside = []
    real_iterate, real_monotone, real_walk = builder.iterate, core._prove_monotone, core._root_walk
    real_verify = builder.verify_root

    def counting(name, fn):
        def wrapped(*args):
            if name != "iterate" or inside:
                counts[name] += 1
            return fn(*args)
        return wrapped

    def verify(f, F, n):
        inside.append(1)
        try:
            return real_verify(f, F, n)
        finally:
            inside.pop()

    monkeypatch.setattr(builder, "iterate", counting("iterate", real_iterate))
    monkeypatch.setattr(core, "_prove_monotone", counting("prove_monotone", real_monotone))
    monkeypatch.setattr(core, "_root_walk", counting("walks", real_walk))
    monkeypatch.setattr(builder, "verify_root", verify)
    built = 0
    for seed in range(6):
        before = dict(counts)
        F, n, art = test_proof.build(kind, seed, 2 + seed % 2)
        if not (isinstance(art, RootArtifact) and generic(art)):
            continue
        built += 1
        v = art.verification
        assert v.passed and v.exact and v.detail.startswith("exact proof over"), v
        assert counts["iterate"] == before["iterate"]
        assert counts["prove_monotone"] == before["prove_monotone"]
        assert counts["walks"] == before["walks"] + 1
    assert built


def test_reversed_seed_piece_fails_validation_as_before():
    # the square root of x ↦ x/4 with its top seed piece turned about:
    # the text is the one validate() gave before the walk
    phi = increasing_nth_root(AffineMap(Q(1, 4), 0), 0, 1, 2,
                              ScalarRootSeed(anchor=1, divisions=(Q(3, 4),)))
    root = phi.forward
    (lo, hi, m), *rest = root.seed.pieces
    turned = AffineMap(-m.slope, m.slope * (lo + hi) + m.intercept)
    root.seed = root.partner.seed = _SeedMap([(lo, hi, turned), *rest])
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC, (Branch(0, 1, phi),), ())
    F = Multifunction.build(0, 1, [(0, 1, Q(1, 4), 0)])
    assert _prove_root(f, F, 2) is None
    with pytest.raises(MfError) as exc:
        builder._finish(F, f, 2, "increasing", "inc", {})
    assert str(exc.value) == ("constructed root fails validation: "
                              "monotonicity at 5/12: branch not strictly monotone")


# ---------------------------------------------------------------------------
# hand-built roots: a jump of F inside a branch of f, and a gap the first
# map of a chain leaves where it is affine
# ---------------------------------------------------------------------------

def stitched_root(right):
    """f on [0, 1] with one jump, at 1/2: the glued map with knot 1/4 that
    takes x + 1/4 below it and ``right`` above it on (0, 1/2), and
    x/4 + 3/4 on (1/2, 1).  f sends 1/4 onto its jump, so f² jumps at 1/4
    inside f's first branch."""
    glued = GluedMap((Q(1, 4),), (AffineMap(1, Q(1, 4)), right))
    return Multifunction(mf.ClosedInterval(0, 1), mf.INC,
                         (Branch(0, Q(1, 2), glued), Branch(Q(1, 2), 1, AffineMap(Q(1, 4), Q(3, 4)))),
                         (mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(5, 8), Q(7, 8))),))


STITCHED_SQUARE = Multifunction.build(
    0, 1, [(0, Q(1, 4), Q(1, 2), Q(1, 2)), (Q(1, 4), Q(1, 2), Q(1, 8), Q(27, 32)),
           (Q(1, 2), 1, Q(1, 16), Q(15, 16))],
    [(Q(1, 4), (Q(5, 8), Q(7, 8))), (Q(1, 2), (Q(29, 32), Q(31, 32)))])


def test_walks_meet_across_a_jump_of_F_inside_a_branch_of_f(monkeypatch):
    f = stitched_root(AffineMap(Q(1, 2), Q(3, 8)))
    F = STITCHED_SQUARE
    assert f.jump_at(Q(1, 4)) is None and F.jump_at(Q(1, 4)) is not None
    assert f.validate().ok
    want = composed_report(f, F, 2)
    assert want.passed and want.exact, want
    assert _prove_root(f, F, 2) is not None
    monkeypatch.setattr(builder, "iterate", None)  # no composing on this path
    monkeypatch.setattr(core, "_prove_monotone", None)  # nor a second proof
    assert verify_root(f, F, 2) == want
    art = builder._finish(F, f, 2, "increasing", "inc", {})
    assert art.verification == want


def test_stepping_back_at_the_jump_of_F_is_refused():
    # the glued map restarts below its knot value 1/2: W(1/4+) = 3/8
    f = stitched_root(AffineMap(Q(1, 2), Q(1, 4)))
    F = STITCHED_SQUARE
    assert _prove_root(f, F, 2) is None
    summary = f.validate().summary()
    assert summary.startswith("monotonicity at 1/4: branch not strictly monotone")
    with pytest.raises(MfError) as exc:
        builder._finish(F, f, 2, "increasing", "inc", {})
    assert str(exc.value) == f"constructed root fails validation: {summary}"


def gapped_root():
    """(f, F, first map, gap): decreasing f with a jump at 1/2, 1 − O(x) on
    (0, 1/2), where the orbit root O of x ↦ x/4 on [0, 1/2] is x/2, and
    1 − x on (1/2, 1), glued at 3/4; F = f² is x/2 and x/2 + 1/2.  On
    (1/2, 1) the chain's pieces accumulate at 1, where its second map O
    accumulates at f(1) = 0, so the walk stops short of 1, and leaves the
    gap (15/16, 1) where the glued first map is affine."""
    O = increasing_nth_root(AffineMap(Q(1, 4), 0), 0, Q(1, 2), 2,
                            ScalarRootSeed(anchor=Q(1, 2), divisions=(Q(1, 4),)))
    assert isinstance(O, GenericMap) and O(Q(1, 3)) == Q(1, 6)
    flip = AffineMap(-1, 1)
    glued = GluedMap((Q(3, 4),), (flip, flip))
    f = Multifunction(mf.ClosedInterval(0, 1), mf.DEC,
                      (Branch(0, Q(1, 2), compose_maps(flip, O)), Branch(Q(1, 2), 1, glued)),
                      (mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(1, 2), Q(3, 4))),))
    F = Multifunction.build(0, 1, [(0, Q(1, 2), Q(1, 2), 0), (Q(1, 2), 1, Q(1, 2), Q(1, 2))],
                            [(Q(1, 2), (Q(1, 4), Q(3, 4)))])
    return f, F, glued, (Q(15, 16), 1)


@pytest.mark.parametrize("reflected", [False, True], ids=["gap-below-1", "gap-above-0"])
def test_gap_before_an_accumulation_point_of_a_later_map_is_refused(reflected, monkeypatch):
    # the gap's monotonicity is left to validate(), and fⁿ = F to composing
    f, F, first, gap = gapped_root()
    if reflected:  # the gap then lies above the cell 0, below the span
        f, F = f.reflected(), F.reflected()
        first, gap = f.branches[0].map, (0, 1 - gap[0])
    assert f.validate().ok
    want = composed_report(f, F, 2)
    assert want.passed and want.exact, want
    asked = []
    affine_germ = core._affine_germ
    monkeypatch.setattr(core, "_affine_germ", lambda W, z, side: asked.append(
        (W, z, side, affine_germ(W, z, side))) or asked[-1][3])
    assert _prove_root(f, F, 2) is None
    cell = (gap[0], 1) if reflected else (gap[1], -1)
    assert asked[-1] == (first, *cell, True)
    assert verify_root(f, F, 2) == want
    art = builder._finish(F, f, 2, "decreasing", "dec", {})
    assert art.verification == want


# ---------------------------------------------------------------------------
# roots and targets the walk must refuse, and report as composing does
# ---------------------------------------------------------------------------

def end_on_jump():
    """f sends the domain end 0 onto its jump at 1/2, so f² jumps at 0;
    the target has f²'s branches and its jump at 1/2, but none at 0."""
    lifted = GluedMap((Q(1, 4),), (AffineMap(Q(1, 2), Q(1, 2)),) * 2)
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC,
                      (Branch(0, Q(1, 2), lifted), Branch(Q(1, 2), 1, AffineMap(Q(1, 4), Q(3, 4)))),
                      (mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(3, 4), Q(7, 8))),))
    F = Multifunction.build(0, 1, [(0, Q(1, 2), Q(1, 8), Q(7, 8)), (Q(1, 2), 1, Q(1, 16), Q(15, 16))],
                            [(Q(1, 2), (Q(15, 16), Q(31, 32)))])
    return f, F, 2


def jump_at_an_end():
    """f (n = 1) jumps at the domain end 0, where the target does not."""
    half = GluedMap((Q(1, 2),), (AffineMap(Q(1, 2), Q(1, 4)),) * 2)
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC, (Branch(0, 1, half),),
                      (mf.JumpPoint(0, mf.ValueSet.interval(0, Q(1, 4))),))
    return f, Multifunction.build(0, 1, [(0, 1, Q(1, 2), Q(1, 4))]), 1


def image_across_a_jump():
    """f carries (0, 1/2) across its jump at 1/2; the target takes the
    first branch's map on past the jump, as if f had none."""
    shifted = GluedMap((Q(1, 4),), (AffineMap(1, Q(1, 4)),) * 2)
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC,
                      (Branch(0, Q(1, 2), shifted), Branch(Q(1, 2), 1, AffineMap(Q(1, 4), Q(3, 4)))),
                      (mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(3, 4), Q(7, 8))),))
    F = Multifunction.build(0, 1, [(0, Q(1, 2), 1, Q(1, 2)), (Q(1, 2), 1, Q(1, 16), Q(15, 16))],
                            [(Q(1, 2), (Q(15, 16), Q(31, 32)))])
    return f, F, 2


def nudged_target_jump():
    """A built root, and its target with one jump value moved by 2^-40."""
    F, n, art = test_proof.build("inc", 0, 2)
    jp = F.jumps[0]
    c = jp.value.components[0]
    moved = mf.ValueSet((mf.ClosedInterval(c.lo + test_proof.DELTA, c.hi),
                         *jp.value.components[1:]))
    G = Multifunction(F.domain, F.orientation, F.branches,
                      (mf.JumpPoint(jp.location, moved), *F.jumps[1:]))
    return art.realized, G, n


def nudged_target_branch():
    """A built root, and its target with its last branch map moved by
    2^-40."""
    F, n, art = test_proof.build("sq", 0)
    br = F.branches[-1]
    nudged = Branch(br.lo, br.hi, test_proof.nudge(br.map))
    G = Multifunction(F.domain, F.orientation, (*F.branches[:-1], nudged), F.jumps)
    return art.realized, G, n


@pytest.mark.parametrize("case", [end_on_jump, jump_at_an_end, image_across_a_jump,
                                  nudged_target_jump, nudged_target_branch])
def test_targets_the_walk_refuses(case):
    f, F, n = case()
    assert f.validate().ok
    report = verify_root(f, F, n)
    assert not report.passed and _prove_root(f, F, n) is None
    assert attempt(lambda: verify_root(f, F, n)) == attempt(lambda: composed_report(f, F, n))


def test_inexact_target_is_left_to_composing():
    F, n, art = test_proof.build("inc", 0, 2)
    floats = tuple(mf.JumpPoint(jp.location, mf.ValueSet(tuple(
        mf.ClosedInterval(float(c.lo), float(c.hi)) for c in jp.value.components)))
        for jp in F.jumps)
    G = Multifunction(F.domain, F.orientation, F.branches, floats)
    assert not G.is_exact and _prove_root(art.realized, G, n) is None
    got = attempt(lambda: verify_root(art.realized, G, n))
    assert got == attempt(lambda: composed_report(art.realized, G, n))
    assert got[0] == "ok" and not got[1].exact


def test_branch_against_its_orientation_fails_validation_as_before():
    # a map declared increasing that decreases: f² is the identity, so
    # composing and proving passes; validation does not
    flip = GluedMap((Q(1, 2),), (AffineMap(-1, 1), AffineMap(-1, 1)))
    lie = GenericMap(mf.INC, flip, flip.inverse, ("lie",), flip)
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC, (Branch(0, 1, lie),), ())
    F = Multifunction.build(0, 1, [(0, 1, 1, 0)])
    assert composed_report(f, F, 2).passed and verify_root(f, F, 2).passed
    assert _prove_root(f, F, 2) is None
    with pytest.raises(MfError) as exc:
        builder._finish(F, f, 2, "increasing", "inc", {})
    assert str(exc.value) == ("constructed root fails validation: "
                              "monotonicity at 1/6: branch not strictly monotone")


def test_branch_declaring_the_wrong_orientation_fails_validation_as_before():
    # an increasing glued map presented as decreasing
    glued = GluedMap((Q(1, 2),), (AffineMap(Q(1, 2), 0), AffineMap(Q(1, 2), 0)))
    f = Multifunction(mf.ClosedInterval(0, 1), mf.INC,
                      (Branch(0, 1, GenericMap(mf.DEC, glued, glued.inverse, ("dec",), glued)),), ())
    F = Multifunction.build(0, 1, [(0, 1, Q(1, 4), 0)])
    assert _prove_root(f, F, 2) is None
    with pytest.raises(MfError) as exc:
        builder._finish(F, f, 2, "increasing", "inc", {})
    assert str(exc.value) == ("constructed root fails validation: "
                              "orientation at 0: branch map orientation disagrees")


def test_jump_value_off_its_limits_fails_validation_as_before():
    # the stitched root with its jump value cut to [5/8, 13/16], below the
    # right limit 7/8, and the target that f² then is
    f = stitched_root(AffineMap(Q(1, 2), Q(3, 8)))
    f = Multifunction(f.domain, f.orientation, f.branches,
                      (mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(5, 8), Q(13, 16))),))
    F = Multifunction(STITCHED_SQUARE.domain, mf.INC, STITCHED_SQUARE.branches,
                      (mf.JumpPoint(Q(1, 4), mf.ValueSet.interval(Q(5, 8), Q(13, 16))),
                       mf.JumpPoint(Q(1, 2), mf.ValueSet.interval(Q(29, 32), Q(61, 64)))))
    assert composed_report(f, F, 2).passed
    assert _prove_root(f, F, 2) is None
    with pytest.raises(MfError) as exc:
        builder._finish(F, f, 2, "increasing", "inc", {})
    assert str(exc.value) == ("constructed root fails validation: usc at 1/2: max of jump "
                              "value is 13/16, adjacent limit is 7/8")
