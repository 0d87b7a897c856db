"""Exact-first roots: an irrational slope root has no float closed form, so
every root the builders make over rational affine data is built by the
orbit engine or an exact closed form, proved exactly, and validated from
its witnesses without sampling."""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

import mfroots as mf
from mfroots.builder import (
    RootArtifact,
    build_decreasing_odd_root,
    build_decreasing_square_root,
    build_increasing_root,
    rebuild_from_recipe,
)
from mfroots.errors import IncompatiblePatternError, MfError
from mfroots.io import load_mf, recipe_from_json, recipe_to_json
from mfroots.maps import AffineMap, GenericMap
from mfroots.scalar_roots import DEFAULT_SEED, _increasing_root_auto, odd_swap_maps


DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
STEMS = sorted(path.stem for path in DATA.glob("*.mf"))
# the recipes these cases wrote held float closed forms (affine_real_root)
FLOAT_RECIPES = ("root square_target --order 3 --monotone inc",
                 "root tail_jump_target --order 2 --monotone inc",
                 "root tail_jump_target --order 3 --monotone inc")


def assert_exact(art):
    assert art.verification.passed and art.verification.exact, art.verification
    assert art.realized.validate().sampled == ()


def pipelines(F):
    """The builds ``mfroots root`` runs on F at orders 2 and 3."""
    if F.orientation is mf.INC:
        return [lambda: build_increasing_root(F, 2),
                lambda: build_increasing_root(F, 3),
                lambda: build_decreasing_square_root(F)]
    return [lambda: build_decreasing_odd_root(F, 3)]


@pytest.mark.parametrize("stem", STEMS)
def test_fixture_roots_are_exact(stem):
    for build in pipelines(load_mf(DATA / f"{stem}.mf")):
        try:
            outcome = build()
        except MfError:
            continue
        if isinstance(outcome, RootArtifact):
            assert_exact(outcome)


def test_interior_repelling_irrational_root_raises():
    # x ↦ 3x − 1 repels from 1/2; √3 and ∛3 are irrational and the orbit
    # engine does not serve a repelling interior fixed point
    with pytest.raises(IncompatiblePatternError, match="interior repelling"):
        _increasing_root_auto(AffineMap(3, -1), 0, 1, 2, DEFAULT_SEED,
                              allow_interior=True)
    # the public entry point: A∘B = 3x − 1 on beta = [0, 1]
    with pytest.raises(IncompatiblePatternError, match="interior repelling"):
        odd_swap_maps(AffineMap(-3, 8), 2, 3, AffineMap(-1, 3), 0, 1, 3)


@pytest.mark.parametrize("pieces,jump,anchor", [
    # one invariant interval (c, 1] bounded by the jump c; the other branch
    # maps into it, so its values are pulled back through the self pairing
    ([(0, "11/128", "4/11", "35/256"), ("11/128", 1, "95/117", "1529/14976")],
     ("11/128", ("43/256", "11/64")), Q(35, 256)),
    ([(0, "39/128", "5/13", "137/256"), ("39/128", 1, "2/89", "18089/22784")],
     ("39/128", ("167/256", "205/256")), Q(137, 256)),
])
def test_self_pairing_keeps_the_top_off_the_jump(pieces, jump, anchor):
    """The default self pairing sends 1 onto the interval's lower end, a
    jump, so 1's orbit would land on it; the build sends 1 to the lowest
    value pulled back through the interval instead."""
    F = mf.Multifunction.build(0, 1, pieces, [jump])
    art = build_decreasing_square_root(F)
    assert isinstance(art, RootArtifact), art
    assert_exact(art)  # proved through the glue of psi and its inverse
    (psi,) = [br.map for br in art.realized.branches
              if isinstance(br.map, GenericMap) and br.map.recipe[0] == "self_pair_sqrt"]
    # over affine data psi is its seed segment, glued to its inverse after g
    assert [type(m) for m in psi.witness.pieces] == [AffineMap, AffineMap]
    assert art.realized(1).singleton_value() == anchor
    assert art.recipe.payload["seed"] is None
    again = rebuild_from_recipe(F, art.recipe)
    assert recipe_to_json(again.recipe) == recipe_to_json(art.recipe)


@pytest.mark.parametrize("key", FLOAT_RECIPES)
def test_float_recipe_replays_to_the_exact_orbit_root(key):
    """A recipe written while irrational slope roots were float closed
    forms replays to the orbit root that the build makes now."""
    old = json.loads((GOLDEN / "cli_root_grid.json").read_text(encoding="utf-8"))[key]
    new = json.loads((GOLDEN / "cli_root.json").read_text(encoding="utf-8"))[key]
    assert "affine_real_root" in old["mfr"]
    F = load_mf(DATA / f"{key.split()[1]}.mf")
    art = rebuild_from_recipe(F, recipe_from_json(old["mfr"]))
    assert_exact(art)
    assert recipe_to_json(art.recipe) == new["mfr"]
