"""File formats: .mf round-trips and parse errors, .mfr recipes."""

import contextlib
import io
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import mfroots as mf
from mfroots.builder import build_increasing_root
from mfroots.cli import main
from mfroots.errors import InvalidMultifunctionError, MfError, ParseError
from mfroots.io import (
    load_mf,
    parse_mf,
    recipe_from_json,
    recipe_to_json,
    serialize_mf,
)

from conftest import DATA, data_path, square_target


ALL_FIXTURE_FILES = sorted(p.name for p in DATA.glob("*.mf"))


class TestParse:
    @pytest.mark.parametrize("name", ALL_FIXTURE_FILES)
    def test_fixture_files_parse_and_validate(self, name):
        F = load_mf(data_path(name))
        assert F.validate().ok

    def test_square_target_matches_programmatic(self):
        F = load_mf(data_path("square_target.mf"))
        assert mf.equivalent(F, square_target()).equal

    def test_finite_set_jump_value(self):
        F = load_mf(data_path("noncompact_value.mf"))
        V = F(1)
        assert len(V.components) == 2
        assert V.components[0].lo == Q(3, 32)

    def test_round_trip_identity_on_canonical_form(self):
        for name in ALL_FIXTURE_FILES:
            F = load_mf(data_path(name))
            text = serialize_mf(F)
            assert serialize_mf(parse_mf(text)) == text

    def test_overlapping_branches_rejected(self):
        text = "\n".join([
            "domain 0 1",
            "monotone inc",
            "branch 0 1/2 affine 1/4 1/8",
            "branch 1/4 1 affine 1/4 5/8",
        ])
        with pytest.raises(ParseError):
            parse_mf(text)

    def test_invalid_multifunction_forwarded(self):
        text = "\n".join([
            "domain 0 1",
            "monotone inc",
            "branch 0 1/2 affine 1/4 1/32",
            "jump 1/2 [1/4,3/4]",
            "branch 1/2 1 affine 1/4 5/8",
        ])
        with pytest.raises(InvalidMultifunctionError):
            parse_mf(text)

    def test_malformed_scalar(self):
        with pytest.raises(ParseError) as err:
            parse_mf("domain 0 x\nmonotone inc\nbranch 0 1 affine 1 0")
        assert err.value.line_no == 1

    def test_malformed_valueset(self):
        text = "domain 0 1\nmonotone inc\nbranch 0 1 affine 1/3 0\njump 1 [1/3;1]"
        with pytest.raises(ParseError):
            parse_mf(text)

    def test_comments_and_blank_lines_ignored(self):
        text = ("# header\n\ndomain 0 1\n# note\nmonotone inc\n"
                "branch 0 1 affine 1/2 0\n")
        F = parse_mf(text)
        assert F.validate().ok

    @pytest.mark.parametrize("line", [
        "branch 0 1 affine 1/0 0",
        "branch 0 1 affine 1/2 0/0",
        "branch 0 1/0 affine 1/2 0",
    ])
    def test_zero_denominator_is_a_parse_error(self, line):
        with pytest.raises(ParseError) as err:
            parse_mf(f"domain 0 1\nmonotone inc\n{line}")
        assert err.value.line_no == 3
        assert "zero denominator" in err.value.reason

    def test_zero_denominator_in_value_set(self):
        with pytest.raises(ParseError) as err:
            parse_mf("domain 0 1\nmonotone inc\nbranch 0 1 affine 1/3 0\n"
                     "jump 1 [1/3,1/0]")
        assert err.value.line_no == 4

    @pytest.mark.parametrize("lines, line_no, reason", [
        (["domain 0 1", "monotone inc", "branch 0 1 affine 1/2 0", "jump 2 [0,1]"],
         4, "jump outside domain"),
        (["domain 0 1", "monotone inc", "jump 1/2 [1/8,1/4]",
          "branch 0 1/2 affine 1/4 0", "jump 1/2 [1/8,1/4]", "branch 1/2 1 affine 1/4 1/8"],
         5, "jumps must be strictly increasing"),
        (["domain 0 1", "monotone inc", "branch 0 1/2 affine 1/4 1/8",
          "branch 1/4 1 affine 1/4 5/8"],
         3, "do not tile"),
        (["domain 1 1", "monotone inc", "branch 0 1 affine 1 0"],
         1, "domain must be nondegenerate"),
        # nothing on one line is wrong when a branch is missing
        (["domain 0 1", "monotone inc", "branch 0 1/2 affine 1/4 0", "jump 1/2 [1/8,1/4]"],
         0, "do not tile"),
    ])
    def test_whole_file_errors_name_the_offending_line(self, lines, line_no, reason):
        with pytest.raises(ParseError) as err:
            parse_mf("\n".join(lines))
        assert err.value.line_no == line_no
        assert reason in err.value.reason

    def test_generic_root_refuses_mf_serialization(self):
        art = build_increasing_root(load_mf(data_path("absorbing_target.mf")), 3)
        with pytest.raises(MfError):
            serialize_mf(art.realized)


class TestRecipes:
    def test_recipe_json_round_trip(self):
        art = build_increasing_root(load_mf(data_path("absorbing_target.mf")), 2)
        text = recipe_to_json(art.recipe)
        back = recipe_from_json(text)
        assert back == art.recipe
        assert recipe_to_json(back) == text

    def test_recipe_rejects_foreign_json(self):
        with pytest.raises(MfError):
            recipe_from_json('{"format": "something-else"}')


_FIXTURE_LINES = {name: (DATA / name).read_text(encoding="utf-8").splitlines()
                  for name in ALL_FIXTURE_FILES}
_SCALARS = ["0", "1", "-1", "1/2", "3/4", "2", "1/0", "0/0", "-1/3", "1e3", "x",
            "99999999999999999999/3"]
_TOKENS = _SCALARS + ["", "[", "]", "[0,1]", "[1,0]", "[1/2,1/2]", "[0,1/0]",
                      "[0,1/4],[1/2,1]", "affine", "jump", "branch", "domain",
                      "monotone", "inc", "dec", "#"]


@st.composite
def mutated_mf(draw):
    """A fixture file with a few line-level edits: drop, duplicate, swap
    or truncate lines, replace one whitespace-separated token, or replace
    one numeric field with a hostile scalar."""
    lines = list(_FIXTURE_LINES[draw(st.sampled_from(ALL_FIXTURE_FILES))])
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["scalar", "drop", "dup", "swap", "truncate", "token"]))
        numeric = [k for k, f in enumerate(lines[i].split()) if f[0] in "-0123456789"]
        if op == "scalar" and numeric:
            fields = lines[i].split()
            fields[draw(st.sampled_from(numeric))] = draw(st.sampled_from(_SCALARS))
            lines[i] = " ".join(fields)
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            fields = lines[i].split() or [""]
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestHostileInput:
    @settings(max_examples=300, deadline=None)
    @given(mutated_mf())
    def test_parse_raises_only_library_errors(self, text):
        try:
            parse_mf(text)
        except MfError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(mutated_mf())
    def test_analyze_exits_typed(self, fuzz_dir, text):
        path = fuzz_dir / "mutant.mf"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        assert code in (0, 3)
        assert "Traceback" not in err.getvalue()
        assert (code == 3) == err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("data, line_no", [(b"\xff\xfe", 1),
                                               (b"domain 0 1\nmonotone inc\n\xff\n", 3)])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys, data, line_no):
        path = tmp_path / "latin.mf"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="latin.mf is not UTF-8") as info:
            load_mf(path)
        assert info.value.line_no == line_no
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: ") and "latin.mf" in err
