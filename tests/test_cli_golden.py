"""Golden output of ``mfroots root`` on every tests/data/*.mf file.

Each case records the exit code, stdout (with the recipe path replaced
by ``<recipe>``), stderr and the written ``.mfr`` recipe, for orders 2
and 3 and both monotonicity requests.  Regenerate the golden file only
for a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write

``golden/cli_root_grid.json`` keeps the output from before lazy roots
were verified exactly, when every root over a lazy map was checked on a
grid, and irrational slope roots were float-backed closed forms; the two
files may differ only where such a root became exact.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mfroots.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "cli_root.json"
GRID_GOLDEN = Path(__file__).parent / "golden" / "cli_root_grid.json"
# lazy roots over rational data: proved exactly, they were grid-checked
BECAME_EXACT = ("root absorbing_target --order 3 --monotone inc",
                "root dec_cube_root --order 3 --monotone dec",
                "root endpoint_target --order 2 --monotone inc",
                "root endpoint_target --order 3 --monotone inc")
# irrational slope roots: the float closed form gave way to the exact
# orbit root, with other preview values and recipe
BECAME_ORBIT = ("root square_target --order 3 --monotone inc",
                "root tail_jump_target --order 2 --monotone inc",
                "root tail_jump_target --order 3 --monotone inc")
CASES = [(path.stem, order, monotone)
         for path in sorted(DATA.glob("*.mf"))
         for order in (2, 3)
         for monotone in ("inc", "dec")]


def case_id(stem: str, order: int, monotone: str) -> str:
    return f"root {stem} --order {order} --monotone {monotone}"


def run_case(stem: str, order: int, monotone: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        recipe = Path(tmp) / "root.mfr"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["root", str(DATA / f"{stem}.mf"), "--order", str(order),
                         "--monotone", monotone, "-o", str(recipe)])
        written = recipe.read_text(encoding="utf-8") if recipe.exists() else None
        return {"code": code,
                "stdout": out.getvalue().replace(str(recipe), "<recipe>"),
                "stderr": err.getvalue(),
                "mfr": written}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("stem,order,monotone", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_root_output_matches_golden(golden, stem, order, monotone):
    assert run_case(stem, order, monotone) == golden[case_id(stem, order, monotone)]


def test_only_lazy_rational_roots_became_exact(golden):
    grid = json.loads(GRID_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(grid) == sorted(golden)
    changed = {}
    for key in grid:
        old, new = grid[key], golden[key]
        kept = ("code", "stderr") if key in BECAME_ORBIT else ("code", "stderr", "mfr")
        assert {f: old[f] for f in kept} == {f: new[f] for f in kept}, key
        old_lines, new_lines = old["stdout"].splitlines(), new["stdout"].splitlines()
        assert len(old_lines) == len(new_lines), key
        diff = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
        if diff:
            changed[key] = diff
    assert sorted(changed) == sorted(BECAME_EXACT + BECAME_ORBIT)
    for key, diff in changed.items():
        order = key.split("--order ")[1][0]
        verified = f"verified: order {order}, exact"
        if key in BECAME_EXACT:
            assert diff == [(f"verified: order {order}, grid maxdev 0.000e+00",
                             verified)], key
            continue
        # the verified line, then preview values at the same points and jumps
        (old_verified, new_verified), *values = diff
        assert old_verified.startswith(f"verified: order {order}, grid maxdev "), key
        assert new_verified == verified, key
        for a, b in values:
            assert a.split()[:-1] == b.split()[:-1], key
        assert "affine_real_root" in grid[key]["mfr"], key
        assert "orbit_root" in golden[key]["mfr"], key
    # every root is verified exactly
    for key, case in golden.items():
        assert "grid maxdev" not in case["stdout"], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {case_id(*c): run_case(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
