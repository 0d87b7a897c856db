"""Golden output of ``mfroots root`` on every tests/data/*.mf file.

Each case records the exit code, stdout (with the recipe path replaced
by ``<recipe>``), stderr and the written ``.mfr`` recipe, for orders 2
and 3 and both monotonicity requests.  Regenerate the golden file only
for a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write

``golden/cli_root_grid.json`` keeps the output from before lazy roots
were verified exactly, when every root over a lazy map was checked on a
grid; the two files may differ only where such a root became exact.
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
        assert {f: v for f, v in old.items() if f != "stdout"} == \
            {f: v for f, v in new.items() if f != "stdout"}, key
        old_lines, new_lines = old["stdout"].splitlines(), new["stdout"].splitlines()
        assert len(old_lines) == len(new_lines), key
        diff = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
        if diff:
            changed[key] = diff
    assert sorted(changed) == sorted(BECAME_EXACT)
    for key, diff in changed.items():
        order = key.split("--order ")[1][0]
        assert diff == [(f"verified: order {order}, grid maxdev 0.000e+00",
                         f"verified: order {order}, exact")], key
    # float-backed roots stay on the grid
    for key, case in golden.items():
        if "grid maxdev" in case["stdout"]:
            assert "maxdev 0.000e+00" not in case["stdout"], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {case_id(*c): run_case(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
