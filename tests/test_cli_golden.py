"""Golden output of ``mfroots root`` on every tests/data/*.mf file.

Each case records the exit code, stdout (with the recipe path replaced
by ``<recipe>``), stderr and the written ``.mfr`` recipe, for orders 2
and 3 and both monotonicity requests.  Regenerate the golden file only
for a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {case_id(*c): run_case(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
