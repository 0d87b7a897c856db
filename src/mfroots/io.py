"""Text formats: line-oriented .mf multifunction files and JSON .mfr
root recipes.  Files carry exact rationals only; parse∘serialize is the
identity on canonical form."""

from __future__ import annotations

import json
import re
from typing import List, Tuple

from .builder import RootRecipe
from .core import (
    Branch,
    ClosedInterval,
    JumpPoint,
    Multifunction,
    ValueSet,
)
from .errors import InvalidMultifunctionError, MfError, ParseError, StructureError
from .maps import AffineMap, DEC, INC
from .scalars import format_scalar, parse_scalar

_COMPONENT_RE = re.compile(r"\[([^\[\],]+),([^\[\],]+)\]")


def _parse_valueset(text: str, line_no: int) -> ValueSet:
    text = text.replace(" ", "")
    comps = []
    consumed = []
    for match in _COMPONENT_RE.finditer(text):
        try:
            lo = parse_scalar(match.group(1))
            hi = parse_scalar(match.group(2))
        except ValueError as exc:
            raise ParseError(line_no, str(exc))
        comps.append(ClosedInterval(lo, hi))
        consumed.append(match.group(0))
    if not comps or ",".join(consumed) != text:
        raise ParseError(line_no, f"malformed value set {text!r}")
    try:
        return ValueSet.from_intervals(comps)
    except StructureError as exc:
        raise ParseError(line_no, str(exc))


def _blame(domain_line: int, domain: ClosedInterval,
           branches: List[Tuple[int, Branch]],
           jumps: List[Tuple[int, JumpPoint]]) -> int:
    """Line of the first piece that the Multifunction constructor's check
    rejected, taking the checks in the constructor's order; 0 when no one
    line is at fault (a branch is missing)."""
    a, b = domain.lo, domain.hi
    if not a < b:
        return domain_line
    outside = [n for n, jp in jumps if not a <= jp.location <= b]
    if outside:
        return min(outside)
    repeated = [n for (_, p), (n, q) in zip(jumps, jumps[1:])
                if p.location >= q.location]
    if repeated:
        return min(repeated)
    cuts = [a] + [jp.location for _, jp in jumps] + [b]
    gaps = [(u, v) for u, v in zip(cuts, cuts[1:]) if u < v]
    for (n, br), gap in zip(branches, gaps):
        if (br.lo, br.hi) != gap:
            return n
    return branches[len(gaps)][0] if len(branches) > len(gaps) else 0


def parse_mf(text: str) -> Multifunction:
    """Parse and validate a multifunction description."""
    domain = None
    domain_line = 0
    orientation = None
    branches: List[Tuple[int, Branch]] = []  # (line number, piece)
    jumps: List[Tuple[int, JumpPoint]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "domain":
                if len(fields) != 3:
                    raise ParseError(line_no, "domain needs two scalars")
                domain = ClosedInterval(parse_scalar(fields[1]), parse_scalar(fields[2]))
                domain_line = line_no
            elif kind == "monotone":
                if len(fields) != 2 or fields[1] not in ("inc", "dec"):
                    raise ParseError(line_no, "monotone needs inc or dec")
                orientation = INC if fields[1] == "inc" else DEC
            elif kind == "branch":
                if len(fields) != 6 or fields[3] != "affine":
                    raise ParseError(line_no, "branch syntax: branch <lo> <hi> affine <slope> <intercept>")
                lo, hi = parse_scalar(fields[1]), parse_scalar(fields[2])
                slope, intercept = parse_scalar(fields[4]), parse_scalar(fields[5])
                if slope == 0:
                    raise ParseError(line_no, "branch slope must be nonzero")
                branches.append((line_no, Branch(lo, hi, AffineMap(slope, intercept))))
            elif kind == "jump":
                if len(fields) < 3:
                    raise ParseError(line_no, "jump syntax: jump <loc> <valueset>")
                loc = parse_scalar(fields[1])
                value = _parse_valueset("".join(fields[2:]), line_no)
                if value.is_singleton:
                    raise ParseError(line_no, "jump value must contain at least two points")
                jumps.append((line_no, JumpPoint(loc, value)))
            else:
                raise ParseError(line_no, f"unknown directive {kind!r}")
        except ValueError as exc:
            raise ParseError(line_no, str(exc))
        except StructureError as exc:
            raise ParseError(line_no, str(exc))
    if domain is None:
        raise ParseError(0, "missing domain line")
    if orientation is None:
        raise ParseError(0, "missing monotone line")
    branches.sort(key=lambda item: item[1].lo)
    jumps.sort(key=lambda item: item[1].location)
    try:
        F = Multifunction(domain, orientation, tuple(br for _, br in branches),
                          tuple(jp for _, jp in jumps))
    except StructureError as exc:
        raise ParseError(_blame(domain_line, domain, branches, jumps), str(exc))
    report = F.validate()
    if not report.ok:
        raise InvalidMultifunctionError(report)
    return F


def serialize_mf(F: Multifunction) -> str:
    """Canonical text form; exact (affine-rational) multifunctions only."""
    if not F.is_exact:
        raise MfError("only exact multifunctions serialize to .mf; "
                      "generic roots travel as recipes")
    lines = [
        f"domain {format_scalar(F.domain.lo)} {format_scalar(F.domain.hi)}",
        f"monotone {'inc' if F.orientation is INC else 'dec'}",
    ]
    for kind, obj in F._ordered_pieces():
        if kind == "branch":
            m = obj.map
            lines.append(
                f"branch {format_scalar(obj.lo)} {format_scalar(obj.hi)} "
                f"affine {format_scalar(m.slope)} {format_scalar(m.intercept)}")
        else:
            comps = ",".join(
                f"[{format_scalar(c.lo)},{format_scalar(c.hi)}]"
                for c in obj.value.components)
            lines.append(f"jump {format_scalar(obj.location)} {comps}")
    return "\n".join(lines) + "\n"


def load_mf(path) -> Multifunction:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(exc.object.count(b"\n", 0, exc.start) + 1,
                             f"{path} is not UTF-8 text: byte "
                             f"{exc.object[exc.start]:#04x} at offset {exc.start}") from None
    return parse_mf(text)


def save_mf(F: Multifunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_mf(F))


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def recipe_to_json(recipe: RootRecipe) -> str:
    obj = {
        "format": "mfroots-recipe-v1",
        "pipeline": recipe.pipeline,
        "order": recipe.order,
        "orientation": recipe.orientation,
        "payload": recipe.payload,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def recipe_from_json(text: str) -> RootRecipe:
    obj = json.loads(text)
    if obj.get("format") != "mfroots-recipe-v1":
        raise MfError("not a recipe file")
    return RootRecipe(obj["pipeline"], obj["order"], obj["orientation"],
                      obj["payload"])


def load_recipe(path) -> RootRecipe:
    with open(path, "r", encoding="utf-8") as fh:
        return recipe_from_json(fh.read())


def save_recipe(recipe: RootRecipe, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(recipe_to_json(recipe))
