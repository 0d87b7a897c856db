#!/usr/bin/env python3
"""Outcome hashes of a parent commit and of the working tree.

    python3 tools/outcomes.py
    python3 tools/outcomes.py --parent HEAD --roots 1 --orbit-eval 1 --census 20

Run it from anywhere inside a git checkout.  The parent ref (``HEAD`` by
default) is exported with ``git archive`` into a temporary directory, as
``tools/pairs.py`` does; then this script runs once in each checkout, on
that checkout's ``src/`` and ``perfbench/``, and hashes what the library
returns for each set of inputs:

- ``census`` and ``odd-census``: the targets drawn as ROADMAP.md defines
  them (``random.Random(1)``; ``perfbench/gen.monotone_increasing`` with
  1 to 4 jumps, kept at intensity 1; the odd census composes each draw on
  the left with x ↦ 1 − x), built with ``build_increasing_root`` and
  ``build_decreasing_square_root``, or ``build_decreasing_odd_root``;
- ``roots``: every build of the ``roots`` workload of each seed;
- ``orbit_eval``: every evaluation of the ``orbit_eval`` workload of each
  seed.

A build is hashed by its verification repr, its recipe and its jumps, with
each branch's ends and the branch map's values at them and at 5 exact
interior points; a certificate by its rule, claim and witnesses; a build
that raises by the error's type and text.  An evaluation is hashed by its
value or its error.  Prints one digest per set and side, then each side's
count per outcome class (exact root, grid root, certificate rule, error
type; an evaluation's value or error type), and exits 1 when a set's
digests differ.  For such a set it also prints the first three outcomes
that differ, each side's first line cut to 160 characters.
``perfbench/`` is read, never changed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import random
import subprocess
import sys
import tempfile
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

from pairs import export, git

ROOTS_SEEDS = tuple(range(1, 13))
ORBIT_SEEDS = (1, 2, 3, 5, 12, 37)
CENSUS_SIZE = 80
INTERIOR = 5  # exact interior points per branch
MOVED = 3  # differing outcomes shown per set
LINE = 160  # characters shown of each one's first line


def seeds(text: str) -> tuple:
    """'1-12', '1,2,5' or '' (no seed) as a tuple of ints."""
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# the worker: runs inside one checkout
# ---------------------------------------------------------------------------

def load(checkout: Path):
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    lib = types.SimpleNamespace(package=importlib.import_module("mfroots"))
    for name in ("core", "structure", "maps", "scalar_roots", "builder", "io", "cli", "errors"):
        setattr(lib, name, importlib.import_module(f"mfroots.{name}"))
    return lib, importlib.import_module("workloads"), importlib.import_module("gen")


def attempt(call) -> tuple:
    """(True, result) or (False, 'ErrorType: text')."""
    try:
        return True, call()
    except Exception as exc:  # every error is an outcome
        return False, f"{type(exc).__name__}: {exc}"


def show(value) -> str:
    """A scalar's type and value, in hexadecimal for exact ones: a deep
    orbit value has more digits than ``str`` of an int may print."""
    if isinstance(value, (Fraction, int)):
        n, d = value.as_integer_ratio()
        return f"{type(value).__name__} {n:x}/{d:x}"
    if isinstance(value, float):
        return f"float {value.hex()}"
    return repr(value)


def show_outcome(outcome) -> str:
    ok, result = outcome
    return show(result) if ok else result


def outcome_class(lib, outcome) -> str:
    ok, result = outcome
    if not ok:
        return result.partition(":")[0]
    if isinstance(result, lib.builder.Certificate):
        return f"certificate {result.rule}"
    if isinstance(result, lib.builder.RootArtifact):
        return "exact root" if result.verification.exact else "grid root"
    return "value"


def describe_build(lib, outcome) -> str:
    ok, result = outcome
    if not ok:
        return result
    if isinstance(result, lib.builder.Certificate):
        return f"certificate {result.rule} {result.claim} {result.witnesses!r} {result.also!r}"
    recipe = result.recipe
    lines = [repr(result.verification),
             json.dumps([recipe.pipeline, recipe.order, recipe.orientation, recipe.payload],
                        sort_keys=True, default=str)]
    f = result.realized
    lines += [f"jump {jp.location!r} {jp.value!r}" for jp in f.jumps]
    for br in f.branches:
        points = [br.lo, br.hi]
        if isinstance(br.lo, Fraction) and isinstance(br.hi, Fraction):
            points += [br.lo + (br.hi - br.lo) * Fraction(i, INTERIOR + 1)
                       for i in range(1, INTERIOR + 1)]
        lines.append(f"branch {show(br.lo)} {show(br.hi)}: "
                     + ", ".join(show_outcome(attempt(lambda x=x: br.map(x))) for x in points))
    return "\n".join(lines)


def census(lib, gen, odd: bool, size: int):
    """The census targets, with their builds as calls."""
    core, B = lib.core, lib.builder
    reflection = core.Multifunction.build(0, 1, pieces=[(0, 1, -1, 1)])
    rng = random.Random(1)
    kept = 0
    while kept < size:
        F = gen.monotone_increasing(rng, rng.randint(1, 4))
        if odd:
            F = core.compose(reflection, F)
        if lib.structure.intensity(F).value != 1:
            continue
        kept += 1
        if odd:
            k = rng.choice([3, 5])
            yield lambda F=F, k=k: B.build_decreasing_odd_root(F, k)
        else:
            n = rng.choice([2, 3])
            yield lambda F=F, n=n: B.build_increasing_root(F, n)
            yield lambda F=F: B.build_decreasing_square_root(F)


def worker(checkout: Path, args) -> dict:
    lib, workloads, gen = load(checkout)
    digests, classes, items = {}, {}, {}

    def digest(name, keyed_calls, describe):
        """Hashes ``prefix + describe(outcome)`` of each (prefix, call),
        and keeps each one's own hash and cut first line."""
        h, counts, items[name] = hashlib.sha256(), Counter(), []
        for prefix, call in keyed_calls:
            outcome = attempt(call)
            text = prefix + describe(outcome)
            h.update(text.encode() + b"\0")
            items[name].append((hashlib.sha256(text.encode()).hexdigest()[:16],
                                text.partition("\n")[0][:LINE]))
            counts[outcome_class(lib, outcome)] += 1
        digests[name] = f"{h.hexdigest()[:16]} ({sum(counts.values())} outcomes)"
        classes[name] = counts

    build = functools.partial(describe_build, lib)
    with tempfile.TemporaryDirectory(prefix="outcomes-") as tmp:
        for odd, name in ((False, "census"), (True, "odd-census")):
            if args.census:
                digest(name, (("", call) for call in census(lib, gen, odd, args.census)),
                       build)
        if args.roots:
            digest("roots", ((f"{seed} {op.key} ", op.call)
                             for seed in args.roots
                             for block in workloads.Roots(lib, seed, Path(tmp)).blocks
                             for op in block), build)
        if args.orbit_eval:
            digest("orbit_eval", ((f"{seed} {op.key} ", op.call)
                                  for seed in args.orbit_eval
                                  for block in workloads.OrbitEval(lib, seed, Path(tmp)).blocks
                                  for op in block), show_outcome)
    return {"digests": digests, "classes": classes, "items": items}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--roots", type=seeds, default=ROOTS_SEEDS, metavar="SEEDS",
                        help="roots workload seeds, as 1-12 or 1,3 (default 1-12)")
    parser.add_argument("--orbit-eval", type=seeds, default=ORBIT_SEEDS, metavar="SEEDS",
                        help="orbit_eval workload seeds (default 1,2,3,5,12,37)")
    parser.add_argument("--census", type=int, default=CENSUS_SIZE, metavar="N",
                        help=f"targets of each census (default {CENSUS_SIZE})")
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(Path(args.worker), args)))
        return 0

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    forwarded = [f"--roots={','.join(map(str, args.roots))}",
                 f"--orbit-eval={','.join(map(str, args.orbit_eval))}",
                 f"--census={args.census}"]
    results = {}
    with tempfile.TemporaryDirectory(prefix="outcomes-") as tmp:
        export(root, args.parent, Path(tmp))
        for side, checkout in (("parent", Path(tmp) / "parent"), ("change", root)):
            proc = subprocess.run([sys.executable, __file__, "--worker", str(checkout),
                                   *forwarded], capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"{side} run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
            results[side] = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"parent {args.parent}, change the working tree; under each digest,"
          " the parent's and the change's count per outcome class")
    status = 0
    for name, old in results["parent"]["digests"].items():
        new = results["change"]["digests"].get(name)
        print(f"{name:11s} parent {old}  change {new}  {'same' if old == new else 'DIFFERENT'}")
        status |= old != new
        counts = [results[side]["classes"].get(name, {}) for side in ("parent", "change")]
        for kind in sorted(set(counts[0]) | set(counts[1])):
            print(f"{'':11s}   {counts[0].get(kind, 0):5d} {counts[1].get(kind, 0):5d}  {kind}")
        sides = zip(*(results[side]["items"].get(name, []) for side in ("parent", "change")))
        moved = [(a, b) for a, b in sides if a[0] != b[0]][:MOVED]
        for (_, a), (_, b) in moved:
            print(f"{'':11s}   parent: {a}\n{'':11s}   change: {b}")
    return status


if __name__ == "__main__":
    sys.exit(main())
