#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and of the working tree.

    python3 tools/pairs.py --workload roots --seed 14 --seconds 20 --pairs 10 --json BENCH_roots.json
    python3 tools/pairs.py --workload analyze --seed 5 --seconds 0 --pairs 1 --parent HEAD~1

Run it from anywhere inside a git checkout.  The parent ref (``HEAD`` by
default) is exported with ``git archive`` into a temporary directory, so
the parent side runs on committed files only and nothing is added to the
repository's metadata; the change side is the working tree as it stands.
``perfbench/run.py`` then runs on the two sides alternately, for the
given number of pairs; the side that goes first alternates from pair to
pair, so drift of a shared machine's speed falls on both.

Prints, for every run, its ``failed`` and ``attempted`` operations and its
block count (a workload whose failures come once per pair of blocks has a
failed share that moves with the count's parity), and each side's failed
share: failed over attempted operations, summed over its runs.  Then, for
each end-to-end metric of ``BENCHMARK.json``: the median and quartiles of
both sides, the ratio of the medians, how many pairs the change wins, and
whether the gap between the medians exceeds the parent's quartile spread.
``--json PATH`` also writes all of it to PATH: both refs, the host, each
run's ``failed``/``attempted``/blocks, both failed shares, and each
metric's values, medians, quartiles and wins.  Stdlib only.  Exits 1 when
a run fails or reports a wrong result, or when the change's failed share
is larger than the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def export(root: Path, ref: str, dest: Path) -> None:
    """The files of ``ref`` under ``dest``."""
    archive = dest / "parent.tar"
    archive.write_bytes(git(root, "archive", "--format=tar", ref))
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.12, and 3.10.12 / 3.11.4 on
            tar.extractall(dest / "parent", filter="data")
        else:
            tar.extractall(dest / "parent")
    archive.unlink()


def run(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``: its result line, with the block
    count read from the report."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"run in {checkout} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    blocks = re.search(r"(\d+) blocks", proc.stdout)
    result["blocks"] = int(blocks.group(1)) if blocks else None
    return result


def spread(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--json", metavar="PATH", help="also write the results to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        export(root, args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "parent", "change": root}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side], args)
                runs[side].append(result)
                print(f"pair {i + 1} {side:6s}  failed {result['failed']} of "
                      f"{result['attempted']}  blocks {result['blocks']}  "
                      f"correct {result['correct']}", flush=True)

    shares = {}
    for side, results in runs.items():
        failed, attempted = (sum(r[k] for r in results) for k in ("failed", "attempted"))
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side:6s} failed share {failed} of {attempted} = {shares[side]:.4%}")

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"parent {args.parent}: median [q1-q3]")
    summary = {}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        (o1, om, o3), (n1, nm, n3) = spread(old), spread(new)
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(old, new))
        beyond = abs(nm - om) > o3 - o1
        summary[name] = {**metric, "parent": old, "change": new, "parent_median": om,
                         "parent_quartiles": [o1, o3], "change_median": nm,
                         "change_quartiles": [n1, n3],
                         "ratio_of_medians": nm / om if om else None, "change_wins": wins,
                         "gap_beyond_parent_spread": beyond}
        ratio = f"x{nm / om:.3f}" if om else "n/a"
        gap = (f"gap {'beyond' if beyond else 'within'} the parent's quartile spread"
               if args.pairs > 1 else "one pair, no spread")
        print(f"{name:12s} parent {om:.4g} [{o1:.4g}-{o3:.4g}]  change {nm:.4g} "
              f"[{n1:.4g}-{n3:.4g}]  {ratio}  change wins {wins} of {args.pairs}  "
              f"{gap} ({better} is better)")
    if args.json:
        head = git(root, "rev-parse", "HEAD").decode().strip()
        dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no").strip())
        report = {
            "command": " ".join(["python3", "tools/pairs.py", *(argv or sys.argv[1:])]),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs,
            "parent": {"ref": args.parent,
                       "commit": git(root, "rev-parse", args.parent).decode().strip()},
            "change": {"ref": "working tree", "commit": head, "uncommitted_changes": dirty},
            "host": {"python": platform.python_version(), "platform": platform.platform(),
                     "cpus": os.cpu_count()},
            "order": "pair i (from 1) runs the parent first when i is odd",
            "runs": {side: [{k: r[k] for k in ("correct", "failed", "attempted", "blocks")}
                            for r in results] for side, results in runs.items()},
            "failed_share": shares,
            "metrics": summary,
        }
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    more_failures = shares["change"] > shares["parent"]
    if more_failures:
        print(f"the change fails a larger share of operations than the parent: "
              f"{shares['change']:.4%} against {shares['parent']:.4%}")
    bad = [r for side in runs.values() for r in side if not r["correct"]]
    return 1 if bad or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
