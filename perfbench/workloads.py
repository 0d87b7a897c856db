"""The benchmark's workloads.

Each workload draws its inputs from a seed during set-up and exposes them
as ``blocks``: lists of operations, each one public call into the library.
The timed loop runs whole blocks, so every measured window holds the
workload's fixed mix of operations.  ``check`` verifies the results
independently, after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import gen

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden" / "cli.json"


@dataclass
class Op:
    key: int  # identity of the operation within the workload
    tag: str  # "inc" or "dec": orientation of the root, map or target involved
    call: Callable[[], object]  # one public call into the library


class Workload:
    name = ""
    tail_pct = 90.0  # fixed tail percentile; see run.py
    trace_blocks = 1  # blocks run untraced and then traced by --trace 1

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        self.blocks: List[List[Op]] = []
        self.warm: List[Op] = []  # cheap operations, one per tag, run by warm_up

    def warm_up(self) -> None:
        for op in self.warm:
            try:
                op.call()
            except self.lib.errors.MfError:
                pass  # the timed phase runs and counts the same operation

    def failure(self, key: int, result) -> Optional[str]:
        """Why a returned result is not a delivered operation, or None."""
        return None

    def check(self, results: Dict[int, object]) -> Dict[int, str]:
        """Mismatch message per operation key whose result is wrong."""
        raise NotImplementedError

    def check_rng(self, key: int) -> random.Random:
        return random.Random(f"check:{self.seed}:{key}")


# ---------------------------------------------------------------------------
# roots: the three build pipelines, verification included
# ---------------------------------------------------------------------------

class Roots(Workload):
    """Seeded stream of root builds in a fixed ratio.  Every block holds
    seven increasing builds, one for each (jumps, order) in {1,2,3} x {2,3}
    and a second (2, 3), whose absorbing branches have the slopes
    1/16..7/16 in that order; five decreasing square roots; and three
    decreasing cubic roots.  One cubic target has
    first-branch slope 1/8, the closed-form path where the known failing
    builds sit; the other two take slopes from 1/16, 3/16..6/16 in a
    rotation fixed by the block's index.  Fixing these cost-driving
    parameters keeps a window's mix, and so its timings, the same from seed
    to seed; the rest is drawn.  The counts keep each tag's median inside
    a cluster of similar costs rather than between two."""

    name = "roots"
    tail_pct = 75.0
    BLOCKS = 10
    PATTERN = ("inc", "sq", "odd", "inc", "sq", "inc", "odd", "sq",
               "inc", "sq", "inc", "odd", "inc", "sq", "inc")
    SHAPES = ((1, 2), (1, 3), (2, 2), (2, 3), (2, 3), (3, 2), (3, 3))
    ODD_SLOPES = (1, 3, 4, 5, 6)  # sixteenths, besides the closed-form 2

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = random.Random(seed)
        B = lib.builder
        self.subjects = {}
        key = 0
        for b in range(self.BLOCKS):
            shapes = list(range(len(self.SHAPES)))
            rotation = self.ODD_SLOPES[(2 * b) % 5], self.ODD_SLOPES[(2 * b + 1) % 5]
            slopes = [2, *rotation]
            rng.shuffle(shapes)
            rng.shuffle(slopes)
            block = []
            for kind in self.PATTERN:
                if kind == "inc":
                    i = shapes.pop()
                    m, n = self.SHAPES[i]
                    F = gen.direct_routed(rng, m, i + 1)
                    call = (lambda F=F, n=n: B.build_increasing_root(F, n))
                elif kind == "sq":
                    F, n = gen.reversing_pair_target(rng), 2
                    call = (lambda F=F: B.build_decreasing_square_root(F))
                else:
                    F, n = gen.dec_selfpair_target(rng, slopes.pop()), 3
                    call = (lambda F=F: B.build_decreasing_odd_root(F, 3))
                self.subjects[key] = (F, n)
                block.append(Op(key, "inc" if kind == "inc" else "dec", call))
                # warm up on the cheapest increasing shape and a square root
                if not self.blocks and kind != "odd" and (len(F.jumps), n) == (1, 2):
                    if all(op.tag != block[-1].tag for op in self.warm):
                        self.warm.append(block[-1])
                key += 1
            self.blocks.append(block)

    def failure(self, key, result):
        if not isinstance(result, self.lib.builder.RootArtifact):
            return f"{type(result).__name__} {getattr(result, 'rule', '')} instead of a root"
        return None

    def check(self, results):
        bad = {}
        for key, art in results.items():
            F, n = self.subjects[key]
            if not art.verification.passed:
                bad[key] = f"returned root reports failed verification: {art.verification}"
                continue
            points = checks.check_points(self.check_rng(key), 6)
            msg = checks.root_mismatch(art.realized, F, n, points)
            if msg:
                bad[key] = msg
        return bad


# ---------------------------------------------------------------------------
# orbit_eval: pointwise evaluation of lazy scalar roots
# ---------------------------------------------------------------------------

class OrbitEval(Workload):
    """Forward and inverse evaluation of four lazy scalar maps at points on
    a ladder of distances 10^-2 .. 10^-41 from the attracting end.  Every
    block evaluates each map once on each rung, so every block has the
    same mix; the direction alternates by map, rung and block."""

    name = "orbit_eval"
    tail_pct = 82.0
    trace_blocks = 1
    RUNGS = (1, 4, 9, 15, 22, 30, 40)  # decades from the attracting end
    ROUND_TRIP_MAX = 15  # rungs whose round trip the check recomputes
    IDENTITY_MAX = 9  # rungs whose functional equation the check recomputes

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = random.Random(seed)
        S, M = lib.scalar_roots, lib.maps

        def anchor():
            return Fraction(rng.randint(33, 64), 64)

        g = M.AffineMap(Fraction(99, 100), 0)
        g2 = M.AffineMap(Fraction(49, 50), 0)
        p = Fraction(rng.randint(24, 40), 64)
        gp = M.AffineMap(Fraction(99, 100), p / 100)
        r2 = S.increasing_nth_root(g, 0, 1, 2, S.ScalarRootSeed(anchor=anchor()))
        r3 = S.increasing_nth_root(g, 0, 1, 3, S.ScalarRootSeed(anchor=anchor()))
        conj = S.conjugacy(g, 0, 1, g2, 0, 1, M.INC,
                           S.ScalarRootSeed(anchor=anchor(), image_anchor=anchor()))
        psi, _ = S.decreasing_square_root_pair(
            gp, 0, 1, seed=S.ScalarRootSeed(anchor=p + (1 - p) * (anchor() - Fraction(1, 2)) * 2))
        # name, map, base point, tag, the equation's two sides as functions of (x, y)
        self.maps = [
            ("r2", r2, Fraction(0), "inc", lambda x, y: (self._power(r2, y, 1), g(x))),
            ("r3", r3, Fraction(0), "inc", lambda x, y: (self._power(r3, y, 2), g(x))),
            ("conj", conj, Fraction(0), "inc", lambda x, y: (conj(g(x)), g2(y))),
            ("pair", psi, p, "dec", lambda x, y: (psi(y), gp(x))),
        ]
        rungs = len(self.RUNGS)
        self.points = {}  # key -> (map index, direction, rung, point)
        for mi, (_, _, base, _, _) in enumerate(self.maps):
            for di, direction in enumerate(("fwd", "inv")):
                for ri, k in enumerate(self.RUNGS):
                    d = Fraction(rng.randint(1000, 9999), 1000) / 10 ** (k + 1)
                    side = -1 if base and (ri + di) % 2 else 1
                    key = (2 * mi + di) * rungs + ri
                    self.points[key] = (mi, direction, k, base + side * d)
        for b in range(2):  # the direction pattern repeats every two blocks
            block = []
            for ri in range(rungs):
                for mi, (_, m, _, tag, _) in enumerate(self.maps):
                    di = (mi + ri + b) % 2
                    key = (2 * mi + di) * rungs + ri
                    x = self.points[key][3]
                    call = ((lambda m=m, x=x: m(x)) if di == 0
                            else (lambda m=m, x=x: m.inverse(x)))
                    block.append(Op(key, tag, call))
            self.blocks.append(block)
        first = {}
        for op in sorted(self.blocks[0], key=lambda op: op.key):
            first.setdefault(op.tag, op)
        self.warm = list(first.values())
        self.deep_key = (seed % 8) * rungs + self.RUNGS.index(22)

    @staticmethod
    def _power(m, y, times):
        for _ in range(times):
            y = m(y)
        return y

    def check(self, results):
        bad = {}
        for key, y in results.items():
            mi, direction, k, x = self.points[key]
            name, m, _, _, equation = self.maps[mi]
            if k <= self.ROUND_TRIP_MAX or key == self.deep_key:
                back = m.inverse(y) if direction == "fwd" else m(y)
                if back != x:
                    bad[key] = f"{name} {direction} round trip at 1e-{k} misses by {float(back - x):.3e}"
                    continue
            if direction == "fwd" and k <= self.IDENTITY_MAX:
                lhs, rhs = equation(x, y)
                if lhs != rhs:
                    bad[key] = f"{name} functional equation fails at 1e-{k}"
        return bad


# ---------------------------------------------------------------------------
# analyze: exact analysis calls, certificates, fixtures and the CLI
# ---------------------------------------------------------------------------

FIXTURE_ROOTS = (("square_root", "square_target", 2), ("j3_root", "j3_target", 2),
                 ("j4_root", "j4_target", 2), ("dec_cube_root", "dec_cube_target", 3))
ITERATE_FILES = ("square_target", "j3_target", "growth_target", "dec_cube_target")


def cli_commands():
    """(label, argv without the output path, output file or None)."""
    names = sorted(p.stem for p in DATA.glob("*.mf"))
    out = [(f"analyze {n}", ["analyze", f"{n}.mf"], None) for n in names]
    for n in names:
        if n.endswith("_target"):
            out.append((f"certify {n} 3", ["certify", f"{n}.mf", "--order", "3"], None))
            if n.startswith("dec"):
                out.append((f"certify {n} 2", ["certify", f"{n}.mf", "--order", "2"], None))
    for n in ITERATE_FILES:
        out.append((f"iterate {n} 2", ["iterate", f"{n}.mf", "-n", "2", "-o"], f"{n}.2.mf"))
    return out


def run_cli(main, argv, workdir: Path, output: Optional[str]):
    """In-process ``mfroots`` call: (exit code, stdout, written file)."""
    args = [str(DATA / a) if a.endswith(".mf") else a for a in argv]
    target = workdir / output if output else None
    if target is not None:
        args.append(str(target))
        target.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(args)
    text = buf.getvalue()
    written = None
    if target is not None:
        text = text.replace(str(target), "<out>")
        written = target.read_text(encoding="utf-8") if target.exists() else None
    return code, text, written


class Analyze(Workload):
    """Small exact analysis calls: intensity (finite and cap-exceeding),
    compose, iterate, certify and recheck, exact fixture verification, and
    the CLI on the fixture files."""

    name = "analyze"
    tail_pct = 99.0
    INTENSITY_CHECK_JUMPS = 8  # brute-force intensity checks on small cases
    INTENSITY_CHECK_DEPTH = 3

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = random.Random(seed)
        core, st, B = lib.core, lib.structure, lib.builder
        self.workdir.mkdir(parents=True, exist_ok=True)
        finite = [self._draw(rng, m, (2, lambda z: z.value == 2)) for m in range(1, 17)]

        def grows_by_two(z):
            return z.exceeded and z.trace[-1] - z.trace[-2] == 2

        exceeding = [self._draw(rng, 2, (16, grows_by_two), (64, grows_by_two))
                     for _ in range(3)]
        graded = [gen.with_intensity(rng, t) for t in (1, 2, 3) for _ in range(2)]
        parsed = {p.stem: lib.io.parse_mf(p.read_text(encoding="utf-8"))
                  for p in DATA.glob("*.mf")}
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))

        self.expect: Dict[int, tuple] = {}
        ops: List[Op] = []

        def add(tag, call, *expect):
            key = len(ops)
            ops.append(Op(key, tag, call))
            self.expect[key] = expect

        for F in finite + exceeding + graded:
            add("inc", lambda F=F: st.intensity(F), "intensity", F)
        for i in range(8):
            F, G = finite[i], finite[15 - i]
            add("inc", lambda F=F, G=G: core.compose(G, F), "compose", G, F)
        for i, F in enumerate(graded + finite[:4]):
            k = 2 + i % 2
            add("inc", lambda F=F, k=k: core.iterate(F, k), "iterate", F, k)
        certs = []
        for i, (F, orient) in enumerate([(F, "any") for F in graded]
                                        + [(F, "inc") for F in finite[:4]]):
            n = 2 + i % 3
            add("inc", lambda F=F, n=n, o=orient: B.certify_nonexistence(F, n, o),
                "certify", F)
            cert = B.certify_nonexistence(F, n, orient)
            if cert is not None:
                certs.append((cert, F))
        for cert, F in certs:
            add("inc", lambda c=cert, F=F: B.recheck_certificate(c, F), "recheck", cert, F)
        for root, target, n in FIXTURE_ROOTS:
            f, F = parsed[root], parsed[target]
            tag = "dec" if F.orientation is lib.maps.DEC else "inc"
            add(tag, lambda f=f, F=F, n=n: B.verify_root(f, F, n), "verify", f, F, n)
        for label, argv, output in cli_commands():
            tag = "dec" if argv[1].startswith("dec") else "inc"
            add(tag, lambda a=argv, o=output: run_cli(lib.cli.main, a, self.workdir, o),
                "cli", label)
        self.warm = [ops[0], next(op for op in ops if op.tag == "dec")]
        rng.shuffle(ops)
        self.blocks = [ops]

    def _draw(self, rng, jumps, *probes):
        """Monotone instance whose intensity at each (cap, accept) probe
        passes ``accept``; cheap probes go first.  Fixing the intensity, or
        for unsettled instances the number of jumps each pullback round
        adds, keeps the cost of a block the same from seed to seed."""
        st = self.lib.structure
        for _ in range(500):
            F = gen.monotone_increasing(rng, jumps)
            if all(accept(st.intensity(F, cap=cap)) for cap, accept in probes):
                return F
        raise RuntimeError(f"no {jumps}-jump instance passes the intensity probes")

    def failure(self, key, result):
        if self.expect[key][0] == "cli" and result[0] == 3:
            return f"cli {self.expect[key][1]} exited with an error: {result[1].strip()}"
        return None

    def check(self, results):
        lib = self.lib
        inc, dec = lib.maps.INC, lib.maps.DEC
        bad = {}
        for key, res in results.items():
            kind, *args = self.expect[key]
            msg = None
            if kind == "intensity":
                F = args[0]
                if len(F.jump_locations) <= self.INTENSITY_CHECK_JUMPS:
                    depth = min(self.INTENSITY_CHECK_DEPTH, len(res.trace) - 1)
                    brute = checks.brute_jump_counts(F, depth, inc)
                    if list(res.trace[1:depth + 1]) != brute:
                        msg = f"intensity trace {res.trace} vs iterate-and-count {brute}"
            elif kind == "compose":
                G, F = args
                oracle = checks.oracle_compose_jumps(G, F, inc)
                if list(res.jump_locations) != oracle:
                    msg = "compose jump set differs from the bisection oracle"
            elif kind == "iterate":
                F, k = args
                msg = checks.root_mismatch(F, res, k, checks.check_points(self.check_rng(key), 6))
                if msg is None and len(res.jump_locations) != checks.brute_jump_counts(F, k, inc)[-1]:
                    msg = "iterate jump count differs from the bisection oracle"
            elif kind == "certify":
                if res is not None:
                    msg = checks.certificate_mismatch(res, args[0], inc, dec)
            elif kind == "recheck":
                if res is not True:
                    msg = "recheck rejected a certificate the library issued"
            elif kind == "verify":
                f, F, n = args
                if not (res.passed and res.exact):
                    msg = f"fixture root not verified exactly: {res}"
                else:
                    msg = checks.root_mismatch(f, F, n, checks.check_points(self.check_rng(key), 6))
            elif kind == "cli":
                code, text, written = res
                want = self.golden[args[0]]
                if [code, text, written] != [want["code"], want["stdout"], want.get("file")]:
                    msg = f"cli {args[0]} output differs from the golden copy"
            if msg:
                bad[key] = msg
        return bad


WORKLOADS = {w.name: w for w in (Roots, OrbitEval, Analyze)}
