"""Command-line front end.

Subcommands: analyze, iterate, root, verify, certify, plot-data.  Output
is byte-deterministic for identical inputs and flags; exit codes are
0 success/certified, 1 verification failure, 2 inconclusive, 3 errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import builder as bld
from . import io as mfio
from . import structure as st
from .core import Multifunction
from .errors import BadSeedError, MfError, NoSingleTargetError
from .maps import DEC, INC
from .scalars import format_scalar


def _fmt12(x) -> str:
    return format(float(x), ".12g")


def _analyze(args) -> int:
    F = mfio.load_mf(args.file)
    out = []
    out.append(f"domain: {format_scalar(F.domain.lo)} {format_scalar(F.domain.hi)}")
    out.append(f"monotone: {'inc' if F.orientation is INC else 'dec'}")
    locs = F.jump_locations
    out.append("jumps: " + (" ".join(format_scalar(c) for c in locs) if locs else "none"))
    part = st.partition(F)
    out.append("partition: " + " ".join(
        f"({format_scalar(iv.lo)},{format_scalar(iv.hi)})" for iv in part.intervals))
    table = None
    try:
        table = st.transition_table(F)
        out.append("delta: " + " ".join(
            f"{i}->{table.delta[i]}" for i in sorted(table.delta)))
    except NoSingleTargetError as exc:
        out.append(f"delta: none (interval {exc.interval_index} straddles jump "
                   f"{format_scalar(exc.witness_jump)})")
    z = st.intensity(F)
    out.append(f"intensity: {'>' + str(z.cap) if z.exceeded else z.value}")
    out.append("intensity-trace: " + " ".join(str(c) for c in z.trace))
    if F.orientation is INC and not z.exceeded and z.value in (0, 1) and table:
        lam = st.invariant_intervals(F)
        out.append("invariant: " + (" ".join(str(i) for i in lam) if lam else "none"))
        if lam:
            ad = st.absorbing_data(F)
            out.append("kappa: " + " ".join(
                f"{i}->{ad.kappa[i]}" for i in sorted(ad.kappa)))
            out.append(f"ell: {ad.ell}")
            out.append("absorbing-target: " + " ".join(
                f"{i}->{ad.target[i]}" for i in sorted(ad.target)))
        H = st.hypothesis_H(F)
        if H.holds:
            out.append("hypothesis-H: holds")
        elif H.needs_reflection:
            out.append("hypothesis-H: needs-reflection")
        else:
            out.append(f"hypothesis-H: fails witness={format_scalar(H.witness)}")
    for c in locs:
        cls = st.classify_jump(F, c)
        line = f"class[{format_scalar(c)}]: {cls.kind}"
        if cls.kind in ("J3", "J4"):
            line += f" ell={cls.ell} others=" + ",".join(
                format_scalar(d) for d in cls.others)
        out.append(line)
    print("\n".join(out))
    return 0


def _iterate(args) -> int:
    F = mfio.load_mf(args.file)
    from .core import iterate
    G = iterate(F, args.n)
    if not G.is_exact:
        raise MfError("iterate produced inexact branches; cannot serialize to .mf")
    mfio.save_mf(G, args.output)
    print(f"wrote {args.output}")
    return 0


def _load_seed(path):
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return bld.seed_from_payload(json.load(fh))
    except (ValueError, BadSeedError) as exc:  # undecodable, not JSON, or not a seed
        raise BadSeedError(f"seed file {path}: {exc}") from None


def _root(args) -> int:
    if args.preview < 2:  # preview points sit at i/(preview - 1)
        raise MfError(f"--preview must be at least 2, got {args.preview}")
    F = mfio.load_mf(args.file)
    seed = _load_seed(args.seed)
    want = INC if args.monotone == "inc" else DEC
    if want is INC:
        if F.orientation is not INC:
            raise MfError("an increasing root of a decreasing target cannot exist: "
                          "iterates of an increasing map are increasing")
        outcome = bld.build_increasing_root(F, args.order, seed=seed)
    else:
        if F.orientation is INC:
            if args.order != 2:
                cert = bld.certify_nonexistence(F, args.order, DEC)
                if cert is not None:
                    print(cert.text())
                    return 0
                raise MfError("decreasing roots of even order above two reduce to "
                              "the square case; compose the pipelines manually")
            outcome = bld.build_decreasing_square_root(F, seed=seed)
        else:
            outcome = bld.build_decreasing_odd_root(F, args.order, seed=seed)
    if isinstance(outcome, bld.Certificate):
        print(outcome.text())
        return 0
    mfio.save_recipe(outcome.recipe, args.output)
    print(f"recipe: {args.output}")
    v = outcome.verification
    print(f"verified: order {args.order}, "
          + ("exact" if v.exact else f"grid maxdev {v.max_deviation:.3e}"))
    if outcome.realized.is_exact:
        sys.stdout.write(mfio.serialize_mf(outcome.realized))
    else:
        print(f"preview: {args.preview} points per branch")
        for br in outcome.realized.branches:
            for i in range(args.preview):
                x = br.lo + (br.hi - br.lo) * Fraction(i, args.preview - 1)
                print(f"{_fmt12(x)} {_fmt12(br.map(x))}")
        for jp in outcome.realized.jumps:
            comps = ",".join(f"[{_fmt12(c.lo)},{_fmt12(c.hi)}]"
                             for c in jp.value.components)
            print(f"jump {_fmt12(jp.location)} {comps}")
    return 0


def _verify(args) -> int:
    F = mfio.load_mf(args.target)
    f = mfio.load_mf(args.candidate)
    report = bld.verify_root(f, F, args.order)
    status = "pass" if report.passed else "fail"
    mode = "exact" if report.exact else "grid"
    print(f"{status} ({mode}, max deviation {report.max_deviation:.3e})")
    if not report.passed:
        print(f"reason: {report.detail}")
        if report.worst_point is not None:
            print(f"worst point: {format_scalar(report.worst_point)}")
        return 1
    return 0


def _certify(args) -> int:
    F = mfio.load_mf(args.file)
    cert = bld.certify_nonexistence(F, args.order, args.monotone)
    if cert is None:
        print("inconclusive")
        return 2
    print(cert.text())
    for extra in cert.also:
        print(f"also: {extra}")
    return 0


def _plot_data(args) -> int:
    if args.samples < 2:  # sample points sit at i/(samples - 1)
        raise MfError(f"--samples must be at least 2, got {args.samples}")
    F = mfio.load_mf(args.file)
    if args.output.endswith(".svg"):
        _write_svg(F, args.output, args.samples)
    else:
        _write_csv(F, args.output, args.samples)
    print(f"wrote {args.output}")
    return 0


def _write_csv(F: Multifunction, path: str, samples: int) -> None:
    rows = ["x,ymin,ymax,kind"]
    for br in F.branches:
        for i in range(samples):
            x = br.lo + (br.hi - br.lo) * Fraction(i, samples - 1)
            y = _fmt12(br.map(x))
            rows.append(f"{_fmt12(x)},{y},{y},branch")
    for jp in F.jumps:
        for c in jp.value.components:
            rows.append(f"{_fmt12(jp.location)},{_fmt12(c.lo)},{_fmt12(c.hi)},jump")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _write_svg(F: Multifunction, path: str, samples: int) -> None:
    size, margin = 640.0, 40.0
    a, b = float(F.domain.lo), float(F.domain.hi)
    span = b - a

    def px(x):
        return margin + (float(x) - a) / span * (size - 2 * margin)

    def py(y):
        return size - margin - (float(y) - a) / span * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<rect x="{margin}" y="{margin}" width="{size - 2 * margin}" '
        f'height="{size - 2 * margin}" fill="none" stroke="#ccc"/>',
    ]
    for br in F.branches:
        pts = []
        for i in range(samples):
            x = br.lo + (br.hi - br.lo) * Fraction(i, samples - 1)
            pts.append(f"{px(x):.2f},{py(br.map(x)):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="#1f77b4" stroke-width="1.5"/>')
    for jp in F.jumps:
        x = px(jp.location)
        for c in jp.value.components:
            parts.append(f'<line x1="{x:.2f}" y1="{py(c.lo):.2f}" x2="{x:.2f}" '
                         f'y2="{py(c.hi):.2f}" stroke="#d62728" stroke-width="2"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfroots",
        description="Iterative roots of strictly monotone usc multifunctions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure report")
    p.add_argument("file")
    p.set_defaults(func=_analyze)

    p = sub.add_parser("iterate", help="serialize an iterate")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_iterate)

    p = sub.add_parser("root", help="construct an iterative root")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--monotone", choices=("inc", "dec"), required=True)
    p.add_argument("--seed", default=None, help="seed JSON file")
    p.add_argument("--preview", type=int, default=33)
    p.add_argument("-o", "--output", required=True, help="recipe output path")
    p.set_defaults(func=_root)

    p = sub.add_parser("verify", help="check a candidate root")
    p.add_argument("target")
    p.add_argument("candidate")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_verify)

    p = sub.add_parser("certify", help="nonexistence certificate")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--monotone", choices=("inc", "dec", "any"), default="any")
    p.set_defaults(func=_certify)

    p = sub.add_parser("plot-data", help="emit CSV or SVG plot data")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
