"""Command-line interface.

Usage errors exit 2 (argparse default); domain errors exit 1 with the error
class name on stderr.  Complexes travel as facet-list documents on stdout /
stdin so commands compose in pipelines.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import fileio, moves, verify
from .complexes import Complex
from .errors import SphereBundleError
from .handles import (
    BundleType,
    construct_iss,
    construct_miss,
    orientation_double_cover,
)
from .stacked import build_delta


def _read_complex(path: str | None) -> Complex:
    if path is None or path == "-":
        return fileio.parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return fileio.parse(fh.read())


def _emit(c: Complex, out: str | None) -> None:
    text = fileio.write(c)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="spherebundles",
        description="Construct and verify triangulations of sphere bundles over the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a complex")
    bsub = build.add_subparsers(dest="what", required=True)

    b_stacked = bsub.add_parser("stacked", help="scheduled stacked sphere")
    b_stacked.add_argument("--n", type=int, required=True)
    b_stacked.add_argument("--steps", type=int, required=True, metavar="I")
    b_stacked.add_argument("-o", "--out")

    b_miss = bsub.add_parser("miss", help="minimal identified stacked sphere (2n+1 vertices)")
    b_miss.add_argument("--n", type=int, required=True)
    b_miss.add_argument("-o", "--out")

    b_iss = bsub.add_parser("iss", help="identified stacked sphere with given vertex count")
    b_iss.add_argument("--n", type=int, required=True)
    b_iss.add_argument("--vertices", type=int, required=True, metavar="F0")
    b_iss.add_argument("--bundle", choices=["orientable", "nonorientable"],
                       required=True)
    b_iss.add_argument("-o", "--out")

    fill = sub.add_parser("fill-edges", help="replay the edge-filling schedule to a target f1")
    fill.add_argument("--in", dest="infile", default=None)
    fill.add_argument("--target-f1", type=int, required=True)
    fill.add_argument("-o", "--out")

    an = sub.add_parser("analyze", help="full invariant report")
    an.add_argument("--in", dest="infile", default=None)
    an.add_argument("--json", action="store_true")

    iso = sub.add_parser("iso", help="test two facet-list files for isomorphism")
    iso.add_argument("a")
    iso.add_argument("b")

    dc = sub.add_parser("double-cover", help="orientation double cover")
    dc.add_argument("--in", dest="infile", default=None)
    dc.add_argument("-o", "--out")

    region = sub.add_parser("region", help="feasible edge-count interval for (k, f0, bundle)")
    region.add_argument("--k", type=int, required=True)
    region.add_argument("--vertices", type=int, required=True, metavar="F0")
    region.add_argument("--bundle", choices=["orientable", "nonorientable"], required=True)

    return parser


def run(args: argparse.Namespace) -> int:
    if args.command == "build":
        if args.what == "stacked":
            _emit(build_delta(args.n, args.steps)[0], args.out)
            return 0
        if args.what == "miss":
            made = construct_miss(args.n)
        else:
            made = construct_iss(args.n, args.vertices, BundleType(args.bundle))
        for note in made.notes:
            print(f"note: {note}", file=sys.stderr)
        _emit(made.complex, args.out)
        return 0

    if args.command == "fill-edges":
        c = _read_complex(args.infile)
        schedule = moves.build_fill_schedule(c)
        _emit(moves.fill_to(c, schedule, args.target_f1), args.out)
        return 0

    if args.command == "analyze":
        c = _read_complex(args.infile)
        report = fileio.analyze(c)
        sys.stdout.write(report.to_json() if args.json else report.to_text())
        return 0

    if args.command == "iso":
        with open(args.a, encoding="utf-8") as fh:
            ca = fileio.parse(fh.read())
        with open(args.b, encoding="utf-8") as fh:
            cb = fileio.parse(fh.read())
        witness = verify.are_isomorphic(ca, cb)
        if witness is None:
            print("non-isomorphic")
            return 1
        print("isomorphic")
        for u in sorted(witness.mapping):
            print(f"{u} -> {witness.mapping[u]}")
        return 0

    if args.command == "double-cover":
        c = _read_complex(args.infile)
        _emit(orientation_double_cover(c), args.out)
        return 0

    # argparse admits only the six commands, so this one is "region"
    interval = moves.feasible_region(args.k, args.vertices, BundleType(args.bundle))
    if interval is None:
        print("infeasible")
    else:
        print(f"{interval[0]} {interval[1]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (SphereBundleError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
