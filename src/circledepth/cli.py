"""Command-line interface.

Subcommands: generate (writes point files from the generators), analyze
(depth statistics as JSON), verify (identity/bound checks, exit 0 iff all
pass) and render (SVG).  Exit codes: 0 success, 1 unreadable/unparseable
input, bad options or a drawing beyond the float range, 2 generator
failure, 3 general-position violation, 4 check failure.  Output bytes
depend only on input bytes and flags; --jobs never changes them.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .geom import DegenerateInputError, validate_general_position
from .pointfile import PointFileError, parse_point_file, serialize_point_file
from .checks import CHECKS, run_checks
from .constructions import (
    ConstructionError,
    ConstructionOutput,
    halving_line_construction,
    random_convex,
    random_general_position,
    recursive_seven_region,
    two_colored_convex,
)
from .report import analysis_report, input_digest, render_json, verification_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERATOR = 2
EXIT_DEGENERATE = 3
EXIT_CHECK_FAILED = 4

# A grid-like input has O(n^4) cocircular quadruples; stderr names the first
# few and the total.
VIOLATIONS_SHOWN = 20


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load(path: str):
    """Parse a point file; raises SystemExit with the right code."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        pf = parse_point_file(data.decode("utf-8"))
    except (UnicodeDecodeError, PointFileError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return pf, input_digest(data)


def _certify(ps) -> None:
    """Certify ``ps``; on violations list them and raise SystemExit(3)."""
    violations = validate_general_position(ps)
    if violations:
        for v in violations[:VIOLATIONS_SHOWN]:
            print(f"general-position violation: {v}", file=sys.stderr)
        if len(violations) > VIOLATIONS_SHOWN:
            print(
                f"{len(violations)} general-position violations in total, "
                f"the first {VIOLATIONS_SHOWN} shown",
                file=sys.stderr,
            )
        raise SystemExit(EXIT_DEGENERATE)


# Generator per `generate` kind, in the parser's order.  Each entry looks its
# generator up in this module when called, so rebinding the name here (as
# perfbench's tracer does) takes effect.
GENERATORS = {
    "random": lambda args: ConstructionOutput(
        random_general_position(
            args.n, args.seed, args.range if args.range is not None else max(4 * args.n * args.n, 10**6)
        )
    ),
    "convex": lambda args: ConstructionOutput(random_convex(args.n, args.seed)),
    "two-colored-convex": lambda args: two_colored_convex(args.n),
    "seven-region": lambda args: recursive_seven_region(args.group_size, args.levels),
    "halving": lambda args: halving_line_construction(args.n),
}


def cmd_generate(args) -> int:
    try:
        out = GENERATORS[args.kind](args)
    except (ConstructionError, ValueError) as exc:
        print(f"error: generator failed: {exc}", file=sys.stderr)
        return EXIT_GENERATOR
    _write_output(serialize_point_file(out.points, out.designated_pairs), args.output)
    if args.output not in (None, "-"):
        print(f"wrote {len(out.points)} points to {args.output}")
    for a, b in out.designated_pairs:
        print(f"designated pair: ({a}, {b})")
    for claim in out.claims:
        print(f"claim verified: {claim.description}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # The sweep certifies the set as it folds; only a set it finds
    # degenerate pays for the certifier, which lists every violation.
    pf, digest = _load(args.input)
    try:
        report = analysis_report(pf.points, digest, jobs=args.jobs)
    except DegenerateInputError:
        _certify(pf.points)
        raise
    _write_output(render_json(report), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    pf, digest = _load(args.input)
    _certify(pf.points)
    names = None  # run_checks picks the checks that apply to the set
    if args.checks != "all":
        names = [name.strip() for name in args.checks.split(",") if name.strip()]
    try:
        results = run_checks(pf.points, names, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = verification_report(pf.points, digest, results)
    _write_output(render_json(report), args.output)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_render(args) -> int:
    from . import svg  # only render draws, so the other subcommands skip compiling it

    pf, _ = _load(args.input)
    _certify(pf.points)
    what = args.what
    if what[0] in ("points", "construction") and len(what) > 1:
        print(f"error: --what {what[0]} takes no arguments", file=sys.stderr)
        return EXIT_PARSE
    if what[0] == "points":
        draw = partial(svg.render_points, pf.points)
    elif what[0] == "profile":
        if len(what) != 3:
            print("error: --what profile needs two indices", file=sys.stderr)
            return EXIT_PARSE
        try:
            p, q = int(what[1]), int(what[2])
        except ValueError:
            print("error: profile indices must be integers", file=sys.stderr)
            return EXIT_PARSE
        n = len(pf.points)
        if not (0 <= p < n and 0 <= q < n) or p == q:
            print(f"error: invalid pair ({what[1]}, {what[2]})", file=sys.stderr)
            return EXIT_PARSE
        draw = partial(svg.render_profile, pf.points, p, q)
    elif what[0] == "construction":
        draw = partial(svg.render_construction, pf.points, pf.pairs)
    else:
        print(f"error: unknown render target {what[0]!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        content = draw()
    except OverflowError:
        print(f"error: {args.input}: a coordinate exceeds the float range", file=sys.stderr)
        return EXIT_PARSE
    _write_output(content, args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_PARSE on a usage error, not argparse's 2 (a generator failure)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circledepth",
        description="Exact enclosure-depth statistics, verifiers and generators "
        "for planar point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a point set and write a point file")
    gen.add_argument("kind", choices=list(GENERATORS))
    gen.add_argument("--n", type=int, default=8, help="size parameter (see README)")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--range", type=int, default=None, help="coordinate range for random")
    gen.add_argument("--group-size", type=int, default=7, help="seven-region group size")
    gen.add_argument("--levels", type=int, default=1, help="seven-region recursion depth")
    gen.add_argument("--output", "-o", default=None, help="point file path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="depth statistics of a point file as JSON")
    ana.add_argument("input")
    ana.add_argument("--output", "-o", default=None)
    ana.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes for the sweep: this one and forked children, one per CPU (output-invariant)",
    )
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run identity and bound checks, exit 0 iff all pass")
    ver.add_argument("input")
    ver.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all' (default); known: " + ", ".join(CHECKS),
    )
    ver.add_argument("--output", "-o", default=None)
    ver.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes for oracle-match: this one and forked children, one per CPU (output-invariant)",
    )
    ver.set_defaults(func=cmd_verify)

    ren = sub.add_parser("render", help="render a point file to SVG")
    ren.add_argument("input")
    ren.add_argument(
        "--what",
        nargs="+",
        default=["points"],
        help="'points', 'profile P Q', or 'construction'",
    )
    ren.add_argument("--output", "-o", default=None)
    ren.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse and input loading report their own exit codes
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
