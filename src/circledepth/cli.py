"""Command-line interface.

Subcommands: generate (writes point files from the generators), analyze
(depth statistics as JSON), verify (identity/bound checks, exit 0 iff all
pass) and render (SVG).  Exit codes: 0 success, 1 bad input, output or
options, a drawing beyond the float range or a --jobs worker that died,
2 generator failure, 3 general-position violation, 4 check failure.
Output bytes depend only on input bytes and flags; --jobs never changes
them.

A process compiles every module it imports when no bytecode is cached, so
each subcommand imports only what it runs: ``checks`` in verify,
``constructions`` in generate, ``report`` (with ``json``) in analyze and
verify, ``svg`` in render.  None of them imports ``hashlib``, which maps
OpenSSL: ``report`` takes the input digest from CPython's builtin SHA-256.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .geom import DegenerateInputError, validate_general_position
from .pointfile import PointFileError, parse_index, parse_point_file, serialize_point_file

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERATOR = 2
EXIT_DEGENERATE = 3
EXIT_CHECK_FAILED = 4

# A grid-like input has O(n^4) cocircular quadruples; stderr names the first
# few and the total.
VIOLATIONS_SHOWN = 20


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def _cannot_write(name: str, exc: OSError):
    raise SystemExit(_error(f"cannot write {name}: {exc}"))


def _require_output_dir(path: str | None) -> None:
    """Before any work, fail as writing ``path`` would if its directory is missing."""
    if path not in (None, "-"):
        try:
            Path(path).parent.stat()
        except OSError as exc:
            _cannot_write(path, OSError(exc.errno, exc.strerror, path))


def _write_output(text: str, path: str | None) -> None:
    """Write to ``path`` or stdout; a failed write raises SystemExit(1)."""
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _cannot_write("standard output" if path in (None, "-") else path, exc)


def _load(path: str):
    """Parse a point file into (point file, its bytes); raises SystemExit with the right code."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SystemExit(_error(f"cannot read {path}: {exc}"))
    try:
        pf = parse_point_file(data.decode("utf-8"))
    except (UnicodeDecodeError, PointFileError) as exc:
        raise SystemExit(_error(f"{path}: {exc}"))
    return pf, data


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


# Call-time bindings into the modules imported late.  They stay names of this
# module, looked up when called, so that rebinding one here (as tests and
# perfbench's tracer do) takes effect.


def run_checks(ps, names, jobs=1):
    from . import checks

    return checks.run_checks(ps, names, jobs=jobs)


def two_colored_convex(n):
    from . import constructions

    return constructions.two_colored_convex(n)


def analysis_report(ps, digest, jobs=1):
    from . import report

    return report.analysis_report(ps, digest, jobs=jobs)


def render_json(report_dict):
    from . import report

    return report.render_json(report_dict)


# Generator per `generate` kind, in the parser's order, called with the
# constructions module.  two-colored-convex goes through this module's
# binding above.
GENERATORS = {
    "random": lambda c, args: c.ConstructionOutput(
        c.random_general_position(
            args.n, args.seed, args.range if args.range is not None else max(4 * args.n * args.n, 10**6)
        )
    ),
    "convex": lambda c, args: c.ConstructionOutput(c.random_convex(args.n, args.seed)),
    "two-colored-convex": lambda c, args: two_colored_convex(args.n),
    "seven-region": lambda c, args: c.recursive_seven_region(args.group_size, args.levels),
    "halving": lambda c, args: c.halving_line_construction(args.n),
}


def cmd_generate(args) -> int:
    from . import constructions

    try:
        out = GENERATORS[args.kind](constructions, args)
    except (constructions.ConstructionError, ValueError) as exc:
        print(f"error: generator failed: {exc}", file=sys.stderr)
        return EXIT_GENERATOR
    _write_output(serialize_point_file(out.points, out.designated_pairs), args.output)
    if args.output not in (None, "-"):
        print(f"wrote {len(out.points)} points to {args.output}", file=sys.stderr)
    for a, b in out.designated_pairs:
        print(f"designated pair: ({a}, {b})", file=sys.stderr)
    for claim in out.claims:
        print(f"claim verified: {claim.description}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .report import input_digest

    # The sweep certifies the set as it folds; only a set it finds
    # degenerate pays for the certifier, which lists every violation.
    pf, data = _load(args.input)
    try:
        report = analysis_report(pf.points, input_digest(data), jobs=args.jobs)
    except DegenerateInputError:
        _certify(pf.points)
        raise
    _write_output(render_json(report), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import select_checks
    from .report import input_digest, verification_report

    pf, data = _load(args.input)
    names = None  # run_checks picks the checks that apply to the set
    try:
        if args.checks != "all":  # a selection is checked before any work
            names = select_checks([name.strip() for name in args.checks.split(",") if name.strip()])
        _certify(pf.points)
        results = run_checks(pf.points, names, jobs=args.jobs)
    except ValueError as exc:
        return _error(str(exc))
    report = verification_report(pf.points, input_digest(data), results)
    _write_output(render_json(report), args.output)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_render(args) -> int:
    from . import svg  # only render draws, so the other subcommands skip compiling it

    pf, _ = _load(args.input)
    what = args.what  # checked before any work, as verify checks --checks
    if what[0] in ("points", "construction"):
        if len(what) > 1:
            return _error(f"--what {what[0]} takes no arguments")
        draw = partial(svg.render_points, pf.points, pf.pairs if what[0] == "construction" else ())
    elif what[0] == "profile":
        if len(what) != 3:
            return _error("--what profile needs two indices")
        try:
            p, q = parse_index(what[1]), parse_index(what[2])
        except ValueError:
            return _error("profile indices must be integers")
        n = len(pf.points)
        if not (0 <= p < n and 0 <= q < n) or p == q:
            return _error(f"invalid pair ({what[1]}, {what[2]})")
        draw = partial(svg.render_profile, pf.points, p, q)
    else:
        return _error(f"unknown render target {what[0]!r}")
    _certify(pf.points)
    try:
        content = draw()
    except OverflowError:
        return _error(f"{args.input}: a coordinate exceeds the float range")
    _write_output(content, args.output)
    return EXIT_OK


def _integer(text: str, least: int | None = None) -> int:
    """The type of every integer option: ASCII decimal digits after an optional '-'."""
    try:
        value = -parse_index(text[1:]) if text.startswith("-") else parse_index(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if least is not None and value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
    return value


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
    gen.add_argument("--n", type=_integer, default=8, help="size parameter (see README)")
    gen.add_argument("--seed", type=_integer, default=1)
    gen.add_argument("--range", type=_integer, default=None, help="coordinate range for random")
    gen.add_argument("--group-size", type=_integer, default=7, help="seven-region group size")
    gen.add_argument("--levels", type=_integer, default=1, help="seven-region recursion depth")
    gen.add_argument("--output", "-o", default=None, help="point file path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="depth statistics of a point file as JSON")
    ana.add_argument("input")
    ana.add_argument("--output", "-o", default=None)
    ana.add_argument(
        "--jobs",
        type=partial(_integer, least=1),
        default=1,
        help="most processes for the sweep: this one and forked children, one per CPU,"
        " with at least 10,000 events each, n - 2 a pair (output-invariant)",
    )
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run identity and bound checks, exit 0 iff all pass")
    ver.add_argument("input")
    ver.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names (see the README), or 'all' (default)",
    )
    ver.add_argument("--output", "-o", default=None)
    ver.add_argument(
        "--jobs",
        type=partial(_integer, least=1),
        default=1,
        help="most processes for oracle-match: this one and forked children, one per CPU,"
        " with at least 10,000 events each, 4 (n - 2) a pair (output-invariant)",
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
        _require_output_dir(args.output)
        return args.func(args)
    except SystemExit as exc:  # argparse and input loading report their own exit codes
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except ChildProcessError as exc:  # a --jobs worker killed before it sent its result
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
