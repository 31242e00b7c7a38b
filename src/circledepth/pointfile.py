"""The plain-text point file format.

One point per line: ``x y [color]`` where coordinates are decimal strings or
``num/den`` fractions and the optional color is ``R`` or ``B``.  Lines whose
first non-blank character is ``#`` are comments.  Generators additionally
emit machine-readable ``# @pair i j`` comment lines naming their designated
index pairs; the parser collects these so renders and verifiers can use them
while plain consumers still see an ordinary point file.

A decimal exponent may be at most 4300 in magnitude, CPython's digit limit
on the mantissa: ``Fraction`` computes 10**exponent, so ``1e999999999``
alone would cost unbounded time.

Serialization is canonical (``str(Fraction)``, one space between fields), so
serialize(parse(serialize(...))) is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .geom import Color, ColoredPoint, Point, PointSet


class PointFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class PointFile:
    points: PointSet
    pairs: list[tuple[int, int]] = field(default_factory=list)


_COLOR_TOKENS = {"R": Color.RED, "B": Color.BLUE}
MAX_EXPONENT = 4300  # largest magnitude of a decimal exponent (see module docstring)


def _parse_scalar(token: str, line_no: int) -> Fraction:
    exponent = token.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > MAX_EXPONENT):
        message = f"bad coordinate {token!r}: exponent beyond +-{MAX_EXPONENT}"
        raise PointFileError(message, line_no)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise PointFileError(f"bad coordinate {token!r}: {exc}", line_no) from None


def parse_point_file(text: str) -> PointFile:
    points: list[ColoredPoint] = []
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("@pair"):
                fields = body.split()
                if len(fields) != 3:
                    raise PointFileError("expected '# @pair i j'", line_no)
                try:
                    pairs.append((int(fields[1]), int(fields[2])))
                except ValueError:
                    raise PointFileError("pair indices must be integers", line_no) from None
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise PointFileError(f"expected 'x y [color]', got {len(fields)} fields", line_no)
        x = _parse_scalar(fields[0], line_no)
        y = _parse_scalar(fields[1], line_no)
        color = Color.UNCOLORED
        if len(fields) == 3:
            try:
                color = _COLOR_TOKENS[fields[2]]
            except KeyError:
                raise PointFileError(f"unknown color {fields[2]!r} (expected R or B)", line_no) from None
        points.append(ColoredPoint(Point(x, y), color))
    ps = PointSet(points)
    n = len(points)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise PointFileError(f"pair ({i}, {j}) out of range for {n} points")
    return PointFile(ps, pairs)


def serialize_point_file(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> str:
    lines = []
    for cp in ps.points:
        token = f"{cp.point.x} {cp.point.y}"
        if cp.color is not Color.UNCOLORED:
            token += f" {cp.color.value}"
        lines.append(token)
    for i, j in pairs or []:
        lines.append(f"# @pair {i} {j}")
    return "\n".join(lines) + "\n"
