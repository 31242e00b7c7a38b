"""The plain-text point file format.

One point per line: ``x y [color]`` where coordinates are decimal strings or
``num/den`` fractions and the optional color is ``R`` or ``B``.  Lines whose
first non-blank character is ``#`` are comments.  Generators additionally
emit machine-readable ``# @pair i j`` comment lines naming their designated
index pairs, two distinct indices below the point count in ASCII decimal
digits; the parser collects these so renders and verifiers can use them
while plain consumers still see an ordinary point file.

A coordinate is ASCII and holds no ``_``: ``Fraction`` reads any Unicode
digit, and PEP 515 underscores only from CPython 3.11, so without this one
file would parse on one Python and not on another.

A decimal exponent may be at most 4300 in magnitude, CPython's digit limit
on the mantissa: ``Fraction`` computes 10**exponent, so ``1e999999999``
alone would cost unbounded time.

Serialization is canonical (``str(Fraction)``, one space between fields), so
serialize(parse(serialize(...))) is byte-identical.  A parsed value may have
more digits than ``str`` writes (``1e4300`` has 4301); it is written as a
decimal token ``I.DeE`` within the parser's bounds instead, so every point
file the parser accepts serializes and parses back to the same values.
"""

from __future__ import annotations

from decimal import Decimal, Inexact, localcontext
from fractions import Fraction
from typing import NamedTuple

from .geom import Color, ColoredPoint, Point, PointSet


class PointFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PointFile(NamedTuple):
    points: PointSet
    pairs: list[tuple[int, int]]


_COLOR_TOKENS = {"R": Color.RED, "B": Color.BLUE}
MAX_EXPONENT = 4300  # largest magnitude of a decimal exponent (see module docstring)


def _parse_scalar(token: str, line_no: int) -> Fraction:
    if not token.isascii() or "_" in token:
        raise PointFileError(f"bad coordinate {token!r}: non-ASCII character or '_'", line_no)
    exponent = token.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > MAX_EXPONENT):
        message = f"bad coordinate {token!r}: exponent beyond +-{MAX_EXPONENT}"
        raise PointFileError(message, line_no)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise PointFileError(f"bad coordinate {token!r}: {exc}", line_no) from None


def parse_point_file(text: str) -> PointFile:
    points: list[ColoredPoint] = []
    pairs: list[tuple[int, int, int]] = []  # i, j and the line naming them
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
                try:  # ASCII digits only: int() also reads other digits, signs and '_'
                    if not all(f.isascii() and f.isdecimal() for f in fields[1:]):
                        raise ValueError
                    pairs.append((int(fields[1]), int(fields[2]), line_no))
                except ValueError:  # or more digits than int() converts
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
    for i, j, line_no in pairs:
        if not (i < n and j < n) or i == j:
            raise PointFileError(f"pair ({i}, {j}) out of range for {n} points", line_no)
    return PointFile(ps, [(i, j) for i, j, _ in pairs])


def _format_scalar(value: Fraction) -> str:
    """``str(value)``, or ``I.DeE`` for a value with more digits than ``str`` writes.

    Only a decimal token parses to such a value (a ``num/den`` token has at
    most MAX_EXPONENT digits a side, and so has its reduced form), so value =
    digits * 10^e exactly.  E is e clamped to where I and D have at most
    MAX_EXPONENT digits each and |E| <= MAX_EXPONENT: a range that the parsed
    token shows is not empty.  A value no token parses to raises.
    """
    try:
        return str(value)
    except ValueError:
        pass
    with localcontext() as ctx:
        ctx.prec = value.numerator.bit_length() + value.denominator.bit_length() + 1
        ctx.traps[Inexact] = True  # a value with no decimal form
        sign, digits, e = (Decimal(value.numerator) / value.denominator).normalize().as_tuple()
    text = "".join(map(str, digits))
    lo = max(e + len(text) - MAX_EXPONENT, -MAX_EXPONENT)
    hi = min(e + MAX_EXPONENT, MAX_EXPONENT)
    if lo > hi:
        raise ValueError("coordinate has more digits than a point file holds")
    exponent = min(max(e, lo), hi)
    shift = exponent - e  # digits after the point
    text = text + "0" * -shift if shift <= 0 else text.rjust(shift + 1, "0")
    mantissa = f"{text[:-shift]}.{text[-shift:]}" if shift > 0 else text
    return f"{'-' if sign else ''}{mantissa}e{exponent}"


def serialize_point_file(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> str:
    lines = []
    for cp in ps.points:
        token = f"{_format_scalar(cp.point.x)} {_format_scalar(cp.point.y)}"
        if cp.color is not Color.UNCOLORED:
            token += f" {cp.color.value}"
        lines.append(token)
    for i, j in pairs or []:
        lines.append(f"# @pair {i} {j}")
    return "\n".join(lines) + "\n"
