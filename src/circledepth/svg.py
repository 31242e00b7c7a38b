"""Static SVG renderings of point sets, bisector profiles and constructions.

A construction is its points drawn over one segment per designated pair
(``render_points`` with ``pairs``).

Coordinates stay exact until the drawing is translated by the exact corner
of its bounding box, then are rounded for drawing only, to three decimals
or a thousandth of the drawing's span when that is finer; element order and
formatting are fixed so identical inputs give identical bytes.  The viewBox
is that box (point centers, line ends and label anchors), or the unit
square when nothing is drawn, plus a 5% margin, as if a drawing of one spot
spanned one unit.  A span below the normal float range is first scaled by
an exact power of ten into (0.1, 1], so its points stay apart; a span
beyond the float range raises ``OverflowError``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial
from typing import Iterable

from .geom import Color, Point, PointSet
from .depth import weight_sequence

_FILL = {Color.RED: "#c62828", Color.BLUE: "#1565c0", Color.UNCOLORED: "#333333"}


def _fmt(value: float, digits: int) -> str:
    text = f"{value:.{digits}f}"
    return text[1:] if text.startswith("-") and not text.strip("-0.") else text


class _Canvas:
    """Elements in drawing order, each its exact points and the writer of its line.

    ``render`` calls a writer with a formatter of sizes (fractions of the
    drawing's span) and the element's points as formatted (x, y) pairs.
    """

    def __init__(self):
        self.elements: list[tuple] = []

    def line(self, a, b, stroke: str, width_frac: float = 0.002) -> None:
        self.elements.append(((a, b), lambda size, u, v: (
            f'  <line x1="{u[0]}" y1="{u[1]}" x2="{v[0]}" y2="{v[1]}" '
            f'stroke="{stroke}" stroke-width="{size(width_frac)}" />'
        )))

    def circle(self, center, radius_frac: float, fill: str) -> None:
        self.elements.append(((center,), lambda size, c: (
            f'  <circle cx="{c[0]}" cy="{c[1]}" r="{size(radius_frac)}" fill="{fill}" />'
        )))

    def text(self, pos, content: str, size_frac: float = 0.025) -> None:
        self.elements.append(((pos,), lambda size, t: (
            f'  <text x="{t[0]}" y="{t[1]}" font-size="{size(size_frac)}" '
            f'font-family="monospace" fill="#000000">{content}</text>'
        )))

    def render(self) -> str:
        points = [p for element, _ in self.elements for p in element]
        xs, ys = zip(*points) if points else ((0, 1), (0, 1))
        left, top = min(xs), min(ys)
        width, height = max(xs) - left, max(ys) - top
        scale = _scale(Fraction(max(width, height)))
        width, height = float(width * scale), float(height * scale)
        span = max(width, height) or 1.0
        margin = 0.05 * span
        vb = (-margin, -margin, width + 2 * margin, height + 2 * margin)
        if not all(map(math.isfinite, vb)):
            raise OverflowError("drawing extends beyond the float range")
        fmt = partial(_fmt, digits=3 + max(0, -math.floor(math.log10(span))))
        at = lambda p: (fmt(float((p[0] - left) * scale)), fmt(float((p[1] - top) * scale)))
        size = lambda frac: fmt(frac * span)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(vb[0])} {fmt(vb[1])} '
            f'{fmt(vb[2])} {fmt(vb[3])}">',
        ]
        out += (write(size, *map(at, element)) for element, write in self.elements)
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _scale(span: Fraction) -> int:
    # A span below the normal float range would lose its points in the float
    # conversion.  Times 10^k <= 1 / span < 10^(k+1) it lies in (0.1, 1].
    if not span or float(span) >= sys.float_info.min:
        return 1
    inverse = span.denominator // span.numerator
    k = (inverse.bit_length() - 1) * 30102 // 100000  # at most log10(inverse)
    while 10 ** (k + 1) <= inverse:
        k += 1
    return 10**k


def _xy(p: Point) -> tuple[Fraction, Fraction]:
    # SVG y grows downward; flip so the picture matches the usual orientation.
    return p.x, -p.y


def render_points(ps: PointSet, pairs: Iterable[tuple[int, int]] = ()) -> str:
    """The points, over one segment per pair (a construction's designated pairs)."""
    canvas = _Canvas()
    for a, b in pairs:
        canvas.line(_xy(ps.point(a)), _xy(ps.point(b)), "#2e7d32", 0.003)
    for cp in ps.points:
        canvas.circle(_xy(cp.point), 0.008, _FILL[cp.color])
    return canvas.render()


def render_profile(ps: PointSet, p: int, q: int) -> str:
    """The pair, its bisector with circumcenter ticks, and segment weights.

    The weights come from the sweep; the ticks sit at the exact parameters
    s_x = dot(x - p, x - q) / (2 * cross(q - p, x - p)) of the frame of
    :mod:`circledepth.depth`, sorted, one per third point x.
    """
    weights = weight_sequence(ps, p, q)
    canvas = _Canvas()
    pp, qp = ps.point(p), ps.point(q)
    canvas.line(_xy(pp), _xy(qp), "#999999")
    # center(s) = midpoint of pq + s * rot90(q - p), the sweep's frame
    mid = Point((pp.x + qp.x) / 2, (pp.y + qp.y) / 2)
    dx, dy = -(qp.y - pp.y), qp.x - pp.x
    others = (ps.point(x) for x in range(len(ps)) if x != p and x != q)
    # cross(q - p, x - p) = d . (x - p) for d = rot90(q - p)
    params = sorted(
        ((x.x - pp.x) * (x.x - qp.x) + (x.y - pp.y) * (x.y - qp.y))
        / (2 * (dx * (x.x - pp.x) + dy * (x.y - pp.y)))
        for x in others
    )
    if params:
        pad = (params[-1] - params[0]) / 2 or Fraction(1)
        lo, hi = params[0] - pad, params[-1] + pad
        samples = [lo] + [(a + b) / 2 for a, b in zip(params, params[1:])] + [hi]
    else:
        lo, hi = Fraction(-1), Fraction(1)
        samples = [Fraction(0)]
    at = lambda s: _xy(Point(mid.x + s * dx, mid.y + s * dy))
    canvas.line(at(lo), at(hi), "#555555")
    for s in params:
        canvas.circle(at(s), 0.004, "#555555")
    for s, weight in zip(samples, weights):
        canvas.text(at(s), str(weight))
    for cp in ps.points:
        canvas.circle(_xy(cp.point), 0.008, _FILL[cp.color])
    return canvas.render()

