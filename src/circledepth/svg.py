"""Static SVG renderings of point sets, bisector profiles and constructions.

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

from .geom import Color, Point, PointSet
from .depth import weight_sequence

_FILL = {Color.RED: "#c62828", Color.BLUE: "#1565c0", Color.UNCOLORED: "#333333"}


def _fmt(value: float, digits: int) -> str:
    text = f"{value:.{digits}f}"
    return text[1:] if text.startswith("-") and not text.strip("-0.") else text


class _Canvas:
    def __init__(self):
        self.elements: list[tuple] = []
        self.xs: list[Fraction] = []
        self.ys: list[Fraction] = []

    def _track(self, x: Fraction, y: Fraction) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def line(self, a, b, stroke: str, width_frac: float = 0.002) -> None:
        self._track(*a)
        self._track(*b)
        self.elements.append(
            ("line", a[0], a[1], b[0], b[1], stroke, width_frac)
        )

    def circle(self, center, radius_frac: float, fill: str) -> None:
        self._track(*center)
        self.elements.append(("circle", center[0], center[1], radius_frac, fill))

    def text(self, pos, content: str, size_frac: float = 0.025) -> None:
        self._track(*pos)
        self.elements.append(("text", pos[0], pos[1], content, size_frac))

    def render(self) -> str:
        xs, ys = self.xs or [0, 1], self.ys or [0, 1]
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
        fx, fy = (lambda v: fmt(float((v - left) * scale))), (lambda v: fmt(float((v - top) * scale)))
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(vb[0])} {fmt(vb[1])} '
            f'{fmt(vb[2])} {fmt(vb[3])}">',
        ]
        for element in self.elements:
            if element[0] == "line":
                _, x1, y1, x2, y2, stroke, wf = element
                out.append(
                    f'  <line x1="{fx(x1)}" y1="{fy(y1)}" x2="{fx(x2)}" y2="{fy(y2)}" '
                    f'stroke="{stroke}" stroke-width="{fmt(wf * span)}" />'
                )
            elif element[0] == "circle":
                _, cx, cy, rf, fill = element
                out.append(
                    f'  <circle cx="{fx(cx)}" cy="{fy(cy)}" r="{fmt(rf * span)}" fill="{fill}" />'
                )
            else:
                _, x, y, content, sf = element
                out.append(
                    f'  <text x="{fx(x)}" y="{fy(y)}" font-size="{fmt(sf * span)}" '
                    f'font-family="monospace" fill="#000000">{content}</text>'
                )
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


def render_points(ps: PointSet) -> str:
    canvas = _Canvas()
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


def render_construction(ps: PointSet, pairs: list[tuple[int, int]]) -> str:
    canvas = _Canvas()
    for a, b in pairs:
        canvas.line(_xy(ps.point(a)), _xy(ps.point(b)), "#2e7d32", 0.003)
    for cp in ps.points:
        canvas.circle(_xy(cp.point), 0.008, _FILL[cp.color])
    return canvas.render()
