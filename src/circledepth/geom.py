"""Exact rational planar geometry: points, predicates, general-position checks.

Every coordinate is a `fractions.Fraction`, so all predicates decide signs
exactly and every identity downstream is an integer equality, never a
tolerance comparison.  Predicates clear denominators internally and work on
plain Python integers, which keeps the common all-integer case fast.  On an
integer set whose coordinates span less than 2^25 the sweep and the
certifier's screen take those integers as doubles, which hold every value
they form exactly (see :class:`PointSet`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from itertools import combinations, groupby
from operator import truediv
from typing import Iterable, Iterator, NamedTuple, Sequence


class DegenerateInputError(ValueError):
    """A predicate received input it is undefined for (e.g. collinear points).

    ``indices`` names the offending points when the caller works with a point
    set; it is empty for free-standing point arguments.
    """

    def __init__(self, message: str, indices: Sequence[int] = ()):
        super().__init__(message)
        self.indices = tuple(indices)


class NotCertifiedError(ValueError):
    """An operation required a general-position certified point set."""


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x, y) -> "Point":
        return Point(Fraction(x), Fraction(y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


class Color(Enum):
    RED = "R"
    BLUE = "B"
    UNCOLORED = ""


class ColoredPoint(NamedTuple):
    point: Point
    color: Color = Color.UNCOLORED


class PointSet:
    """An indexed list of colored points, optionally certified in general position.

    ``grid`` is the common integer grid (coordinates scaled by one lcm of
    their denominators), read through :meth:`require_certified`.  The
    references decide their signs on it: ``depth.oracle_weights`` and
    ``depth.triple_counts`` (both O(n^3 log n) over all pairs),
    ``depth.j_edge_counts``, the claims of
    ``constructions.claim_failures`` and everything in ``brute``.
    ``local`` is each point on its own denominators, homogeneous integers
    (X, Y, D) with D the lcm of the point's two reduced denominators; the
    bisector sweep and the certifier (:func:`_bisector_order`) read it, so a
    pair's events cost what the pair's points need, not what the whole set
    needs.  It is None when every D is 1: the grid is then the points
    themselves, and the sweep reads the grid or its float copy.

    ``floats`` is that float copy: when ``local`` is None and the grid's
    x-range and y-range are both below 2^25 (:data:`FLOAT_SPREAD`), the
    grid translated by its least x and y, as doubles; otherwise None.  Every
    coordinate of it is an integer in [0, 2^25), so every difference of two
    is below 2^25 in magnitude and every product of two differences below
    2^50.  The sweep's num and cross are sums of two such products, below
    2^51, and the certifier's screen values are below 2^53: integers that a
    double holds exactly.  So each +, - and * on them is exact, and
    num / cross is the correctly rounded quotient, the same float that
    int / int gives on the grid.  The sweep and the certifier's screen read
    it in place of the grid; no reference reads it, so no product of degree
    3 or more ever sees a float.

    The three come from :func:`_forms` and are stored by certification
    only: by :func:`validate_general_position`, or by a sweep of every pair
    (:func:`circledepth.depth.sweep_totals`, through :func:`_certifying`),
    which keeps them when it meets no degeneracy.  A violation clears them:
    one collinear triple or cocircular quadruple breaks the strict-sign
    reasoning of the depth machinery.  They are a snapshot taken
    by certification, so a set whose ``points`` change must be certified
    again.  Indices are stable: operations name points by position in
    ``points``.
    """

    def __init__(self, points: list[ColoredPoint] | None = None):
        self.points = [] if points is None else points
        self.grid: tuple[tuple[int, int], ...] | None = None
        self.local: tuple[tuple[int, int, int], ...] | None = None
        self.floats: tuple[tuple[float, float], ...] | None = None

    def __eq__(self, other):  # also makes the set unhashable, as it is mutable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.grid, self.local, self.floats) == (
            other.points, other.grid, other.local, other.floats
        )

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r})"

    @staticmethod
    def from_coords(coords: Iterable[tuple], colors: Iterable[Color] | None = None) -> "PointSet":
        pts = [Point.of(x, y) for x, y in coords]
        if colors is None:
            cols = [Color.UNCOLORED] * len(pts)
        else:
            cols = list(colors)
            if len(cols) != len(pts):
                raise ValueError("colors must match coords in length")
        return PointSet([ColoredPoint(p, c) for p, c in zip(pts, cols)])

    def __len__(self) -> int:
        return len(self.points)

    def point(self, i: int) -> Point:
        return self.points[i].point

    def color(self, i: int) -> Color:
        return self.points[i].color

    def indices_of(self, color: Color) -> list[int]:
        return [i for i, cp in enumerate(self.points) if cp.color is color]

    @property
    def gp_certified(self) -> bool:
        return self.grid is not None

    def require_certified(self) -> tuple[tuple[int, int], ...]:
        if self.grid is None:
            raise NotCertifiedError(
                "point set is not certified in general position; "
                "run validate_general_position first"
            )
        return self.grid


def _int_coords(points: Sequence[Point]) -> tuple[tuple[int, int], ...]:
    # Scale all coordinates onto a common integer grid.  Sign predicates are
    # invariant under a common positive scaling, so this is exact.
    return _forms(points)[0]


# Coordinates that span less than this take the float copy (see PointSet).
FLOAT_SPREAD = 1 << 25


def _forms(points: Sequence[Point]) -> tuple[tuple, tuple | None, tuple | None]:
    """The three forms of ``points`` that certification stores (see
    :class:`PointSet`): the common integer grid; the local form, None when
    every point is integral; and the float copy, None unless the set is
    integral, not empty, and spans less than 2^25 on both axes."""
    local = []
    lcm = 1
    for p in points:
        d = math.lcm(p.x.denominator, p.y.denominator)
        lcm = math.lcm(lcm, d)
        x, y = p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator)
        local.append((x, y, d))
    if lcm != 1:
        return tuple((x * (lcm // d), y * (lcm // d)) for x, y, d in local), tuple(local), None
    grid = tuple((x, y) for x, y, _ in local)
    xs, ys = [x for x, _ in grid], [y for _, y in grid]
    x0, y0 = min(xs, default=0), min(ys, default=0)
    if not grid or max(xs) - x0 >= FLOAT_SPREAD or max(ys) - y0 >= FLOAT_SPREAD:
        return grid, None, None
    return grid, None, tuple((float(x - x0), float(y - y0)) for x, y in grid)


def _duplicate_pairs(pts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Index pairs i < j with pts[i] == pts[j], in lexicographic order.

    One stable sort groups equal points, so each group's indices increase.
    """
    order = sorted(range(len(pts)), key=pts.__getitem__)
    pairs: list[tuple[int, int]] = []
    for _, group in groupby(order, key=pts.__getitem__):
        # A list, not the group iterator: combinations() would copy an
        # iterator into a tuple it then shrinks, and CPython keeps up to 2000
        # such tuples on its free list of 1-tuples after they are freed.
        pairs.extend(combinations([*group], 2))
    pairs.sort()
    return pairs


@contextmanager
def _certifying(ps: PointSet) -> Iterator[None]:
    """Certify ``ps`` by the block, which must sweep every pair over all others.

    On a certified set this does nothing.  Otherwise it raises
    :class:`DegenerateInputError` naming the first two coincident points,
    if any, stores the forms (:func:`_forms`) and clears them only if the
    block raises.  :func:`circledepth.depth.weight_sequence` raises on every
    collinear point or tie of the pair it sweeps, so a clean exit of
    :func:`circledepth.depth.sweep_totals`, its one caller, certifies.
    """
    if ps.gp_certified:
        yield
        return
    forms = _forms([cp.point for cp in ps.points])
    duplicates = _duplicate_pairs(forms[0])
    if duplicates:
        raise DegenerateInputError("duplicate points", duplicates[0])
    ps.grid, ps.local, ps.floats = forms
    try:
        yield
    except BaseException:
        ps.grid = ps.local = ps.floats = None
        raise


def _sign(value: int) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _orient_int(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _incircle_det_int(
    a: tuple[int, int], b: tuple[int, int], c: tuple[int, int], d: tuple[int, int]
) -> int:
    # Determinant of the lifted 3x3 matrix; positive iff d is inside the
    # circumcircle of (a, b, c) when (a, b, c) is counterclockwise.
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _exact_keys(nums: list[int], crosses: list[int]) -> list[int]:
    # With every |cross| below 2^B, distinct values num/cross differ by more than
    # 2^-2B, so floor(num * 2^2B / cross) orders them as s does, ties included.
    shift = 2 * max(map(abs, crosses)).bit_length()
    return [(num << shift) // cross for num, cross in zip(nums, crosses)]


class BisectorOrder(NamedTuple):
    """One bisector's sort, from :func:`_bisector_order`: ``others`` are the
    points with a circumcenter on it, in the order given, with their num and
    signed cross (2 s = num / cross; cross > 0 for a point left of p->q),
    integers, held as exact doubles when the sort read the float copy (see
    :class:`PointSet`); ``rank`` lists positions into ``others`` in
    increasing s, and ``ties`` the groups of points with equal s, each in
    that order."""

    others: list[int]
    nums: list[int]
    crosses: list[int]
    rank: list[int]
    ties: list[list[int]]


def _bisector_order(
    ints: Sequence[tuple[int, int]],
    p: int,
    q: int,
    others: Iterable[int],
    local: Sequence[tuple[int, int, int]] | None = None,
) -> tuple[BisectorOrder, list[int]]:
    """The points ``others`` in increasing order of their circumcenter with
    (p, q) along the pair's bisector, exactly, and apart from them the
    points collinear with p and q.

    On the frame of :mod:`circledepth.depth` (midpoint of pq, direction
    rot90(q - p)) the circumcenter of (p, q, x) sits at

        s_x = dot(x - p, x - q) / (2 * cross(q - p, x - p)),

    which is invariant under scaling p, q and x together.  The sweep
    (``depth.weight_sequence``), for every pair, and
    :func:`validate_general_position`, for the pairs its float screen
    flags, pass the set's local form (see :class:`PointSet`), so
    num / cross = 2 s_x is taken on the points' own denominators: p and q
    are scaled once onto L = lcm(Dp, Dq), and for each x, a = L X - Dx p'
    and b = L X - Dx q' are L Dx (x - p) and L Dx (x - q), so num = a . b
    and cross = Dx cross(q' - p', a) both carry the factor (L Dx)^2.  When
    ``local`` is None (every point integral, or a hand-built grid) they are
    taken on ``ints``: the integer grid, or its float copy, whose
    coordinates lie in [0, 2^25) (see :class:`PointSet`).  On the copy each
    difference is below 2^25 in magnitude, each of the four products below
    2^50, and num and cross, sums of two products, below 2^51, so a double
    holds every value exactly and num and cross are the grid's integers.
    The references never come here; they read the grid.

    The key is the float num / cross, which Python rounds correctly (int /
    int on the grid, one IEEE division on the copy: the same float), and
    correct rounding is monotone: distinct floats order the points exactly
    as s does, with no ties.  Only when two floats are equal (0.0 and -0.0
    too) or a quotient overflows does the bisector sort on
    :func:`_exact_keys`, on num and cross as ints, which finds its ties; the
    sort is stable, so tied points keep the order of ``others``.  A zero
    cross is an x collinear with p and q, with no circumcenter: these are
    the second list.
    """
    # A display, not list(): it draws its list object from CPython's free
    # list, so a sweep's traced memory does not depend on that list's state.
    others = [*others]
    crosses, nums = [], []
    if local is None:
        px, py = ints[p]
        qx, qy = ints[q]
        ux, uy = qx - px, qy - py
        for x in others:
            xx, xy = ints[x]
            ax, ay = xx - px, xy - py
            crosses.append(ux * ay - uy * ax)
            nums.append(ax * (ax - ux) + ay * (ay - uy))
    else:
        (px, py, dp), (qx, qy, dq) = local[p], local[q]
        scale = math.lcm(dp, dq)
        px, py = px * (scale // dp), py * (scale // dp)
        qx, qy = qx * (scale // dq), qy * (scale // dq)
        ux, uy = qx - px, qy - py
        for x in others:
            # a = L Dx (x - p), and a - Dx (q' - p') = L Dx (x - q).
            xx, xy, dx = local[x]
            ax, ay = xx * scale - px * dx, xy * scale - py * dx
            crosses.append(dx * (ux * ay - uy * ax))
            nums.append(ax * (ax - ux * dx) + ay * (ay - uy * dx))
    collinear = []
    if 0 in crosses:  # never on a certified set, so the filter costs nothing there
        kept = [i for i, cross in enumerate(crosses) if cross]
        collinear = [x for x, cross in zip(others, crosses) if not cross]
        others, crosses, nums = ([seq[i] for i in kept] for seq in (others, crosses, nums))
    try:
        keys = list(map(truediv, nums, crosses))
        exact = len(set(keys)) < len(keys)
    except OverflowError:
        exact = True
    if exact:
        keys = _exact_keys([*map(int, nums)], [*map(int, crosses)])
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    groups = ([others[i] for i in group] for _, group in groupby(rank, key=keys.__getitem__))
    ties = [group for group in groups if len(group) > 1] if exact else []
    return BisectorOrder(others, nums, crosses, rank, ties), collinear


def orientation(a: Point, b: Point, c: Point) -> int:
    """Return +1 if (a, b, c) turns counterclockwise, -1 clockwise, 0 collinear."""
    ia, ib, ic = _int_coords([a, b, c])
    return _orient_int(ia, ib, ic)


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Exact circumcenter of three non-collinear points.

    Rational inputs give a rational center, so its squared distances to a,
    b and c are equal Fractions.
    """
    d = 2 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
    if d == 0:
        raise DegenerateInputError("circumcenter: points are collinear")
    a2 = a.x * a.x + a.y * a.y
    b2 = b.x * b.x + b.y * b.y
    c2 = c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return Point(ux, uy)


class Violation(NamedTuple):
    kind: str  # "duplicate", "collinear" or "cocircular"
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}"


def validate_general_position(ps: PointSet) -> list[Violation]:
    """List duplicates, collinear triples and cocircular quadruples.

    Returns an empty list exactly when the set is in general position, and
    then stores the three forms of :func:`_forms` as ``ps.grid``,
    ``ps.local`` and ``ps.floats`` (see :class:`PointSet`); a violation
    clears all three.  Violations are data, not errors: callers (e.g. the
    construction generators) repair the named tuples.  Quadruples containing a collinear triple are skipped; the
    triple itself is already reported.

    The duplicates come from one sort of the points.  After them, each pair
    i < j is decided over the later points x > j in O(n^3 log n) in all: a
    point collinear with (i, j) is a violation, and a quadruple
    i < j < k < m with no collinear triple is cocircular exactly when the
    circumcenters of (i, j, k) and (i, j, m) coincide, i.e. when k and m
    have the same s on the pair's bisector (see :func:`_bisector_order`).
    Four points on one circle never include three on a line, so leaving the
    collinear points out of the ties loses no quadruple.  The same argument
    lets a sweep of every pair over all other points certify a set (see
    :func:`_certifying`); this function stays the one that lists violations.

    A float screen spares most pairs that sort.  Per pivot p = point i, each
    later x gets the row Dx A, R = |A|^2 with A = Dp Dx (x - p); per
    q = point j, with U = Dp Dq (q - p), the float of each x > j is
    (Dq R - U . Dx A) / cross(U, Dx A), the rational 2 s_x (on the grid every
    D is 1, and the grid's own comprehension skips the products by 1).
    Where the set has a float copy, the rows and the screen read it: R is
    below 2^51, each U . A term below 2^50 and so every partial sum below
    2^53, and cross(U, A) below 2^51, all integers that a double holds
    exactly, so each float is the one int / int gives on the grid.  Python
    rounds int / int correctly, so equal values give equal floats
    (0.0 == -0.0), and a zero cross raises ZeroDivisionError: a pair whose
    floats are distinct, with no error or overflow, has no violation.  Only
    the other pairs go to :func:`_bisector_order`, on the same form, which
    lists their violations.
    ``brute.general_position_violations`` is the exhaustive O(n^4)
    reference, with the same output.
    """
    pts, local, floats = _forms([cp.point for cp in ps.points])
    n = len(pts)
    ps.grid = ps.local = ps.floats = None
    duplicates = [Violation("duplicate", pair) for pair in _duplicate_pairs(pts)]
    if duplicates:
        # Coincident points make every predicate on them meaningless; report
        # only the duplicates and let the caller fix those first.
        return duplicates
    coords = floats or pts
    collinear: list[Violation] = []
    cocircular: list[Violation] = []
    for i in range(n - 1):
        if local is None:
            px, py = coords[i]
            heads = [(x - px, y - py, 1) for x, y in coords[i + 1 :]]
        else:
            px, py, dp = local[i]
            heads = [(dp * x - d * px, dp * y - d * py, d) for x, y, d in local[i + 1 :]]
        rows = [(d * ax, d * ay, ax * ax + ay * ay) for ax, ay, d in heads]
        for j, (ux, uy, dq) in enumerate(heads, i + 1):
            try:
                if local is None:
                    keys = {(r2 - ux * ax - uy * ay) / (ux * ay - uy * ax) for ax, ay, r2 in rows[j - i :]}
                else:
                    keys = {(dq * r2 - ux * ax - uy * ay) / (ux * ay - uy * ax) for ax, ay, r2 in rows[j - i :]}
                if len(keys) == n - 1 - j:
                    continue  # the screen shows pair (i, j) free of violations
            except (ZeroDivisionError, OverflowError):
                pass
            order, on_line = _bisector_order(coords, i, j, range(j + 1, n), local)
            collinear.extend(Violation("collinear", (i, j, x)) for x in on_line)
            tied = sorted(pair for group in order.ties for pair in combinations(sorted(group), 2))
            cocircular.extend(Violation("cocircular", (i, j, k, m)) for k, m in tied)
    violations = collinear + cocircular
    if not violations:
        ps.grid, ps.local, ps.floats = pts, local, floats
    return violations


def snap_to_rational(points: Sequence[tuple[float, float]], denominator: int) -> PointSet:
    """Snap float pairs to the nearest fractions with the given denominator.

    The result is not certified; callers validate (and perturb) afterwards.
    Exact ties round half to even, matching Python's ``round``.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    cps = []
    for x, y in points:
        nx = round(Fraction(x) * denominator)
        ny = round(Fraction(y) * denominator)
        cps.append(ColoredPoint(Point(Fraction(nx, denominator), Fraction(ny, denominator))))
    return PointSet(cps)


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Indices of the convex hull in counterclockwise order (monotone chain).

    Collinear points on the hull boundary are excluded; for general-position
    input the hull is exactly the set of extreme points.
    """
    n = len(points)
    if n <= 2:
        return list(range(n))
    ints = _int_coords(points)
    order = sorted(range(n), key=lambda i: ints[i])

    def half(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2 and _orient_int(ints[chain[-2]], ints[chain[-1]], ints[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = half(order)
    upper = half(reversed(order))
    return lower[:-1] + upper[:-1]
