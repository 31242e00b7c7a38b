"""Exact rational planar geometry: points, predicates, general-position checks.

Every coordinate is a `fractions.Fraction`, so all predicates decide signs
exactly and every identity downstream is an integer equality, never a
tolerance comparison.  Predicates clear denominators internally and work on
plain Python integers, which keeps the common all-integer case fast.  The
sweep first sorts each bisector on doubles, under an error bound proven for
the set, and takes the integers only where that bound cannot separate two
events (see :class:`PointSet` and :func:`_bisector_order`): a semi-static
filter in the sense of Fortune and Van Wyk (ACM TOG 15(3), 1996) and
Shewchuk (DCG 18(3), 1997).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from itertools import combinations, groupby
from operator import sub, truediv
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
    certifier and the sweep's exact branch (:func:`_bisector_order`) read
    it, so a pair's events cost what the pair's points need, not what the
    whole set needs.  It is None when every D is 1: the grid is then the
    points themselves, and those two read the grid.

    ``floats`` is the float form ``(E, coords)``: the points as doubles,
    and a bound E on the error of each num and cross that the sweep forms
    from them (:func:`_bisector_order`).  :func:`_forms` translates the grid
    by its least x and y, which moves no s, and with D the larger of the
    translated x-range and y-range and u = 2^-53 takes one of three cases:

    (a) An integral set with D < 2^25 (:data:`FLOAT_SPREAD`): the
        translated integers, and E = 0.  Every difference of two is below
        2^25, every product of two below 2^50, num and cross below 2^51 and
        the certifier's screen values below 2^53: integers that a double
        holds exactly.  So each +, - and * is exact, and num / cross is the
        float that int / int gives on the grid.
    (b) An integral set with D < 2^53: the translated integers, still
        exact, and so is each difference of two, at most D in magnitude.
        Only the two products of num or cross and their sum round, each by
        at most u times its magnitude (integers do not underflow): u D^2
        per product, and u 2 D^2 (1 + u) for the sum, so
        E = 4 u D^2 (1 + 2 u), rounded up.
    (c) Any other set, rational or wider: the translated grid scaled by
        2^-b, b the bit length of D, so that every coordinate lies in
        [0, 1) and the largest in [1/2, 1), each rounded once to a double in
        [0, 1].  With eta = 2^-1075, half the least subnormal, a rounding of
        a value in [0, 1] errs by at most u + eta (zero rounds to zero); a
        difference of two coordinates by at most 2 (u + eta) + u, as a
        float subtraction that lands among the subnormals is exact; a
        product of two differences, each in [-1, 1], by
        2 (3 u + 2 eta) + u + eta; and num or cross by twice that plus the
        sum's own 2 u: 16 u + 10 eta, below E = 17 u.  A set with a
        coordinate of magnitude 2^1024 or more, beyond the doubles, has no
        float form: its pairs are all sorted on integers.

    So E = 0 holds the grid's exact integers, and E > 0 approximations
    whose signs and order the sweep certifies per pair before it uses them.
    The certifier's screen reads the float form only where E = 0, and no
    reference reads it, so no product of degree 3 or more ever sees a float.

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
        self.floats: tuple[float, tuple[tuple[float, float], ...]] | None = None

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


# Integral sets that span less than this take the exact float form, E = 0
# (case (a) of PointSet).
FLOAT_SPREAD = 1 << 25
# The float form's bound in case (c) of PointSet, 17 u.
_ROUNDED_BOUND = 17 / (1 << 53)


def _forms(points: Sequence[Point]) -> tuple[tuple, tuple | None, tuple | None]:
    """The three forms of ``points`` that certification stores (see
    :class:`PointSet`): the common integer grid; the local form, None when
    every point is integral; and the float form (E, coords), in case (a),
    (b) or (c), None for an empty set or a coordinate of 2^1024 or more."""
    local = []
    lcm = 1
    for p in points:
        d = math.lcm(p.x.denominator, p.y.denominator)
        lcm = math.lcm(lcm, d)
        x, y = p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator)
        local.append((x, y, d))
    if lcm != 1:
        grid = tuple((x * (lcm // d), y * (lcm // d)) for x, y, d in local)
        local = tuple(local)
    else:
        grid, local = tuple((x, y) for x, y, _ in local), None
    if not grid:
        return grid, local, None
    xs, ys = [x for x, _ in grid], [y for _, y in grid]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    if local is None and span < 1 << 53:
        if span < FLOAT_SPREAD:
            bound = 0.0
        else:  # 4 u D^2 (1 + 2u), rounded to nearest, then one step up
            bound = math.nextafter(4 * span * span * ((1 << 53) + 2) / (1 << 106), math.inf)
        return grid, local, (bound, tuple((float(x - x0), float(y - y0)) for x, y in grid))
    if max(-x0, x1, -y0, y1) >= lcm << 1024:
        return grid, local, None
    scale = 1 << span.bit_length()
    return grid, local, (_ROUNDED_BOUND, tuple(((x - x0) / scale, (y - y0) / scale) for x, y in grid))


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
    signed cross (2 s = num / cross; cross > 0 for a point left of p->q);
    ``rank`` lists positions into ``others`` in increasing s, and ``ties``
    the groups of points with equal s, each in that order.  From the exact
    branch num and cross are integers; from the float stage they are
    doubles, exact where the float form's bound E is 0 and otherwise
    approximations whose signs alone are certified (see :class:`PointSet`)."""

    others: list[int]
    nums: list
    crosses: list
    rank: list[int]
    ties: list[list[int]]


def _crosses_and_nums(
    coords: Sequence[tuple], p: int, q: int, others: list[int]
) -> tuple[list, list]:
    """cross(q - p, x - p) and num = (x - p) . (x - q) of each x in
    ``others``, each a sum of two products of coordinate differences."""
    (px, py), (qx, qy) = coords[p], coords[q]
    ux, uy = qx - px, qy - py
    crosses, nums = [], []
    for x in others:
        xx, xy = coords[x]
        ax, ay = xx - px, xy - py
        crosses.append(ux * ay - uy * ax)
        nums.append(ax * (xx - qx) + ay * (xy - qy))
    return crosses, nums


# A relative slack on the float stage's error terms, far above the few
# roundings of u = 2^-53 taken in forming them.
_SLACK = 1 + 2**-40


def _bisector_order(
    ints: Sequence[tuple[int, int]],
    p: int,
    q: int,
    others: Iterable[int],
    local: Sequence[tuple[int, int, int]] | None = None,
    floats: tuple[float, Sequence[tuple[float, float]]] | None = None,
) -> tuple[BisectorOrder, list[int]]:
    """The points ``others`` in increasing order of their circumcenter with
    (p, q) along the pair's bisector, exactly, and apart from them the
    points collinear with p and q.

    On the frame of :mod:`circledepth.depth` (midpoint of pq, direction
    rot90(q - p)) the circumcenter of (p, q, x) sits at

        s_x = dot(x - p, x - q) / (2 * cross(q - p, x - p)),

    which is invariant under translating and scaling p, q and x together.

    Given the set's float form (E, coords) (see :class:`PointSet`), the
    sweep (``depth.weight_sequence``) first sorts on doubles: num and cross
    from the coords, the key num / cross.  With E = 0 they are the grid's
    integers, and correct rounding is monotone, so distinct keys with no
    zero cross order the points exactly as s does, with no ties.  With
    E > 0 each num and cross errs by at most E, and the pair is
    certified when every |cross| exceeds E, which fixes each cross's sign
    and rules out a point collinear with p and q, and when adjacent sorted
    keys differ by more than 2 e (1 + 2^-40), with

        e = (E (1 + K) / (c_min - E) + 2 u K) (1 + 2^-40),

    K the largest |key|, c_min the smallest |cross| and u = 2^-53.  For a
    key k = fl(n / c), n and c within E of the true N and C and
    s = N / C, |n/c - s| = |(n - N) - s (c - C)| / |c| <= E (1 + |s|) / |c|,
    which solved for |s| gives at most E (1 + |n/c|) / (|c| - E); rounding
    adds u |n/c|, and |n/c| <= K (1 + 2u).  The factor 1 + 2^-40 covers
    those (1 + 2u), the roundings in computing e and the gap, and the
    absolute error 2^-1075 of a subnormal key.  So every key lies within e
    of its s, and keys more than 2 e apart order their points exactly.  A
    certified pair returns the doubles: ``nums`` and ``crosses`` whose
    signs, and with E = 0 values, are the true ones.

    Any failure, and a set with no float form, takes the exact branch.  The
    sweep and :func:`validate_general_position`, for the pairs its screen
    flags, pass the set's local form, so num / cross = 2 s_x is taken on the
    points' own denominators: p and q are scaled once onto
    L = lcm(Dp, Dq), and for each x, a = L X - Dx p' and b = L X - Dx q' are
    L Dx (x - p) and L Dx (x - q), so num = a . b and
    cross = Dx cross(q' - p', a) both carry the factor (L Dx)^2.  When
    ``local`` is None (every point integral, or a hand-built grid) they are
    taken on the integer grid ``ints``.  The key is the float num / cross,
    which Python rounds correctly; only when two keys are equal (0.0 and
    -0.0 too) or a quotient overflows does the bisector sort on
    :func:`_exact_keys`, which finds its ties; the sort is stable, so tied
    points keep the order of ``others``.  A zero cross is an x collinear
    with p and q, with no circumcenter: these are the second list.  The
    references never come here; they read the grid.
    """
    # A display, not list(): it draws its list object from CPython's free
    # list, so a sweep's traced memory does not depend on that list's state.
    others = [*others]
    if floats is not None:
        bound, coords = floats
        crosses, nums = _crosses_and_nums(coords, p, q, others)
        least = min(map(abs, crosses), default=math.inf)
        if least > bound:
            keys = list(map(truediv, nums, crosses))
            rank = sorted(range(len(keys)), key=keys.__getitem__)
            if not bound:
                certified = len(set(keys)) == len(keys)
            else:
                top = max(map(abs, keys), default=0.0)
                err = (bound * (1 + top) / (least - bound) + 2**-52 * top) * _SLACK
                ranked = list(map(keys.__getitem__, rank))
                certified = min(map(sub, ranked[1:], ranked), default=math.inf) > 2 * err * _SLACK
            if certified:
                return BisectorOrder(others, nums, crosses, rank, []), []
    if local is None:
        crosses, nums = _crosses_and_nums(ints, p, q, others)
    else:
        crosses, nums = [], []
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
        keys = _exact_keys(nums, crosses)
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
    Where the set's float form is exact (case (a) of :class:`PointSet`,
    E = 0), the rows and the screen read it: R is below 2^51, each U . A
    term below 2^50 and so every partial sum below 2^53, and cross(U, A)
    below 2^51, all integers that a double holds exactly, so each float is
    the one int / int gives on the grid.  Python
    rounds int / int correctly, so equal values give equal floats
    (0.0 == -0.0), and a zero cross raises ZeroDivisionError: a pair whose
    floats are distinct, with no error or overflow, has no violation.  Only
    the other pairs go to the exact branch of :func:`_bisector_order`, on
    the local form or the grid, which lists their violations.
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
    # The screen reads the float form only where it is exact (E = 0).
    coords = floats[1] if floats is not None and not floats[0] else pts
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
            order, on_line = _bisector_order(pts, i, j, range(j + 1, n), local)
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
