import random
import re
from fractions import Fraction
from itertools import groupby, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from circledepth import (
    Color,
    ColoredPoint,
    DegenerateInputError,
    NotCertifiedError,
    Point,
    PointSet,
    circumcenter,
    convex_hull,
    oracle_weights,
    orientation,
    snap_to_rational,
    sweep_totals,
    triple_counts,
    validate_general_position,
    weight_sequence,
)
from circledepth import brute, geom
from circledepth.constructions import random_general_position, two_colored_convex
from circledepth.geom import (
    FLOAT_SPREAD,
    Violation,
    _bisector_order,
    _exact_keys,
    _float_copy,
    _grid_and_local,
    _lent_grid,
)
from circledepth.brute import general_position_violations
from circledepth.pointfile import PointFileError, parse_point_file, serialize_point_file

from conftest import (
    BEYOND_FLOAT,
    NEAR_COCIRCULAR,
    NEAR_COCIRCULAR_SMALL,
    RIGHT_ANGLE_TIE,
    in_circle,
    make_set,
    sqdist,
)

P = Point.of

coord = st.integers(min_value=-1000, max_value=1000)
points = st.builds(lambda x, y: P(x, y), coord, coord)


def test_orientation_examples():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1


def test_in_circle_examples():
    a, b, c = P(0, 0), P(4, 0), P(0, 4)
    assert in_circle(a, b, c, P(1, 1)) == 1
    assert in_circle(a, b, c, P(4, 0)) == 0
    assert in_circle(a, b, c, P(10, 10)) == -1


def test_in_circle_orientation_independent():
    # Same circle, opposite orientation of the defining triple.
    assert in_circle(P(0, 0), P(0, 4), P(4, 0), P(1, 1)) == 1


def test_in_circle_collinear_raises():
    with pytest.raises(DegenerateInputError):
        in_circle(P(0, 0), P(1, 1), P(2, 2), P(5, 0))


def test_circumcenter_examples():
    assert circumcenter(P(0, 0), P(4, 0), P(0, 4)) == P(2, 2)
    # Equidistance pins these: x = 1 by symmetry, then |c-a|^2 = |c-b|^2.
    assert circumcenter(P(0, 0), P(2, 0), P(1, 5)) == Point(Fraction(1), Fraction(12, 5))
    center = circumcenter(P(0, 0), P(9, 9), P(10, 0))
    assert center == P(5, 4)
    assert sqdist(center, P(0, 0)) == sqdist(center, P(9, 9)) == sqdist(center, P(10, 0)) == 41


def test_circumcenter_collinear_raises():
    with pytest.raises(DegenerateInputError):
        circumcenter(P(0, 0), P(1, 0), P(2, 0))


@given(a=points, b=points, c=points)
def test_orientation_antisymmetric(a, b, c):
    assert orientation(a, b, c) == -orientation(b, a, c) == -orientation(a, c, b)
    assert orientation(a, b, c) == orientation(b, c, a)


@given(a=points, b=points, c=points, d=points)
@settings(max_examples=60)
def test_in_circle_matches_exact_distance(a, b, c, d):
    # Independent route: exact circumcenter and squared-distance comparison.
    if orientation(a, b, c) == 0:
        return
    center = circumcenter(a, b, c)
    r2 = sqdist(center, a)
    d2 = sqdist(center, d)
    expected = (d2 < r2) - (d2 > r2)
    assert in_circle(a, b, c, d) == expected


@given(a=points, b=points, c=points)
def test_circumcenter_equidistant(a, b, c):
    if orientation(a, b, c) == 0:
        return
    center = circumcenter(a, b, c)
    assert sqdist(center, a) == sqdist(center, b) == sqdist(center, c)


def test_validate_collinear():
    ps = PointSet.from_coords([(0, 0), (1, 0), (2, 0)])
    violations = validate_general_position(ps)
    assert [(v.kind, v.indices) for v in violations] == [("collinear", (0, 1, 2))]
    assert not ps.gp_certified


def test_validate_cocircular():
    ps = PointSet.from_coords([(1, 0), (0, 1), (-1, 0), (0, -1)])
    violations = validate_general_position(ps)
    assert [(v.kind, v.indices) for v in violations] == [("cocircular", (0, 1, 2, 3))]


def test_validate_good_set():
    ps = PointSet.from_coords([(0, 0), (10, 0), (9, 9), (0, 10)])
    assert validate_general_position(ps) == []
    assert ps.gp_certified


def test_validate_duplicate_points():
    ps = PointSet.from_coords([(0, 0), (0, 0), (1, 5)])
    violations = validate_general_position(ps)
    assert [(v.kind, v.indices) for v in violations] == [("duplicate", (0, 1))]


def test_immutable_records_are_hashable_values():
    # Equal records hash alike, by the tuple of their fields, so set and dict
    # orders do not depend on how the records are built.
    p = P(1, 2)
    pairs = [
        (p, P(Fraction(2, 2), 2)),
        (ColoredPoint(p, Color.RED), ColoredPoint(P(1, 2), Color.RED)),
        (Violation("collinear", (0, 1, 2)), Violation("collinear", (0, 1, 2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) == hash(tuple(a)) and len({a, b}) == 1
    assert p != P(2, 1) and ColoredPoint(p) != ColoredPoint(p, Color.BLUE)
    assert Violation("collinear", (0, 1, 2)) != Violation("cocircular", (0, 1, 2))


def test_point_sets_compare_points_grid_and_local():
    coords = [(Fraction(1, 2), 0), (0, 1), (1, 1)]
    a, b = PointSet.from_coords(coords), PointSet.from_coords(coords)
    assert a == b and PointSet() == PointSet() and a != PointSet.from_coords(coords[:2])
    validate_general_position(a)
    assert a != b  # only a holds a grid
    validate_general_position(b)
    assert a == b
    b.local = None
    assert a != b  # same points and grid, local form dropped
    with pytest.raises(TypeError):
        hash(a)  # mutable, so unhashable
    assert PointSet().points is not PointSet().points
    assert repr(PointSet.from_coords([(1, 2)])) == (
        "PointSet(points=[ColoredPoint(point=Point(1, 2), color=<Color.UNCOLORED: ''>)])"
    )


def test_certification_stores_the_integer_grid():
    # One lcm (6) of every denominator scales the set onto integers.
    ps = make_set([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1)])
    assert ps.gp_certified and ps.require_certified() == ((3, 0), (0, 2), (6, 6))
    with pytest.raises(AttributeError):
        ps.gp_certified = False  # derived from the grid, never set
    # Beside it, each point on its own denominators (X, Y, D); on an integer
    # set there is none.  A violation clears both.
    assert ps.local == ((1, 0, 2), (0, 1, 3), (1, 1, 1)) and ps.floats is None
    integral = make_set([(0, 0), (4, 0), (0, 4)])
    assert integral.local is None and integral.floats == ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))
    ps.points.append(ps.points[0])
    assert validate_general_position(ps) == [Violation("duplicate", (0, 3))]
    assert ps.grid is None and ps.local is None
    integral.points.append(integral.points[0])
    assert validate_general_position(integral) and integral.floats is None


def test_recertifying_after_appending_a_duplicate_clears_the_grid():
    ps = make_set([(0, 0), (4, 0), (0, 4)])
    ps.points.append(ps.points[1])
    assert validate_general_position(ps) == [Violation("duplicate", (1, 3))]
    assert ps.grid is None and not ps.gp_certified
    with pytest.raises(NotCertifiedError):
        ps.require_certified()


def test_two_coincident_points_are_a_duplicate():
    # Two points: no third point for the sweep to meet, so the sort must catch it.
    ps = PointSet.from_coords([(0, 0), (0, 0)])
    assert validate_general_position(ps) == [Violation("duplicate", (0, 1))]
    with pytest.raises(DegenerateInputError) as info:
        with _lent_grid(ps):
            pass
    assert info.value.indices == (0, 1) and ps.grid is None


def test_lent_grid_is_cleared_whether_or_not_the_block_raises():
    ps = PointSet.from_coords([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1)])
    with _lent_grid(ps) as grid:
        assert grid == ps.require_certified() == ((3, 0), (0, 2), (6, 6))
        assert ps.local == ((1, 0, 2), (0, 1, 3), (1, 1, 1))
    assert ps.grid is None and ps.local is None
    with pytest.raises(DegenerateInputError):
        with _lent_grid(ps):
            raise DegenerateInputError("met in the sweep")
    assert ps.grid is None and ps.local is None and not ps.gp_certified
    integral = PointSet.from_coords([(-3, 0), (0, 1), (1, 1)])
    with _lent_grid(integral):
        assert integral.floats == ((0.0, 0.0), (3.0, 1.0), (4.0, 1.0))
    assert integral.floats is None


def _the_spread_set(spread, axis, offset=2**40):
    # Four points in general position whose x (axis 0) or y (axis 1)
    # coordinates span exactly ``spread``, the other axis 7, offset by
    # ``offset`` on both.
    coords = [(0, 0), (spread, 1), (3, 5), (1, 7)]
    return [(offset + c[axis], offset + c[1 - axis]) for c in coords]


@pytest.mark.parametrize("axis", [0, 1])
def test_the_float_copy_is_taken_below_a_spread_of_2_to_the_25(axis):
    # Spread 2^25 - 1 takes it, 2^25 does not, and rational input never does;
    # the certifier, the lend and a certifying fold decide alike.
    below = PointSet.from_coords(_the_spread_set(FLOAT_SPREAD - 1, axis))
    at = PointSet.from_coords(_the_spread_set(FLOAT_SPREAD, axis))
    rational = PointSet.from_coords([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1)])
    expected = tuple(
        (float(c[axis]), float(c[1 - axis])) for c in _the_spread_set(FLOAT_SPREAD - 1, 0, offset=0)
    )
    for ps, floats in ((below, expected), (at, None), (rational, None)):
        with _lent_grid(ps):
            assert ps.floats == floats
        assert validate_general_position(ps) == [] and ps.floats == floats
        swept = PointSet(ps.points)
        assert sweep_totals(swept) == sweep_totals(ps) and swept.floats == floats
    assert below.floats[1][axis] == FLOAT_SPREAD - 1
    assert _float_copy([], None) is None and _float_copy([(2**70, -(2**70))], None) == ((0.0, 0.0),)


def _scan_general_position(ps: PointSet) -> bool:
    # Independent O(n^4) route via rational circumcenters and distances,
    # sharing nothing with the determinant predicates.
    pts = [cp.point for cp in ps.points]
    n = len(pts)
    if len({(p.x, p.y) for p in pts}) != n:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = pts[i], pts[j], pts[k]
                if (b.x - a.x) * (c.y - a.y) == (b.y - a.y) * (c.x - a.x):
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    center = circumcenter(pts[i], pts[j], pts[k])
                except DegenerateInputError:
                    return False
                r2 = sqdist(center, pts[i])
                for m in range(k + 1, n):
                    if sqdist(center, pts[m]) == r2:
                        return False
    return True


# Degenerate seeds: a small grid (collinear triples, cocircular squares) and
# the lattice points on the circles of radius 5 and sqrt(65) about (15, 15).
grid_point = st.tuples(st.integers(10, 14), st.integers(10, 14))
circle_point = st.sampled_from(
    [(15 + x, 15 + y) for x in range(-8, 9) for y in range(-8, 9) if x * x + y * y in (25, 65)]
)


any_point = st.tuples(st.integers(0, 30), st.integers(0, 30))
# A 4x3 grid with a rational row, so most draws repeat points, some many times.
crowded_point = st.tuples(st.integers(0, 3), st.sampled_from([0, Fraction(1, 2), 1]))


@given(
    st.one_of(
        st.lists(any_point, min_size=1, max_size=7),
        st.lists(st.one_of(grid_point, circle_point), min_size=4, max_size=9, unique=True),
        st.lists(crowded_point, max_size=12),
    )
)
# The certifier's screen sends pair (0, 1) of each example to the exact sort
# for its own reason: equal floats of distinct values, an overflow, and a
# 0.0 / -0.0 tie.  The grid draws send pairs with a zero cross.
@example(NEAR_COCIRCULAR)
@example(BEYOND_FLOAT)
@example(RIGHT_ANGLE_TIE)
@example(NEAR_COCIRCULAR_SMALL)
@settings(max_examples=150, deadline=None)
def test_validate_matches_independent_scan(coords):
    ps = PointSet.from_coords(coords)
    violations = validate_general_position(ps)
    assert violations == general_position_violations(PointSet.from_coords(coords))
    assert (violations == []) == _scan_general_position(ps)


def test_validate_sorts_exactly_only_the_pairs_its_screen_flags(monkeypatch):
    sorted_pairs = []

    def recording(ints, p, q, others, local=None):
        sorted_pairs.append((p, q))
        return _bisector_order(ints, p, q, others, local)

    # Integer sets, and a rational one, whose screen takes the local form.
    rational = parse_point_file((Path(__file__).parent / "data" / "rational12.txt").read_text())
    clean = [random_general_position(30, 1, 10**6), two_colored_convex(6).points, rational.points]
    monkeypatch.setattr(geom, "_bisector_order", recording)
    for ps in clean:
        assert validate_general_position(ps) == [] and sorted_pairs == []
    # test_validate_matches_independent_scan checks what these return.  The
    # last two are read on the float copy, whose screen flags them alike.
    for coords in (NEAR_COCIRCULAR, BEYOND_FLOAT, RIGHT_ANGLE_TIE, NEAR_COCIRCULAR_SMALL):
        sorted_pairs.clear()
        ps = PointSet.from_coords(coords)
        validate_general_position(ps)
        assert (0, 1) in sorted_pairs
        floats = _float_copy(*_grid_and_local([cp.point for cp in ps.points]))
        assert (floats is not None) == (coords in (RIGHT_ANGLE_TIE, NEAR_COCIRCULAR_SMALL))


def test_bisector_order_reports_collinear_points_apart():
    ints = [(0, 0), (2, 0), (4, 0), (1, 1), (-3, 0), (1, -1), (1, 5)]
    order, collinear = _bisector_order(ints, 0, 1, [6, 2, 3, 4, 5])
    assert collinear == [2, 4]  # in the order given, and never an error
    # The rest sort as they do without the collinear points: 3 and 5 tie
    # (the square 0, 3, 1, 5) in the order given, before 6, whose circle's
    # center lies further along the bisector.
    assert [order.others[i] for i in order.rank] == [3, 5, 6] and order.ties == [[3, 5]]
    assert order == _bisector_order(ints, 0, 1, [6, 3, 5])[0]
    for others in ([4, 2], []):
        order, collinear = _bisector_order(ints, 0, 1, others)
        assert (order.rank, order.ties, collinear) == ([], [], others)


@st.composite
def local_sets(draw):
    """3-9 points whose coordinates have a distinct denominator each, some of
    them integral, and with some points snapped onto a rational line or
    circle, so collinear triples and cocircular quadruples arise on points
    with unrelated denominators."""
    n = draw(st.integers(3, 9))
    dens = draw(st.lists(st.integers(2, 997), min_size=2 * n, max_size=2 * n, unique=True))
    dens = [draw(st.sampled_from([1, den])) for den in dens]
    nums = draw(st.lists(st.integers(-3000, 3000), min_size=2 * n, max_size=2 * n))
    values = [Fraction(a, b) for a, b in zip(nums, dens)]
    coords = list(zip(values[::2], values[1::2]))
    ts = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 97))
    snap = draw(st.sampled_from(["none", "line", "circle"]))
    if snap == "line":
        # Points a + t (b - a) on the line through the first two.
        (ax, ay), (bx, by) = coords[:2]
        for i in range(2, draw(st.integers(3, n))):
            t = draw(ts)
            coords[i] = (ax + t * (bx - ax), ay + t * (by - ay))
    elif snap == "circle":
        # Rational points c + r ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)).
        (cx, cy), r = coords[0], draw(ts.filter(bool))
        for i in range(1, draw(st.integers(min(5, n), n))):
            t = draw(ts)
            coords[i] = (cx + r * (1 - t * t) / (1 + t * t), cy + r * 2 * t / (1 + t * t))
    return coords


@st.composite
def offset_sets(draw):
    """3-9 integer points offset by about +-2^40 or +-2^60 whose x or y
    coordinates span exactly 2^25 - 1, 2^25 or 2^25 + 1, so only the first
    takes the float copy.  Beyond 2^53 a double holds the coordinates only
    once translated.  Coordinates drawn from {0, spread // 2, spread} make
    collinear triples and cocircular quadruples."""
    spread = draw(st.sampled_from([FLOAT_SPREAD - 1, FLOAT_SPREAD, FLOAT_SPREAD + 1]))
    base, sign = draw(st.sampled_from([2**40, 2**60])), draw(st.sampled_from([-1, 1]))
    ox, oy = (sign * draw(st.integers(base - 2**20, base + 2**20)) for _ in range(2))
    coord = st.one_of(st.integers(0, spread), st.sampled_from([0, spread // 2, spread]))
    coords = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=9))
    # The first two points set the spread of one axis; the other's is at most it.
    axis = draw(st.sampled_from([0, 1]))
    for i, value in ((0, 0), (1, spread)):
        coords[i] = (value, coords[i][1]) if axis == 0 else (coords[i][0], value)
    return [(ox + x, oy + y) for x, y in coords]


def _events_and_ties(order):
    return (
        [(order.others[i], order.crosses[i] > 0, Fraction(int(order.nums[i]), int(order.crosses[i])))
         for i in order.rank],
        order.ties,
    )


@given(st.one_of(local_sets(), offset_sets()))
# Pair (0, 1) has L = 1; point 2 gives the bisector's smallest den, so a
# shift taken from it cannot tell points 3 and 4 apart, which the largest
# den's shift does.
@example([(0, 0), (1, 0), (5, 1), (0, 3), (Fraction(-1, 997), 3)])
@example(NEAR_COCIRCULAR_SMALL)
@settings(max_examples=150, deadline=None)
def test_local_kernel_matches_the_global_grid(coords):
    # The local form and the float copy each give the grid's events.
    points = [P(x, y) for x, y in coords]
    grid, local = _grid_and_local(points)
    floats = _float_copy(grid, local)
    spread = max(max(c) - min(c) for c in zip(*grid))
    assert (floats is not None) == (local is None and spread < FLOAT_SPREAD)
    forms = [(grid, local)] * (local is not None) + [(floats, None)] * (floats is not None)
    for p, q in permutations(range(len(points)), 2):
        others = [x for x in range(len(points)) if x != p and x != q]
        on_grid, collinear = _bisector_order(grid, p, q, others)
        for ints, form in forms:
            on_form, form_collinear = _bisector_order(ints, p, q, others, form)
            assert _events_and_ties(on_form) == _events_and_ties(on_grid)
            assert form_collinear == collinear
    ps = PointSet.from_coords(coords)
    violations = validate_general_position(ps)
    assert violations == general_position_violations(PointSet.from_coords(coords))
    assert ps.floats == (None if violations else floats)


def _fraction_order(points, p, q, others):
    """The exact order of s on the bisector of (p, q), its ties and the
    points collinear with p and q, from Fractions of the points themselves."""
    a, b = points[p], points[q]
    s, collinear = {}, []
    for x in others:
        c = points[x]
        cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        if cross:
            s[x] = ((c.x - a.x) * (c.x - b.x) + (c.y - a.y) * (c.y - b.y)) / (2 * cross)
        else:
            collinear.append(x)
    order = sorted(s, key=s.__getitem__)
    groups = ([*group] for _, group in groupby(order, key=s.__getitem__))
    return order, [g for g in groups if len(g) > 1], collinear


_integer_sets = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=3, max_size=9
)
# Red/blue sets of the two-colored construction: points near 7e11.
_red_blue_sets = st.sampled_from(range(2, 6)).map(
    lambda n: [(cp.point.x, cp.point.y) for cp in two_colored_convex(n).points.points]
)


@given(st.one_of(_integer_sets, local_sets(), _red_blue_sets, offset_sets()))
@example(NEAR_COCIRCULAR)
@example(BEYOND_FLOAT)
@example(RIGHT_ANGLE_TIE)
@example(NEAR_COCIRCULAR_SMALL)
@settings(max_examples=120, deadline=None)
def test_float_filtered_order_is_the_integer_key_order(coords):
    # For every ordered pair, on the grid, the local form and the float copy,
    # the kernel's order, ties and collinear points equal both the order of
    # its integer keys and the order of s as Fractions.  On the float copy
    # num and cross are the grid's integers, held exactly.
    points = [P(x, y) for x, y in coords]
    grid, local = _grid_and_local(points)
    floats = _float_copy(grid, local)
    forms = [(grid, None)] + [(grid, local)] * (local is not None) + [(floats, None)] * (floats is not None)
    for p, q in permutations(range(len(points)), 2):
        others = [x for x in range(len(points)) if x != p and x != q]
        expected = _fraction_order(points, p, q, others)
        on_grid, _ = _bisector_order(grid, p, q, others)
        for ints, form in forms:
            order, collinear = _bisector_order(ints, p, q, others, form)
            if order.others:
                keys = _exact_keys([*map(int, order.nums)], [*map(int, order.crosses)])
                assert order.rank == sorted(range(len(keys)), key=keys.__getitem__)
            if ints is floats:
                assert (order.nums, order.crosses) == (on_grid.nums, on_grid.crosses)
            ranked = [order.others[i] for i in order.rank]
            assert (ranked, order.ties, collinear) == expected


def test_the_float_copy_falls_back_to_exact_keys_where_floats_tie():
    # RIGHT_ANGLE_TIE's tie and NEAR_COCIRCULAR_SMALL's distinct s, read on
    # the float copy: equal float keys send both to the exact keys, and the
    # order and ties are the grid's.
    for coords, ranked, ties in (
        (RIGHT_ANGLE_TIE, [2, 3, 4], [[2, 3]]),
        (NEAR_COCIRCULAR_SMALL, [3, 2], []),
    ):
        grid, local = _grid_and_local([P(x, y) for x, y in coords])
        floats = _float_copy(grid, local)
        order, collinear = _bisector_order(floats, 0, 1, [2, 3, 4][: len(coords) - 2])
        assert len({num / cross for num, cross in zip(order.nums[:2], order.crosses[:2])}) == 1
        assert ([order.others[i] for i in order.rank], order.ties, collinear) == (ranked, ties, [])
        assert order == _bisector_order(grid, 0, 1, [2, 3, 4][: len(coords) - 2])[0]


@pytest.mark.parametrize("seed", range(12))
def test_validate_pair_with_collinear_point_and_cocircular_quadruple(seed):
    # Pair (0, 1) has a collinear third point (2) and a cocircular quadruple
    # (0, 1, 3, 4, a square); seeded extra points add more of both.
    rng = random.Random(seed)
    core = [(0, 0), (4, 0), (8, 0), (0, 4), (4, 4)]
    extra = [(rng.randint(-4, 8), rng.randint(-4, 8)) for _ in range(rng.randint(1, 5))]
    coords = core + [xy for xy in dict.fromkeys(extra) if xy not in core]
    violations = validate_general_position(PointSet.from_coords(coords))
    assert violations == general_position_violations(PointSet.from_coords(coords))
    assert Violation("collinear", (0, 1, 2)) in violations
    assert Violation("cocircular", (0, 1, 3, 4)) in violations
    kinds = [v.kind for v in violations]
    assert kinds == sorted(kinds, key=["collinear", "cocircular"].index)


def test_snap_examples():
    ps = snap_to_rational([(0.5, 0.25)], 4)
    assert ps.point(0) == Point(Fraction(1, 2), Fraction(1, 4))
    ps = snap_to_rational([(0.333, 0.667)], 1000)
    assert ps.point(0) == Point(Fraction(333, 1000), Fraction(667, 1000))
    import math

    ps = snap_to_rational([(math.pi / 4, 0.0)], 10**6)
    assert ps.point(0) == Point(Fraction(785398, 10**6), Fraction(0))
    assert not ps.gp_certified


@given(st.integers(-4000, 4000), st.integers(1, 64))
def test_snap_idempotent_on_representable(num, den):
    value = num / den
    if Fraction(value) != Fraction(num, den):
        return  # not exactly representable as a float; skip
    ps = snap_to_rational([(value, value)], den)
    assert ps.point(0) == Point(Fraction(num, den), Fraction(num, den))


def test_convex_hull_square_with_interior():
    pts = [P(0, 0), P(10, 0), P(10, 10), P(0, 10), P(5, 4)]
    assert sorted(convex_hull(pts)) == [0, 1, 2, 3]


TRIANGLE = [(0, 0), (4, 0), (1, 3)]


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: weight_sequence(make_set(TRIANGLE), 1, 1), "pair indices must differ"),
        (lambda: oracle_weights(make_set(TRIANGLE), 1, 1), "pair indices must differ"),
        (lambda: triple_counts(make_set(TRIANGLE[:2])), "need at least three points"),
        (lambda: brute.triple_counts(make_set(TRIANGLE[:2])), "need at least three points"),
        (lambda: PointSet.from_coords(TRIANGLE, [Color.RED]), "colors must match coords in length"),
        (lambda: snap_to_rational([(0.5, 0.5)], 0), "denominator must be a positive integer"),
        (lambda: [convex_hull([P(*xy) for xy in TRIANGLE[:n]]) for n in range(3)], [[], [0], [0, 1]]),
        (lambda: make_set(TRIANGLE).__eq__((1, 2)), NotImplemented),
        (lambda: make_set(TRIANGLE) == (1, 2), False),
        (lambda: brute.separable(make_set(TRIANGLE), frozenset()), False),
        (lambda: brute.separable(make_set(TRIANGLE), frozenset(range(3))), False),
    ],
    ids=[
        "weight-sequence-same-pair", "oracle-same-pair", "triple-counts-two-points",
        "brute-triple-counts-two-points", "short-colors", "zero-denominator",
        "small-hulls", "eq-not-implemented", "eq-tuple", "separable-empty", "separable-full",
    ],
)
def test_input_guards(call, outcome):
    # Guards and edge cases that the rest of the suite never reaches.
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert call() == outcome


def test_point_file_round_trip():
    text = "1/2 3 R\n-2 0.25 B\n7 9\n# @pair 0 2\n"
    pf = parse_point_file(text)
    assert len(pf.points) == 3
    assert pf.points.color(0) is Color.RED
    assert pf.points.point(1) == Point(Fraction(-2), Fraction(1, 4))
    assert pf.pairs == [(0, 2)]
    assert serialize_point_file(pf.points, pf.pairs) == "1/2 3 R\n-2 1/4 B\n7 9\n# @pair 0 2\n"
    again = parse_point_file(serialize_point_file(pf.points, pf.pairs))
    assert serialize_point_file(again.points, again.pairs) == serialize_point_file(
        pf.points, pf.pairs
    )


def test_point_file_comments_and_errors():
    pf = parse_point_file("# heading\n\n1 2\n")
    assert len(pf.points) == 1
    with pytest.raises(PointFileError):
        parse_point_file("1 2 3 4\n")
    with pytest.raises(PointFileError):
        parse_point_file("1 x\n")
    with pytest.raises(PointFileError):
        parse_point_file("1 2 G\n")
    with pytest.raises(PointFileError):
        parse_point_file("1 2\n# @pair 0 5\n")


@pytest.mark.parametrize("token", ["1e4301", "1e-4301", "1e999999999", "-2.5E-999999999"])
def test_point_file_rejects_exponents_beyond_the_bound(token):
    # Fraction would compute 10**exponent; the parser refuses before it does.
    message = f"line 2: bad coordinate '{token}': exponent beyond +-4300"
    with pytest.raises(PointFileError, match=re.escape(message)):
        parse_point_file(f"0 0\n1 {token}\n")


# Fraction reads PEP 515 underscores only from CPython 3.11, and any Unicode
# digit on every version, so the parser refuses both to read a file the same
# way everywhere.
@pytest.mark.parametrize(
    "token", ["1_000", "1e1_0", "1e+0_4301", "1/1_0", "1._5", "\u0663", "\uff11\uff12", "1/\u0663"]
)
def test_point_file_rejects_non_ascii_and_underscores(token):
    message = f"line 2: bad coordinate {token!r}: non-ASCII character or '_'"
    with pytest.raises(PointFileError, match=re.escape(message)):
        parse_point_file(f"0 0\n1 {token}\n")


@given(token=st.text("0123456789+-./eE", min_size=1, max_size=5))
@example(token="-.5e3")
@example(token="1/0")
@settings(max_examples=200, deadline=None)
def test_point_file_reads_an_ascii_token_as_fraction_does(token):
    # Five characters hold an exponent of at most 999, within the bound.
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(PointFileError, match=re.escape(f"line 1: bad coordinate {token!r}: ")):
            parse_point_file(f"{token} 0\n")
    else:
        assert parse_point_file(f"{token} 0\n").points.point(0).x == want


def test_point_file_accepts_exponents_at_the_bound():
    pf = parse_point_file("1e4300 1E-4300\n2.5e00004300 0\n")
    assert pf.points.point(0) == Point(Fraction(10**4300), Fraction(1, 10**4300))
    assert pf.points.point(1).x == Fraction(5, 2) * 10**4300


# Decimal tokens, with exponents and 4300-digit mantissas at the parser's
# bounds among them, and fraction tokens.
_BOUND_TOKENS = [
    "1e4300",
    "-1E-4300",
    "1" + "0" * 4299 + "e4300",
    "0." + "0" * 4299 + "1e-4300",
    "9" * 4300 + "." + "9" * 4300 + "e-4300",
    "-" + "7" * 4300 + "." + "3" * 4300 + "e+4300",
]
_digits = st.text("0123456789", min_size=1, max_size=12)
_decimal_tokens = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac and '.' + frac}e{exp}",
    st.sampled_from(["", "-", "+"]),
    _digits,
    st.text("0123456789", max_size=12),
    st.one_of(st.sampled_from([-4300, -4299, 0, 4299, 4300]), st.integers(-4300, 4300)),
)
_fraction_tokens = st.builds(
    lambda sign, num, den: f"{sign}{num}/{den}",
    st.sampled_from(["", "-"]),
    st.integers(0, 10**30),
    st.integers(1, 10**30),
)
_tokens = st.one_of(_decimal_tokens, _fraction_tokens, _digits, st.sampled_from(_BOUND_TOKENS))


@given(x=_tokens, y=_tokens)
@example(x=_BOUND_TOKENS[2], y=_BOUND_TOKENS[3])
@example(x=_BOUND_TOKENS[4], y=_BOUND_TOKENS[5])
@settings(max_examples=80, deadline=None)
def test_point_file_serialize_parses_back(x, y):
    pf = parse_point_file(f"{x} {y}\n")
    text = serialize_point_file(pf.points)
    again = parse_point_file(text)
    assert again.points.points == pf.points.points
    assert serialize_point_file(again.points) == text


def test_colored_indices():
    ps = make_set(
        [(0, 0), (10, 0), (9, 9), (0, 10)],
        [Color.RED, Color.BLUE, Color.RED, Color.BLUE],
    )
    assert ps.indices_of(Color.RED) == [0, 2]
    assert ps.indices_of(Color.BLUE) == [1, 3]
