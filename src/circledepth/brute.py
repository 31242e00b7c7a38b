"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates rather than counts cleverly, so these functions
are only meant for small n.  They deliberately avoid the machinery they
verify: k-sets come from explicit separating-line tests instead of j-edge
tables, the weight tables and extremal pairs come from the sampling oracle
instead of the sweep, and general position is decided by an in-circle test
on every quadruple instead of the bisector order.  :func:`triple_counts` counts
every triple's enclosed points by one in-circle test each, in O(n^4), and
cross-checks ``depth.triple_counts``, which counts by inversion in
O(n^3 log n).  :func:`oracle_weights` tests every point at every sample
circle, O(n^2) per pair, and cross-checks ``depth.oracle_weights``, which
bisects each point's single change of status on the same circles.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .geom import PointSet, Violation, _incircle_det_int, _int_coords, _orient_int
from .depth import _oracle_circles


def general_position_violations(ps: PointSet) -> list[Violation]:
    """The violation list of ``validate_general_position`` by exhaustive search.

    O(n^4): every triple is tested for collinearity and every quadruple with
    no collinear triple by the in-circle determinant.  It builds its own
    integer grid, since it runs on uncertified sets, and leaves ``ps.grid``
    untouched.
    """
    pts = _int_coords([cp.point for cp in ps.points])
    n = len(pts)
    duplicates = [
        Violation("duplicate", (i, j))
        for i, j in combinations(range(n), 2)
        if pts[i] == pts[j]
    ]
    if duplicates:
        return duplicates
    collinear = [t for t in combinations(range(n), 3) if _orient_int(*(pts[i] for i in t)) == 0]
    skip = set(collinear)
    cocircular = [
        quad
        for quad in combinations(range(n), 4)
        if not skip.intersection(combinations(quad, 3))
        and _incircle_det_int(*(pts[i] for i in quad)) == 0
    ]
    return [Violation("collinear", t) for t in collinear] + [
        Violation("cocircular", quad) for quad in cocircular
    ]


def separable(ps: PointSet, subset: frozenset[int]) -> bool:
    """Can ``subset`` be cut off from the rest by a straight line?

    For sets in general position two disjoint hulls admit a separating line
    through two of the points (rotate a separator until it touches one point
    on each side, or two on one side).  So it suffices to scan all ordered
    point pairs (u, v) and test whether everything in the subset other than
    u, v lies strictly left of u->v while the complement lies strictly right.
    """
    n = len(ps)
    if not subset or len(subset) == n:
        return False
    ints = ps.require_certified()
    return any(
        all(
            _orient_int(ints[u], ints[v], ints[x]) == (1 if x in subset else -1)
            for x in range(n)
            if x != u and x != v
        )
        for u in range(n)
        for v in range(n)
        if u != v
    )


def kset_counts_bruteforce(ps: PointSet) -> list[int]:
    """ksets[k] for k = 1..n-1 by enumerating all subsets (index 0 unused)."""
    ps.require_certified()
    n = len(ps)
    counts = [0] * n
    indices = range(n)
    for k in range(1, n):
        for combo in combinations(indices, k):
            if separable(ps, frozenset(combo)):
                counts[k] += 1
    return counts


def oracle_weights(ps: PointSet, p: int, q: int) -> list[int]:
    """The sampling oracle's weight sequence by a plain count: every point
    tested by its power at every sample circle of ``depth._oracle_circles``.

    Deliberately O(n^2) per pair; it cross-checks ``depth.oracle_weights``,
    which counts on the same circles by bisection.
    """
    ints = ps.require_certified()
    circles = _oracle_circles(ints, p, q)
    px, py = ints[p]
    rel = [(x - px, y - py, (x - px) ** 2 + (y - py) ** 2) for x, y in ints]
    return [len([1 for x, y, r2 in rel if b * r2 < cx * x + cy * y]) for b, cx, cy in circles]


class WeightTables(NamedTuple):
    census: tuple[int, ...]  # hist[w], w = 0 .. n-2
    repeat_b: tuple[int, ...]  # k = 1 .. n-1, as in depth.SweepTotals
    max_collinear: tuple[int, ...]
    maximin: tuple[tuple[int, int], int] | None
    minimax: tuple[tuple[int, int], int] | None


def weight_tables(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> WeightTables:
    """The census, repeats and extremal pairs over ``pairs`` (default every
    pair), counted from sampled circles.

    Deliberately O(n^4): one ``oracle_weights`` per pair and plain loops, so
    it shares nothing with the sweep or with the fold of
    ``depth.sweep_totals``, which it cross-checks.  An extremal tie goes to
    the lexicographically smallest pair; over the red-blue pairs the maximin
    is the bichromatic maximin.
    """
    ps.require_certified()
    n = len(ps)
    hist = [0] * max(n - 1, 0)
    repeat_b, max_collinear = [0] * n, [0] * n
    maximin = minimax = None
    for p, q in sorted(combinations(range(n), 2) if pairs is None else pairs):
        weights = oracle_weights(ps, p, q)
        for w in weights:
            hist[w] += 1
        for w in set(weights):
            mult = weights.count(w)
            repeat_b[w + 1] += mult >= 4
            max_collinear[w + 1] = max(max_collinear[w + 1], mult)
        if maximin is None or min(weights) > maximin[1]:
            maximin = ((p, q), min(weights))
        if minimax is None or max(weights) < minimax[1]:
            minimax = ((p, q), max(weights))
    return WeightTables(tuple(hist), tuple(repeat_b), tuple(max_collinear), maximin, minimax)


def triple_counts(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> tuple[int, ...]:
    """Brute-force enclosure counts c[k], k = 0 .. n-3, over triples' circumcircles.

    Deliberately O(n^4), and independent of the sweep and of the sort by
    inversion in ``depth.triple_counts``, which it cross-checks.  With
    points lifted to (x, y, x^2 + y^2) relative to i, the plane through i, j, k has
    normal N = (j - i) x (k - i), whose z part is the triple's orientation;
    m is strictly inside iff N . (m - i) has the opposite sign (0 for m in
    i, j, k): the in-circle determinant, expanded once per triple.
    With ``pairs`` a triple counts only if it contains one of them, i.e. its
    circle's center is an event on one of their bisectors; over the red-blue
    pairs of a set whose points are all red or blue these are the
    mixed-color triples.
    """
    ints = ps.require_certified()
    n = len(ps)
    if n < 3:
        raise ValueError("need at least three points")
    chosen = None if pairs is None else {(min(p, q), max(p, q)) for p, q in pairs}
    counts = [0] * (n - 2)
    for i, (ix, iy) in enumerate(ints):
        lifted = [(x - ix, y - iy, (x - ix) ** 2 + (y - iy) ** 2) for x, y in ints]
        for j in range(i + 1, n):
            ax, ay, az = lifted[j]
            for k in range(j + 1, n):
                if chosen is not None and chosen.isdisjoint(((i, j), (i, k), (j, k))):
                    continue
                bx, by, bz = lifted[k]
                nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
                if nz < 0:
                    nx, ny, nz = -nx, -ny, -nz
                counts[len([1 for x, y, z in lifted if nx * x + ny * y + nz * z < 0])] += 1
    return tuple(counts)
