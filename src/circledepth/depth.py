"""Bisector weight sequences and the counting statistics built on them.

For a pair p, q the perpendicular bisector carries the centers of all circles
through both points.  The n-2 circumcenters with the remaining points cut it
into n-1 open segments; every circle centered on one segment strictly
encloses the same number of points, the segment's *weight*.  Everything else
here (pair depths, enclosure-count tables, censuses, j-edges, k-sets,
repeated-weight statistics) reduces to those sequences plus orientation and
in-circle tests.

The sweep works in a frame anchored at the midpoint m of pq with direction
d = rot90(q - p).  For a third point x the circumcenter of (p, q, x) sits at
parameter

    s_x = dot(x - p, x - q) / (2 * cross(q - p, x - p)),

and x is enclosed exactly for parameters on its own side of s_x: the side is
{s > s_x} when x lies strictly left of the directed line p->q, {s < s_x}
otherwise.  Both facts follow from expanding |c(s) - p|^2 - |c(s) - x|^2,
which is affine in s with slope 2 * cross(q - p, x - p).

Every kernel here decides its signs on the forms that
:mod:`~circledepth.geom` stores on the set when it certifies it, through
:func:`~circledepth.geom.validate_general_position` or a clean
:func:`sweep_totals`; nothing here writes them.  The sweep
(:func:`weight_sequence`) first sorts each pair on ``PointSet.floats``,
the set's float form (E, coords): (a) an integral set spanning less than
2^25 as exact doubles, E = 0; (b) one spanning less than 2^53 translated,
its integers exact and each num and cross within E = 4 u D^2 (1 + 2u) of
the true value, D the span and u = 2^-53; (c) any other set translated,
scaled into [0, 1] and rounded, E = 17 u.  A pair is certified when every
|cross| exceeds E and adjacent sorted keys lie more than twice their error
bound apart (distinct keys when E = 0; see
:func:`~circledepth.geom._bisector_order`).  Any other pair, and every
pair of a set with a coordinate beyond the doubles, is sorted exactly on
integers: on each point's own denominators, ``PointSet.local``, so a
rational set costs about what an integer one does, or on the grid.  The
references (:func:`oracle_weights`, O(n^3 log n) over all pairs,
:func:`triple_counts` and :func:`j_edge_counts`) read the common integer
grid that :meth:`PointSet.require_certified` returns, and so share no
arithmetic with the sweep.

:func:`sweep_totals` is the one place where weight sequences become tables:
it folds the swept pairs' sequences into the census, the repeats, the
end-weight j-edges and the extremal pairs without keeping a profile.
:func:`triple_counts` and :func:`j_edge_counts` count from orientation and
in-circle signs instead, never from a sweep, so the checks can set one side
against the other.  All three take the pairs they range over, so the
red-blue tables of a colored set are the same functions over
:func:`bichromatic_pairs`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import add, sub, truediv
from typing import NamedTuple

from .geom import (
    Color,
    DegenerateInputError,
    PointSet,
    _bisector_order,
    _certifying,
)


def weight_sequence(ps: PointSet, p: int, q: int) -> tuple[int, ...]:
    """Weight sequence of the bisector of pair (p, q), in increasing-s order.

    The sweep sorts on the forms that certification stores on ``ps``: on
    the float form (:attr:`PointSet.floats`) where its error bound
    certifies the pair's order, and otherwise exactly on the local form
    (:attr:`PointSet.local`) or, when every point is integral, the grid.
    Before the first event every point whose side is s < s_x is enclosed,
    and each event adds or removes its point: the weights are a running sum
    of the sides in sorted order.  Here the sweep asserts that the set does
    not degenerate on the pair: a point collinear with p and q, or two tied
    events, raise :class:`DegenerateInputError` naming the points.  The
    float stage certifies neither (its bound excludes both), so only the
    exact branch meets them.  So a clean sweep of every pair over all other
    points, after a duplicate check, certifies a set (see
    :func:`sweep_totals`).
    """
    ints = ps.require_certified()
    if p == q:
        raise ValueError("pair indices must differ")
    lo, hi = (p, q) if p < q else (q, p)
    others = [*range(lo), *range(lo + 1, hi), *range(hi + 1, len(ints))]
    order, collinear = _bisector_order(ints, p, q, others, ps.local, ps.floats)
    if collinear:
        raise DegenerateInputError("collinear triple on a swept pair", (p, q, collinear[0]))
    if order.ties:
        raise DegenerateInputError("cocircular quadruple on a swept pair", (p, q, *order.ties[0][:2]))
    steps = [1 if order.crosses[i] > 0 else -1 for i in order.rank]
    return tuple(accumulate(steps, initial=steps.count(-1)))


def oracle_weights(ps: PointSet, p: int, q: int) -> list[int]:
    """Independent re-derivation of the weight sequence by sampling circles.

    The samples are :func:`_oracle_circles`, one inside each segment, at
    increasing t = a/b.  Divided by b > 0 the power test
    b |x - p|^2 < C . (x - p) is affine in t, with slope 2 d . (x - p), so
    x changes status at most once, and only where its own event lies: the
    point of rank r is tested at the two samples around it, circles[r] and
    circles[r + 1], its status at the first counts from the first segment
    on, its change (0 or +-1) from segment r + 1 on, and the weights are the
    running sum.  Two power tests per point, O(n log n) per pair with the
    sort.  Shares no code with the sweep;
    :func:`circledepth.brute.oracle_weights` is the plain count, every point
    tested at every sample.
    """
    ints = ps.require_certified()
    circles, points = _oracle_circles(ints, p, q)
    before = [b * r2 < cx * x + cy * y for (b, cx, cy), (x, y, r2) in zip(circles, points)]
    after = [b * r2 < cx * x + cy * y for (b, cx, cy), (x, y, r2) in zip(circles[1:], points)]
    return list(accumulate(map(sub, after, before), initial=sum(before)))


def _oracle_circles(
    ints: tuple[tuple[int, int], ...], p: int, q: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """The oracle's sample circles through ints[p] and ints[q], as (b, Cx, Cy)
    in increasing order of their parameter, one per segment of the bisector,
    and each third point x as (X, Y, X^2 + Y^2), (X, Y) = x - p, in the order
    of their events, so the event of points[r] lies between circles[r] and
    circles[r + 1].

    On the common integer grid: event parameters are the integer
    circumcenters projected on the bisector, sorted exactly by
    :func:`_quotient_order`.  Each segment is sampled at the fraction t = a/b
    with the smallest denominator strictly inside it
    (:func:`_simplest_between`), each unbounded end at an integer, so a
    sample's integers stay small on a wide grid.  The center is
    p + C / 2b with C = b(q - p) + 2a * d, d = rot90(q - p), and its circle
    encloses x iff b |x - p|^2 < C . (x - p), the power of x (never true
    for p and q).
    """
    if p == q:
        raise ValueError("pair indices must differ")
    (px, py), (qx, qy) = ints[p], ints[q]
    bx, by = qx - px, qy - py
    dx, dy = -by, bx  # rot90(q - p); center(t) = (p + q) / 2 + t * d
    dd, bb = dx * dx + dy * dy, bx * bx + by * by
    nums, dens, rel = [], [], []  # t = num / den, den > 0
    for xx, xy in (xy for x, xy in enumerate(ints) if x != p and x != q):
        # Circumcenter of (p, q, x): p + (ux, uy) / den.
        cx, cy = xx - px, xy - py
        den = 2 * (bx * cy - by * cx)
        cc = cx * cx + cy * cy
        ux, uy = cy * bb - by * cc, bx * cc - cx * bb
        # 2 * den * (center - midpoint) = 2u - den * (q - p), projected on d
        # is 2u . d, since (q - p) . d = 0.
        a, b = 2 * (ux * dx + uy * dy), 2 * den * dd
        nums.append(a if b > 0 else -a)
        dens.append(abs(b))
        rel.append((cx, cy, cc))
    order = _quotient_order(nums, dens)
    params = [(nums[i], dens[i]) for i in order]
    if params:
        (lo_a, lo_b), (hi_a, hi_b) = params[0], params[-1]
        samples = [(lo_a // lo_b - 1, 1)]
        samples += [_simplest_between(a, b, c, e) for (a, b), (c, e) in zip(params, params[1:])]
        samples.append((hi_a // hi_b + 1, 1))
    else:
        samples = [(0, 1)]
    circles = [(b, b * bx + 2 * a * dx, b * by + 2 * a * dy) for a, b in samples]
    return circles, [rel[i] for i in order]


def _quotient_order(nums: list[int], dens: list[int]) -> list[int]:
    """Positions of the quotients nums[i] / dens[i] in increasing order, exactly.

    The keys are correctly rounded floats, which keep the order of distinct
    quotients; two equal ones (0.0 and -0.0 too) or an overflow sort the
    list on Fractions.  The references sort with this, never the sweep.
    """
    try:
        keys = list(map(truediv, nums, dens))
        exact = len(set(keys)) < len(keys)
    except OverflowError:
        exact = True
    if exact:
        keys = list(map(Fraction, nums, dens))
    return sorted(range(len(keys)), key=keys.__getitem__)


def _simplest_between(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(num, den) in lowest terms of the fraction with the smallest
    denominator strictly between a/b < c/d (b > 0, d >= 0; d = 0 is +inf).

    Stern-Brocot descent: an integer f + 1 strictly inside is the answer;
    otherwise the answer is f + 1/y, f = floor(a/b), for the simplest y
    between the reciprocals, and (num, den) = (P y + Q) / (R y + S).
    """
    pp, qq, rr, ss = 1, 0, 0, 1
    while True:
        f = a // b
        if (f + 1) * d < c:
            return pp * (f + 1) + qq, rr * (f + 1) + ss
        pp, qq, rr, ss = pp * f + qq, pp, rr * f + ss, rr
        a, b, c, d = d, c - f * d, b, a - f * b


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(p + 1, n)]


# The work a forked map gives each process, in sweep events: importing
# forkmap and starting a child cost about 10 ms, the sweep of 5,000 to 8,000
# events.
SHARE_EVENTS = 10_000


def _map_chunks(task, pairs: list[tuple[int, int]], jobs: int, pair_events: int) -> list:
    """``task`` over consecutive chunks of ``pairs``, results in pair order.

    ``pair_events`` is what ``task`` spends on one pair, counted in sweep
    events (a sweep of an n-point set has n - 2).  Every process gets
    about :data:`SHARE_EVENTS` of them or more: at most ``jobs`` and
    len(pairs) * pair_events // SHARE_EVENTS processes, as
    :func:`circledepth.forkmap.map_chunks` runs them.  A cap of one is
    ``[task(pairs)]`` in this process, which never imports forkmap.
    """
    workers = min(jobs, len(pairs) * pair_events // SHARE_EVENTS)
    if workers <= 1:
        return [task(pairs)]
    from .forkmap import map_chunks

    return map_chunks(task, pairs, workers)


def all_profiles(ps: PointSet, jobs: int = 1) -> list[tuple[int, ...]]:
    """Weight sequences of every unordered pair, in lexicographic order.

    ``jobs > 1`` shares the pairs out to forked processes (:func:`_map_chunks`);
    the result order (and therefore every downstream aggregate) is identical
    for any jobs value.
    """
    chunks = _map_chunks(partial(_profile_chunk, ps), all_pairs(len(ps)), jobs, len(ps) - 2)
    return [weights for chunk in chunks for weights in chunk]


def _profile_chunk(ps: PointSet, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    return [weight_sequence(ps, p, q) for p, q in pairs]


def bichromatic_pairs(ps: PointSet) -> list[tuple[int, int]]:
    """Red-blue pairs (p, q) with p < q, sorted: the pairs the red-blue tables range over."""
    reds = ps.indices_of(Color.RED)
    blues = ps.indices_of(Color.BLUE)
    if not reds or not blues:
        raise ValueError("need at least one red and one blue point")
    return sorted((min(r, b), max(r, b)) for r in reds for b in blues)


def triple_counts(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> tuple[int, ...]:
    """c[k], k = 0 .. n-3: triples whose circumcircle strictly encloses k points, by inversion.

    O(n^3 log n) and independent of the sweep, with the O(n^4) cross-check
    :func:`circledepth.brute.triple_counts`.  Relative to a pivot i, lift each
    point to l = (x, y, x^2 + y^2); m is strictly inside circle(i, j, k) iff
    det(l_j, l_k, l_m) and orient(i, j, k) have opposite signs.  Projected
    along a = l_j onto the basis u = a x e_z, v = a x u = a_z (a_x, a_y, -1),
    m has w = (l . u, l . v / a_z) with w.x = -orient(i, j, m) != 0, and m is
    inside iff x_m (sigma_m - sigma_k) > 0 for sigma = w.y / w.x.  So one sort
    of the sigma (:func:`_quotient_order`) and a running count of x > 0 count
    every k > j.
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
        for j in range(i + 1, n - 1):
            ax, ay, _ = lifted[j]
            others = [*range(i), *range(i + 1, j), *range(j + 1, n)]
            xs = [ay * lifted[m][0] - ax * lifted[m][1] for m in others]
            ys = [ax * x + ay * y - z for x, y, z in (lifted[m] for m in others)]
            right, left = sum(x > 0 for x in xs), 0  # x > 0 after k; x < 0 before k
            for t in _quotient_order(ys, xs):
                k, positive = others[t], xs[t] > 0
                right -= positive
                if k > j and (chosen is None or not chosen.isdisjoint(((i, j), (i, k), (j, k)))):
                    counts[right + left] += 1
                left += not positive
    return tuple(counts)


def j_edge_counts(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> tuple[int, ...]:
    """directed_j[j], j = 0 .. n-2: ordered pairs of ``pairs`` (default every
    pair) with j points strictly left, by orientation tests.  The k-sets (k
    points cut off by a line) number ksets[k] = directed_j[k-1].

    x lies strictly left of a->b iff cross(e, x - a) > 0 for e = b - a, that
    is e.x * x.y - e.y * x.x > e.x * a.y - e.y * a.x; a and b meet the bound
    with equality, so they never count.
    """
    ints = ps.require_certified()
    n = len(ps)
    directed = [0] * max(n - 1, 0)
    for i, j in all_pairs(n) if pairs is None else pairs:
        (ax, ay), (bx, by) = ints[i], ints[j]
        ex, ey = bx - ax, by - ay
        bound = ex * ay - ey * ax
        left = len([1 for x, y in ints if ex * y - ey * x > bound])
        directed[left] += 1
        directed[n - 2 - left] += 1
    return tuple(directed)


class SweepTotals(NamedTuple):
    """Every table and extremal pair of an analysis, from one sweep per pair.

    The fold counts the census ``hist`` and the end weights ``directed``, the
    side counts of each pair's line; ``triples`` and ``undirected_j`` follow.
    Weights step by +-1, so a segment of weight w meets each neighbour in the
    pair {w-1, w} or {w, w+1}, and an end segment has one neighbour: for
    adjacent(k) the neighbouring pairs of minimum k, adjacent(-1) = 0 and
    adjacent(w-1) + adjacent(w) = 2 hist[w] - directed[w].  A circle through
    three points that encloses k others is an event on each of its three
    bisectors, between weights k and k+1, so c[k] = adjacent(k) / 3 over
    every bisector; over a given pair list ``triples`` is None.  The two end
    weights sum to n-2, so undirected[j] = directed[j], halved at j = (n-2)/2.
    Extremal pairs break ties to the lexicographically smallest pair, and are
    None when no pair, or no red-blue pair, was swept.
    """

    triples: tuple[int, ...] | None  # c[k], k = 0 .. n-3 (see triple_counts)
    census: tuple[int, ...]  # hist[w], w = 0 .. n-2: segments of weight w
    directed_j: tuple[int, ...]  # j = 0 .. n-2: ordered pairs with j points strictly left
    undirected_j: tuple[int, ...]  # j = 0 .. floor((n-2)/2): unordered pairs, j = min side
    # Indexed by Voronoi order k = weight + 1, k = 1 .. n-1; index 0 unused.
    repeat_b: tuple[int, ...]  # bisectors with weight k-1 on 4+ segments: collinear order-k edges
    max_collinear: tuple[int, ...]  # the most segments of weight k-1 on one bisector
    maximin: tuple[tuple[int, int], int] | None
    minimax: tuple[tuple[int, int], int] | None
    bichromatic_maximin: tuple[tuple[int, int], int] | None


def _least(a, b):
    return b if a is None or (b is not None and b < a) else a


class _Fold:
    """O(n) accumulators over the swept pairs of an n-point set.

    Extremal pairs are kept as keys whose least element wins, (-min weight,
    p, q) and (max weight, p, q), so a tie goes to the lexicographically
    smallest pair however the pairs were split into chunks.
    """

    def __init__(self, n: int):
        self.hist = [0] * max(n - 1, 0)
        self.directed = [0] * max(n - 1, 0)
        self.repeat_b = [0] * n
        self.max_collinear = [0] * n
        self.maximin = None
        self.minimax = None
        self.red_blue_maximin = None

    def add(self, pair: tuple[int, int], weights: list[int], red_blue: bool) -> None:
        lo, hi = min(weights), max(weights)
        mult = [0] * (hi - lo + 1)
        for w in weights:
            mult[w - lo] += 1
        for w, m in enumerate(mult, lo):
            self.hist[w] += m
            if m >= 4:
                self.repeat_b[w + 1] += 1
            if m > self.max_collinear[w + 1]:
                self.max_collinear[w + 1] = m
        self.directed[weights[0]] += 1
        self.directed[weights[-1]] += 1
        maximin = (-lo, *pair)
        self.maximin = _least(self.maximin, maximin)
        self.minimax = _least(self.minimax, (hi, *pair))
        if red_blue:
            self.red_blue_maximin = _least(self.red_blue_maximin, maximin)

    def merge(self, other: "_Fold") -> None:
        self.hist = list(map(add, self.hist, other.hist))
        self.directed = list(map(add, self.directed, other.directed))
        self.repeat_b = list(map(add, self.repeat_b, other.repeat_b))
        self.max_collinear = list(map(max, self.max_collinear, other.max_collinear))
        self.maximin = _least(self.maximin, other.maximin)
        self.minimax = _least(self.minimax, other.minimax)
        self.red_blue_maximin = _least(self.red_blue_maximin, other.red_blue_maximin)

    def totals(self, every_pair: bool) -> SweepTotals:
        adjacent, triples = 0, []
        for h, d in zip(self.hist[:-1], self.directed):
            adjacent = 2 * h - d - adjacent
            triples.append(adjacent // 3)
        undirected = self.directed[: (len(self.directed) + 1) // 2]
        if len(self.directed) % 2:  # n even: halving pairs have both ends at (n-2)/2
            undirected[-1] //= 2
        return SweepTotals(
            tuple(triples) if every_pair else None,
            tuple(self.hist),
            tuple(self.directed),
            tuple(undirected),
            tuple(self.repeat_b),
            tuple(self.max_collinear),
            _extremal(self.maximin, -1),
            _extremal(self.minimax, 1),
            _extremal(self.red_blue_maximin, -1),
        )


def _extremal(key, sign: int) -> tuple[tuple[int, int], int] | None:
    return None if key is None else ((key[1], key[2]), sign * key[0])


def _fold_chunk(ps: PointSet, pairs: list[tuple[int, int]]) -> _Fold:
    fold = _Fold(len(ps))
    red_blue = {Color.RED, Color.BLUE}
    for p, q in pairs:
        fold.add((p, q), weight_sequence(ps, p, q), {ps.color(p), ps.color(q)} == red_blue)
    return fold


def sweep_totals(
    ps: PointSet, jobs: int = 1, pairs: list[tuple[int, int]] | None = None
) -> SweepTotals:
    """Fold the weight sequences of ``pairs`` into :class:`SweepTotals`.

    O(n log n) time per pair and O(n) memory per worker: no profile is kept.
    With ``jobs > 1`` workers fold chunks of pairs and their accumulators
    are merged, so the result is the same for any jobs value.

    ``pairs=None`` sweeps every pair, and only then may the fold certify a
    set not yet certified (:func:`~circledepth.geom._certifying`): after a
    duplicate check every pair i < j is swept over all other points, so a
    collinear triple is a zero cross on its smallest pair and a cocircular
    quadruple a tie on its smallest pair.  The first degeneracy raises
    :class:`DegenerateInputError` (from a worker too) and leaves the set
    uncertified; :func:`~circledepth.geom.validate_general_position` lists
    every violation.  A clean fold leaves on the set the three forms that
    function would store.

    A given list, empty or not, needs a certified set, since a partial sweep
    certifies nothing, and gives ``triples=None``.
    """
    if pairs is not None:
        ps.require_certified()
        return _fold(ps, pairs, jobs).totals(every_pair=False)
    with _certifying(ps):
        total = _fold(ps, all_pairs(len(ps)), jobs)
    return total.totals(every_pair=True)


def _fold(ps: PointSet, pairs: list[tuple[int, int]], jobs: int) -> _Fold:
    total = _Fold(len(ps))
    for part in _map_chunks(partial(_fold_chunk, ps), pairs, jobs, len(ps) - 2):
        total.merge(part)
    return total
