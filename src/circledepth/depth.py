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

Every kernel here decides its signs on integers that
:func:`~circledepth.geom.validate_general_position` (or a clean
:func:`sweep_totals`) stores on the set when it certifies it.  The sweep
(:func:`weight_sequence`) reads each point on its own denominators,
``PointSet.local``, so a rational set costs about what an integer one does;
the references (:func:`oracle_weights`, O(n^4) over all pairs,
:func:`triple_counts` and :func:`j_edge_counts`) read the common integer
grid that :meth:`PointSet.require_certified` returns, and so share no
arithmetic with the sweep.

:func:`sweep_totals` folds every pair's sequence into the tables of an
analysis without keeping a profile; the table functions below it
(``triple_counts``, ``j_edge_counts`` and the rest) count the same tables
independently, as references and for the checks.  They take the pairs they
range over, so the red-blue tables of a colored set are the same functions
over :func:`bichromatic_pairs`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key, partial
from itertools import accumulate
from operator import truediv

from .geom import (
    BisectorOrder,
    BisectorParam,
    Color,
    DegenerateInputError,
    Point,
    PointSet,
    Scalar,
    _bisector_order,
    _exact_keys,
    _lent_grid,
    _orient_int,
)


@dataclass(frozen=True)
class BisectorEvent:
    index: int  # third point whose circumcenter with the pair sits here
    s: Scalar
    covers_positive: bool  # True: enclosed for s > s_x; False: for s < s_x


@dataclass(frozen=True)
class BisectorProfile:
    """The weight sequence of one pair's bisector and the events cutting it.

    ``order`` is the sweep's sort of the third points by s (see
    :class:`circledepth.geom.BisectorOrder`).  The integer ``params``, the
    exact ``events`` and the frame (``midpoint``, ``direction``) are built
    from it and from the pair's points on first read, so a caller reading
    only ``weights`` builds no per-event tuple and no Fraction.
    """

    pair: tuple[int, int]
    ends: tuple[Point, Point]  # the points p and q
    order: BisectorOrder = field(hash=False)  # lists: compared, not hashed
    weights: tuple[int, ...]

    @cached_property
    def params(self) -> tuple[BisectorParam, ...]:
        others, nums, crosses, rank, _ = self.order
        keys = _exact_keys(nums, crosses) if rank else []
        return tuple(
            (keys[i], nums[i], crosses[i], others[i], True) if crosses[i] > 0
            else (keys[i], -nums[i], -crosses[i], others[i], False)
            for i in rank
        )

    @cached_property
    def events(self) -> tuple[BisectorEvent, ...]:
        return tuple(
            BisectorEvent(x, Fraction(num, 2 * den), left) for _, num, den, x, left in self.params
        )

    @property
    def midpoint(self) -> Point:
        p, q = self.ends
        return Point((p.x + q.x) / 2, (p.y + q.y) / 2)

    @property
    def direction(self) -> tuple[Scalar, Scalar]:
        # rot90(q - p); center(s) = midpoint + s * direction
        p, q = self.ends
        return (-(q.y - p.y), q.x - p.x)


@dataclass(frozen=True)
class DepthSummary:
    pair: tuple[int, int]
    min_weight: int
    max_weight: int


@dataclass(frozen=True)
class TripleStats:
    """c[k] = number of point triples whose circumcircle strictly encloses k points."""

    c: tuple[int, ...]  # indexed k = 0 .. n-3

    def at(self, k: int) -> int:
        # Out-of-range counts are zero by convention (used by identity checks).
        if 0 <= k < len(self.c):
            return self.c[k]
        return 0


@dataclass(frozen=True)
class EdgeStats:
    directed_j: tuple[int, ...]  # j = 0 .. n-2: ordered pairs with j points strictly left
    undirected_j: tuple[int, ...]  # j = 0 .. floor((n-2)/2): unordered pairs, j = min side


@dataclass(frozen=True)
class KSetStats:
    ksets: tuple[int, ...]  # index k = 1 .. n-1 (index 0 is unused and zero)

    def f_inf(self, k: int) -> int:
        # Unbounded regions of the order-k diagram; order 0 has none.
        if k == 0:
            return 0
        return self.ksets[k]


@dataclass(frozen=True)
class WeightCensus:
    hist: tuple[int, ...]  # weight w = 0 .. n-2 over all bisectors counted

    def at(self, w: int) -> int:
        if 0 <= w < len(self.hist):
            return self.hist[w]
        return 0


@dataclass(frozen=True)
class RepeatStats:
    """Repeated weights per bisector, indexed by Voronoi order k = weight + 1.

    ``b[k]`` counts bisectors whose sequence contains the value k-1 at least
    four times (four collinear order-k Voronoi edges); ``max_collinear[k]`` is
    the largest multiplicity of k-1 on any single bisector.  Index 0 unused.
    """

    b: tuple[int, ...]  # k = 1 .. n-1
    max_collinear: tuple[int, ...]

    def nonzero_orders(self) -> list[int]:
        return [k for k in range(1, len(self.b)) if self.b[k] > 0]


def weight_sequence(ps: PointSet, p: int, q: int) -> BisectorProfile:
    """Weight sequence of the bisector of pair (p, q), in increasing-s order.

    The sweep sorts on the integers stored on ``ps`` by certification or
    lent for a sweep: the local form (:attr:`PointSet.local`), or the grid
    when every point is integral.  Before the first event every point whose
    side is s < s_x is enclosed, and each event adds or removes its point:
    the weights are a running sum of the sides in sorted order.  Here the
    sweep asserts that the set does not degenerate on the pair: a point
    collinear with p and q, or two tied events, raise
    :class:`DegenerateInputError` naming the points.  So a clean sweep of
    every pair over all other points, after a duplicate check, certifies a
    set (see :func:`sweep_totals`).
    """
    ints = ps.require_certified()
    if p == q:
        raise ValueError("pair indices must differ")
    lo, hi = (p, q) if p < q else (q, p)
    others = [*range(lo), *range(lo + 1, hi), *range(hi + 1, len(ints))]
    order, collinear = _bisector_order(ints, p, q, others, ps.local)
    if collinear:
        raise DegenerateInputError("collinear triple on a swept pair", (p, q, collinear[0]))
    if order.ties:
        raise DegenerateInputError("cocircular quadruple on a swept pair", (p, q, *order.ties[0][:2]))
    steps = [1 if order.crosses[i] > 0 else -1 for i in order.rank]
    weights = accumulate(steps, initial=steps.count(-1))
    return BisectorProfile((p, q), (ps.point(p), ps.point(q)), order, tuple(weights))


def oracle_weights(ps: PointSet, p: int, q: int) -> list[int]:
    """Independent re-derivation of the weight sequence by sampling circles.

    On the common integer grid: event parameters are the integer
    circumcenters projected on the bisector, sorted by cross products.  Each
    segment is sampled at the fraction s = a/b with the smallest denominator
    strictly inside it (:func:`_simplest_between`), each unbounded end at an
    integer, so a sample's integers stay small on a wide grid.  The center is
    p + C / 2b with C = b(q - p) + 2a * d, and its circle encloses x iff
    b |x - p|^2 < C . (x - p), the power of x (never true for p and q).
    Shares no code with the sweep in :func:`weight_sequence`.
    """
    ints = ps.require_certified()
    if p == q:
        raise ValueError("pair indices must differ")
    (px, py), (qx, qy) = ints[p], ints[q]
    bx, by = qx - px, qy - py
    dx, dy = -by, bx  # rot90(q - p); center(s) = (p + q) / 2 + s * d
    dd = dx * dx + dy * dy
    params = []  # (a, b) for s = a / b, b > 0
    for xx, xy in (xy for x, xy in enumerate(ints) if x != p and x != q):
        # Circumcenter of (p, q, x): p + (ux, uy) / den.
        cx, cy = xx - px, xy - py
        den = 2 * (bx * cy - by * cx)
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        ux, uy = cy * bb - by * cc, bx * cc - cx * bb
        # 2 * den * (center - midpoint) = 2u - den * (q - p), projected on d.
        a, b = (2 * ux - den * bx) * dx + (2 * uy - den * by) * dy, 2 * den * dd
        params.append((a, b) if b > 0 else (-a, -b))
    params.sort(key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    if params:
        (lo_a, lo_b), (hi_a, hi_b) = params[0], params[-1]
        samples = [(lo_a // lo_b - 1, 1)]
        samples += [_simplest_between(a, b, c, e) for (a, b), (c, e) in zip(params, params[1:])]
        samples.append((hi_a // hi_b + 1, 1))
    else:
        samples = [(0, 1)]
    rel = [(x - px, y - py, (x - px) ** 2 + (y - py) ** 2) for x, y in ints]
    counts = []
    for a, b in samples:
        cx, cy = b * bx + 2 * a * dx, b * by + 2 * a * dy
        counts.append(len([1 for x, y, r2 in rel if b * r2 < cx * x + cy * y]))
    return counts


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


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` pairs: never more than the CPUs this
    process may run on, nor than there are pairs, and one for ``jobs <= 1``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))


def _map_chunks(task, pairs: list[tuple[int, int]], jobs: int) -> list:
    """``task`` over consecutive chunks of ``pairs``, results in pair order.

    ``jobs <= 1`` runs one chunk in this process.  Otherwise the pairs are
    cut into about four chunks per worker and mapped over a process pool of
    at most ``jobs`` workers (see :func:`_workers`).  The first chunk to
    raise ends the map: the chunks no worker has taken yet are cancelled,
    the running ones finish, and its error propagates, so a degenerate pair
    stops a pool about as early as it stops one process.
    """
    workers = _workers(jobs, len(pairs))
    if workers == 1:
        return [task(pairs)]
    # Imported here, not at module load: a run with one worker never pays
    # for the pool machinery's imports.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    size = -(-len(pairs) // (4 * workers))
    chunks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, chunk) for chunk in chunks]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [future.result() for future in futures]


def all_profiles(
    ps: PointSet, jobs: int = 1, pairs: list[tuple[int, int]] | None = None
) -> list[BisectorProfile]:
    """Profiles for ``pairs`` in their order, by default every unordered pair
    in lexicographic order.

    ``jobs > 1`` fans the per-pair work out to a process pool; the result
    order (and therefore every downstream aggregate) is identical for any
    jobs value.
    """
    pairs = all_pairs(len(ps)) if pairs is None else pairs
    chunks = _map_chunks(partial(_profile_chunk, ps), pairs, jobs)
    return [profile for chunk in chunks for profile in chunk]


def _profile_chunk(ps: PointSet, pairs: list[tuple[int, int]]) -> list[BisectorProfile]:
    return [weight_sequence(ps, p, q) for p, q in pairs]


def pair_depth(ps: PointSet, p: int, q: int) -> DepthSummary:
    profile = weight_sequence(ps, p, q)
    return DepthSummary((p, q), min(profile.weights), max(profile.weights))


def _first_least(ps: PointSet, profiles: list[BisectorProfile] | None, cost) -> BisectorProfile:
    # The first profile of least cost(weights), so a tie goes to the pair
    # that comes first: the lexicographically smallest by default.
    ps.require_certified()
    if len(ps) < 2:
        raise ValueError("need at least two points")
    return min(all_profiles(ps) if profiles is None else profiles, key=lambda p: cost(p.weights))


def maximin_pair(ps: PointSet, profiles: list[BisectorProfile] | None = None) -> tuple[tuple[int, int], int]:
    """Pair maximizing the minimum weight on its bisector.

    Ties break to the lexicographically smallest index pair so output is
    reproducible byte for byte.
    """
    best = _first_least(ps, profiles, lambda weights: -min(weights))
    return best.pair, min(best.weights)


def minimax_pair(ps: PointSet, profiles: list[BisectorProfile] | None = None) -> tuple[tuple[int, int], int]:
    """Pair minimizing the maximum weight on its bisector.

    Ties break to the lexicographically smallest index pair.  The value is
    returned as found; the bound floor((2n-3)/3) is the ``minimax-bound``
    check's to judge.
    """
    best = _first_least(ps, profiles, max)
    return best.pair, max(best.weights)


def bichromatic_pairs(ps: PointSet) -> list[tuple[int, int]]:
    """Red-blue pairs (p, q) with p < q, sorted: the pairs the red-blue tables range over."""
    reds = ps.indices_of(Color.RED)
    blues = ps.indices_of(Color.BLUE)
    if not reds or not blues:
        raise ValueError("need at least one red and one blue point")
    return sorted((min(r, b), max(r, b)) for r in reds for b in blues)


def triple_counts(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> TripleStats:
    """Enclosure counts over the circumcircles of point triples, by inversion.

    O(n^3 log n) and independent of the sweep, with the O(n^4) cross-check
    :func:`circledepth.brute.triple_counts`.  Relative to a pivot i, lift each
    point to l = (x, y, x^2 + y^2); m is strictly inside circle(i, j, k) iff
    det(l_j, l_k, l_m) and orient(i, j, k) have opposite signs.  Projected
    along a = l_j onto the basis u = a x e_z, v = a x u = a_z (a_x, a_y, -1),
    m has w = (l . u, l . v / a_z) with w.x = -orient(i, j, m) != 0, and m is
    inside iff x_m (sigma_m - sigma_k) > 0 for sigma = w.y / w.x.  So one sort
    of the sigma and a running count of x > 0 count every k > j.  The keys
    are correctly rounded floats; two equal ones (0.0 and -0.0 too) or an
    overflow sort that (i, j) on Fractions.
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
            try:
                keys = list(map(truediv, ys, xs))
                exact = len(set(keys)) < len(keys)
            except OverflowError:
                exact = True
            if exact:
                keys = list(map(Fraction, ys, xs))
            right, left = sum(x > 0 for x in xs), 0  # x > 0 after k; x < 0 before k
            for t in sorted(range(n - 2), key=keys.__getitem__):
                k, positive = others[t], xs[t] > 0
                right -= positive
                if k > j and (chosen is None or not chosen.isdisjoint(((i, j), (i, k), (j, k)))):
                    counts[right + left] += 1
                left += not positive
    return TripleStats(tuple(counts))


def j_edge_counts(ps: PointSet, pairs: list[tuple[int, int]] | None = None) -> EdgeStats:
    """j-edge counts over ``pairs`` (default every pair), by orientation tests."""
    ints = ps.require_certified()
    n = len(ps)
    directed = [0] * max(n - 1, 0)
    undirected = [0] * ((n - 2) // 2 + 1 if n >= 2 else 0)
    for i, j in all_pairs(n) if pairs is None else pairs:
        a, b = ints[i], ints[j]
        left = sum(_orient_int(a, b, ints[x]) > 0 for x in range(n) if x != i and x != j)
        directed[left] += 1
        directed[n - 2 - left] += 1
        undirected[min(left, n - 2 - left)] += 1
    return EdgeStats(tuple(directed), tuple(undirected))


def kset_counts(ps: PointSet, edges: EdgeStats | None = None) -> KSetStats:
    """k-set counts via the directed j-edge correspondence.

    The number of subsets of size k separable by a line equals the number of
    ordered pairs with exactly k-1 points strictly on their left.  The
    directed convention is what makes this exact at k = n/2 as well; the
    undirected table would halve the halving-edge contribution.
    """
    ps.require_certified()
    n = len(ps)
    if edges is None:
        edges = j_edge_counts(ps)
    return KSetStats((0, *edges.directed_j)[:n])


def segment_weight_census(
    ps: PointSet, profiles: list[BisectorProfile] | None = None
) -> WeightCensus:
    """Histogram of segment weights over the profiled bisectors (default all C(n,2))."""
    ps.require_certified()
    n = len(ps)
    hist = [0] * (n - 1)
    for profile in all_profiles(ps) if profiles is None else profiles:
        for w in profile.weights:
            hist[w] += 1
    return WeightCensus(tuple(hist))


def repeated_weight_stats(
    ps: PointSet, profiles: list[BisectorProfile] | None = None
) -> RepeatStats:
    """How often single bisectors repeat a weight (collinear order-k edges).

    Counts all C(n,2) bisectors; constructions report their designated pairs
    separately.
    """
    ps.require_certified()
    n = len(ps)
    b = [0] * n
    max_mult = [0] * n
    for profile in all_profiles(ps) if profiles is None else profiles:
        seen: dict[int, int] = {}
        for w in profile.weights:
            seen[w] = seen.get(w, 0) + 1
        for w, mult in seen.items():
            k = w + 1
            if mult >= 4:
                b[k] += 1
            if mult > max_mult[k]:
                max_mult[k] = mult
    return RepeatStats(tuple(b), tuple(max_mult))


@dataclass(frozen=True)
class SweepTotals:
    """Every table and extremal pair of an analysis, from one sweep per pair.

    ``triples`` is derived, not counted: a circle through three points that
    encloses k others is an event on each of its three bisectors, between
    segments of weights k and k+1, so c[k] is a third of the number of
    adjacent weight pairs with minimum k.  The end weights of a bisector are
    the side counts of its pair's line, which give ``edges``.  The extremal
    pairs are None when the set has no pair, or no red-blue pair.
    """

    triples: TripleStats
    census: WeightCensus
    edges: EdgeStats
    repeats: RepeatStats
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
        self.incidences = [0] * max(n - 2, 0)
        self.directed = [0] * max(n - 1, 0)
        self.undirected = [0] * ((n - 2) // 2 + 1 if n >= 2 else 0)
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
        incidences = self.incidences
        for a, b in zip(weights, weights[1:]):
            incidences[a if a < b else b] += 1
        first, last = weights[0], weights[-1]
        self.directed[first] += 1
        self.directed[last] += 1
        self.undirected[min(first, last)] += 1
        maximin = (-lo, *pair)
        self.maximin = _least(self.maximin, maximin)
        self.minimax = _least(self.minimax, (hi, *pair))
        if red_blue:
            self.red_blue_maximin = _least(self.red_blue_maximin, maximin)

    def merge(self, other: "_Fold") -> None:
        for mine, theirs in (
            (self.hist, other.hist),
            (self.incidences, other.incidences),
            (self.directed, other.directed),
            (self.undirected, other.undirected),
            (self.repeat_b, other.repeat_b),
        ):
            for i, v in enumerate(theirs):
                mine[i] += v
        self.max_collinear = [max(a, b) for a, b in zip(self.max_collinear, other.max_collinear)]
        self.maximin = _least(self.maximin, other.maximin)
        self.minimax = _least(self.minimax, other.minimax)
        self.red_blue_maximin = _least(self.red_blue_maximin, other.red_blue_maximin)

    def totals(self) -> SweepTotals:
        return SweepTotals(
            TripleStats(tuple(v // 3 for v in self.incidences)),
            WeightCensus(tuple(self.hist)),
            EdgeStats(tuple(self.directed), tuple(self.undirected)),
            RepeatStats(tuple(self.repeat_b), tuple(self.max_collinear)),
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
        weights = weight_sequence(ps, p, q).weights
        fold.add((p, q), weights, {ps.color(p), ps.color(q)} == red_blue)
    return fold


def sweep_totals(ps: PointSet, jobs: int = 1) -> SweepTotals:
    """Fold every pair's weight sequence into :class:`SweepTotals`.

    O(n^3 log n) time and O(n) memory per worker: no profile is kept.  With
    ``jobs > 1`` workers fold chunks of pairs and their accumulators are
    merged, so the result is the same for any jobs value.

    On a set not yet certified the fold certifies it: after a duplicate
    check the set is lent its grid (:func:`~circledepth.geom._lent_grid`),
    and every pair i < j is swept over all other points, so a collinear
    triple is a zero cross on its smallest pair and a cocircular quadruple a
    tie on its smallest pair.  The first degeneracy raises
    :class:`DegenerateInputError` (from a worker too) and leaves the set
    uncertified; :func:`~circledepth.geom.validate_general_position` lists
    every violation.  A clean fold stores the grid and the local form on the
    set, the same ones that function would store.
    """
    n = len(ps)
    total = _Fold(n)
    with nullcontext(ps.grid) if ps.gp_certified else _lent_grid(ps) as grid:
        local = ps.local
        for part in _map_chunks(partial(_fold_chunk, ps), all_pairs(n), jobs):
            total.merge(part)
    # Every pair swept clean: the set is in general position.
    ps.grid, ps.local = grid, local
    return total.totals()
