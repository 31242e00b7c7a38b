"""Identity and bound checks over a point set, as structured reports.

Each check returns a :class:`CheckResult` carrying the claim it tested and
one :class:`CheckInstance` per (k, side) evaluation, so a verifier can emit
the full evidence as JSON rather than a bare boolean.  Instances marked
``relation="info"`` are reported but never gate the check.

Each check is a function from a certified set to its rows, declared once,
with its name, claim and size floor, by :func:`_check`.
"""

from __future__ import annotations

from functools import partial, wraps
from itertools import zip_longest
from math import comb
from operator import sub
from typing import Callable, NamedTuple

from . import depth
from .geom import Color, PointSet
from .depth import (
    _map_chunks,
    all_pairs,
    bichromatic_pairs,
    j_edge_counts,
    oracle_weights,
    sweep_totals,
    triple_counts,
)


class CheckInstance(NamedTuple):
    label: str
    lhs: int
    rhs: int
    relation: str  # "==", "<=", ">=", or "info"
    passed: bool


class CheckResult(NamedTuple):
    name: str
    claim: str
    instances: tuple[CheckInstance, ...]
    passed: bool


Row = tuple[str, int, int, str]

EVIDENCE_PAIRS = 3  # offending pairs a failing check names in info rows

# Registry order is the execution and report order, regardless of how the
# caller spells the selection: the order in which :func:`_check` declares them.
CHECKS: dict[str, Callable[..., CheckResult]] = {}

# Fewest points a check needs; the others apply at every size.
_MIN_POINTS: dict[str, int] = {}

_COUNT_WORDS = {2: "two", 3: "three", 4: "four"}


def _relate(relation: str, lhs: int, rhs: int) -> bool:
    if relation == "==":
        return lhs == rhs
    if relation == "<=":
        return lhs <= rhs
    if relation == ">=":
        return lhs >= rhs
    return True  # "info"


def _check(name: str, claim: str, least: int = 0):
    """Declare the decorated row function as the check ``name``.

    The check it returns requires a certified set of at least ``least``
    points (a smaller one raises ``need at least ... points``), and builds
    the :class:`CheckResult` from the rows; it passes when every row that is
    not ``info`` holds.
    """

    def register(rows_of: Callable[..., list[Row]]) -> Callable[..., CheckResult]:
        @wraps(rows_of)
        def check(ps: PointSet, *args, **kwargs) -> CheckResult:
            ps.require_certified()
            if len(ps) < least:
                raise ValueError(f"need at least {_COUNT_WORDS[least]} points")
            instances = tuple(
                CheckInstance(label, lhs, rhs, rel, _relate(rel, lhs, rhs))
                for label, lhs, rhs, rel in rows_of(ps, *args, **kwargs)
            )
            passed = all(inst.passed for inst in instances if inst.relation != "info")
            return CheckResult(name, claim, instances, passed)

        CHECKS[name] = check
        if least:
            _MIN_POINTS[name] = least
        return check

    return register


@_check("triple-pair-sum", "c[k] + c[n-k-3] == 2(k+1)(n-k-2) for all k", least=3)
def check_triple_pair_sum(ps: PointSet) -> list[Row]:
    """c[k] + c[n-k-3] == 2(k+1)(n-k-2) for every k (exact, all sets)."""
    n = len(ps)
    c = triple_counts(ps)
    return [(f"k={k}", c[k] + c[n - k - 3], 2 * (k + 1) * (n - k - 2), "==") for k in range(n - 2)]


def _census_rows(
    ps: PointSet, pairs: list[tuple[int, int]] | None, m: int
) -> tuple[tuple[int, ...], list[Row]]:
    """The census over the bisectors of ``pairs`` and the rows of its law.

    Counting (event, adjacent segment) incidences proves, for every weight w,

        2 * hist[w] == m * (c[w] + c[w-1]) + directed_j[w],

    when every counted circle's center is an event on m counted bisectors,
    with adjacent segment weights {k, k+1} (k its enclosed count): each
    bounded segment has two endpoint events and each unbounded segment one,
    and the unbounded segments of weight w biject with directed w-edges.
    The classical pair sum inc[k] + inc[n-k-3] vs 2m(k+1)(n-k-2) holds for
    the circle-segment incidence count inc[k] = m * c[k], not for the
    distinct census, so the census pair sums follow as info rows.  The law
    needs a triple, so it has no rows on fewer than three points.
    """
    n = len(ps)
    census = sweep_totals(ps, pairs=pairs).census
    rows: list[Row] = []
    if n >= 3:
        c = (*triple_counts(ps, pairs), 0)  # c[-1] = c[n-2] = 0
        directed = j_edge_counts(ps, pairs)
        for w in range(0, n - 1):
            law = m * (c[w] + c[w - 1]) + directed[w]
            rows.append((f"w={w}", 2 * census[w], law, "=="))
    for k in range(0, n - 2):
        pair_sum = census[k] + census[n - k - 3]
        rows.append((f"pair-sum k={k}", pair_sum, 2 * m * (k + 1) * (n - k - 2), "info"))
    return census, rows


@_check(
    "weight-census",
    "2*hist[w] == 3*(c[w] + c[w-1]) + directed_j[w] for all w; "
    "pair sums vs 6(k+1)(n-k-2) reported as info",
    least=3,
)
def check_weight_census(ps: PointSet) -> list[Row]:
    """The exact segment-census law over every bisector, plus the classical
    pair sum as information (see :func:`_census_rows`).

    Each circle's center is an event on its three bisectors, so m = 3:
    2 * hist[w] == 3 * (c[w] + c[w-1]) + directed_j[w].  The textbook pair
    sum inc[k] + inc[n-k-3] == 6(k+1)(n-k-2) holds for inc[k] = 3 * c[k] (a
    circle enclosing k points ends a weight-k segment on each of its three
    bisectors), not for the distinct census: hist[k] + hist[n-k-3] misses it
    in both directions (first at n = 4, 13 vs 12).
    """
    n = len(ps)
    census, rows = _census_rows(ps, None, 3)
    return [("total", sum(census), comb(n, 2) * (n - 1), "=="), *rows]


@_check("minimax-bound", "min over pairs of max enclosed count <= floor((2n-3)/3)", least=2)
def check_minimax_bound(ps: PointSet) -> list[Row]:
    """Some pair's circles all enclose at most floor((2n-3)/3) points.

    A failing report names the minimax pair in an info row.
    """
    n = len(ps)
    pair, value = sweep_totals(ps).minimax
    bound = (2 * n - 3) // 3
    rows = [(f"n={n}", value, bound, "<=")]
    if value > bound:
        rows.append((f"pair {pair} max weight", value, bound, "info"))
    return rows


@_check(
    "enclosure-count-bounds",
    "c[k] >= (k+1)(n-k-2) and c[n-k-3] <= (k+1)(n-k-2) for k < (n-3)/2",
    least=4,
)
def check_enclosure_count_bounds(ps: PointSet) -> list[Row]:
    """c[k] >= (k+1)(n-k-2) and c[n-k-3] <= (k+1)(n-k-2) for k < (n-3)/2."""
    n = len(ps)
    c = triple_counts(ps)
    rows = []
    for k in range((n - 2) // 2):  # k < (n-3)/2
        bound = (k + 1) * (n - k - 2)
        rows.append((f"k={k} lower", c[k], bound, ">="))
        rows.append((f"k={k} upper", c[n - k - 3], bound, "<="))
    return rows


@_check("region-count-sum", "sum_{i=1..k} f_inf(i-1) == (k-1)(2n-k) - c[k-2]", least=3)
def check_region_count_sum(ps: PointSet) -> list[Row]:
    """sum_{i=1..k} f_inf(i-1) == (k-1)(2n-k) - c[k-2] for 1 <= k <= n-1.

    f_inf(i) is the number of unbounded order-i Voronoi regions, which equals
    the number of i-sets, directed_j[i-1]; f_inf(0) = 0 and c[-1] = 0 by
    convention.
    """
    n = len(ps)
    c = (*triple_counts(ps), 0)  # c[-1] = 0
    directed_j = j_edge_counts(ps)
    return [
        (f"k={k}", sum(directed_j[: k - 1]), (k - 1) * (2 * n - k) - c[k - 2], "==")
        for k in range(1, n)
    ]


@_check("cumulative-kset-bound", "sum_{i=1..k} ksets[i] <= k*n for k < n/2", least=3)
def check_cumulative_kset_bound(ps: PointSet) -> list[Row]:
    """sum_{i=1..k} ksets[i] <= k*n for 1 <= k < n/2, where ksets[i] = directed_j[i-1]."""
    n = len(ps)
    directed_j = j_edge_counts(ps)
    return [(f"k={k}", sum(directed_j[:k]), k * n, "<=") for k in range(1, n) if k < n / 2]


@_check(
    "bichromatic-census",
    "2*hist[w] == 2*(c'[w] + c'[w-1]) + directed_j'[w] over red-blue bisectors; "
    "pair sums vs 4(k+1)(N-k-2) reported as info",
)
def check_bichromatic_census(ps: PointSet) -> list[Row]:
    """The exact red-blue census law, with the classical bound as information.

    The law of :func:`_census_rows` over the red-blue pairs: a mixed-color
    circle's center is an event on exactly two red-blue bisectors (a
    single-color circle on none), so m = 2 and, with c' the mixed-triple
    enclosure counts and directed_j' the red-blue directed edge counts,

        2 * hist[w] == 2 * (c'[w] + c'[w-1]) + directed_j'[w]

    exactly, for every weight w.  The classical pairing
    inc'[k] + inc'[N-k-3] <= 4(k+1)(N-k-2) holds for the red-blue
    circle-segment incidence count inc'[k] = 2 * c'[k] (since c' <= c), not
    for the distinct census: hist[k] + hist[N-k-3] exceeds it on small
    random inputs (first at N = 4, 9 > 8), because a segment may owe both its
    endpoint events to circles of matching count.

    The law needs every point red or blue, as in the theorem: a circle
    through a red, a blue and an uncolored point lies on only one red-blue
    bisector.
    """
    red_blue = bichromatic_pairs(ps)
    if ps.indices_of(Color.UNCOLORED):
        raise ValueError("bichromatic-census needs every point red or blue")
    _, rows = _census_rows(ps, red_blue, 2)
    return rows or [("vacuous", 0, 0, "==")]


# These two sweep each pair when they reach it, so they hold O(n) per worker. They read
# ``depth.weight_sequence`` through the module, so a counter rebound there sees every sweep.


@_check(
    "profile-invariants",
    "every bisector weight sequence steps by +-1, ends at {j, n-j-2}, covers the range",
)
def check_profile_invariants(ps: PointSet) -> list[Row]:
    """Structural facts of every weight sequence.

    Consecutive weights differ by exactly 1; the first and last weights are
    the two side counts {j, n-j-2} of the pair's line, i.e. they sum to
    n-2; every integer between them occurs.  ``lhs`` counts violating pairs,
    so the expected value is 0.  The first few offending pairs follow as
    info rows, one per broken invariant.
    """
    n = len(ps)
    bad = [0, 0, 0]
    evidence: list[Row] = []
    offenders = 0
    for pair in all_pairs(n):
        w = depth.weight_sequence(ps, *pair)
        d = list(map(sub, w[1:], w))
        measured = (
            ("non-unit steps", len(d) - d.count(1) - d.count(-1), 0),
            ("end weights w[0] + w[-1]", w[0] + w[-1], n - 2),
            ("missing intermediate weights", max(w) - min(w) + 1 - len(set(w)), 0),
        )
        broken = [i for i, (_, got, want) in enumerate(measured) if got != want]
        for i in broken:
            bad[i] += 1
        offenders += bool(broken)
        if broken and offenders <= EVIDENCE_PAIRS:
            for i in broken:
                label, got, want = measured[i]
                evidence.append((f"pair {pair} {label}", got, want, "info"))
    return [
        ("unit steps", bad[0], 0, "=="),
        ("end weights {j, n-j-2}", bad[1], 0, "=="),
        ("full intermediate coverage", bad[2], 0, "=="),
        *evidence,
    ]


def _oracle_mismatches(
    ps: PointSet, pairs: list[tuple[int, int]]
) -> list[tuple[tuple[int, int], int, int, int]]:
    """(pair, first differing segment, sweep weight, oracle weight) for each
    of ``pairs`` whose swept and sampled weights differ; -1 stands for a
    missing segment."""
    found = []
    for pair in pairs:
        swept = depth.weight_sequence(ps, *pair)
        sampled = oracle_weights(ps, *pair)
        if list(swept) != sampled:
            segments = enumerate(zip_longest(swept, sampled, fillvalue=-1))
            found.append(next((pair, i, a, b) for i, (a, b) in segments if a != b))
    return found


@_check("oracle-match", "weight_sequence equals oracle_weights elementwise for every pair")
def check_oracle_match(ps: PointSet, jobs: int = 1) -> list[Row]:
    """Sweep weights equal sampled-circle oracle weights, elementwise, every pair.

    ``jobs > 1`` spreads the sweeps and the oracle over forked processes
    (:func:`~circledepth.depth._map_chunks`); neither the report nor the
    error raised depends on it.  The first few mismatching pairs follow as
    info rows: the first differing segment, sweep weight against oracle
    weight (-1 for a missing segment).
    """
    # A pair costs a sweep and the sampling oracle, 4 to 5.5 sweeps in all
    # on 24 to 60 points.
    pair_events = 4 * (len(ps) - 2)
    chunks = _map_chunks(partial(_oracle_mismatches, ps), all_pairs(len(ps)), jobs, pair_events)
    mismatches = [found for chunk in chunks for found in chunk]
    return [
        ("mismatching pairs", len(mismatches), 0, "=="),
        *(
            (f"pair {pair} segment {i}", swept, oracle, "info")
            for pair, i, swept, oracle in mismatches[:EVIDENCE_PAIRS]
        ),
    ]


def applicable_checks(ps: PointSet) -> list[str]:
    """Check names that make sense for this set's size and coloring."""
    # The red-blue census law needs red and blue points and no uncolored one.
    two_colored = {cp.color for cp in ps.points} == {Color.RED, Color.BLUE}
    return [
        name
        for name in CHECKS
        if len(ps) >= _MIN_POINTS.get(name, 0) and (name != "bichromatic-census" or two_colored)
    ]


def select_checks(names: list[str]) -> list[str]:
    """The named checks in run order; ValueError if none is named or one is unknown.

    An explicit empty selection is an error: it would pass on no evidence.
    """
    if not names:
        raise ValueError("no checks selected")
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(CHECKS)})")
    return [name for name in CHECKS if name in names]


def run_checks(ps: PointSet, names: list[str] | None = None, jobs: int = 1) -> list[CheckResult]:
    # ``jobs`` serves oracle-match, the costliest check; results do not depend on it.
    ps.require_certified()
    ordered = applicable_checks(ps) if names is None else select_checks(names)
    return [
        CHECKS[name](ps, jobs=jobs) if name == "oracle-match" else CHECKS[name](ps)
        for name in ordered
    ]
