import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circledepth import (
    Color,
    DegenerateInputError,
    NotCertifiedError,
    Point,
    PointSet,
    all_profiles,
    bichromatic_pairs,
    circumcenter,
    j_edge_counts,
    oracle_weights,
    sweep_totals,
    triple_counts,
    validate_general_position,
    weight_sequence,
)
from circledepth import brute, depth, forkmap
from circledepth.brute import kset_counts_bruteforce
from circledepth.checks import check_minimax_bound, check_oracle_match
from circledepth.constructions import random_convex, random_general_position, two_colored_convex
from circledepth.depth import _simplest_between
from circledepth.geom import FLOAT_SPREAD, _bisector_order, _forms, _incircle_det_int, _orient_int
from circledepth.pointfile import parse_point_file

from conftest import (
    BEYOND_FLOAT,
    COCIRCULAR_UNDER_A_BOUND,
    NEAR_COCIRCULAR,
    NEAR_COCIRCULAR_SMALL,
    InProcessChild,
    in_circle,
    make_set,
    random_corpus,
    red_blue_maximin,
)

DATA = Path(__file__).parent / "data"


def test_requires_certification():
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    with pytest.raises(NotCertifiedError):
        weight_sequence(ps, 0, 1)


@pytest.mark.parametrize(
    "coords, pair, indices",
    [
        ([(0, 0), (1, 0), (2, 0), (0, 5)], (0, 1), (0, 1, 2)),  # collinear triple
        ([(0, 0), (4, 0), (0, 4), (4, 4), (2, 9)], (0, 1), (0, 1, 2, 3)),  # square: a tie
    ],
)
def test_weight_sequence_rejects_a_degenerate_grid(coords, pair, indices):
    # A grid that certification would never store: the sweep still refuses it.
    ps = PointSet.from_coords(coords)
    ps.grid = tuple(coords)
    with pytest.raises(DegenerateInputError) as err:
        weight_sequence(ps, *pair)
    assert err.value.indices == indices


def test_triangle_weights(triangle):
    assert weight_sequence(triangle, 0, 1) == (0, 1)
    assert oracle_weights(triangle, 0, 1) == [0, 1]


def test_quad_diagonal_weights(quad):
    # The two diagonals are not alike: the circumcircle of each triangle
    # containing diagonal (0,2) excludes the fourth point, while both circles
    # through diagonal (1,3) enclose it.
    assert weight_sequence(quad, 0, 2) == (1, 0, 1)
    assert oracle_weights(quad, 0, 2) == [1, 0, 1]
    assert weight_sequence(quad, 1, 3) == (1, 2, 1)
    assert oracle_weights(quad, 1, 3) == [1, 2, 1]


def test_quad_hull_edge_weights(quad):
    # Both remaining points lie left of the directed edge 0->1, so the
    # weights ascend with the sweep parameter.
    assert weight_sequence(quad, 0, 1) == (0, 1, 2)
    assert oracle_weights(quad, 0, 1) == [0, 1, 2]


def test_profile_structure(quad):
    # On diagonal (0, 2) point 1 (right of 0->2) is the event at s = -1/18
    # and point 3 (left) the event at s = 1/18, so the n - 1 weights start
    # at one enclosed point and step down, then up.
    order, collinear = _bisector_order(quad.require_certified(), 0, 2, [1, 3], quad.local)
    assert collinear == []
    events = [
        (order.others[i], Fraction(order.nums[i], 2 * order.crosses[i]), order.crosses[i] > 0)
        for i in order.rank
    ]
    assert events == [(1, Fraction(-1, 18), False), (3, Fraction(1, 18), True)]
    assert weight_sequence(quad, 0, 2) == (1, 0, 1)


def test_profile_builds_events_on_first_read(quad):
    # The sweep sums the sides of _bisector_order's sort, so no per-event
    # tuple and no Fraction is built for the weights: the order is plain
    # lists of ints, and an event's index and side are read off it.
    order, _ = _bisector_order(quad.require_certified(), 0, 2, [1, 3], quad.local)
    assert order.ties == [] and all(type(v) is list for v in order)
    assert all(type(v) is int for v in (*order.others, *order.nums, *order.crosses, *order.rank))
    assert [(order.others[i], order.crosses[i] > 0) for i in order.rank] == [(1, False), (3, True)]
    # The quad spans less than 2^25, so the sweep certifies its pairs on the
    # exact float form (bound 0): the same lists, with num and cross the same
    # integers held as floats.
    assert quad.floats[0] == 0
    on_floats, _ = _bisector_order(quad.require_certified(), 0, 2, [1, 3], quad.local, quad.floats)
    assert all(type(v) is float for v in (*on_floats.nums, *on_floats.crosses)) and on_floats == order


def test_two_point_set():
    ps = make_set([(0, 0), (7, 3)])
    assert weight_sequence(ps, 0, 1) == (0,)
    assert oracle_weights(ps, 0, 1) == [0]
    totals = sweep_totals(ps)
    assert totals.maximin == ((0, 1), 0)
    assert totals.minimax == ((0, 1), 0)


def test_pair_depth(quad, triangle):
    # A pair's depths are the least and greatest weights on its bisector.
    def depths(ps, p, q):
        weights = weight_sequence(ps, p, q)
        return (p, q), min(weights), max(weights)

    assert depths(triangle, 0, 1) == ((0, 1), 0, 1)
    assert depths(quad, 0, 2)[1:] == (0, 1)
    assert depths(quad, 0, 1)[1:] == (0, 2)


def test_extremal_pairs(quad, triangle):
    # Triangle: every pair has weights {0, 1}; lexicographic tie-break.
    assert sweep_totals(triangle).maximin == ((0, 1), 0)
    assert sweep_totals(triangle).minimax == ((0, 1), 1)
    # Quad: diagonal (1,3) has weights (1,2,1), so the maximin value is 1,
    # not 0 -- five of the six bisectors carry a weight-0 segment but that
    # one does not.
    assert sweep_totals(quad).maximin == ((1, 3), 1)
    # Diagonal (0,2) realizes max weight 1 <= floor((2*4-3)/3) = 1.
    assert sweep_totals(quad).minimax == ((0, 2), 1)


def test_triple_counts(quad, triangle):
    assert triple_counts(triangle) == (1,)
    assert triple_counts(quad) == (2, 2)


def test_convex_pentagon_empty_circles():
    # Perturbed convex 5-gon: the empty circumcircles are its Delaunay
    # triangles, and a convex polygon triangulates into n-2 of them.
    ps = random_convex(5, seed=11)
    assert triple_counts(ps)[0] == 3


def test_census(quad, triangle):
    assert sweep_totals(triangle).census == (3, 3)
    # Summing the six bisector profiles of the quad: four hull edges carry
    # (0,1,2) and the diagonals carry (1,0,1) and (1,2,1).
    assert sweep_totals(quad).census == (5, 8, 5)


def test_j_edges(quad, triangle):
    directed, undirected = j_edge_counts(quad), sweep_totals(quad).undirected_j
    assert directed == (4, 4, 4)
    assert undirected == (4, 2)
    assert sweep_totals(triangle).undirected_j == (3,)
    assert sum(directed) == 4 * 3
    assert sum(undirected) == 6


def test_ksets(quad, triangle):
    # The k-sets are directed_j one index later: ksets[k] = directed_j[k-1].
    assert [0, *j_edge_counts(quad)] == [0, 4, 4, 4]
    assert [0, *sweep_totals(triangle).directed_j] == [0, 3, 3]
    ninegon = random_convex(9, seed=5)
    # Every vertex of a convex polygon is a 1-set.
    assert j_edge_counts(ninegon)[0] == sweep_totals(ninegon).directed_j[0] == 9


def test_ksets_match_bruteforce():
    for ps in [*random_corpus(8, range(4, 9), seed0=4200), random_convex(7, 3)]:
        brute_ksets = kset_counts_bruteforce(ps)
        assert [0, *j_edge_counts(ps)] == brute_ksets
        assert [0, *sweep_totals(ps).directed_j] == brute_ksets


def test_oracle_matches_sweep_on_random_sets():
    for ps in random_corpus(6, (5, 7, 8), seed0=900):
        n = len(ps)
        for p in range(n):
            for q in range(p + 1, n):
                assert list(weight_sequence(ps, p, q)) == oracle_weights(ps, p, q)


def _certify_event_order(ps: PointSet, p: int, q: int) -> None:
    # On the common grid, by orientation and in-circle tests, which the
    # sweep never calls: y is inside the circle through p, q and x exactly
    # when det(p, q, x, y) has the sign of orient(p, q, x), and the circles
    # centred at s enclose y for s > s_y when y is left of p->q and for
    # s < s_y otherwise.  So s_x < s_y exactly when y is outside that circle
    # and left, or inside and right: det * side(x) * side(y) < 0.  The order
    # checked is geom._bisector_order's on the forms the sweep reads, the
    # sort the sweep sums, and the weights are the running sum of those
    # sides in that order.
    grid = ps.require_certified()
    a, b = grid[p], grid[q]
    others = [x for x in range(len(ps)) if x != p and x != q]
    order, _ = _bisector_order(grid, p, q, others, ps.local, ps.floats)
    events = [order.others[i] for i in order.rank]
    side = {x: _orient_int(a, b, grid[x]) for x in events}
    assert [order.crosses[i] > 0 for i in order.rank] == [side[x] > 0 for x in events]
    for x, y in zip(events, events[1:]):
        det = _incircle_det_int(a, b, grid[x], grid[y])
        assert det * side[x] * side[y] < 0, (p, q, x, y)
    steps = [side[x] for x in events]
    assert weight_sequence(ps, p, q) == tuple(accumulate(steps, initial=steps.count(-1)))


def test_event_order_is_certified_by_in_circle_tests():
    corpus = [
        *random_corpus(3, (8, 12), seed0=610),
        random_convex(9, 4),
        parse_point_file((DATA / "rational12.txt").read_text()).points,
        two_colored_convex(5).points,
        make_set(NEAR_COCIRCULAR),
        make_set(BEYOND_FLOAT),
        # On the exact float form, one with equal floats of distinct s; 12
        # points offset by 2^60 that span 2^25 - 1 (exact), and the same
        # spanning 2^25 (under a bound).
        make_set(NEAR_COCIRCULAR_SMALL),
        *(_offset_set(12, 611, spread) for spread in (FLOAT_SPREAD - 1, FLOAT_SPREAD)),
    ]
    for ps in corpus:
        assert not validate_general_position(ps)
        for p, q in permutations(range(len(ps)), 2):
            _certify_event_order(ps, p, q)


def _offset_set(n: int, seed: int, spread: int, offset: int = 2**60) -> PointSet:
    """A certified random set whose x coordinates span exactly ``spread``,
    offset by ``offset`` on both axes."""
    coords = [(cp.point.x, cp.point.y) for cp in random_general_position(n, seed, spread).points]
    low, high = min(x for x, _ in coords), max(x for x, _ in coords)
    ps = PointSet.from_coords([(offset + (x - low) * spread // (high - low), offset - y) for x, y in coords])
    assert not validate_general_position(ps)
    return ps


@pytest.mark.parametrize("spread", [FLOAT_SPREAD - 1, FLOAT_SPREAD])
def test_the_sweep_reads_the_float_copy_below_the_bound_and_gets_the_grids_weights(monkeypatch, spread):
    # Every pair's weights, read on the float form of a set spanning
    # 2^25 - 1 (exact, bound 0) or 2^25 (under a bound), are those of the
    # integer grid alone.
    ps = _offset_set(14, 5, spread)
    assert (ps.floats[0] == 0) == (spread < FLOAT_SPREAD)
    read = []
    real = depth._bisector_order
    monkeypatch.setattr(depth, "_bisector_order", lambda *args: read.append(args) or real(*args))
    swept = {pair: weight_sequence(ps, *pair) for pair in permutations(range(14), 2)}
    assert all(args[0] is ps.grid and args[-1] is ps.floats for args in read)
    ps.floats = None
    assert swept == {pair: weight_sequence(ps, *pair) for pair in swept}


def test_the_exact_branch_takes_only_the_pairs_the_float_bound_cannot_certify(monkeypatch):
    # Counts, not times, guard the float stage's gain.  A pair that reaches
    # the exact branch comes back with integer nums.  No pair of rational12
    # does (bound 17 u); 96 of the 276 pairs of two_colored_convex(12)
    # (points near 7e11, bound 4 u D^2 (1 + 2u)) do; and so does every pair
    # of a set with a coordinate beyond the doubles, which has no float form.
    exact = []
    real = depth._bisector_order

    def recording(*args):
        order, collinear = real(*args)
        exact.append(all(type(v) is int for v in order.nums))
        return order, collinear

    monkeypatch.setattr(depth, "_bisector_order", recording)
    for ps, counts in (
        (parse_point_file((DATA / "rational12.txt").read_text()).points, (0, 66)),
        (PointSet(two_colored_convex(12).points.points), (96, 276)),
        (parse_point_file("0 0\n1e4300 1\n3 1e-4300\n5 7\n").points, (6, 6)),
    ):
        exact.clear()
        sweep_totals(ps)
        assert (sum(exact), len(exact)) == counts
    assert ps.floats is None


@pytest.mark.parametrize("name", list(COCIRCULAR_UNDER_A_BOUND))
def test_a_cocircular_set_under_a_float_bound_raises_what_the_exact_sweep_raises(name):
    # The float stage cannot separate the tied events of points 0-3, so the
    # exact branch finds the tie, and the error is the integer sweep's.
    coords = COCIRCULAR_UNDER_A_BOUND[name]
    bound, _ = _forms([Point.of(x, y) for x, y in coords])[2]
    assert (bound > 0) == (name != "pythagorean-2^20")
    ps = PointSet.from_coords(coords)
    with pytest.raises(DegenerateInputError) as info:
        sweep_totals(ps)
    assert (str(info.value), info.value.indices) == ("cocircular quadruple on a swept pair", (0, 1, 2, 3))
    assert ps.grid is None and ps.floats is None


def test_sweep_totals_sweeps_each_pair_once_through_the_module_global(monkeypatch):
    # The benchmark counts sweeps per pair by rebinding depth.weight_sequence,
    # so the fold must call it by that global name, once for every pair,
    # whether the set comes certified or the fold certifies it, and once for
    # every pair of a given list.
    coords = [(cp.point.x, cp.point.y) for cp in random_general_position(9, 44, 1000).points]
    swept = []

    def counted(ps, p, q):
        swept.append((p, q))
        return weight_sequence(ps, p, q)

    monkeypatch.setattr(depth, "weight_sequence", counted)
    for ps in (PointSet.from_coords(coords), make_set(coords)):
        swept.clear()
        sweep_totals(ps, jobs=1)
        assert sorted(swept) == depth.all_pairs(9)
    chosen = [(0, 5), (2, 3), (7, 8), (1, 4)]
    swept.clear()
    sweep_totals(ps, pairs=chosen)
    assert sorted(swept) == sorted(chosen)
    # An empty list sweeps nothing: it is not read as every pair.
    swept.clear()
    empty = sweep_totals(ps, pairs=[])
    assert swept == []
    assert empty.census == (0,) * 8 and empty.repeat_b == (0,) * 9
    assert empty.directed_j == (0,) * 8 and not any(empty.max_collinear)
    assert empty.triples is None
    assert (empty.maximin, empty.minimax, empty.bichromatic_maximin) == (None, None, None)
    # A partial sweep certifies nothing, so a given list needs a certified set.
    fresh = PointSet.from_coords(coords)
    for pairs in (chosen, []):
        with pytest.raises(NotCertifiedError):
            sweep_totals(fresh, pairs=pairs)
        assert fresh.grid is None and fresh.local is None and swept == []


def test_profile_invariants_on_random_sets():
    for ps in random_corpus(6, (6, 9), seed0=77):
        n = len(ps)
        for w in all_profiles(ps):
            assert all(abs(a - b) == 1 for a, b in zip(w, w[1:]))
            j = min(w[0], w[-1])
            assert {w[0], w[-1]} == {j, n - j - 2}
            assert set(range(min(w), max(w) + 1)) <= set(w)


def test_minimax_bound_holds():
    ps = random_general_position(20, seed=31, coord_range=10**6)
    _, value = sweep_totals(ps).minimax
    assert value <= (2 * 20 - 3) // 3


def test_minimax_pair_returns_a_value_above_the_bound(monkeypatch, quad):
    # A hand-built weight sequence above floor((2*4-3)/3) = 1 on every pair:
    # the fold reports it, and judging it is the minimax-bound check's job.
    monkeypatch.setattr(depth, "weight_sequence", lambda ps, p, q: (0, 1, 2))
    assert sweep_totals(quad).minimax == ((0, 1), 2)
    result = check_minimax_bound(quad)
    assert not result.passed
    assert [(i.label, i.lhs, i.rhs, i.relation) for i in result.instances[1:]] == [
        ("pair (0, 1) max weight", 2, 1, "info")
    ]


def test_empty_profile_list_is_not_recomputed(quad):
    empty = sweep_totals(quad, pairs=[])
    assert empty.census == (0, 0, 0)
    assert empty.repeat_b == (0, 0, 0, 0)


def test_repeat_stats(triangle):
    totals = sweep_totals(triangle)
    assert totals.repeat_b == (0, 0, 0)
    assert totals.max_collinear[1] == 1  # weight 0 appears once per bisector


def test_rigid_motion_invariance(quad):
    # Reflect and translate by rational amounts: every count is unchanged.
    moved = make_set([(-x + 3, y - 17) for x, y in [(0, 0), (10, 0), (9, 9), (0, 10)]])
    totals, before = sweep_totals(moved), sweep_totals(quad)
    assert triple_counts(moved) == triple_counts(quad)
    assert totals.census == before.census
    assert j_edge_counts(moved) == j_edge_counts(quad)
    assert totals.maximin[1] == before.maximin[1]
    assert totals.minimax[1] == before.minimax[1]


def test_index_permutation_invariance(quad):
    perm = [2, 0, 3, 1]
    coords = [(0, 0), (10, 0), (9, 9), (0, 10)]
    shuffled = make_set([coords[i] for i in perm])
    totals, before = sweep_totals(shuffled), sweep_totals(quad)
    assert totals.maximin[1] == before.maximin[1]
    assert totals.minimax[1] == before.minimax[1]
    assert sorted(totals.census) == sorted(before.census)


def test_bichromatic_two_points():
    ps = make_set([(0, 0), (5, 2)], [Color.RED, Color.BLUE])
    assert red_blue_maximin(ps) == ((0, 1), 0)


def test_bichromatic_requires_both_colors(quad):
    with pytest.raises(ValueError):
        bichromatic_pairs(quad)


def test_bichromatic_census_quad():
    ps = make_set(
        [(0, 0), (10, 0), (9, 9), (0, 10)],
        [Color.RED, Color.BLUE, Color.RED, Color.BLUE],
    )
    # Bichromatic pairs are exactly the four hull edges, each with weights
    # (0, 1, 2); the same-color diagonals drop out.
    red_blue = bichromatic_pairs(ps)
    assert red_blue == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sweep_totals(ps, pairs=red_blue).census == (4, 4, 4)
    # Both triples through a diagonal and a third point contain a red-blue
    # pair, so every triple counts; the red-blue j-edges are the hull edges.
    assert triple_counts(ps, red_blue) == triple_counts(ps)
    assert j_edge_counts(ps, red_blue) == (4, 0, 4)
    pair, value = red_blue_maximin(ps)
    assert value == 0 and pair == (0, 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_profiles_match_serial(claim_cpus, fork_small_maps):
    # Four CPUs claimed, so --jobs 3 and 4 fork 2 and 3 real children even
    # on a smaller host, where pinning to a CPU it lacks is skipped.
    claim_cpus(4)
    ps = random_general_position(9, seed=13, coord_range=10**6)
    serial = all_profiles(ps, jobs=1)
    totals = sweep_totals(ps, jobs=1)
    chosen = depth.all_pairs(9)[::3]
    chosen_totals = sweep_totals(ps, pairs=chosen)
    for jobs in (2, 3, 4):
        assert all_profiles(ps, jobs=jobs) == serial
        assert sweep_totals(ps, jobs=jobs) == totals
        assert sweep_totals(ps, jobs=jobs, pairs=chosen) == chosen_totals
        assert_no_child_left()


@pytest.mark.parametrize(
    "n, jobs, workers",
    [(9, 100_000, 8), (9, 3, 3), (3, 100_000, 3), (9, 1, None), (9, 0, None)],
)
def test_jobs_fan_out_is_bounded(monkeypatch, claim_cpus, fork_small_maps, n, jobs, workers):
    # Eight CPUs available: a map runs in min(jobs, CPUs, pairs) processes,
    # this one and a child pinned to each further CPU, and jobs <= 1 forks
    # none.  This process is pinned to the first CPU, then gets its mask back.
    monkeypatch.setattr(forkmap, "Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "cpus", [])
    masks = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: masks.append(cpus))
    claim_cpus(8)
    ps = random_general_position(n, seed=13, coord_range=10**6)
    serial_profiles = all_profiles(ps)
    serial_totals = sweep_totals(ps)
    assert InProcessChild.cpus == [] and masks == []
    assert all_profiles(ps, jobs=jobs) == serial_profiles
    assert sweep_totals(ps, jobs=jobs) == serial_totals
    children = [] if workers is None else [{cpu} for cpu in range(1, workers)]
    assert InProcessChild.cpus == children * 2
    assert masks == ([] if workers is None else [{0}, set(range(8))] * 2)


def test_maps_without_fork_or_cpu_affinity(monkeypatch, fork_small_maps):
    # Without CPU affinity the map still fans out, pinning nothing; without
    # os.fork it runs serially.
    monkeypatch.setattr(forkmap, "Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "cpus", [])
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ps = random_general_position(9, seed=13, coord_range=10**6)
    serial = sweep_totals(ps)
    assert sweep_totals(ps, jobs=2) == serial
    assert InProcessChild.cpus == [None]
    monkeypatch.delattr(os, "fork")
    assert forkmap.map_chunks(len, depth.all_pairs(9), 8) == [36]
    assert sweep_totals(ps, jobs=2) == serial
    assert InProcessChild.cpus == [None]


def test_a_mask_that_shrinks_during_a_map_is_read_once(monkeypatch, fork_small_maps):
    # The map reads the CPU mask once: a mask that shrinks from two CPUs to
    # one after that read changes neither the processes nor the totals.
    ps = random_general_position(9, seed=13, coord_range=10**6)
    serial = sweep_totals(ps)
    monkeypatch.setattr(forkmap, "Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "cpus", [])
    masks = iter([{0, 1}, {0}])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: next(masks, {0}))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    assert sweep_totals(ps, jobs=2) == serial
    assert InProcessChild.cpus == [{1}]


def test_each_process_of_a_map_gets_share_events(monkeypatch):
    # With the real constant: a map of one event short of two shares runs
    # in this process, never reaching forkmap, and one of two shares runs
    # in 2 processes however many jobs are asked.  Each pair counts as one
    # event.
    calls = []

    def recorder(task, items, jobs):
        calls.append((len(items), jobs))
        return [task(items)]

    monkeypatch.setattr(forkmap, "map_chunks", recorder)
    two_shares = 2 * depth.SHARE_EVENTS
    assert depth._map_chunks(len, [(0, 1)] * (two_shares - 1), 8, 1) == [two_shares - 1]
    assert calls == []
    assert depth._map_chunks(len, [(0, 1)] * two_shares, 8, 1) == [two_shares]
    assert calls == [(two_shares, 2)]


def _fails_at(slow, fast, chunk):
    # Fails at pair ``slow`` after 0.3 s, or at pair ``fast`` at once.
    for pair in chunk:
        if pair in (slow, fast):
            if pair == slow:
                time.sleep(0.3)
            raise ValueError(f"degenerate {pair}")
    return chunk


def test_a_map_raises_the_serial_runs_error(claim_cpus, fork_small_maps):
    # Three processes: the second share fails after 0.3 s and the third at
    # once.  The children are joined in share order, so the map raises the
    # second share's error, the one a serial run meets first, not whichever
    # child's error is read first.
    claim_cpus(3)
    pairs = depth.all_pairs(6)
    task = partial(_fails_at, pairs[5], pairs[10])
    for jobs in (1, 3):
        with pytest.raises(ValueError, match=r"^degenerate \(1, 2\)$"):
            depth._map_chunks(task, pairs, jobs, 4)
        assert_no_child_left()


def _fails_or_sleeps(caller, chunk):
    if os.getpid() == caller:
        raise ValueError("the caller's share fails")
    time.sleep(60)


def _exits_in_child(caller, chunk):
    if os.getpid() != caller:
        os._exit(7)
    return chunk


def test_no_child_outlives_a_map(claim_cpus, fork_small_maps):
    claim_cpus(3)
    pairs = depth.all_pairs(6)
    assert depth._map_chunks(len, pairs, 3, 4) == [5, 5, 5]
    assert_no_child_left()
    # A failure in this process's share kills children that would sleep for
    # a minute.
    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's share fails"):
        depth._map_chunks(partial(_fails_or_sleeps, os.getpid()), pairs, 3, 4)
    assert time.monotonic() - start < 30
    assert_no_child_left()
    # A child that dies without writing is an error naming its exit code.
    with pytest.raises(ChildProcessError, match="exit code 7"):
        depth._map_chunks(partial(_exits_in_child, os.getpid()), pairs, 3, 4)
    assert_no_child_left()


def test_children_flush_nothing_they_inherit():
    # Output still buffered when a map forks is written once: a child
    # leaves through os._exit, never through the caller's exit path.  The
    # script lowers SHARE_EVENTS, as the fork_small_maps fixture does, so
    # that 9 points fork.
    script = (
        "import sys; sys.stdout.write('buffered')\n"
        "from circledepth import depth\n"
        "from circledepth.constructions import random_general_position\n"
        "depth.SHARE_EVENTS = 1\n"
        "depth.sweep_totals(random_general_position(9, 13, 10**6), jobs=2)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(depth.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"buffered", b"")


def _affinity(chunk):
    return os.sched_getaffinity(0)


def test_caller_affinity_is_restored():
    # Each process runs pinned to a CPU of its own, and this one gets its
    # mask back after the map.
    before = os.sched_getaffinity(0)
    pairs = depth.all_pairs(6)
    masks = forkmap.map_chunks(_affinity, pairs, 2)
    assert os.sched_getaffinity(0) == before
    if len(masks) == 2:
        first, second = sorted(before)[:2]
        assert masks == [{first}, {second}]


# Points snapped to a rational grid or to the lattice points of two circles:
# collinear triples, cocircular quadruples and duplicates are all common, and
# so are sets in general position.
grid_coord = st.tuples(
    st.integers(-3, 3).map(lambda k: Fraction(k, 2)),
    st.integers(-3, 3).map(lambda k: Fraction(k, 3)),
)
circle_coord = st.sampled_from(
    [
        (Fraction(x, 5), Fraction(y, 5))
        for x in range(-8, 9)
        for y in range(-8, 9)
        if x * x + y * y in (25, 65)
    ]
)
snapped_coord = st.one_of(grid_coord, circle_coord)
snapped_sets = st.one_of(
    st.lists(snapped_coord, max_size=8),
    st.lists(snapped_coord, max_size=8, unique=True),
    st.lists(circle_coord, min_size=4, max_size=7, unique=True),
)


@given(snapped_sets, st.lists(st.sampled_from(Color), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_sweep_totals_certifies_exactly_when_the_certifier_does(coords, colors):
    certified = PointSet.from_coords(coords, colors[: len(coords)])
    swept = PointSet.from_coords(coords, colors[: len(coords)])
    if validate_general_position(certified):
        with pytest.raises(DegenerateInputError):
            sweep_totals(swept)
        assert swept.grid is None and swept.local is None and swept.floats is None
    else:
        assert sweep_totals(swept) == sweep_totals(certified)
        assert swept.grid == certified.grid and swept.local == certified.local
        assert swept.floats == certified.floats


integer_coord = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
rational_coord = st.tuples(
    st.fractions(-1000, 1000, max_denominator=997), st.fractions(-1000, 1000, max_denominator=997)
)


@st.composite
def certified_sets(draw):
    coords = draw(st.lists(st.one_of(integer_coord, rational_coord), max_size=14, unique=True))
    colors = draw(st.lists(st.sampled_from(Color), min_size=len(coords), max_size=len(coords)))
    ps = PointSet.from_coords(coords, colors)
    assume(not validate_general_position(ps))
    return ps


@given(certified_sets())
@settings(max_examples=60, deadline=None)
def test_sweep_totals_match_independent_references(ps):
    n = len(ps)
    totals = sweep_totals(ps)
    # Every field of brute.WeightTables, read off either record.
    sampled = lambda t: (t.census, t.repeat_b, t.max_collinear, t.maximin, t.minimax)
    if n >= 3:
        assert totals.triples == triple_counts(ps)
    assert totals.directed_j == j_edge_counts(ps)
    assert sampled(totals) == sampled(brute.weight_tables(ps))
    if ps.indices_of(Color.RED) and ps.indices_of(Color.BLUE):
        red_blue = bichromatic_pairs(ps)
        assert totals.bichromatic_maximin == brute.weight_tables(ps, red_blue).maximin
        filtered = sweep_totals(ps, pairs=red_blue)
        assert filtered.triples is None
        assert filtered.directed_j == j_edge_counts(ps, red_blue)
        assert sampled(filtered) == sampled(brute.weight_tables(ps, red_blue))
        assert filtered.bichromatic_maximin == totals.bichromatic_maximin
    else:
        assert totals.bichromatic_maximin is None
    if n <= 9:
        brute_ksets = kset_counts_bruteforce(ps)
        assert [0, *totals.directed_j][:n] == brute_ksets
        assert [0, *j_edge_counts(ps)][:n] == brute_ksets


@given(
    certified_sets(),
    st.fractions(-1000, 1000, max_denominator=997),
    st.fractions(-1000, 1000, max_denominator=997),
    st.fractions(Fraction(1, 997), 1000, max_denominator=997),
)
@settings(max_examples=15, deadline=None)
def test_sweep_totals_invariant_under_translation_and_scaling(ps, dx, dy, scale):
    # Both keep every orientation and in-circle sign, so the moved set
    # certifies again, on a grid of its own, with every table unchanged.
    moved = make_set(
        [((p.x + dx) * scale, (p.y + dy) * scale) for p in (cp.point for cp in ps.points)],
        [cp.color for cp in ps.points],
    )
    assert sweep_totals(moved) == sweep_totals(ps)


@given(certified_sets(), st.data())
@settings(max_examples=15, deadline=None)
def test_outputs_are_covariant_under_a_permutation(ps, data):
    n = len(ps)
    order = data.draw(st.permutations(range(n)))
    permuted = make_set([tuple(ps.point(i)) for i in order], [ps.color(i) for i in order])
    # Pair (a, b) of the permuted set is pair (order[a], order[b]) of ps.
    for a, b in combinations(range(n), 2):
        expected = weight_sequence(ps, order[a], order[b])
        assert weight_sequence(permuted, a, b) == expected
    totals, again = sweep_totals(ps), sweep_totals(permuted)
    tables = lambda t: t[:6]  # triples .. max_collinear
    values = lambda t: [v and v[1] for v in (t.maximin, t.minimax, t.bichromatic_maximin)]
    assert tables(again) == tables(totals)
    assert values(again) == values(totals)


def fraction_oracle(ps, p, q):
    """The sampling oracle in Fraction arithmetic: circumcenters projected on
    the bisector, one sample per segment, each point decided by a linear form.

    The circle about c through p encloses x iff |c - x|^2 < |c - p|^2, that
    is 2c . (p - x) < |p|^2 - |x|^2.  With c = mid + s * d this is
    s * slope < bound, whose two constants are taken once per point.
    """
    pp, qp = ps.point(p), ps.point(q)
    mid = Point((pp.x + qp.x) / 2, (pp.y + qp.y) / 2)
    dx, dy = -(qp.y - pp.y), qp.x - pp.x
    others = [ps.point(x) for x in range(len(ps)) if x not in (p, q)]
    dd = dx * dx + dy * dy
    params = []
    for x in others:
        center = circumcenter(pp, qp, x)
        params.append(((center.x - mid.x) * dx + (center.y - mid.y) * dy) / dd)
    params.sort()
    samples = [params[0] - 1, *((a + b) / 2 for a, b in zip(params, params[1:])), params[-1] + 1]
    p2 = pp.x * pp.x + pp.y * pp.y
    forms = []
    for x in others:
        ex, ey = pp.x - x.x, pp.y - x.y
        bound = p2 - x.x * x.x - x.y * x.y - 2 * (mid.x * ex + mid.y * ey)
        forms.append((2 * (dx * ex + dy * ey), bound))
    return [sum(s * slope < bound for slope, bound in forms) for s in samples]


def in_circle_counts(ps, pairs=None):
    """Triple enclosure counts by the in-circle predicate, quadruple by quadruple."""
    n = len(ps)
    chosen = None if pairs is None else set(pairs)
    counts = [0] * (n - 2)
    for i, j, k in combinations(range(n), 3):
        if chosen is not None and chosen.isdisjoint(((i, j), (i, k), (j, k))):
            continue
        a, b, c = ps.point(i), ps.point(j), ps.point(k)
        inside = [m for m in range(n) if m not in (i, j, k) and in_circle(a, b, c, ps.point(m)) > 0]
        counts[len(inside)] += 1
    return tuple(counts)


@st.composite
def reference_sets(draw):
    """Certified sets of 3-12 points: integer, rational with a distinct
    denominator per coordinate, or red/blue with both colors present."""
    kind = draw(st.sampled_from(["integer", "rational", "red-blue"]))
    n = draw(st.integers(3, 12))
    if kind == "rational":
        dens = draw(st.lists(st.integers(2, 997), min_size=2 * n, max_size=2 * n, unique=True))
        nums = draw(st.lists(st.integers(-10**4, 10**4), min_size=2 * n, max_size=2 * n))
        values = [Fraction(a, b) for a, b in zip(nums, dens)]
        coords = list(zip(values[::2], values[1::2]))
    else:
        coords = draw(st.lists(integer_coord, min_size=n, max_size=n))
    colors = None
    if kind == "red-blue":
        colors = draw(st.lists(st.sampled_from([Color.RED, Color.BLUE]), min_size=n, max_size=n))
        assume(len(set(colors)) == 2)
    assume(len(set(coords)) == n)
    ps = PointSet.from_coords(coords, colors)
    assume(not validate_general_position(ps))
    return ps


# Every pair of NEAR_COCIRCULAR sorts the oracle's params on equal floats,
# and every pair of BEYOND_FLOAT overflows them: both take the Fraction sort.
@given(reference_sets())
@example(make_set(NEAR_COCIRCULAR))
@example(make_set(BEYOND_FLOAT))
@settings(max_examples=60, deadline=None)
def test_integer_oracle_matches_sweep_and_fraction_oracle(ps):
    for p, q in combinations(range(len(ps)), 2):
        sampled = oracle_weights(ps, p, q)
        assert sampled == list(weight_sequence(ps, p, q))
        assert sampled == fraction_oracle(ps, p, q)
        assert oracle_weights(ps, q, p) == list(weight_sequence(ps, q, p))


@given(reference_sets())
@settings(max_examples=60, deadline=None)
def test_lifted_triple_counts_match_in_circle(ps):
    assert triple_counts(ps) == in_circle_counts(ps)
    if ps.indices_of(Color.RED):
        red_blue = bichromatic_pairs(ps)
        assert triple_counts(ps, red_blue) == in_circle_counts(ps, red_blue)


@st.composite
def counted_sets(draw):
    """A certified set and a list of pairs to count over: random up to 40
    points, convex, red/blue with its red-blue pairs, or rational."""
    kind = draw(st.sampled_from(["random", "convex", "red-blue", "rational"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        ps = random_general_position(draw(st.integers(3, 40)), seed, 10**6)
    elif kind == "convex":
        ps = random_convex(draw(st.integers(3, 24)), seed)
    elif kind == "red-blue":
        n = draw(st.integers(3, 20))
        colors = draw(st.lists(st.sampled_from([Color.RED, Color.BLUE]), min_size=n, max_size=n))
        assume(len(set(colors)) == 2)
        points = random_general_position(n, seed, 10**6).points
        ps = make_set([tuple(cp.point) for cp in points], colors)
        return ps, bichromatic_pairs(ps)
    else:
        n = draw(st.integers(3, 12))
        dens = draw(st.lists(st.integers(2, 997), min_size=2 * n, max_size=2 * n))
        nums = draw(st.lists(st.integers(-10**4, 10**4), min_size=2 * n, max_size=2 * n))
        values = [Fraction(a, b) for a, b in zip(nums, dens)]
        coords = list(zip(values[::2], values[1::2]))
        assume(len(set(coords)) == n)
        ps = PointSet.from_coords(coords)
        assume(not validate_general_position(ps))
    pairs = draw(st.lists(st.sampled_from(depth.all_pairs(len(ps))), max_size=len(ps)))
    return ps, pairs


@given(counted_sets())
# In this order of NEAR_COCIRCULAR, the sort for i, j = 1, 2 meets equal float
# keys for points 0 and 3, which a stable sort puts in the wrong order; every
# sort of BEYOND_FLOAT overflows the float quotient.
@example((make_set([NEAR_COCIRCULAR[i] for i in (0, 2, 1, 3)]), [(0, 1)]))
@example((make_set(NEAR_COCIRCULAR), [(2, 3)]))
@example((make_set(BEYOND_FLOAT), [(1, 2)]))
@settings(max_examples=40, deadline=None)
def test_triple_counts_by_inversion_match_the_brute_force_count(case):
    ps, pairs = case
    assert depth.triple_counts(ps) == brute.triple_counts(ps)
    assert depth.triple_counts(ps, pairs) == brute.triple_counts(ps, pairs)


# n = 2 has one sample and no third point, n = 3 two samples around one event.
@given(counted_sets().map(lambda case: case[0]))
@example(make_set([(0, 0), (3, 1)]))
@example(make_set([(0, 0), (4, 0), (1, 3)]))
@example(parse_point_file((DATA / "rational12.txt").read_text()).points)
@example(make_set(NEAR_COCIRCULAR))
@example(make_set(BEYOND_FLOAT))
@settings(max_examples=25, deadline=None)
def test_oracle_two_sample_count_matches_the_plain_count(ps):
    assert not validate_general_position(ps)
    for p, q in permutations(range(len(ps)), 2):
        assert depth.oracle_weights(ps, p, q) == brute.oracle_weights(ps, p, q)


def test_oracle_tests_each_third_point_at_two_samples(monkeypatch):
    # Each power test multiplies one sample's b once, so the products of a
    # counted b are the tests.
    tests = []

    class Counted(int):
        def __mul__(self, other):
            tests.append(other)
            return int(self) * other

    real = depth._oracle_circles

    def counted(ints, p, q):
        circles, points = real(ints, p, q)
        return [(Counted(b), cx, cy) for b, cx, cy in circles], points

    monkeypatch.setattr(depth, "_oracle_circles", counted)
    ps = random_general_position(9, seed=3, coord_range=10**6)
    for p, q in permutations(range(9), 2):
        tests.clear()
        assert oracle_weights(ps, p, q) == list(weight_sequence(ps, p, q))
        assert len(tests) == 2 * 7


def test_oracle_fails_on_a_sample_outside_its_gap(monkeypatch):
    # The second interior sample of pair (1, 3) moves below its gap, so the
    # circle that should follow the second event precedes it: the oracle
    # still tests real circles and misses that point's change, while the
    # plain count is right on every untouched sample.
    ps = random_general_position(6, seed=5, coord_range=10**6)
    gaps = []
    monkeypatch.setattr(depth, "_simplest_between", lambda *gap: gaps.append(gap) or _simplest_between(*gap))
    depth._oracle_circles(ps.require_certified(), 1, 3)
    moved = gaps[1]
    monkeypatch.setattr(
        depth,
        "_simplest_between",
        lambda a, b, c, d: (a // b - 1, 1) if (a, b, c, d) == moved else _simplest_between(a, b, c, d),
    )
    sampled = depth.oracle_weights(ps, 1, 3)
    assert sampled != brute.oracle_weights(ps, 1, 3)
    result = check_oracle_match(ps)
    assert not result.passed
    swept = weight_sequence(ps, 1, 3)
    assert sampled[2] == swept[1] != swept[2]
    assert [(i.label, i.lhs, i.rhs, i.relation) for i in result.instances] == [
        ("mismatching pairs", 1, 0, "=="),
        ("pair (1, 3) segment 2", swept[2], swept[1], "info"),
    ]


def orientation_j_edges(ps, pairs):
    """(directed_j, undirected_j) by one orientation test per pair and third point."""
    grid = ps.require_certified()
    n = len(ps)
    directed, undirected = [0] * (n - 1), [0] * ((n - 2) // 2 + 1)
    for i, j in pairs:
        left = sum(_orient_int(grid[i], grid[j], grid[x]) > 0 for x in range(n) if x not in (i, j))
        directed[left] += 1
        directed[n - 2 - left] += 1
        undirected[min(left, n - 2 - left)] += 1
    return tuple(directed), tuple(undirected)


def _edges(totals):
    return totals.directed_j, totals.undirected_j


@st.composite
def colored_integer_sets(draw):
    """Certified integer sets of 2-30 points, uncolored or red/blue."""
    coords = draw(st.lists(integer_coord, min_size=2, max_size=30, unique=True))
    n = len(coords)
    red_blue = st.lists(st.sampled_from([Color.RED, Color.BLUE]), min_size=n, max_size=n)
    ps = PointSet.from_coords(coords, draw(st.one_of(st.none(), red_blue)))
    assume(not validate_general_position(ps))
    return ps


@given(colored_integer_sets())
@settings(max_examples=40, deadline=None)
def test_j_edge_counts_match_orientation_tests(ps):
    assert j_edge_counts(ps) == orientation_j_edges(ps, depth.all_pairs(len(ps)))[0]
    if ps.indices_of(Color.RED) and ps.indices_of(Color.BLUE):
        red_blue = bichromatic_pairs(ps)
        assert j_edge_counts(ps, red_blue) == orientation_j_edges(ps, red_blue)[0]


# Prefixes of one 21-point set in general position, so every n below is too.
PREFIX_SOURCE = [(cp.point.x, cp.point.y) for cp in random_general_position(21, 24, 10**6).points]


@pytest.mark.parametrize("n", [*range(8), 20, 21])
def test_fold_edges_match_orientation_tests(n):
    # The fold derives undirected_j from the end weights: directed_j below
    # (n-2)/2 and half of it at (n-2)/2, the halving pairs' entry at even n.
    coords = PREFIX_SOURCE[:n]
    for colors in (None, [(Color.RED, Color.BLUE)[i % 2] for i in range(n)]):
        ps = make_set(coords, colors)
        assert _edges(sweep_totals(ps)) == orientation_j_edges(ps, depth.all_pairs(n))
        if colors and n >= 2:
            red_blue = bichromatic_pairs(ps)
            assert _edges(sweep_totals(ps, pairs=red_blue)) == orientation_j_edges(ps, red_blue)


# Weight sequences of six points: five weights stepping by +-1, ends summing to 4.
WALKS = [(2, 1, 2, 3, 2), (0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 3, 2, 1, 2), (1, 0, 1, 2, 3)]


def test_fold_reads_adjacent_pairs_off_the_census_and_the_end_weights():
    # Each walk folded three times, so c[k] = adjacent(k) / 3 is the walk's
    # own count of adjacent weights with minimum k.
    fold = depth._Fold(6)
    for walk in WALKS[:1] * 3:
        fold.add((0, 1), list(walk), False)
    # (2, 1), (1, 2), (2, 3), (3, 2): minima 1, 1, 2, 2; both ends at 2.
    totals = fold.totals(every_pair=True)
    assert totals.triples == (0, 2, 2, 0)
    assert _edges(totals) == ((0, 0, 6, 0, 0), (0, 0, 3))
    for walk in WALKS[1:] * 3:
        fold.add((0, 1), list(walk), False)
    adjacent, undirected = [0] * 4, [0] * 3
    for walk in WALKS:
        for a, b in zip(walk, walk[1:]):
            adjacent[min(a, b)] += 1
        undirected[min(walk[0], walk[-1])] += 3
    totals = fold.totals(every_pair=True)
    assert totals.triples == tuple(adjacent)
    assert totals.undirected_j == tuple(undirected)
    assert fold.totals(every_pair=False).triples is None


def smaller_denominator_inside(lo, hi, den):
    """Whether some fraction with denominator below ``den`` lies strictly in (lo, hi)."""
    return any(math.floor(lo * d) + 1 < hi * d for d in range(1, den))


@given(
    st.fractions(-10**6, 10**6),
    st.fractions(-10**6, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
@example(Fraction(1, 2), Fraction(7, 3), 1, 1)  # holds an integer
@example(Fraction(0), Fraction(2, 7), 1, 1)  # (0, y)
@example(Fraction(-7, 3), Fraction(-9, 4), 5, 2)  # negative bounds
@example(Fraction(1, 2**100 + 1), Fraction(1, 2**100), 1, 3)  # 100-bit denominators
@example(Fraction(2**100 - 1, 2**100 + 7), Fraction(2**100, 2**100 + 5), 1, 1)
def test_simplest_between_is_inside_and_has_the_smallest_denominator(lo, hi, m, n):
    assume(lo != hi)
    lo, hi = min(lo, hi), max(lo, hi)
    # The bounds as the oracle passes them: not in lowest terms.
    num, den = _simplest_between(lo.numerator * m, lo.denominator * m, hi.numerator * n, hi.denominator * n)
    assert den > 0 and math.gcd(num, den) == 1
    assert lo < Fraction(num, den) < hi
    if den <= 10**4:
        assert not smaller_denominator_inside(lo, hi, den)
    if den > 1:
        # Every fraction strictly between the Farey neighbours l1/m1 < l2/m2
        # of num/den (num = l1 + l2, den = m1 + m2) has a denominator of at
        # least den; so none smaller lies in (lo, hi) iff both are outside it.
        m1 = pow(num, -1, den)
        l1 = (num * m1 - 1) // den
        assert Fraction(l1, m1) <= lo and Fraction(num - l1, den - m1) >= hi
