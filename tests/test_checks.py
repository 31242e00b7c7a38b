import os
import tracemalloc

import pytest

from circledepth import Color, j_edge_counts, oracle_weights, sweep_totals, triple_counts, weight_sequence
from circledepth import checks, depth, forkmap
from circledepth.brute import kset_counts_bruteforce
from circledepth.checks import (
    CHECKS,
    applicable_checks,
    check_bichromatic_census,
    check_cumulative_kset_bound,
    check_enclosure_count_bounds,
    check_minimax_bound,
    check_oracle_match,
    check_profile_invariants,
    check_region_count_sum,
    check_triple_pair_sum,
    check_weight_census,
    run_checks,
)
from circledepth.constructions import random_convex, random_general_position, two_colored_convex

from conftest import InProcessChild, make_set, random_corpus


def test_triple_pair_sum_on_random_sets():
    for ps in random_corpus(6, (5, 8), seed0=300):
        result = check_triple_pair_sum(ps)
        assert result.passed, result


def test_triple_pair_sum_triangle(triangle):
    result = check_triple_pair_sum(triangle)
    # n=3, k=0 pairs c_0 with itself: 2*c_0 == 2 forces exactly one empty circle.
    assert result.passed
    assert result.instances[0].lhs == 2 and result.instances[0].rhs == 2


def test_weight_census_exact_relation(quad):
    result = check_weight_census(quad)
    assert result.passed
    by_label = {inst.label: inst for inst in result.instances}
    assert by_label["total"].lhs == 6 * 3
    # 2*hist == 3*(c_w + c_{w-1}) + directed_j holds for every weight.
    for w, hist in enumerate((5, 8, 5)):
        inst = by_label[f"w={w}"]
        assert inst.lhs == 2 * hist and inst.passed
    # The classical pair-sum is informational only; for this set it reads
    # 13 vs 12, which is exactly why it cannot gate the check.
    info = by_label["pair-sum k=0"]
    assert info.relation == "info" and info.lhs == 13 and info.rhs == 12


def test_weight_census_on_random_sets():
    for ps in random_corpus(6, (4, 6, 9), seed0=8100):
        assert check_weight_census(ps).passed


def test_minimax_bound(triangle):
    result = check_minimax_bound(triangle)
    assert result.passed and result.instances[0].lhs == 1 and result.instances[0].rhs == 1


def test_enclosure_count_bounds():
    # At n=5, k=0 the bound is 3 on both sides.
    ps = random_convex(5, seed=11)
    result = check_enclosure_count_bounds(ps)
    assert result.passed
    lower = [inst for inst in result.instances if inst.label == "k=0 lower"][0]
    assert lower.lhs == 3 and lower.rhs == 3  # Delaunay triangles meet it exactly
    for rnd in random_corpus(4, (4, 7, 9), seed0=600):
        assert check_enclosure_count_bounds(rnd).passed


def test_enclosure_count_bounds_requires_four():
    with pytest.raises(ValueError):
        check_enclosure_count_bounds(make_set([(0, 0), (4, 1), (1, 5)]))


def test_region_count_sum_pentagon_anchor():
    ps = random_convex(5, seed=11)
    assert triple_counts(ps)[0] == 3
    # One 1-set per vertex: ksets[1] = directed_j[0], in the fold and in the reference.
    assert j_edge_counts(ps)[0] == sweep_totals(ps).directed_j[0] == 5
    assert kset_counts_bruteforce(ps)[1] == 5
    result = check_region_count_sum(ps)
    inst = {inst.label: inst for inst in result.instances}["k=2"]
    # f_inf(0) + f_inf(1) = 0 + 5 and (k-1)(2n-k) - c_0 = 8 - 3.
    assert (inst.lhs, inst.rhs) == (5, 5) and result.passed


def test_region_count_sum_all_k():
    for ps in random_corpus(5, range(4, 9), seed0=90):
        assert check_region_count_sum(ps).passed


def test_cumulative_kset_bound():
    hexagon = random_convex(6, seed=2)
    result = check_cumulative_kset_bound(hexagon)
    by_label = {inst.label: inst for inst in result.instances}
    assert by_label["k=1"].lhs == 6 and by_label["k=1"].rhs == 6
    assert by_label["k=2"].lhs == 12 and by_label["k=2"].rhs == 12
    assert result.passed
    ps = random_general_position(10, seed=77, coord_range=10**6)
    by_label = {inst.label: inst for inst in check_cumulative_kset_bound(ps).instances}
    assert by_label["k=3"].rhs == 30 and "k=5" not in by_label


def test_bichromatic_census_bounds():
    ps = make_set(
        [(0, 0), (10, 0), (9, 9), (0, 10)],
        [Color.RED, Color.BLUE, Color.RED, Color.BLUE],
    )
    result = check_bichromatic_census(ps)
    assert result.passed
    by_label = {inst.label: inst for inst in result.instances}
    # Exact identity at w=0: 2*hist[0] = 8 and 2*(c'[0] + 0) + directed_j'[0]
    # = 2*2 + 4 (all four triples of this set are mixed-color).
    assert by_label["w=0"].lhs == 8 and by_label["w=0"].rhs == 8
    assert by_label["w=0"].relation == "=="
    # The classical pair-sum is reported but does not gate.
    assert by_label["pair-sum k=0"].relation == "info"
    assert by_label["pair-sum k=0"].lhs == 8 and by_label["pair-sum k=0"].rhs == 8


def test_bichromatic_census_identity_on_random_colored_sets():
    # The classical pair-sum bound 4(k+1)(N-k-2) holds for circle-segment
    # incidences, not for the distinct census hist: hist exceeds it on random
    # colored sets from N=4 on (9 > 8 in the criterion 11 corpus; 81 > 80 on
    # the first of these N=10 sets), which is why the gating relation is the
    # exact mixed-triple identity instead.
    from circledepth.geom import validate_general_position, PointSet
    from circledepth.constructions import Rng

    rng = Rng(55)
    saw_pair_sum_violation = False
    for _ in range(6):
        while True:
            coords = [(rng.below(10**6), rng.below(10**6)) for _ in range(10)]
            colors = [Color.RED if i < 5 else Color.BLUE for i in range(10)]
            ps = PointSet.from_coords(coords, colors)
            if not validate_general_position(ps):
                break
        result = check_bichromatic_census(ps)
        assert result.passed, result
        for inst in result.instances:
            if inst.relation == "info" and inst.lhs > inst.rhs:
                saw_pair_sum_violation = True
    assert saw_pair_sum_violation


def test_bichromatic_census_two_points():
    ps = make_set([(0, 0), (3, 1)], [Color.RED, Color.BLUE])
    assert check_bichromatic_census(ps).passed  # vacuous: no valid k


def test_bichromatic_census_needs_every_point_colored():
    ps = make_set(
        [(0, 0), (10, 0), (9, 9), (0, 10)],
        [Color.RED, Color.BLUE, Color.UNCOLORED, Color.RED],
    )
    assert "bichromatic-census" not in applicable_checks(ps)
    with pytest.raises(ValueError, match="every point red or blue"):
        check_bichromatic_census(ps)


def test_profile_and_oracle_checks(quad):
    assert check_profile_invariants(quad).passed
    assert check_oracle_match(quad).passed
    # A passing check carries no evidence rows.
    assert [i.label for i in check_oracle_match(quad).instances] == ["mismatching pairs"]
    assert len(check_profile_invariants(quad).instances) == 3


def test_failed_oracle_match_names_the_pair_and_segment(monkeypatch, quad):
    # Bisector (1, 3) carries (1, 2, 1); the corrupted oracle says (1, 3, 1).
    def corrupted(ps, p, q):
        weights = oracle_weights(ps, p, q)
        if (p, q) == (1, 3):
            weights[1] += 1
        return weights

    monkeypatch.setattr(checks, "oracle_weights", corrupted)
    result = check_oracle_match(quad)
    assert not result.passed
    rows = [(i.label, i.lhs, i.rhs, i.relation) for i in result.instances]
    assert rows == [
        ("mismatching pairs", 1, 0, "=="),
        ("pair (1, 3) segment 1", 2, 3, "info"),
    ]


def test_failed_oracle_match_names_at_most_three_pairs(monkeypatch):
    ps = random_general_position(6, seed=5, coord_range=10**6)
    monkeypatch.setattr(checks, "oracle_weights", lambda ps, p, q: oracle_weights(ps, p, q)[:1])
    result = check_oracle_match(ps)
    assert result.instances[0].lhs == 15
    # The truncated oracle first differs where its single segment ends.
    assert [(i.label, i.rhs) for i in result.instances[1:]] == [
        ("pair (0, 1) segment 1", -1),
        ("pair (0, 2) segment 1", -1),
        ("pair (0, 3) segment 1", -1),
    ]


def test_failed_profile_invariants_name_the_pairs(monkeypatch, quad):
    # Bisector (0, 2) carries (1, 0, 1); the corrupted sweep says (1, 3, 1).
    def corrupted(ps, p, q):
        return (1, 3, 1) if (p, q) == (0, 2) else weight_sequence(ps, p, q)

    monkeypatch.setattr(depth, "weight_sequence", corrupted)
    result = check_profile_invariants(quad)
    assert not result.passed
    rows = [(i.label, i.lhs, i.rhs, i.relation) for i in result.instances]
    assert rows == [
        ("unit steps", 1, 0, "=="),
        ("end weights {j, n-j-2}", 0, 0, "=="),
        ("full intermediate coverage", 1, 0, "=="),
        ("pair (0, 2) non-unit steps", 2, 0, "info"),
        ("pair (0, 2) missing intermediate weights", 1, 0, "info"),
    ]


def _swap_first_adjacent(same_side):
    """A sweep sort that swaps, on every bisector, the first two adjacent
    events on the same side of the pair's line (or on opposite sides)."""
    real = depth._bisector_order

    def mutant(*args, **kwargs):
        order, collinear = real(*args, **kwargs)
        rank = list(order.rank)
        left = [order.crosses[i] > 0 for i in rank]
        i = next((i for i in range(len(rank) - 1) if (left[i] == left[i + 1]) == same_side), None)
        if i is not None:
            rank[i : i + 2] = rank[i + 1], rank[i]
        return order._replace(rank=rank), collinear

    return mutant


@pytest.mark.parametrize(
    "same_side, failing",
    [(True, set()), (False, {"weight-census", "oracle-match"})],
    ids=["same-side-swap", "opposite-side-swap"],
)
def test_which_checks_catch_a_wrong_event_order(same_side, failing, monkeypatch):
    # Two adjacent events on one side step the weights the same way, so
    # swapping them keeps every weight and no default check sees it.  An
    # opposite-side swap moves one weight by 2, which only the census and
    # the oracle see.
    ps = random_general_position(20, 3, 10**6)
    monkeypatch.setattr(depth, "_bisector_order", _swap_first_adjacent(same_side))
    results = run_checks(ps, None)
    assert len(results) == 8
    assert {result.name for result in results if not result.passed} == failing


def _one_more_triple(real, k):
    """A ``triple_counts`` whose c[k] is one too large."""

    def mutant(*args):
        c = list(real(*args))
        c[k] += 1
        return tuple(c)

    return mutant


def _edge_moved_down(real, j):
    """A ``j_edge_counts`` that moves one directed edge from j+1 to j."""

    def mutant(*args):
        directed = list(real(*args))
        directed[j] += 1
        directed[j + 1] -= 1
        return tuple(directed)

    return mutant


_LAWS_OVER_C = {"triple-pair-sum", "weight-census", "region-count-sum"}


@pytest.mark.parametrize(
    "name, mutate, index, failing",
    [
        ("triple_counts", _one_more_triple, 0, _LAWS_OVER_C),
        ("triple_counts", _one_more_triple, 20 - 3, _LAWS_OVER_C),
        ("j_edge_counts", _edge_moved_down, 0, {"weight-census", "region-count-sum"}),
        ("j_edge_counts", _edge_moved_down, 20 - 3, {"weight-census", "region-count-sum"}),
    ],
    ids=["c-first", "c-last", "directed-j-first", "directed-j-last"],
)
def test_which_checks_catch_a_wrong_reference_table(name, mutate, index, failing, monkeypatch):
    # The ends of c and directed_j are where the laws read the zero pads
    # c[-1] and c[n-2].  The bounds `enclosure-count-bounds` and
    # `cumulative-kset-bound` have slack, so no mutant here fails them.
    ps = random_general_position(20, 3, 10**6)
    monkeypatch.setattr(checks, name, mutate(getattr(checks, name), index))
    results = run_checks(ps, None)
    assert len(results) == 8
    assert {result.name for result in results if not result.passed} == failing


# The fold's accumulators, each with the offset of its index from the weight it counts,
_FOLD_TABLES = {"hist": 0, "directed": 0, "repeat_b": 1, "max_collinear": 1}
# and its extremal keys, each with the step of the key that raises the value by 1.
_FOLD_KEYS = {"maximin": -1, "minimax": 1, "red_blue_maximin": -1}


def _raise_in_fold(monkeypatch, name):
    """Raise the fold's ``name`` by 1: a table at the first weight of the
    first pair each fold adds, an extremal value as the fold totals up."""
    if name in _FOLD_TABLES:
        real_add = depth._Fold.add

        def add(self, pair, weights, red_blue):
            real_add(self, pair, weights, red_blue)
            if not hasattr(self, "raised"):
                self.raised = True
                getattr(self, name)[weights[0] + _FOLD_TABLES[name]] += 1

        monkeypatch.setattr(depth._Fold, "add", add)
    else:
        real_totals = depth._Fold.totals

        def totals(self, every_pair):
            key = getattr(self, name)
            if key is not None:
                setattr(self, name, (key[0] + _FOLD_KEYS[name], *key[1:]))
            return real_totals(self, every_pair)

        monkeypatch.setattr(depth._Fold, "totals", totals)


@pytest.mark.parametrize(
    "name, failing, colored_failing",
    [
        ("hist", {"weight-census"}, {"weight-census", "bichromatic-census"}),
        *((name, set(), set()) for name in ["directed", "repeat_b", "max_collinear"]),
        *((name, set(), set()) for name in ["maximin", "minimax", "red_blue_maximin"]),
    ],
    ids=["hist", "directed", "repeat-b", "max-collinear", "maximin", "minimax", "red-blue-maximin"],
)
def test_which_checks_catch_a_wrong_fold_table(name, failing, colored_failing, monkeypatch):
    # Of the fold, `verify` reads only the census, through both census laws,
    # and the minimax, through its bound alone.  Every other `analyze` table
    # is cross-checked by the tests alone.
    sets = [random_general_position(20, 3, 10**6), two_colored_convex(6).points]
    clean = sweep_totals(sets[1])
    _raise_in_fold(monkeypatch, name)
    # On the coloured set every mutant changes what `analyze` reports, so a
    # check that passes there lets a wrong table through.
    assert sweep_totals(sets[1]) != clean
    bound_rows = []
    for ps, expected in zip(sets, [failing, colored_failing]):
        results = run_checks(ps, None)
        assert {result.name for result in results if not result.passed} == expected
        bound_rows += [(i.lhs, i.rhs) for r in results if r.name == "minimax-bound" for i in r.instances]
    # Minimax 9 of bound 12 and 5 of bound 7, so one more still passes.
    assert bound_rows == ([(10, 12), (6, 7)] if name == "minimax" else [(9, 12), (5, 7)])


@pytest.mark.parametrize("jobs, workers", [(1, None), (0, None), (3, 3), (100_000, 8)])
def test_oracle_match_fan_out_is_bounded(monkeypatch, claim_cpus, fork_small_maps, jobs, workers):
    # Eight CPUs available: the oracle runs in min(jobs, CPUs, pairs)
    # processes, this one and a child for each further CPU, jobs <= 1 forks
    # none, and every pair is sampled once through the name the checks
    # module holds.
    monkeypatch.setattr(forkmap, "Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "cpus", [])
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    claim_cpus(8)
    ps = random_general_position(9, seed=13, coord_range=10**6)
    serial = run_checks(ps)
    calls = []

    def counted(ps, p, q):
        calls.append((p, q))
        return oracle_weights(ps, p, q)

    monkeypatch.setattr(checks, "oracle_weights", counted)
    assert run_checks(ps, jobs=jobs) == serial
    assert sorted(calls) == [(p, q) for p in range(9) for q in range(p + 1, 9)]
    assert len(InProcessChild.cpus) == (0 if workers is None else workers - 1)


def test_oracle_match_counts_a_pair_as_four_sweeps(monkeypatch):
    # With the real constant: 30 points have 435 pairs of 28 events, 12,180
    # in all, too few for two shares of the sweep, while oracle-match, at
    # four sweeps a pair, splits them over 2 processes.
    calls = []

    def recorder(task, items, jobs):
        calls.append((len(items), jobs))
        return [task(items)]

    monkeypatch.setattr(forkmap, "map_chunks", recorder)
    ps = random_general_position(30, seed=1, coord_range=10**6)
    depth.all_profiles(ps, jobs=2)
    assert calls == []
    assert check_oracle_match(ps, jobs=2).passed
    assert calls == [(435, 2)]


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_forked_checks_match_serial(claim_cpus, fork_small_maps, jobs):
    claim_cpus(4)
    ps = random_general_position(9, seed=13, coord_range=10**6)
    assert run_checks(ps, jobs=jobs) == run_checks(ps)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_checks_keeps_no_profile_alive():
    # Each pair is swept when a check reaches it and dropped after, so the
    # traced peak stays far below the 780 pairs' profiles kept at once
    # (about 3.8 MiB at n = 40).
    ps = random_general_position(40, 7, 10**6)
    tracemalloc.start()
    try:
        run_checks(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_run_checks_selection_and_order(quad):
    results = run_checks(quad, ["minimax-bound", "triple-pair-sum"])
    # Registry order, not argument order.
    assert [r.name for r in results] == ["triple-pair-sum", "minimax-bound"]
    with pytest.raises(ValueError):
        run_checks(quad, ["no-such-check"])
    # An explicit empty selection would pass on no evidence.
    with pytest.raises(ValueError, match="no checks selected"):
        run_checks(quad, [])


def test_applicable_checks(quad, triangle):
    names = applicable_checks(quad)
    assert "bichromatic-census" not in names  # uncolored
    assert "enclosure-count-bounds" in names
    assert "enclosure-count-bounds" not in applicable_checks(triangle)
    assert set(applicable_checks(quad)) <= set(CHECKS)


def test_all_checks_pass_on_colored_random_sets():
    from circledepth.geom import validate_general_position, PointSet
    from circledepth.constructions import Rng

    rng = Rng(55)
    for _ in range(3):
        while True:
            coords = [(rng.below(10**6), rng.below(10**6)) for _ in range(10)]
            colors = [Color.RED if i < 5 else Color.BLUE for i in range(10)]
            ps = PointSet.from_coords(coords, colors)
            if not validate_general_position(ps):
                break
        for result in run_checks(ps):
            assert result.passed, (result.name, result)
