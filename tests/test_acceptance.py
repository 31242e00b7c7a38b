"""Acceptance suite: one test per release criterion, one printed line each.

Each criterion is exact (integer equality or integer bound, never a float
tolerance) and every one passes at its stated strength.  The census pair
sums of criteria 4 and 11 count circle-segment incidences, read off the
swept weight sequences by :func:`circle_incidences`; the distinct-segment
histograms ``hist`` obey the exact per-weight laws asserted in the
companion tests instead.
"""

from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from conftest import ACCEPTANCE_LINES, red_blue_maximin

from circledepth import (
    Color,
    PointSet,
    all_profiles,
    bichromatic_pairs,
    j_edge_counts,
    oracle_weights,
    sweep_totals,
    triple_counts,
    validate_general_position,
    weight_sequence,
)
from circledepth.brute import kset_counts_bruteforce, weight_tables
from circledepth.cli import main
from circledepth.constructions import (
    Rng,
    halving_line_construction,
    random_convex,
    random_general_position,
    recursive_seven_region,
    two_colored_convex,
)

DATA = Path(__file__).parent / "data"


def report(line: str) -> None:
    # Collected by the pytest_terminal_summary hook in conftest.py, and also
    # printed here so a failing test shows its verdict in captured output.
    ACCEPTANCE_LINES.append(line)
    print(line)


def circle_incidences(weight_sequences, n: int) -> list[int]:
    """inc[k], k = 0 .. n-3: circle-segment incidences of circles enclosing k points.

    Each adjacent pair of weights on a swept bisector is one event, the
    circle through the pair and a third point; the weights step between m
    and m+1, where m is the number of points that circle encloses.
    """
    inc = [0] * (n - 2)
    for weights in weight_sequences:
        for a, b in zip(weights, weights[1:]):
            inc[min(a, b)] += 1
    return inc


@pytest.fixture(scope="module")
def corpus_small():
    """Criterion 1 corpus: 100 random certified sets, n cycling 4..12."""
    sizes = list(range(4, 13))
    return [
        random_general_position(sizes[i % len(sizes)], seed=20_000 + i, coord_range=10**6)
        for i in range(100)
    ]


@pytest.fixture(scope="module")
def corpus_oracle():
    """Criteria 2-3 corpus: 50 random certified sets, n cycling 3..10."""
    sizes = list(range(3, 11))
    return [
        random_general_position(sizes[i % len(sizes)], seed=30_000 + i, coord_range=10**6)
        for i in range(50)
    ]


@pytest.fixture(scope="module")
def corpus_colored():
    """Criterion 11 corpus: 50 random colored sets with n+m <= 16."""
    out = []
    rng = Rng(60_001)
    for i in range(50):
        total = 4 + (i % 13)  # 4..16 points
        reds = 1 + rng.below(total - 1)
        while True:
            coords = [(rng.below(10**6), rng.below(10**6)) for _ in range(total)]
            colors = [Color.RED] * reds + [Color.BLUE] * (total - reds)
            ps = PointSet.from_coords(coords, colors)
            if not validate_general_position(ps):
                break
        out.append(ps)
    return out


def test_criterion_01_triple_pair_sums_exact(corpus_small):
    checked = 0
    for ps in corpus_small:
        n = len(ps)
        c = triple_counts(ps)
        for k in range(0, n - 2):
            assert c[k] + c[n - k - 3] == 2 * (k + 1) * (n - k - 2), (
                f"triple pair sum failed at n={n}, k={k}: {c}"
            )
            checked += 1
        assert sum(c) == comb(n, 3)
    report(f"criterion 1 PASS: c[k]+c[n-k-3] == 2(k+1)(n-k-2) exactly "
           f"({checked} instances over 100 random sets, n=4..12)")


def test_criterion_02_oracle_equivalence(corpus_oracle):
    pairs = 0
    for ps in corpus_oracle:
        n = len(ps)
        for p in range(n):
            for q in range(p + 1, n):
                assert list(weight_sequence(ps, p, q)) == oracle_weights(ps, p, q), (
                    f"sweep/oracle mismatch at n={n}, pair ({p}, {q})"
                )
                pairs += 1
    report(f"criterion 2 PASS: weight_sequence == oracle_weights elementwise "
           f"({pairs} pairs over 50 random sets, n=3..10)")


def test_criterion_03_profile_invariants(corpus_oracle):
    profiles = 0
    for ps in corpus_oracle:
        n = len(ps)
        for pair, w in zip(combinations(range(n), 2), all_profiles(ps)):
            assert all(abs(a - b) == 1 for a, b in zip(w, w[1:])), (pair, w)
            j = min(w[0], w[-1])
            assert {w[0], w[-1]} == {j, n - j - 2}, (pair, w)
            assert set(range(min(w), max(w) + 1)) <= set(w), (pair, w)
            profiles += 1
    report(f"criterion 3 PASS: unit steps, end weights {{j, n-j-2}}, full coverage "
           f"({profiles} profiles)")


def test_criterion_04_census_observed_relation(corpus_small):
    """The observed (and provable) census law, asserted exactly.

    Counting (event, adjacent segment) incidences: each circle of enclosed
    count m is an event on 3 bisectors with adjacent weights {m, m+1}, each
    bounded segment has two endpoint events, each unbounded one, and
    unbounded weight-w segments biject with directed w-edges.  Hence

        2*hist[w] == 3*(c[w] + c[w-1]) + directed_j[w]   for every w.
    """
    checked = 0
    for ps in corpus_small:
        n = len(ps)
        census = sweep_totals(ps).census
        c = (*triple_counts(ps), 0)  # c[-1] = c[n-2] = 0
        directed = j_edge_counts(ps)
        assert sum(census) == comb(n, 2) * (n - 1)
        for w in range(0, n - 1):
            assert 2 * census[w] == 3 * (c[w] + c[w - 1]) + directed[w], (
                f"census identity failed at n={n}, w={w}"
            )
            checked += 1
    report(f"criterion 4 PASS (observed relation): 2*hist[w] == 3*(c[w]+c[w-1]) + "
           f"directed_j[w] exactly ({checked} instances)")


def test_criterion_04_census_stated_form(corpus_small, quad):
    """The criterion as stated: inc[k] + inc[n-k-3] == 6(k+1)(n-k-2) exactly.

    "A circle corresponds to three segments" counts circle-segment
    incidences: a circle through three points that encloses k others is an
    event on three bisectors, and on each it ends a segment of weight k.
    Summed with criterion 1's c[k] + c[n-k-3] == 2(k+1)(n-k-2), the pair sum
    is exact.  The incidences are read off the swept weight sequences, never
    from ``triple_counts``, so a wrong sweep still breaks the equality.

    The distinct-segment census ``hist`` is not this quantity: a bounded
    segment of weight k is counted once whether its endpoint circles enclose
    k or k-1 points.  The ``quad`` fixture shows it at n = 4.
    """
    census = sweep_totals(quad).census
    quad_inc = circle_incidences(all_profiles(quad), 4)
    assert census == (5, 8, 5)
    assert census[0] + census[1] == 13
    assert quad_inc == [6, 6]
    assert quad_inc[0] + quad_inc[1] == 12 == 6 * 1 * 2

    instances = 0
    for ps in corpus_small:
        n = len(ps)
        inc = circle_incidences(all_profiles(ps), n)
        for k in range(0, n - 2):
            lhs = inc[k] + inc[n - k - 3]
            rhs = 6 * (k + 1) * (n - k - 2)
            assert lhs == rhs, f"incidence pair sum fails at n={n}, k={k}: {lhs} != {rhs}"
            instances += 1
    report(f"criterion 4 PASS (stated form): inc[k]+inc[n-k-3] == 6(k+1)(n-k-2) "
           f"exactly over circle-segment incidences ({instances} instances; "
           f"the distinct census gives 13 != 12 on the n=4 quad)")


def test_criterion_05_minimax_bound():
    sizes = [5, 10, 15, 20, 25, 30]
    for i in range(200):
        n = sizes[i % len(sizes)]
        ps = random_general_position(n, seed=40_000 + i, coord_range=10**6)
        _, value = sweep_totals(ps).minimax
        assert value <= (2 * n - 3) // 3
    for i in range(10):
        tri = random_general_position(3, seed=41_000 + i, coord_range=10**4)
        _, value = sweep_totals(tri).minimax
        assert value == 1
    report("criterion 5 PASS: minimax K <= floor((2n-3)/3) on 200 random sets "
           "(n up to 30); K == 1 for every triangle")


def test_criterion_06_depth_bounds_and_region_sums(corpus_small):
    sets = [ps for ps in corpus_small if len(ps) <= 9]
    assert len(sets) >= 50
    for ps in sets:
        n = len(ps)
        c = (*triple_counts(ps), 0)  # c[-1] = 0
        k = 0
        while k < (n - 3) / 2:
            bound = (k + 1) * (n - k - 2)
            assert c[k] >= bound, f"lower bound fails n={n} k={k}"
            assert c[n - k - 3] <= bound, f"upper bound fails n={n} k={k}"
            k += 1
        # Region sums, brute force on both sides: subset-enumerated k-sets on
        # the left, the O(n^4) triple table on the right.
        brute = kset_counts_bruteforce(ps)
        assert brute == [0, *j_edge_counts(ps)] == [0, *sweep_totals(ps).directed_j]
        for kk in range(1, n):
            lhs = sum((0 if i - 1 == 0 else brute[i - 1]) for i in range(1, kk + 1))
            assert lhs == (kk - 1) * (2 * n - kk) - c[kk - 2], (
                f"region sum fails n={n} k={kk}"
            )
    # Convex pentagon anchor: 3 empty circles, 5 single-point sets, 5 == 8-3.
    pent = random_convex(5, seed=11)
    assert triple_counts(pent)[0] == 3
    ksets = [0, *j_edge_counts(pent)]
    assert ksets == [0, *sweep_totals(pent).directed_j] == kset_counts_bruteforce(pent)
    assert ksets[1] == 5
    # f_inf(i) = ksets[i], so f_inf(0) + f_inf(1) = ksets[0] + ksets[1] = 0 + 5.
    assert sum(ksets[:2]) == 1 * (2 * 5 - 2) - triple_counts(pent)[0]
    report(f"criterion 6 PASS: depth-count bounds and region sums, brute-forced "
           f"on {len(sets)} sets with n <= 9 plus the convex-pentagon anchor")


def test_criterion_07_convex_lower_bound():
    sizes = list(range(3, 25))
    for i in range(50):
        n = sizes[i % len(sizes)]
        ps = random_convex(n, seed=50_000 + i)
        _, value = sweep_totals(ps).maximin
        need = -(-n // 3) - 1
        assert value >= need, f"convex maximin {value} < ceil(n/3)-1 = {need} at n={n}"
    report("criterion 7 PASS: convex maximin >= ceil(n/3)-1 on 50 random convex sets, n=3..24")


def test_criterion_08_two_colored_construction():
    # Every n up to 24 the generator reaches; n = 17, 19, 21 and 23 have no
    # verified layout.
    for n in [*range(2, 17), 18, 20, 22, 24]:
        out = two_colored_convex(n)
        ps = out.points
        assert len(ps) == 2 * n
        bound = n // 2
        for r in ps.indices_of(Color.RED):
            for b in ps.indices_of(Color.BLUE):
                w = weight_sequence(ps, min(r, b), max(r, b))
                assert min(w) <= bound, (
                    f"two_colored_convex({n}): pair ({r}, {b}) min weight {min(w)} > {bound}"
                )
    report("criterion 8 PASS: two_colored_convex(n), n=2..16, 18, 20, 22, 24: every red-blue pair "
           "has a circle enclosing <= floor(n/2) points")


def test_criterion_09_halving_construction():
    for n in range(2, 13):
        out = halving_line_construction(n)
        ps = out.points
        assert ps.gp_certified and len(ps) == 2 * n
        assert len(out.designated_pairs) == n
        from circledepth.geom import _int_coords, _orient_int

        ints = _int_coords([cp.point for cp in ps.points])
        for p, q in out.designated_pairs:
            left = sum(
                1
                for x in range(2 * n)
                if x not in (p, q) and _orient_int(ints[p], ints[q], ints[x]) > 0
            )
            assert left == n - 1, f"pair ({p},{q}) is not halving at n={n}"
            w = weight_sequence(ps, p, q)
            assert min(w) >= n - 2 and max(w) <= n, (
                f"halving({n}) pair ({p},{q}) weights outside {{n-2, n-1, n}}: {sorted(set(w))}"
            )
    report("criterion 9 PASS: halving_line_construction(n), n=2..12: designated pairs "
           "halve the set and keep all weights in {n-2, n-1, n}")


def test_criterion_10_seven_region_construction():
    out = recursive_seven_region(7, 1)
    ps = out.points
    assert len(ps) == 49
    w = weight_sequence(ps, 0, 1)
    for value in range(7, 12):
        mult = sum(1 for x in w if x == value)
        assert mult >= 4, f"weight {value} appears {mult} < 4 times on the (0,1) bisector"
    orders = [k for k, b in enumerate(sweep_totals(ps).repeat_b) if b]
    assert len(orders) >= 5, f"b[k] != 0 for only {len(orders)} orders"
    report(f"criterion 10 PASS: recursive_seven_region(7,1): weights 7..11 all repeat "
           f">= 4 times on the central bisector; b[k] != 0 for {len(orders)} orders")


def test_criterion_11_bichromatic_exact_relation_and_oracle(corpus_colored):
    identity_checked = 0
    for ps in corpus_colored:
        n = len(ps)
        red_blue = bichromatic_pairs(ps)
        census = sweep_totals(ps, pairs=red_blue).census
        mixed = (*triple_counts(ps, red_blue), 0)  # c'[-1] = c'[n-2] = 0
        directed = j_edge_counts(ps, red_blue)
        for w in range(0, n - 1):
            assert 2 * census[w] == 2 * (mixed[w] + mixed[w - 1]) + directed[w], (
                f"bichromatic census identity fails at n={n}, w={w}"
            )
            identity_checked += 1
        assert red_blue_maximin(ps) == weight_tables(ps, red_blue).maximin
    report(f"criterion 11 PASS (exact relation + oracle): red-blue census identity "
           f"({identity_checked} instances) and bichromatic maximin matches the "
           f"sampled-circle oracle on 50 colored sets")


def test_criterion_11_bichromatic_stated_bound(corpus_colored):
    """The criterion as stated: inc'[k] + inc'[N-k-3] <= 4(k+1)(N-k-2) for all k.

    As in criterion 4, the bound counts circle-segment incidences, here over
    red-blue bisectors only.  A mixed-color circle is an event on exactly two
    red-blue bisectors and a single-color circle on none, so inc' = 2c' with
    c' over mixed triples; c' <= c and criterion 1 give the bound.  The
    incidences come from the swept weight sequences, not from
    ``triple_counts(ps, bichromatic_pairs(ps))``.  The distinct red-blue
    census ``hist'`` is not this quantity and exceeds the bound already at
    N = 4 (9 > 8).
    """
    instances = 0
    for ps in corpus_colored:
        n = len(ps)
        inc = circle_incidences(
            (weight_sequence(ps, p, q) for p, q in bichromatic_pairs(ps)), n
        )
        for k in range(0, n - 2):
            lhs = inc[k] + inc[n - k - 3]
            rhs = 4 * (k + 1) * (n - k - 2)
            assert lhs <= rhs, (
                f"stated bichromatic bound fails at N={n}, k={k}: {lhs} > {rhs}"
            )
            instances += 1
    report(f"criterion 11 PASS (stated bound): inc'[k]+inc'[N-k-3] <= 4(k+1)(N-k-2) "
           f"over red-blue circle-segment incidences ({instances} instances)")


def test_criterion_12_determinism(tmp_path, capsys, fork_small_maps):
    # fork_small_maps: these small sets fork at --jobs 2 and 3, as large ones do.
    corpus = ["random8.txt", "colored3.txt", "halving3.txt", "rational12.txt"]
    goldens = {
        "random8.txt": ["random8.analysis.json", "random8.verify.json"],
        "colored3.txt": ["colored3.analysis.json", "colored3.verify.json"],
        "rational12.txt": ["rational12.analysis.json", "rational12.verify.json"],
        "tiny0.txt": ["tiny0.analysis.json"],
        "tiny1.txt": ["tiny1.analysis.json"],
        "tiny2.txt": ["tiny2.analysis.json"],
        "tiny3.txt": ["tiny3.analysis.json"],
    }
    for name in corpus:
        src = DATA / name
        seen = set()
        for jobs in (1, 2):
            for run in range(2):
                assert main(["analyze", str(src), "--jobs", str(jobs)]) == 0
                seen.add(capsys.readouterr().out)
        assert len(seen) == 1, f"analyze output varied across runs/jobs for {name}"
    # Byte-for-byte agreement with the committed goldens, across jobs values.
    for name, golden_names in goldens.items():
        src = DATA / name
        for golden_name in golden_names:
            golden = (DATA / golden_name).read_text()
            command = "verify" if "verify" in golden_name else "analyze"
            for jobs in ("1", "3"):
                code = main([command, str(src), "--jobs", jobs])
                out = capsys.readouterr().out
                assert code == 0
                assert out == golden, f"{command} output drifted from {golden_name} (jobs={jobs})"
    # Generation is reproducible byte-for-byte as well.
    regen = tmp_path / "regen.txt"
    assert main(["generate", "random", "--n", "8", "--seed", "5", "-o", str(regen)]) == 0
    capsys.readouterr()
    assert regen.read_text() == (DATA / "random8.txt").read_text()
    report("criterion 12 PASS: analyze/verify byte-identical across runs and --jobs "
           "settings, and identical to committed golden files")
