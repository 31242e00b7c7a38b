import pytest

from circledepth import (
    Color,
    PointSet,
    convex_hull,
    sweep_totals,
    validate_general_position,
    weight_sequence,
)
from circledepth import constructions
from circledepth.constructions import (
    Claim,
    ConstructionError,
    ConstructionOutput,
    Rng,
    _first_verified,
    claim_failures,
    halving_line_construction,
    random_convex,
    random_general_position,
    recursive_seven_region,
    two_colored_convex,
)

from conftest import red_blue_maximin


def test_rng_is_reproducible():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert Rng(0).next_u64() == Rng(0).next_u64()  # zero seed is remapped, not stuck
    assert all(0 <= Rng(7).below(10) < 10 for _ in range(3))
    with pytest.raises(ValueError):
        Rng(1).below(0)


def test_random_general_position_contracts():
    single = random_general_position(1, seed=5, coord_range=10)
    assert len(single) == 1 and single.gp_certified
    ps = random_general_position(5, seed=42, coord_range=1000)
    assert len(ps) == 5 and ps.gp_certified
    a = random_general_position(12, seed=7, coord_range=10**6)
    b = random_general_position(12, seed=7, coord_range=10**6)
    assert [cp.point for cp in a.points] == [cp.point for cp in b.points]
    with pytest.raises(ValueError):
        random_general_position(10, seed=1, coord_range=100)  # below 4n^2


def test_random_convex_contracts():
    for n in (3, 6, 9):
        ps = random_convex(n, seed=4)
        assert ps.gp_certified
        assert len(convex_hull([cp.point for cp in ps.points])) == n
    # Convex-position depth bound realized with room to spare at n=9.
    _, value = sweep_totals(random_convex(9, seed=4)).maximin
    assert value >= (9 + 2) // 3 - 1


def test_two_colored_convex_small():
    out = two_colored_convex(2)
    ps = out.points
    assert len(ps) == 4 and ps.gp_certified
    assert len(ps.indices_of(Color.RED)) == 2
    assert len(ps.indices_of(Color.BLUE)) == 2
    # Every red-blue pair admits a circle enclosing at most 1 point.
    for p, q in out.designated_pairs:
        assert min(weight_sequence(ps, p, q)) <= 1


def test_two_colored_convex_sizes_and_bound():
    out = two_colored_convex(7)
    ps = out.points
    assert len(ps) == 14
    assert len(convex_hull([cp.point for cp in ps.points])) == 14
    assert len(ps.indices_of(Color.RED)) == 7
    assert len(ps.indices_of(Color.BLUE)) == 7
    _, value = red_blue_maximin(ps)
    assert value <= 3
    # Four clusters of ceil/floor(n/2) points with alternating colors, emitted
    # in cluster order: 4 red, 4 blue, 3 red, 3 blue.
    colors = [ps.color(i) for i in range(14)]
    expected = [Color.RED] * 4 + [Color.BLUE] * 4 + [Color.RED] * 3 + [Color.BLUE] * 3
    assert colors == expected
    assert not claim_failures(out)


def test_two_colored_convex_deterministic():
    a = two_colored_convex(5)
    b = two_colored_convex(5)
    assert [cp.point for cp in a.points.points] == [cp.point for cp in b.points.points]


def test_two_colored_convex_maximin_bound_example():
    out = two_colored_convex(4)
    _, value = red_blue_maximin(out.points)
    assert value <= 2


def test_seven_region_small():
    out = recursive_seven_region(3, 1)
    ps = out.points
    assert len(ps) == 21 and ps.gp_certified
    w = weight_sequence(ps, 0, 1)
    assert {w[0], w[-1]} == {9, 10}
    assert out.designated_pairs == [(0, 1), (0, 2), (1, 2)]


def test_seven_region_main_instance():
    out = recursive_seven_region(7, 1)
    ps = out.points
    assert len(ps) == 49
    w = weight_sequence(ps, 0, 1)
    assert {w[0], w[-1]} == {21, 26}
    for value in range(7, 12):
        assert sum(1 for x in w if x == value) >= 4
    assert sum(b > 0 for b in sweep_totals(ps).repeat_b) >= 5


def test_seven_region_two_levels_has_more_repeat_orders():
    shallow = recursive_seven_region(4, 1)
    deep = recursive_seven_region(4, 2)
    assert len(deep.points) > len(shallow.points)
    n_shallow = sum(b > 0 for b in sweep_totals(shallow.points).repeat_b)
    n_deep = sum(b > 0 for b in sweep_totals(deep.points).repeat_b)
    assert n_deep > n_shallow
    # Inner triangle pairs are designated along with the vertex-to-vertex
    # halving pairs across the level boundary.
    assert len(deep.designated_pairs) == 9


@pytest.mark.parametrize("g, levels", [(7, 1), (3, 1), (4, 2), (3, 3)])
def test_seven_region_certifies_one_layout(monkeypatch, g, levels):
    # Criterion 10's size and the generate sizes GENERATED pins: one layout
    # is built and certified once.
    certified = []
    monkeypatch.setattr(
        constructions,
        "validate_general_position",
        lambda ps: certified.append(ps) or validate_general_position(ps),
    )
    out = recursive_seven_region(g, levels)
    assert len(certified) == 1 and certified[0] is out.points and out.points.gp_certified


def test_seven_region_rejects_bad_params():
    with pytest.raises(ValueError):
        recursive_seven_region(2, 1)
    with pytest.raises(ValueError):
        recursive_seven_region(7, 0)


def test_halving_construction_small():
    out = halving_line_construction(2)
    ps = out.points
    assert len(ps) == 4 and ps.gp_certified
    for p, q in out.designated_pairs:
        w = weight_sequence(ps, p, q)
        assert set(w) <= {0, 1, 2}


def test_halving_construction_weights_confined():
    for n in (3, 4):
        out = halving_line_construction(n)
        assert len(out.points) == 2 * n
        for p, q in out.designated_pairs:
            w = weight_sequence(out.points, p, q)
            assert w[0] == w[-1] == n - 1  # halving line side counts
            assert min(w) >= n - 2 and max(w) <= n


def test_halving_construction_drives_maximin():
    # Any halving pair keeps all weights >= n-2, so the whole set's maximin
    # is at least 2 at n=4.
    out = halving_line_construction(4)
    _, value = sweep_totals(out.points).maximin
    assert value >= 2


def test_halving_construction_repeat_example():
    # With 5 segments confined to {1, 2, 3} and both ends 2, weight 2 must
    # land on every other segment: multiplicity 3 on some designated pair.
    out = halving_line_construction(3)
    best = max(
        weight_sequence(out.points, p, q).count(2)
        for p, q in out.designated_pairs
    )
    assert best >= 3


def test_halving_construction_deterministic():
    a = halving_line_construction(4)
    b = halving_line_construction(4)
    assert [cp.point for cp in a.points.points] == [cp.point for cp in b.points.points]


def test_claim_failures_detects_violations():
    out = halving_line_construction(3)
    out.claims.append(
        Claim("weights-within", {"pair": (0, 1), "lo": 5, "hi": 5, }, "bogus claim")
    )
    assert claim_failures(out)
    out.claims[-1] = Claim("no-such-kind", {}, "unknown")
    assert claim_failures(out)


@pytest.mark.parametrize(
    "kind, params, expected",
    [
        # Bisector (0, 2) carries (4, 3, 2, 1, 0) and (0, 1) carries (2, 3, 2, 3, 2).
        ("halving-pair", {"pair": (0, 2)}, "bogus: sides 0/4"),
        ("endpoint-weights", {"pair": (0, 2), "a": 2, "b": 2}, "bogus: ends {4, 0}"),
        (
            "repeated-values",
            {"pair": (0, 1), "lo": 2, "hi": 3, "times": 3},
            "bogus: value 3 occurs 2x",
        ),
    ],
    ids=["halving-pair", "endpoint-weights", "repeated-values"],
)
def test_claim_failures_describe_each_kind(kind, params, expected):
    out = halving_line_construction(3)
    out.claims.append(Claim(kind, params, "bogus"))
    assert claim_failures(out) == [expected]


def test_construction_outputs_hold_lists_of_their_own():
    a, b = ConstructionOutput(PointSet()), ConstructionOutput(PointSet())
    a.claims.append(Claim("convex-position", {}, "a's claim"))
    a.designated_pairs.append((0, 1))
    assert (b.claims, b.designated_pairs) == ([], [])
    assert ConstructionOutput(a.points, claims=a.claims).claims is a.claims


def test_search_reports_failed_certification():
    # 40 points on one line: C(40, 3) collinear triples, one of them named.
    line = [ConstructionOutput(PointSet.from_coords([(i, 2 * i) for i in range(40)])) for _ in range(3)]
    with pytest.raises(ConstructionError) as info:
        _first_verified("line(n=40)", line)
    assert str(info.value) == (
        "line(n=40): none of 3 candidates verified; "
        "the last failed with collinear(0, 1, 2) (9880 in all)"
    )


def test_search_reports_failed_claim():
    claims = [
        Claim("weights-within", {"pair": (a, b), "lo": 99, "hi": 99}, f"bogus ({a}, {b})")
        for a in range(12)
        for b in range(a + 1, 12)
    ]
    candidates = [
        ConstructionOutput(random_general_position(12, s, 10**6), claims=claims)
        for s in (1, 2)
    ]
    with pytest.raises(ConstructionError) as info:
        _first_verified("bogus(n=12)", candidates)
    message = str(info.value)
    assert message.startswith("bogus(n=12): none of 2 candidates verified; the last failed with bogus (0, 1): range [")
    assert message.endswith("] (66 in all)")
    assert len(message) < 120


def test_search_reports_empty_candidate_list():
    with pytest.raises(ConstructionError, match=r"^empty\(n=0\): no candidate to try$"):
        _first_verified("empty(n=0)", iter(()))


def test_search_certifies_each_candidate_before_its_claims(monkeypatch):
    steps = []
    monkeypatch.setattr(
        constructions,
        "validate_general_position",
        lambda ps: steps.append(("certify", ps)) or validate_general_position(ps),
    )
    monkeypatch.setattr(
        constructions, "claim_failures", lambda out: steps.append(("claims", out)) or claim_failures(out)
    )
    always = Claim("weights-within", {"pair": (0, 1), "lo": 0, "hi": 99}, "pair (0, 1) anything")
    # Pair (0, 1) sweeps clean, but 2, 3 and 4 lie on a line.
    off_the_pair = ConstructionOutput(
        PointSet.from_coords([(0, 0), (10, 1), (3, 7), (5, 8), (7, 9)]), claims=[always]
    )
    # Point 2 lies on the line of pair (0, 1).
    on_the_pair = ConstructionOutput(
        PointSet.from_coords([(0, 0), (1, 0), (2, 0), (5, 8), (7, 9)]), claims=[always]
    )
    clean = ConstructionOutput(
        PointSet.from_coords([(0, 0), (10, 1), (3, 7), (5, 9), (8, 4)]), claims=[always]
    )
    assert _first_verified("mixed(n=5)", [on_the_pair, off_the_pair, clean]) is clean
    assert steps == [
        ("certify", on_the_pair.points),
        ("certify", off_the_pair.points),
        ("certify", clean.points),
        ("claims", clean),
    ]
    assert on_the_pair.points.grid is None and off_the_pair.points.grid is None
    assert clean.points.gp_certified


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
def test_two_colored_convex_sweeps_the_accepted_layout_once(monkeypatch, n):
    # The claims are checked once, on the returned output, after it is certified.
    calls = []
    monkeypatch.setattr(
        constructions,
        "claim_failures",
        lambda out: calls.append((out, out.points.gp_certified)) or claim_failures(out),
    )
    out = two_colored_convex(n)
    assert calls == [(out, True)]


def test_two_colored_convex_error_names_the_first_failure_in_claim_order():
    with pytest.raises(ConstructionError) as info:
        two_colored_convex(17)
    assert str(info.value) == (
        "two_colored_convex(n=17): none of 8 candidates verified; the last failed with "
        "red-blue pair (1, 17) has a circle enclosing <= 8 points: min weight 9 (4 in all)"
    )


def test_two_colored_convex_exhausted_search_certifies_and_checks_each_candidate_once(monkeypatch):
    # All 8 candidates at n = 17 are in general position and each fails a
    # claim: 8 certifications, 8 claim checks, and no set certified twice.
    certified, checked = [], []
    monkeypatch.setattr(
        constructions,
        "validate_general_position",
        lambda ps: certified.append(ps) or validate_general_position(ps),
    )
    monkeypatch.setattr(constructions, "claim_failures", lambda out: checked.append(out) or claim_failures(out))
    with pytest.raises(ConstructionError, match="none of 8 candidates verified"):
        two_colored_convex(17)
    assert len(certified) == 8 and len({id(ps) for ps in certified}) == 8
    assert len(checked) == 8


def test_two_colored_convex_screens_and_certifies_one_layout_at_the_benchmark_size(monkeypatch):
    # Seed 0 verifies at n = 12, so the search certifies one layout and
    # sweeps each of its 12 x 12 red-blue pairs once.
    certified, swept = [], []
    monkeypatch.setattr(
        constructions,
        "validate_general_position",
        lambda ps: certified.append(ps) or validate_general_position(ps),
    )
    monkeypatch.setattr(
        constructions, "weight_sequence", lambda ps, p, q: swept.append((p, q)) or weight_sequence(ps, p, q)
    )
    out = two_colored_convex(12)
    assert certified == [out.points] and out.points.gp_certified
    assert sorted(swept) == sorted(out.designated_pairs) and len(swept) == 144
