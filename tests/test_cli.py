import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circledepth import checks, cli, constructions, depth, forkmap
from circledepth.cli import main
from circledepth.pointfile import parse_point_file, serialize_point_file
from circledepth.report import input_digest

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_random(tmp_path, capsys):
    out = tmp_path / "pts.txt"
    code, _, stderr = run_cli(["generate", "random", "--n", "10", "--seed", "1", "-o", str(out)], capsys)
    assert code == 0
    assert "wrote 10 points" in stderr
    assert len(out.read_text().splitlines()) == 10


def test_generate_takes_a_negative_seed(capsys):
    code, stdout, _ = run_cli(["generate", "random", "--n", "5", "--seed", "-1"], capsys)
    assert code == 0 and len(stdout.splitlines()) == 5


def test_generate_round_trip_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "halving.txt"
    code, _, _ = run_cli(["generate", "halving", "--n", "4", "-o", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.count("# @pair") == 4
    pf = parse_point_file(text)
    assert serialize_point_file(pf.points, pf.pairs) == text


def test_generate_two_colored_has_colors(tmp_path, capsys):
    out = tmp_path / "colored.txt"
    code, _, stderr = run_cli(["generate", "two-colored-convex", "--n", "4", "-o", str(out)], capsys)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 8
    assert all(l.endswith((" R", " B")) for l in lines)
    assert "claim verified" in stderr


@pytest.mark.parametrize("kind", ["halving", "two-colored-convex"])
def test_generate_to_stdout_writes_only_the_point_file(kind, tmp_path, capsys):
    # Its messages go to stderr, so stdout can be redirected to a point file.
    out = tmp_path / "points.txt"
    assert run_cli(["generate", kind, "--n", "3", "-o", str(out)], capsys)[0] == 0
    code, stdout, _ = run_cli(["generate", kind, "--n", "3"], capsys)
    assert (code, stdout) == (0, out.read_text())


@pytest.mark.parametrize(
    "args, message",
    [
        (["random", "--n", "10", "--range", "50"], "range must be at least 4*n^2 = 400"),
        (["random", "--n", "0"], "n must be at least 1"),
        (["convex", "--n", "2"], "n must be at least 3"),
        (["two-colored-convex", "--n", "1"], "n must be at least 2"),
        (["halving", "--n", "1"], "n must be at least 2"),
        (["seven-region", "--group-size", "2"], "group_size must be at least 3"),
        (["seven-region", "--levels", "0"], "levels must be at least 1"),
    ],
    ids=["random-range", "random-n", "convex-n", "two-colored-n", "halving-n", "seven-group", "seven-levels"],
)
def test_generate_failure_exit_code(args, message, capsys):
    code, stdout, err = run_cli(["generate", *args], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: generator failed: {message}\n"


@pytest.mark.parametrize("levels", ["29", "2000"])
def test_generate_seven_region_beyond_float_range_fails_cleanly(capsys, levels):
    code, stdout, err = run_cli(["generate", "seven-region", "--group-size", "3", "--levels", levels], capsys)
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: generator failed: recursive_seven_region(g=3, levels={levels}): "
        "coordinates exceed the float range\n"
    )


def test_generate_exhausted_search_fails_cleanly(monkeypatch, capsys):
    # Every candidate layout puts the four points on one line.
    monkeypatch.setattr(constructions, "_two_colored_layout", lambda n, *rest: [(i, 0) for i in range(2 * n)])
    code, stdout, err = run_cli(["generate", "two-colored-convex", "--n", "2"], capsys)
    assert (code, stdout) == (2, "")
    assert err == (
        "error: generator failed: two_colored_convex(n=2): none of 8 candidates verified; "
        "the last failed with collinear(0, 1, 2) (4 in all)\n"
    )


@pytest.mark.parametrize("n", ["17", "19", "21", "23", "25", "32"])
def test_generate_two_colored_without_a_layout_fails_cleanly(capsys, n):
    code, stdout, err = run_cli(["generate", "two-colored-convex", "--n", n], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(
        f"error: generator failed: two_colored_convex(n={n}): none of 8 candidates verified; "
    )
    assert err.count("\n") == 1 and err.endswith(" in all)\n")


def test_analyze_matches_golden(capsys):
    code, stdout, _ = run_cli(["analyze", str(DATA / "random8.txt")], capsys)
    assert code == 0
    assert stdout == (DATA / "random8.analysis.json").read_text()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_analyze_tiny_inputs_match_golden(n, capsys):
    code, stdout, _ = run_cli(["analyze", str(DATA / f"tiny{n}.txt")], capsys)
    assert code == 0
    assert stdout == (DATA / f"tiny{n}.analysis.json").read_text()


@pytest.mark.parametrize("n", [0, 1])
def test_verify_on_fewer_than_two_points_passes_vacuously(n, capsys):
    code, stdout, _ = run_cli(["verify", str(DATA / f"tiny{n}.txt")], capsys)
    report = json.loads(stdout)
    assert code == 0 and report["pass"] is True
    assert [c["name"] for c in report["checks"]] == ["profile-invariants", "oracle-match"]


@pytest.mark.parametrize("n", [0, 1])
def test_minimax_bound_on_fewer_than_two_points_is_a_structured_error(n, capsys):
    # Asked for explicitly, the check has no pair to judge: one error line
    # and exit 1, never a traceback.
    args = ["verify", str(DATA / f"tiny{n}.txt"), "--checks", "minimax-bound"]
    assert run_cli(args, capsys) == (1, "", "error: need at least two points\n")


@pytest.mark.parametrize("name, size", sorted(checks._MIN_POINTS.items()))
def test_sized_check_below_its_size_is_a_structured_error(name, size, tmp_path, capsys):
    # Asked for explicitly on one point too few, a check that needs a pair,
    # a triple or a quadruple exits 1 naming its size, never passing on no
    # evidence.
    src = tmp_path / "points.txt"
    src.write_text("".join(f"{x} {y}\n" for x, y in [(0, 0), (3, 1), (1, 4)][: size - 1]))
    words = {2: "two", 3: "three", 4: "four"}
    args = ["verify", str(src), "--checks", name]
    assert run_cli(args, capsys) == (1, "", f"error: need at least {words[size]} points\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["analyze"], "the following arguments are required: input"),
        (["analyze", "POINTS", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["analyze", "POINTS", "--jobs", "0"], "argument --jobs: must be at least 1, got '0'"),
        (["verify", "POINTS", "--jobs=-3"], "argument --jobs: must be at least 1, got '-3'"),
        (["verify", "POINTS", "--bogus"], "unrecognized arguments: --bogus"),
        (["generate", "nokind"], "argument kind: invalid choice"),
        (["generate", "random", "--n", "x"], "argument --n: invalid int value: 'x'"),
        # Integer options take ASCII digits only, as point files do.
        (["generate", "random", "--n", "\u0665"], "argument --n: invalid int value: '\u0665'"),
        (["generate", "random", "--seed", "\u0661"], "argument --seed: invalid int value: '\u0661'"),
        (["analyze", "POINTS", "--jobs", "\u0662"], "argument --jobs: invalid int value: '\u0662'"),
        (["generate", "random", "--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["generate", "random", "--n", "+5"], "argument --n: invalid int value: '+5'"),
        (["generate", "random", "--n", " 5"], "argument --n: invalid int value: ' 5'"),
        (["generate", "random", "--range", "-"], "argument --range: invalid int value: '-'"),
    ],
    ids=[
        "no-input", "bad-jobs", "zero-jobs", "negative-jobs", "unknown-option", "unknown-kind", "bad-n",
        "arabic-indic-n", "arabic-indic-seed", "arabic-indic-jobs", "underscore-n", "plus-n", "space-n",
        "bare-minus-range",
    ],
)
def test_usage_error_exits_1(argv, error, capsys):
    # argparse's own code, 2, is the generator-failure code.
    argv = [str(DATA / "random8.txt") if arg == "POINTS" else arg for arg in argv]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("usage: circledepth") and f"error: {error}" in err


# One run of each subcommand that writes output; POINTS stands for a point file.
WRITERS = [
    ["generate", "random", "--n", "5"],
    ["analyze", "POINTS"],
    ["verify", "POINTS", "--checks", "triple-pair-sum"],
    ["render", "POINTS"],
]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_unwritable_output_is_a_structured_error(argv, tmp_path, capsys):
    # A missing directory is found before the work, an existing directory
    # only when the output is opened after it.
    argv = [str(DATA / "random8.txt") if arg == "POINTS" else arg for arg in argv]
    for target, reason in [
        (tmp_path / "missing" / "out", "[Errno 2] No such file or directory"),
        (tmp_path, "[Errno 21] Is a directory"),
    ]:
        code, stdout, err = run_cli([*argv, "--output", str(target)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write {target}: {reason}: '{target}'\n"


def test_missing_output_directory_is_reported_before_any_work(tmp_path, capsys, monkeypatch):
    def run_checks(*args, **kwargs):
        raise AssertionError("the checks ran")

    monkeypatch.setattr(cli, "run_checks", run_checks)
    target = tmp_path / "missing" / "r.json"
    code, stdout, err = run_cli(["verify", str(DATA / "random8.txt"), "--output", str(target)], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_a_failed_write_to_stdout_is_one_error_line(argv):
    argv = [str(DATA / "random8.txt") if arg == "POINTS" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "circledepth", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert (result.returncode, result.stderr) == (
        1,
        "error: cannot write standard output: [Errno 28] No space left on device\n",
    )


def test_help_exits_0(capsys):
    code, stdout, err = run_cli(["--help"], capsys)
    assert (code, err) == (0, "")
    assert stdout.startswith("usage: circledepth")


def test_jobs_help_and_readme_state_the_share(capsys):
    # The help and the README write depth.SHARE_EVENTS out; a new value
    # must change them too.
    share = f"{depth.SHARE_EVENTS:,}"
    for command in ("analyze", "verify"):
        code, stdout, _ = run_cli([command, "--help"], capsys)
        assert code == 0 and f"at least {share} events" in " ".join(stdout.split())
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"`depth.SHARE_EVENTS` = {share}" in readme


def test_analyze_golden_fields():
    report = json.loads((DATA / "random8.analysis.json").read_text())
    assert report["schema"] == 1
    assert report["input"]["points"] == 8
    assert len(report["tables"]["weight_census"]) == 7
    assert sum(report["tables"]["weight_census"]) == 28 * 7


def test_analyze_jobs_do_not_change_bytes(capsys, fork_small_maps):
    _, serial, _ = run_cli(["analyze", str(DATA / "random8.txt"), "--jobs", "1"], capsys)
    _, parallel, _ = run_cli(["analyze", str(DATA / "random8.txt"), "--jobs", "3"], capsys)
    assert serial == parallel


def test_verify_jobs_do_not_change_bytes(capsys, fork_small_maps):
    _, serial, _ = run_cli(["verify", str(DATA / "random8.txt"), "--jobs", "1"], capsys)
    _, parallel, _ = run_cli(["verify", str(DATA / "random8.txt"), "--jobs", "2"], capsys)
    assert serial == parallel


def test_verify_on_40_points_passes_with_the_same_bytes_at_two_jobs(tmp_path, capsys):
    # The goldens have at most 12 points; here the oracle bisects over 39
    # samples a pair and --jobs 2 forks a share of the pairs.
    src = tmp_path / "random40.txt"
    assert run_cli(["generate", "random", "--n", "40", "--seed", "7", "-o", str(src)], capsys)[0] == 0
    serial = run_cli(["verify", str(src), "--jobs", "1"], capsys)
    parallel = run_cli(["verify", str(src), "--jobs", "2"], capsys)
    assert serial[0] == 0 and serial == parallel


def test_analyze_collinear_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 0\n2 0\n")
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 3
    assert "collinear(0, 1, 2)" in err


def test_general_position_violations_on_stderr_are_capped(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("".join(f"{x} {y}\n" for x in range(7) for y in range(7)))
    code, _, err = run_cli(["analyze", str(grid)], capsys)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) <= 21
    assert lines[0] == "general-position violation: collinear(0, 1, 2)"
    assert "6528 general-position violations in total" in lines[-1]
    # Under --jobs 2 the sweep meets the first degenerate pair in a worker;
    # the certifier then lists the same violations.
    assert run_cli(["analyze", str(grid), "--jobs", "2"], capsys) == (3, "", err)


DEGENERATE = {
    "grid": "".join(f"{x} {y}\n" for x in range(4) for y in range(4)),
    # Lattice points of x^2 + y^2 = 25 with two points off the circle.
    "concyclic": "3 4\n4 -3\n-5 0\n0 5\n-3 -4\n4 3\n17 3\n-11 29\n0 -5\n",
    "duplicate-pair": "0 0\n0 0\n",
    "duplicates": "1/2 3\n7 1\n0.5 3\n9 -4\n7 1\n2 8\n",
    "rationals": "1/2 0\n0 1/3\n1 2/3\n3/2 4/3\n-1/6 5\n2 1/7\n",
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_analyze_reports_the_violations_verify_reports(name, tmp_path, capsys):
    # verify certifies before any work; analyze certifies in its sweep and
    # names the violations only once the sweep has met one.
    path = tmp_path / f"{name}.txt"
    path.write_text(DEGENERATE[name])
    code, _, expected = run_cli(["verify", str(path)], capsys)
    assert code == 3 and expected.startswith("general-position violation: ")
    for jobs in ("1", "2"):
        assert run_cli(["analyze", str(path), "--jobs", jobs], capsys) == (3, "", expected)


def test_analyze_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 zero\n")
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 1
    assert "line 1" in err
    code, _, _ = run_cli(["analyze", str(tmp_path / "missing.txt")], capsys)
    assert code == 1


def test_huge_exponent_exits_with_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1e999999999 1\n")
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 1
    assert "line 2: bad coordinate '1e999999999': exponent beyond +-4300" in err


@pytest.mark.parametrize(
    "text, error",
    [
        ("0 0\n1 0\n# @pair 1\n", "line 3: expected '# @pair i j'"),
        ("0 0\n# @pair a b\n1 0\n", "line 2: pair indices must be integers"),
        # int() would read these as 0 and 10.
        ("0 0\n1 0\n# @pair \u0660 1_0\n", "line 3: pair indices must be integers"),
        ("0 0\n# @pair 0 2\n1 0\n", "line 2: pair (0, 2) out of range for 2 points"),
    ],
    ids=["one-index", "non-integer", "non-ascii-or-underscore", "out-of-range"],
)
def test_malformed_pair_line_exits_with_parse_error(tmp_path, capsys, text, error):
    src = tmp_path / "pairs.txt"
    src.write_text(text)
    assert run_cli(["analyze", str(src)], capsys) == (1, "", f"error: {src}: {error}\n")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_worker_that_dies_is_one_error_line(command, capsys, monkeypatch, claim_cpus, fork_small_maps):
    # As a worker killed by a signal or the OOM killer does: it ends before
    # it writes its result.  Two CPUs are claimed, so the map forks anywhere.
    claim_cpus(2)
    monkeypatch.setattr(forkmap, "outcome", lambda task, share: os._exit(9))
    error = "error: worker process ended with exit code 9 before sending a result\n"
    assert run_cli([command, str(DATA / "random8.txt"), "--jobs", "2"], capsys) == (1, "", error)


def test_verify_all_passes_golden(capsys):
    code, stdout, _ = run_cli(["verify", str(DATA / "random8.txt")], capsys)
    assert code == 0
    assert stdout == (DATA / "random8.verify.json").read_text()
    report = json.loads(stdout)
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "triple-pair-sum",
        "weight-census",
        "minimax-bound",
        "enclosure-count-bounds",
        "region-count-sum",
        "cumulative-kset-bound",
        "profile-invariants",
        "oracle-match",
    ]


def test_analyze_triangle(tmp_path, capsys):
    src = tmp_path / "tri.txt"
    src.write_text("0 0\n4 0\n0 4\n")
    code, stdout, _ = run_cli(["analyze", str(src)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["extremal"]["maximin"] == {"pair": [0, 1], "value": 0}
    assert report["extremal"]["minimax"]["value"] == 1
    assert report["tables"]["triple_counts"] == [1]
    assert report["tables"]["weight_census"] == [3, 3]


def test_verify_exit_code_on_check_failure(tmp_path, capsys, monkeypatch):
    import circledepth.cli as cli_mod
    from circledepth.checks import CheckInstance, CheckResult

    def fake_run_checks(ps, names, jobs=1):
        return [
            CheckResult(
                "triple-pair-sum",
                "forced failure",
                (CheckInstance("k=0", 1, 2, "==", False),),
                False,
            )
        ]

    monkeypatch.setattr(cli_mod, "run_checks", fake_run_checks)
    code, stdout, _ = run_cli(["verify", str(DATA / "random8.txt")], capsys)
    assert code == 4
    assert json.loads(stdout)["pass"] is False


def test_verify_colored_includes_bichromatic(capsys):
    code, stdout, _ = run_cli(["verify", str(DATA / "colored3.txt")], capsys)
    assert code == 0
    assert "bichromatic-census" in [c["name"] for c in json.loads(stdout)["checks"]]


def test_verify_check_selection(capsys):
    code, stdout, _ = run_cli(
        ["verify", str(DATA / "random8.txt"), "--checks", "triple-pair-sum,minimax-bound"],
        capsys,
    )
    assert code == 0
    assert [c["name"] for c in json.loads(stdout)["checks"]] == [
        "triple-pair-sum",
        "minimax-bound",
    ]
    code, _, err = run_cli(["verify", str(DATA / "random8.txt"), "--checks", "nope"], capsys)
    assert code == 1
    assert err == (
        "error: unknown checks: nope (known: triple-pair-sum, weight-census, minimax-bound, "
        "enclosure-count-bounds, region-count-sum, cumulative-kset-bound, "
        "bichromatic-census, profile-invariants, oracle-match)\n"
    )


def test_verify_census_checks_on_two_points(tmp_path, capsys):
    # The weight-census law needs a triple; the red-blue one holds vacuously.
    src = tmp_path / "two.txt"
    src.write_text("0 0 R\n3 1 B\n")
    code, stdout, err = run_cli(["verify", str(src), "--checks", "weight-census"], capsys)
    assert (code, stdout, err) == (1, "", "error: need at least three points\n")
    code, stdout, _ = run_cli(["verify", str(src), "--checks", "bichromatic-census"], capsys)
    assert code == 0 and json.loads(stdout)["pass"] is True


def test_verify_partly_colored_set_skips_bichromatic_census(tmp_path, capsys):
    # A red-blue-uncolored circle lies on one red-blue bisector, not two, so
    # the red-blue census law does not apply unless every point is colored.
    src = tmp_path / "partly.txt"
    src.write_text("0 0 R\n10 0 B\n9 9\n0 10 R\n")
    code, stdout, _ = run_cli(["verify", str(src)], capsys)
    assert code == 0
    assert "bichromatic-census" not in [c["name"] for c in json.loads(stdout)["checks"]]
    code, stdout, err = run_cli(["verify", str(src), "--checks", "bichromatic-census"], capsys)
    assert code == 1 and stdout == ""
    assert err == "error: bichromatic-census needs every point red or blue\n"


def test_render_points(tmp_path, capsys):
    out = tmp_path / "pts.svg"
    code, _, _ = run_cli(["render", str(DATA / "random8.txt"), "-o", str(out)], capsys)
    assert code == 0
    content = out.read_text()
    assert content.startswith('<?xml version="1.0"')
    assert content.count("<circle") == 8


def test_render_profile_labels_weights(tmp_path, capsys):
    src = tmp_path / "quad.txt"
    src.write_text("0 0\n10 0\n9 9\n0 10\n")
    out = tmp_path / "profile.svg"
    code, _, _ = run_cli(["render", str(src), "--what", "profile", "0", "2", "-o", str(out)], capsys)
    assert code == 0
    content = out.read_text()
    # Weight labels along the bisector of the (0, 2) diagonal: 1, 0, 1.
    assert content.count("<text") == 3
    assert ">0</text>" in content and content.count(">1</text>") == 2


def test_render_profile_bad_pair(tmp_path, capsys):
    code, _, err = run_cli(
        ["render", str(DATA / "random8.txt"), "--what", "profile", "0", "99"], capsys
    )
    assert code == 1
    assert "invalid pair" in err


@pytest.mark.parametrize(
    "what, error",
    [
        (["profile", "1"], "--what profile needs two indices"),
        (["profile", "a", "b"], "profile indices must be integers"),
        (["bogus"], "unknown render target 'bogus'"),
        (["points", "extra"], "--what points takes no arguments"),
        (["construction", "extra"], "--what construction takes no arguments"),
    ],
    ids=["one-index", "non-integer", "unknown-target", "points-extra", "construction-extra"],
)
def test_render_bad_target_is_an_error(capsys, what, error):
    args = ["render", str(DATA / "random8.txt"), "--what", *what]
    assert run_cli(args, capsys) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "indices", [["٠", "٣"], ["+1", "2"], ["1_1", "2"], [" 1", "2"]], ids=["arabic-indic", "sign", "underscore", "space"]
)
def test_render_profile_indices_are_ascii_digits(capsys, indices):
    # int() reads each of these, "٠ ٣" as (0, 3); the @pair parser takes none of them.
    args = ["render", str(DATA / "random8.txt"), "--what", "profile", *indices]
    assert run_cli(args, capsys) == (1, "", "error: profile indices must be integers\n")


def test_render_profile_of_two_points_has_one_segment(tmp_path, capsys):
    # No third point, so no event: the whole bisector is one weight-0 segment.
    src = tmp_path / "two.txt"
    src.write_text("0 0\n3 1\n")
    code, stdout, err = run_cli(["render", str(src), "--what", "profile", "0", "1"], capsys)
    assert (code, err) == (0, "")
    assert stdout.count("<text") == 1 and ">0</text>" in stdout


def test_render_construction(tmp_path, capsys):
    out = tmp_path / "cons.svg"
    code, _, _ = run_cli(
        ["render", str(DATA / "halving3.txt"), "--what", "construction", "-o", str(out)],
        capsys,
    )
    assert code == 0
    content = out.read_text()
    assert content.count("<circle") == 6
    assert content.count("<line") == 3  # one per designated pair


@pytest.mark.parametrize("what", ["points", "construction"])
def test_render_empty_file_draws_the_unit_box(tmp_path, capsys, what):
    src = tmp_path / "empty.txt"
    src.write_text("")
    code, stdout, err = run_cli(["render", str(src), "--what", what], capsys)
    assert (code, err) == (0, "")
    assert stdout == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.050 -0.050 1.100 1.100">\n'
        "</svg>\n"
    )


def test_render_small_scale_set_keeps_points_apart(tmp_path, capsys):
    src = tmp_path / "small.txt"
    src.write_text("0 0\n0.0001 0\n0 0.0001\n")
    code, stdout, err = run_cli(["render", str(src)], capsys)
    assert (code, err) == (0, "")
    assert stdout == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-0.0000050 -0.0000050 0.0001100 0.0001100">\n'
        '  <circle cx="0.0000000" cy="0.0001000" r="0.0000008" fill="#333333" />\n'
        '  <circle cx="0.0001000" cy="0.0001000" r="0.0000008" fill="#333333" />\n'
        '  <circle cx="0.0000000" cy="0.0000000" r="0.0000008" fill="#333333" />\n'
        "</svg>\n"
    )


def test_render_keeps_apart_points_closer_than_float_resolution(tmp_path, capsys):
    # At 1e6 a float steps by about 1e-10, so these three points share one
    # float position; the drawing is translated by its exact corner first.
    src = tmp_path / "far.txt"
    src.write_text("1000000 0\n1000000.000000000001 0\n1000000 0.000000000001\n")
    code, stdout, err = run_cli(["render", str(src)], capsys)
    assert (code, err) == (0, "")
    assert stdout == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-0.000000000000050 -0.000000000000050 0.000000000001100 0.000000000001100">\n'
        '  <circle cx="0.000000000000000" cy="0.000000000001000" r="0.000000000000008" fill="#333333" />\n'
        '  <circle cx="0.000000000001000" cy="0.000000000001000" r="0.000000000000008" fill="#333333" />\n'
        '  <circle cx="0.000000000000000" cy="0.000000000000000" r="0.000000000000008" fill="#333333" />\n'
        "</svg>\n"
    )


def test_render_keeps_apart_points_closer_than_the_smallest_float(tmp_path, capsys):
    # A span of 1e-400 is 0.0 as a float; the drawing is scaled by 10^400
    # before the float conversion.
    src = tmp_path / "tiny.txt"
    src.write_text("0 0\n1e-400 0\n0 1e-400\n")
    code, stdout, err = run_cli(["render", str(src)], capsys)
    assert (code, err) == (0, "")
    assert stdout == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.050 -0.050 1.100 1.100">\n'
        '  <circle cx="0.000" cy="1.000" r="0.008" fill="#333333" />\n'
        '  <circle cx="1.000" cy="1.000" r="0.008" fill="#333333" />\n'
        '  <circle cx="0.000" cy="0.000" r="0.008" fill="#333333" />\n'
        "</svg>\n"
    )


def test_render_single_point_gets_a_box(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("5 7\n")
    code, stdout, _ = run_cli(["render", str(src)], capsys)
    assert code == 0
    assert 'viewBox="-0.050 -0.050 0.100 0.100"' in stdout
    assert '<circle cx="0.000" cy="0.000" r="0.008"' in stdout


@pytest.mark.parametrize("what", [["points"], ["profile", "0", "1"], ["construction"]])
def test_render_beyond_the_float_range_is_an_error(tmp_path, capsys, what):
    # 1e4300 is a legal coordinate (analyze and verify take it), but no
    # float holds it, so it cannot be drawn.
    src = tmp_path / "huge.txt"
    src.write_text("0 0\n1e4300 1\n5 7\n")
    code, stdout, err = run_cli(["render", str(src), "--what", *what], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: {src}: a coordinate exceeds the float range\n"


@pytest.mark.parametrize("selection", ["", ","])
def test_verify_empty_check_selection_is_an_error(capsys, selection):
    code, stdout, err = run_cli(
        ["verify", str(DATA / "random8.txt"), "--checks", selection], capsys
    )
    assert (code, stdout, err) == (1, "", "error: no checks selected\n")


def test_verify_rejects_a_check_selection_before_certifying(tmp_path, capsys):
    # Certifying these duplicate points would exit 3; the typo is reported first.
    src = tmp_path / "dup.txt"
    src.write_text("0 0\n0 0\n1 2\n")
    code, stdout, err = run_cli(["verify", str(src), "--checks", "nope"], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: unknown checks: nope (known: triple-pair-sum, ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "what, message",
    [(["bogus"], "unknown render target 'bogus'"), (["profile", "0", "9"], "invalid pair (0, 9)")],
)
def test_render_rejects_its_target_before_certifying(tmp_path, capsys, what, message):
    # Certifying these duplicate points would exit 3; the target is reported first.
    src = tmp_path / "dup.txt"
    src.write_text("0 0\n0 0\n1 2\n")
    code, stdout, err = run_cli(["render", str(src), "--what", *what], capsys)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name, p, q", [("rational12", 0, 5), ("rational12", 5, 0), ("random8", 2, 6)])
def test_render_profile_matches_golden(capsys, name, p, q):
    # A rational set and both orientations of one pair: the ticks and labels
    # come from the exact event parameters, the weights from the sweep.
    args = ["render", str(DATA / f"{name}.txt"), "--what", "profile", str(p), str(q)]
    assert run_cli(args, capsys) == (0, (DATA / f"{name}.profile-{p}-{q}.svg").read_text(), "")


@pytest.mark.parametrize("name", ["halving3", "colored3"])
@pytest.mark.parametrize("what", ["points", "construction"])
def test_render_points_and_construction_match_golden(capsys, name, what):
    # Both files carry @pair lines: a construction draws one segment per pair
    # under the points, and a plain points drawing ignores them.
    args = ["render", str(DATA / f"{name}.txt"), "--what", what]
    code, stdout, err = run_cli(args, capsys)
    assert (code, stdout, err) == (0, (DATA / f"{name}.{what}.svg").read_text(), "")
    if what == "points":
        assert "<line" not in stdout


def test_render_svg_deterministic(capsys):
    _, first, _ = run_cli(["render", str(DATA / "halving3.txt"), "--what", "construction"], capsys)
    _, second, _ = run_cli(["render", str(DATA / "halving3.txt"), "--what", "construction"], capsys)
    assert first == second


def test_generate_is_reproducible_against_committed_file(tmp_path, capsys):
    out = tmp_path / "regen.txt"
    code, _, _ = run_cli(["generate", "random", "--n", "8", "--seed", "5", "-o", str(out)], capsys)
    assert code == 0
    assert out.read_text() == (DATA / "random8.txt").read_text()


# sha256 of the point file and of the "claim verified" lines (each ending in a
# newline) that `generate` writes on stderr; convex has no claims, so its second digest
# is that of the empty string.
GENERATED = {
    ("two-colored-convex", "--n", "3"): (
        "7170cdc263151b1ad7c1e4a2177fd4496d15d52a5fbb9598827d87311bd9ae1e",
        "f00ea654b4f2a4f783ac658c51946f6a8863590c5b5d7b23a94412c2d51d327b",
    ),
    ("two-colored-convex", "--n", "5"): (
        "914d4cd39b925357a5406cf890e31cffa7de23626e4b3e6e1d2ce34282c3c4ab",
        "8ad6e5752ce81cbd97c58b44b0763c0d150600d93c6fc3a56de9299c5ff3ef7c",
    ),
    ("two-colored-convex", "--n", "7"): (
        "ce2bcfff5a8b45f271bc1d4d07b383601fa49e58e4bf9e91bde83d21ecb6397d",
        "d28c5ecb9b8d95c423c3772cbe7e69b099580730762c554d89c17cc64a956151",
    ),
    # The benchmark's size, and the largest size that succeeds below 17.
    ("two-colored-convex", "--n", "12"): (
        "9099314a033e126128c9c710ef84426661f950e794b0d3c8e6af384d3f9847fd",
        "616e766cfe25aa400838ccf105199601da80704231317137b9e894cd50f9aed1",
    ),
    ("two-colored-convex", "--n", "16"): (
        "4eafa79f91b503eed328034e451642d6fc8327fa27a4923c6b9d815c17dddbe8",
        "9d7fb3b2a2a23e8c41e45564302e427f5d48120dc99b39999647a88227b29fae",
    ),
    ("halving", "--n", "3"): (
        "d90ecdbef0f39cb978ec58453921f2d0bddb5cfeb7953bb8fe4b76be945ba7f1",
        "35e903ea57c272eab63dad1ba7a08c3e6a2448e30f72ceb9d865fd6ca68f067b",
    ),
    ("halving", "--n", "5"): (
        "35f6cb1d5bf8a855e26f709759febfde5a50443d429187f5f82b020e08a19b17",
        "cff0fb53bef40775ce0c0e6fdd7b581ae79950ee5bb03fc0a7b7e20cc5a775e0",
    ),
    ("halving", "--n", "10"): (
        "f44703d7720974e33c80b547162232134fbf2ad5719b838f3a12a95717a649d9",
        "b76957fe0decb7ce22674d475f9345fb6c75da85e8ee0dcf9b36ed3b3a9bc15a",
    ),
    ("seven-region", "--group-size", "3", "--levels", "1"): (
        "47c38f922fc00e13547aee3cca1be72ec7e5eb63f48fb36d8b658a8113887574",
        "533fb754adfa7fe1d333cd9e1fe41e0b969d9838034bfa2736e82f3bca616e8f",
    ),
    ("seven-region", "--group-size", "4", "--levels", "2"): (
        "5492fce405aa453f2ebeb3a9b33653c649eee037e787a7751b008d2138f38ddf",
        "3411d5182caec27ffe97fce76db223b6f0fd6e562b7b924e61ed393f4ec29bc2",
    ),
    # Three levels: the cross-level halving pairs are listed deepest first.
    ("seven-region", "--group-size", "3", "--levels", "3"): (
        "7d9a0d09a8a445e11a815822ee6583e2d34c8b2bc4fe91de33bd5f2a7078f591",
        "3d5ce89fa67778225bd5e54617f1948fad09b4db289b2cb194255b39733077e5",
    ),
    ("convex", "--n", "9", "--seed", "4"): (
        "5a19d77290b36607d7c5395f9697b3cdf54cdef49e5e930392ff04a92b949699",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("argv", list(GENERATED), ids=" ".join)
def test_generate_bytes_are_pinned(argv, tmp_path, capsys):
    out = tmp_path / "points.txt"
    code, _, stderr = run_cli(["generate", *argv, "-o", str(out)], capsys)
    assert code == 0
    claims = "".join(
        line + "\n" for line in stderr.splitlines() if line.startswith("claim verified: ")
    )
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (out.read_bytes(), claims.encode()))
    assert digests == GENERATED[argv]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "circledepth", "analyze", str(DATA / "random8.txt")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["input"]["points"] == 8


def test_a_cli_run_imports_neither_dataclasses_nor_inspect():
    # Every CLI process pays for what it imports: dataclasses and inspect
    # pull in ast, dis and tokenize, and a serial run needs none of the
    # parallel map's machinery, nor does --jobs 2 on a set too small to
    # fork.  -S keeps site's .pth imports out of the count.
    script = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); from circledepth.cli import main; "
        "code = [main([command, sys.argv[2], '-o', os.devnull, *jobs]) "
        "for command in ('analyze', 'verify') for jobs in ([], ['--jobs', '2'])]; "
        "unwanted = {'dataclasses', 'inspect', 'circledepth.forkmap', 'pickle', 'signal'}; "
        "print(code, sorted(unwanted & set(sys.modules)))"
    )
    src = Path(__file__).parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, str(src), str(DATA / "tiny3.txt")],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[0, 0, 0, 0] []\n", "")


# Modules each subcommand must not import, and one it must: a CLI process
# compiles every module it imports when no bytecode is cached, and hashlib
# maps OpenSSL's libcrypto (_hashlib), which report's input digest avoids by
# taking CPython's builtin SHA-256.
OPENSSL = {"hashlib", "_hashlib"}
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
IMPORTS = {
    "analyze": ("report", {"checks", "constructions", "svg", "forkmap", *OPENSSL}),
    "verify": ("checks", {"constructions", "svg", *OPENSSL}),
    "generate": ("constructions", {"checks", "report", "svg", *OPENSSL}),
    "render": ("svg", {"checks", "constructions", "report", *OPENSSL}),
}


@pytest.mark.parametrize("command", list(IMPORTS))
def test_each_subcommand_imports_only_the_modules_it_runs(command):
    if command == "generate":
        argv = ["generate", "two-colored-convex", "--n", "3"]
    else:
        argv = [command, str(DATA / "colored3.txt")]
    script = (
        "import json, os, sys; from circledepth.cli import main; "
        "code = main([*sys.argv[1:], '-o', os.devnull]); "
        "print(json.dumps([code, sorted(name.removeprefix('circledepth.') for name in sys.modules)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    needed, unwanted = IMPORTS[command]
    assert code == 0, result.stderr
    assert needed in loaded
    # Without _sha2 or _sha256 the digest falls back to hashlib, so only the
    # OpenSSL assertion is skipped, after the others have run.
    fallback = command in ("analyze", "verify") and not BUILTIN_SHA256
    assert sorted((unwanted - OPENSSL if fallback else unwanted) & set(loaded)) == []
    if fallback:
        pytest.skip("neither _sha2 nor _sha256 is built, so report imports hashlib")


# Around SHA-256's padding boundaries (a 64-byte block, 9 bytes of padding),
# and 1 MiB.
DIGEST_INPUTS = [bytes(i % 251 for i in range(size)) for size in (0, 1, 55, 56, 63, 64, 65, 1 << 20)]


def test_input_digest_is_the_sha256_of_the_bytes():
    for data in DIGEST_INPUTS:
        assert input_digest(data) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_input_digest_falls_back_to_hashlib():
    script = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from circledepth import report; "
        "assert report.sha256 is hashlib.sha256; "
        "sizes = map(int, sys.argv[1:]); "
        "print(*(report.input_digest(bytes(i % 251 for i in range(size))) for size in sizes))"
    )
    sizes = [str(len(data)) for data in DIGEST_INPUTS]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *sizes], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["sha256:" + hashlib.sha256(data).hexdigest() for data in DIGEST_INPUTS]
