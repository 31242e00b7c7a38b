"""The demos and the README's Library examples run against the public API.

Each demo must exit 0; ``04_render_svg.py`` writes its SVG files into the
directory it is given, byte for byte the ones committed next to it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_weight_sequences.py", "02_identities.py", "03_constructions.py", "04_render_svg.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [str(tmp_path)] if demo == "04_render_svg.py" else []
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if args:
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["colored.svg", "profile.svg", "seven.svg"]
        for name in written:
            assert (tmp_path / name).read_bytes() == (ROOT / "demos" / name).read_bytes(), name


def _library_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _leading_literal(comment: str):
    # The longest prefix of the comment that is a Python literal, e.g. the
    # "(2, 2)" of "(2, 2): empty / one-point circumcircles".
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end].strip())
        except (SyntaxError, ValueError):
            continue
    return False, None


def test_readme_library_examples_hold():
    # Every line of the README's Library blocks is run, and the value of each
    # expression or assignment with a comment is compared with the literal
    # the comment starts with, so a public name that is removed or renamed,
    # or a value that changes, fails here.
    namespace: dict = {}
    checked = 0
    for block in _library_blocks():
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                if not (isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)):
                    continue
                value = namespace[stmt.targets[0].id]
            line = lines[stmt.end_lineno - 1]
            comment = line[stmt.end_col_offset:].partition("#")[2]
            if comment:
                found, expected = _leading_literal(comment)
                assert found, f"README comment names no value: {line}"
                assert value == expected, line
                checked += 1
    assert checked >= 14


def test_names_the_readme_lists_as_gone_stay_gone():
    # The Library section's lists of removed names, each the paragraph after
    # "Those names are gone": a bullet's head is a bare name of the package
    # (`maximin_pair(ps)`, `KSetStats.f_inf(k)`), a name in one of its
    # modules (`brute.…`, `svg.…`) or an attribute of a removed record (`profile.…`).
    import circledepth
    from circledepth import brute, depth, geom, svg

    text = (ROOT / "README.md").read_text()
    heads = []
    for tail in text.split("Those names are gone")[1:]:
        section = tail.split("\n\n", 2)[1]
        heads += re.findall(r"^- `(\w+)(?:\.(\w+))?", section, re.M)
    gone = {
        "segment_weight_census", "maximin_pair", "kset_counts", "KSetStats",
        "TripleStats", "WeightCensus", "EdgeStats", "RepeatStats",
        "BisectorProfile", "BisectorEvent", "in_circle", "sqdist", "Scalar",
    }
    assert {("profile", "events"), ("profile", "pair"), ("profile", "order")} <= set(heads)
    assert ("svg", "render_construction") in heads
    assert gone <= {h for h, _ in heads}
    named_modules = {"brute": brute, "svg": svg}
    for head, attr in heads:
        if head in named_modules:
            assert not hasattr(named_modules[head], attr), f"{head}.{attr}"
        else:
            assert not any(hasattr(module, head) for module in (circledepth, depth, geom)), head
