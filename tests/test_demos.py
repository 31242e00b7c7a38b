"""The demos run against the public API: each must exit 0.

``04_render_svg.py`` writes its SVG files into the directory it is given.
"""

import os
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
