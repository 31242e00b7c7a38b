"""Render a construction and a weight profile to SVG files.

Writes colored.svg (the two-colored convex set), profile.svg (a bisector
with its segment weights labeled) and seven.svg (the seven-region
construction with its designated pairs highlighted) into the directory
given as the first argument, by default next to this script.
"""

import sys
from pathlib import Path

from circledepth import svg
from circledepth.constructions import recursive_seven_region, two_colored_convex

here = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent

colored = two_colored_convex(4)
(here / "colored.svg").write_text(svg.render_points(colored.points))

pair = colored.designated_pairs[0]
(here / "profile.svg").write_text(svg.render_profile(colored.points, *pair))

seven = recursive_seven_region(4, 1)
(here / "seven.svg").write_text(svg.render_points(seven.points, seven.designated_pairs))

for name in ("colored.svg", "profile.svg", "seven.svg"):
    print(f"wrote {here / name}")
