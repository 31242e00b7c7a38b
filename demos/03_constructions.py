"""The three extremal constructions and what each one guarantees.

Each generator verifies its claims exactly before returning, so everything
printed here has already been checked against the depth engine.
"""

from circledepth import (
    all_profiles,
    bichromatic_pairs,
    maximin_pair,
    repeated_weight_stats,
    weight_sequence,
)
from circledepth.constructions import (
    halving_line_construction,
    recursive_seven_region,
    two_colored_convex,
)

n = 5
out = two_colored_convex(n)
# The red-blue maximin is the plain maximin over the red-blue pairs' profiles.
red_blue = all_profiles(out.points, pairs=bichromatic_pairs(out.points))
pair, depth = maximin_pair(out.points, red_blue)
print(f"two_colored_convex({n}): {2 * n} convex points, colors alternating by cluster")
print(f"  bichromatic maximin = {depth} (every red-blue pair has a circle "
      f"enclosing <= {n // 2} points)\n")

out = recursive_seven_region(7, 1)
w = weight_sequence(out.points, 0, 1).weights
print(f"recursive_seven_region(7, 1): n = {len(out.points)}")
print(f"  weight list of the central pair (0, 1): {list(w)}")
print(f"  multiplicities of 7..11: {[list(w).count(v) for v in range(7, 12)]} (all >= 4)")
orders = repeated_weight_stats(out.points).nonzero_orders()
print(f"  some bisector repeats a weight >= 4 times for {len(orders)} Voronoi orders\n")

n = 4
out = halving_line_construction(n)
print(f"halving_line_construction({n}): {2 * n} points")
for pair in out.designated_pairs:
    w = weight_sequence(out.points, *pair).weights
    print(f"  pair {pair}: weights {list(w)} (all in {{{n - 2}, {n - 1}, {n}}})")
