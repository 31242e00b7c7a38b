"""Weight sequences along a bisector, step by step.

Builds a small point set, certifies it, and walks the bisector of one pair:
the event parameters (circumcenters of the pair with each third point), the
covering direction of each event, and the resulting segment weights, checked
against the independent sampling oracle.
"""

from circledepth import (
    PointSet,
    oracle_weights,
    sweep_totals,
    validate_general_position,
    weight_sequence,
)

ps = PointSet.from_coords([(0, 0), (10, 0), (9, 9), (0, 10), (4, 5)])
violations = validate_general_position(ps)
assert not violations, violations
n = len(ps)
print(f"{n} points, general position certified\n")

for pair in [(0, 2), (1, 3)]:
    profile = weight_sequence(ps, *pair)
    print(f"bisector of pair {pair}:")
    for event in profile.events:
        side = "left of the directed line" if event.covers_positive else "right of it"
        print(f"  third point {event.index}: event at s = {event.s} ({side})")
    print(f"  weights along increasing s: {list(profile.weights)}")
    print(f"  oracle agrees: {oracle_weights(ps, *pair) == list(profile.weights)}")
    print(f"  depth summary: min {min(profile.weights)}, max {max(profile.weights)}\n")

# One fold over every pair's weights gives the tables and the extremal pairs.
totals = sweep_totals(ps)
pair, k = totals.maximin
print(f"maximin pair {pair}: every circle through it encloses >= {k} points")
pair, K = totals.minimax
print(f"minimax pair {pair}: every circle through it encloses <= {K} points "
      f"(guaranteed <= floor((2n-3)/3) = {(2 * n - 3) // 3})")
