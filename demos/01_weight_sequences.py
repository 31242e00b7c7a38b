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
    p, q = map(ps.point, pair)
    print(f"bisector of pair {pair}:")
    # Centers on the bisector are midpoint(p, q) + s * rot90(q - p); the
    # circumcenter of p, q and a third point x sits at s_x below, and x is
    # enclosed for s > s_x when it lies left of p->q, for s < s_x otherwise.
    events = []
    for x in (i for i in range(n) if i not in pair):
        a = ps.point(x)
        cross = (q.x - p.x) * (a.y - p.y) - (q.y - p.y) * (a.x - p.x)
        s = ((a.x - p.x) * (a.x - q.x) + (a.y - p.y) * (a.y - q.y)) / (2 * cross)
        events.append((s, x, cross > 0))
    for s, x, left in sorted(events):
        side = "left of the directed line" if left else "right of it"
        print(f"  third point {x}: event at s = {s} ({side})")
    weights = weight_sequence(ps, *pair)
    print(f"  weights along increasing s: {list(weights)}")
    print(f"  oracle agrees: {oracle_weights(ps, *pair) == list(weights)}")
    print(f"  depth summary: min {min(weights)}, max {max(weights)}\n")

# One fold over every pair's weights gives the tables and the extremal pairs.
totals = sweep_totals(ps)
pair, k = totals.maximin
print(f"maximin pair {pair}: every circle through it encloses >= {k} points")
pair, K = totals.minimax
print(f"minimax pair {pair}: every circle through it encloses <= {K} points "
      f"(guaranteed <= floor((2n-3)/3) = {(2 * n - 3) // 3})")
