"""Point-set generators: random instances and three extremal constructions.

Every generator is one search, ``_first_verified``, over a fixed and finite
list of candidate sets built lazily in a fixed order.  It screens each
candidate's claims on the candidate's lent integer grid, up to the first
failure (a degenerate pair fails too), failure-first: the claim that
rejected the previous candidate is tried first.  Only a candidate whose
claims all hold is certified in general position, and the first that is
certified is returned; the screen's order changes its cost, never which
candidate is returned or what an error says.  Candidates are realized
approximately (floats where the ideal angles are irrational) and snapped to
integers or rationals; only the list says how a generator varies its
layout.  The budgets are 200 samples for the two random generators, 7 slant
patterns x 2 magnitudes x 8 jitter seeds for two_colored_convex, and 64
jitter seeds or spacings for recursive_seven_region and
halving_line_construction.  A generator never hands back an unverified set:
when its list runs out it raises ConstructionError naming the generator, the
number of candidates tried, and the last candidate's first failure with a
count of the others.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import cache, partial
from typing import NamedTuple

from .geom import (
    Color,
    DegenerateInputError,
    PointSet,
    convex_hull,
    snap_to_rational,
    validate_general_position,
    _lent_grid,
    _orient_int,
)
from .depth import weight_sequence


class ConstructionError(RuntimeError):
    """A generator exhausted its attempt budget or a claim failed."""


class Rng:
    """Deterministic xorshift64* stream, identical across runs for a seed.

    Step: x ^= x >> 12; x ^= x << 25 (mod 2^64); x ^= x >> 27; output is
    (x * 2685821657736338717) mod 2^64.  A zero seed is replaced by a fixed
    nonzero constant.  ``below(n)`` reduces the next output modulo n.
    """

    MASK = (1 << 64) - 1
    MULT = 2685821657736338717
    ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (seed & self.MASK) or self.ZERO_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & self.MASK
        x ^= x >> 27
        self.state = x
        return (x * self.MULT) & self.MASK

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


class Claim(NamedTuple):
    """A verifiable property of a construction.

    kind is one of:
      halving-pair      params: pair.  The pair's line splits the rest evenly.
      weights-within    params: pair, lo, hi.  All bisector weights in [lo, hi].
      endpoint-weights  params: pair, a, b.  Unbounded-segment weights are {a, b}.
      repeated-values   params: pair, lo, hi, times.  Every value in [lo, hi]
                        occurs at least `times` times in the weight sequence.
      pair-min-below    params: pair, bound.  Min weight of the pair <= bound.
      convex-position   params: {}.  The convex hull uses every point.
    """

    kind: str
    params: dict
    description: str


class ConstructionOutput:
    def __init__(
        self,
        points: PointSet,
        designated_pairs: list[tuple[int, int]] | None = None,
        claims: list[Claim] | None = None,
    ):
        self.points = points
        self.designated_pairs = [] if designated_pairs is None else designated_pairs
        self.claims = [] if claims is None else claims


def claim_failures(out: ConstructionOutput) -> list[str]:
    """Re-verify every claim in claim order; returns human-readable failure descriptions."""
    failure = _claim_checker(out.points)
    return [text for text in map(failure, out.claims) if text is not None]


def _claim_checker(ps: PointSet) -> Callable[[Claim], str | None]:
    """A function from one claim to its failure description on ``ps``, or None if it holds.

    ``ps`` must carry its integer grid, certified or lent.  Each swept pair's
    weights are kept, so claims on one pair share its sweep.
    """
    ints = ps.require_certified()
    n = len(ps)
    sweep = cache(partial(weight_sequence, ps))

    def failure(claim: Claim) -> str | None:
        kind, params = claim.kind, claim.params
        if kind == "halving-pair":
            p, q = params["pair"]
            others = (ints[x] for x in range(n) if x != p and x != q)
            left = sum(_orient_int(ints[p], ints[q], x) > 0 for x in others)
            if 2 * left != n - 2:
                return f"{claim.description}: sides {left}/{n - 2 - left}"
        elif kind == "weights-within":
            w = sweep(*params["pair"])
            if not all(params["lo"] <= v <= params["hi"] for v in w):
                return f"{claim.description}: range [{min(w)}, {max(w)}]"
        elif kind == "endpoint-weights":
            w = sweep(*params["pair"])
            if {w[0], w[-1]} != {params["a"], params["b"]}:
                return f"{claim.description}: ends {{{w[0]}, {w[-1]}}}"
        elif kind == "repeated-values":
            w = sweep(*params["pair"])
            for value in range(params["lo"], params["hi"] + 1):
                mult = w.count(value)
                if mult < params["times"]:
                    return f"{claim.description}: value {value} occurs {mult}x"
        elif kind == "pair-min-below":
            w = sweep(*params["pair"])
            if min(w) > params["bound"]:
                return f"{claim.description}: min weight {min(w)}"
        elif kind == "convex-position":
            if len(convex_hull([cp.point for cp in ps.points])) != n:
                return f"{claim.description}: hull misses points"
        else:
            return f"unknown claim kind {kind!r}"
        return None

    return failure


def _claims_hold(out: ConstructionOutput, order: list[int]) -> bool:
    """Whether every claim holds on the candidate's lent grid.

    Claims are tried in ``order``, a permutation of the claim indices, up to
    the first failure, and the claim that failed is moved to the front of
    ``order``.  A duplicate point or a degenerate swept pair counts as a
    failure: the set could not be certified.
    """
    try:
        with _lent_grid(out.points):
            failure = _claim_checker(out.points)
            for at, index in enumerate(order):
                if failure(out.claims[index]) is not None:
                    order.insert(0, order.pop(at))
                    return False
    except DegenerateInputError:
        return False
    return True


def _first_verified(what: str, candidates: Iterable[ConstructionOutput]) -> ConstructionOutput:
    """The first candidate in general position whose claims all verify.

    Each candidate is first screened on its lent grid, up to its first
    failing claim, so a rejected candidate costs only the sweeps that
    failure needed.  The screen keeps one claim order for the whole search
    and moves each failing claim to its front: layouts in one list tend to
    fail the same claims, so the next candidate is tried first on the claim
    that rejected the one before.  A candidate passes the screen only if
    every claim holds, so the order never changes which candidate passes.
    Only a candidate that passes is certified, and it is returned without
    checking its claims again: the lent grid and local form the screen read
    are the ones certification stores, so the claims would read the same
    integers and hold again.  ``what`` names the generator in the
    ConstructionError raised when no candidate passes; the error reports the
    last candidate's first failure (certification's, or else the claims' in
    claim order) and counts the rest, so its length does not grow with the
    set.
    """
    tried, last, order = 0, None, []
    for tried, last in enumerate(candidates, 1):
        if len(order) != len(last.claims):
            order = list(range(len(last.claims)))
        if not _claims_hold(last, order):
            continue
        if not validate_general_position(last.points):
            return last
    if last is None:
        raise ConstructionError(f"{what}: no candidate to try")
    failures = validate_general_position(last.points) or claim_failures(last)
    raise ConstructionError(
        f"{what}: none of {tried} candidates verified; "
        f"the last failed with {failures[0]} ({len(failures)} in all)"
    )


def random_general_position(n: int, seed: int, coord_range: int) -> PointSet:
    """n integer points in [0, range]^2, resampled until general position.

    Deterministic for fixed (n, seed, range).  The range floor keeps
    degeneracies rare enough that whole-set resampling terminates fast.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if coord_range < 4 * n * n:
        raise ValueError(f"range must be at least 4*n^2 = {4 * n * n}")
    rng = Rng(seed)

    def samples():
        for _ in range(200):
            seen: set[tuple[int, int]] = set()
            coords: list[tuple[int, int]] = []
            while len(coords) < n:
                pt = (rng.below(coord_range + 1), rng.below(coord_range + 1))
                if pt not in seen:
                    seen.add(pt)
                    coords.append(pt)
            yield ConstructionOutput(PointSet.from_coords(coords))

    what = f"random_general_position(n={n}, range={coord_range})"
    return _first_verified(what, samples()).points


def random_convex(n: int, seed: int) -> PointSet:
    """n points in convex position, general position certified.

    Jittered angles on a large circle with small radial jitter: the jitter
    breaks cocircularity but stays far below the sagitta of adjacent chords,
    so convexity survives rounding.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = Rng(seed)
    radius = 10**8
    claims = [Claim("convex-position", {}, "all points on the hull")]

    def layouts():
        for _ in range(200):
            coords = []
            for i in range(n):
                theta = 2 * math.pi * (i + 0.1 + 0.8 * rng.below(10**6) / 10**6) / n
                r = radius + rng.below(2000)
                coords.append((round(r * math.cos(theta)), round(r * math.sin(theta))))
            yield ConstructionOutput(PointSet.from_coords(coords), claims=claims)

    return _first_verified(f"random_convex(n={n}, seed={seed})", layouts()).points


def _two_colored_layout(
    n: int, sizes: list[int], slants: tuple[int, int, int, int], magnitude: int, seed: int
) -> list[tuple[int, int]]:
    """Coordinates of one candidate layout for two_colored_convex."""
    radius = 10**12
    arc = 0.001
    jitter = 100
    rng = Rng(77001 + 131 * n + seed)
    coords = []
    for ci, size in enumerate(sizes):
        base = math.pi / 4 + ci * math.pi / 2
        for k in range(size):
            theta = base + (k - (size - 1) / 2) / max(size, 1) * arc
            r = radius + magnitude * slants[ci] * (k - (size - 1) / 2)
            r += rng.below(2 * jitter + 1) - jitter
            coords.append((round(r * math.cos(theta)), round(r * math.sin(theta))))
    return coords


# Radial slant-sign patterns per cluster, tried in order.  Which pattern puts
# every red-blue pair's cluster transitions on the favourable side of the far
# clusters' events depends on n's parity and the cluster sizes, so the
# generator searches this fixed list and returns the first layout whose
# claims verify exactly.
_TWO_COLOR_PATTERNS = [
    (1, -1, 1, -1),
    (-1, 1, -1, 1),
    (1, 1, -1, -1),
    (1, -1, -1, 1),
    (0, 0, 0, 0),
    (1, 1, 1, 1),
    (-1, -1, -1, -1),
]


def two_colored_convex(n: int) -> ConstructionOutput:
    """2n points (n red, n blue) in convex position, four alternating clusters.

    Clusters of floor(n/2) or ceil(n/2) points sit on tiny arcs of a common
    circle at 45, 135, 225 and 315 degrees, colored R, B, R, B around the
    circle.  The attached claim: every red-blue pair admits a circle through
    it enclosing at most floor(n/2) points.  Cluster radial slants control
    the order of bisector events; the candidates run over the fixed pattern
    list, then magnitudes 10^6 and 10^5, then jitter seeds 0..7, and the
    first layout that verifies is returned, so output is deterministic in n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    bound = n // 2
    sizes = [(n + 1) // 2, (n + 1) // 2, n // 2, n // 2]
    cols = [col for size, col in zip(sizes, (Color.RED, Color.BLUE) * 2) for _ in range(size)]
    reds = [i for i, col in enumerate(cols) if col is Color.RED]
    blues = [i for i, col in enumerate(cols) if col is Color.BLUE]
    pairs = [(min(r, b), max(r, b)) for r in reds for b in blues]
    claims = [Claim("convex-position", {}, "all 2n points on the hull")] + [
        Claim(
            "pair-min-below",
            {"pair": (p, q), "bound": bound},
            f"red-blue pair ({p}, {q}) has a circle enclosing <= {bound} points",
        )
        for p, q in pairs
    ]
    candidates = (
        ConstructionOutput(
            PointSet.from_coords(_two_colored_layout(n, sizes, pattern, magnitude, seed), cols),
            pairs,
            claims,
        )
        for pattern in _TWO_COLOR_PATTERNS
        for magnitude in (10**6, 10**5)
        for seed in range(8)
    )
    return _first_verified(f"two_colored_convex(n={n})", candidates)


def _seven_region_block(g: int, levels: int, rng: Rng) -> list[tuple[int, int]]:
    """Coordinates of the nested seven-region blocks, centered on the outer triangle.

    Built from the innermost level out.  Index layout of each level: p=0,
    q=1, r=2, then the six outer clusters (U_p, U_q, U_r, W_pq, W_qr, W_rp),
    6g+1 points with the triangle, then the central content (innermost: a
    tight cluster; otherwise the next level's block, scaled down 1000x).

    Cluster sizes are g-1 for each edge cluster, (g+1, g, g) for the vertex
    clusters and g-1 for the innermost central cluster.  This near-equal
    split (rather than exactly g everywhere) makes the weight list along
    each triangle bisector descend to g-1, rise to 2g-2 and dip to g-1
    before the final rise, so every value in [g, 2g-3] is crossed by all
    four monotone legs and repeats at least four times.  With edge clusters
    of exactly g points the interval endpoints are only reached three times.
    """
    coords: list[tuple[int, int]] = []
    for _ in range(levels):
        scale = 1000 * max(max(abs(x), abs(y)) for x, y in coords) if coords else 10**6
        far = 200 * scale
        crad = max(scale // 500, 4)

        def jit() -> int:
            return rng.int_in(-crad, crad)

        # Vertex jitter kills the exact symmetries a clean layout would carry
        # up the nesting: p, q mirror the inner p', q' (two mirror pairs about
        # one axis are always concyclic) and r, r', r'' would be collinear on it.
        p = (-scale + jit(), jit())
        q = (scale + jit(), jit())
        r = (jit(), round(scale * math.sqrt(3)) + jit())
        cx, cy = 0, round(scale / math.sqrt(3))

        block = [p, q, r]

        def cluster(center: tuple[float, float], size: int) -> None:
            for _ in range(size):
                block.append((round(center[0]) + jit(), round(center[1]) + jit()))

        # Vertex clusters lie far beyond each vertex, outside the circumcircle
        # by a wide margin, so the triangle's circumcircle encloses only the
        # central region's points.
        for v, size in ((p, g + 1), (q, g), (r, g)):
            dx, dy = v[0] - cx, v[1] - cy
            norm = math.hypot(dx, dy)
            cluster((v[0] + far * dx / norm, v[1] + far * dy / norm), size)
        # Edge clusters sit just beyond their edge, still outside the
        # circumcircle but inside the circle on the edge as diameter: that is
        # what places their bisector events between the central cluster's and
        # the far vertex's, the order the claimed weight list needs.  (Pushing
        # them 100x out like the vertex clusters would put their events first
        # and flatten the dip.)
        base = (0.0, -0.9 * scale)
        for rot in range(3):
            ang = rot * 2 * math.pi / 3
            vx, vy = base[0] - cx, base[1] - cy
            cluster(
                (vx * math.cos(ang) - vy * math.sin(ang) + cx, vx * math.sin(ang) + vy * math.cos(ang) + cy),
                g - 1,
            )

        if coords:
            block.extend((x + cx, y + cy) for x, y in coords)
        else:
            cluster((cx, cy), g - 1)
        coords = block
    return coords


def recursive_seven_region(group_size: int, levels: int) -> ConstructionOutput:
    """Nested seven-region construction with many repeated segment weights.

    Level structure: a near-equilateral triangle p, q, r whose side lines cut
    the plane into seven regions; six outer clusters occupy the non-central
    regions and the central region holds p, q, r plus either a tight cluster
    (innermost level) or the next level scaled down by 1000x.  Designated
    pairs: every level's triangle pairs, plus vertex-to-inner-vertex pairs
    across consecutive levels.  Claims: level-one (p, q) endpoint weights
    {3g, n-3g-2}, and for the innermost triangle pairs every weight value in
    [g, 2g-3] repeated at least four times.  Each level multiplies the
    coordinates by about 10^5, so from about 29 levels they leave the float
    range and the generator raises ConstructionError before certifying.
    """
    g = group_size
    if g < 3:
        raise ValueError("group_size must be at least 3")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    # Each level above the innermost adds its triangle and six clusters.
    step = 6 * g + 1
    inner = (levels - 1) * step
    n = inner + 7 * g
    pairs = [(b + x, b + y) for b in range(0, inner + 1, step) for x, y in ((0, 1), (0, 2), (1, 2))]
    # Halving pairs: each outer vertex with its inner counterpart, deepest first.
    pairs += [(b + v, b + v + step) for b in range(inner - step, -1, -step) for v in range(3)]
    claims = [
        Claim(
            "repeated-values",
            {"pair": (a + inner, b + inner), "lo": g, "hi": 2 * g - 3, "times": 4},
            f"innermost triangle pair ({a + inner}, {b + inner}): every weight in "
            f"[{g}, {2 * g - 3}] repeats >= 4 times",
        )
        for a, b in ((0, 1), (0, 2), (1, 2))
    ]
    claims.append(
        Claim(
            "endpoint-weights",
            {"pair": (0, 1), "a": 3 * g, "b": n - 3 * g - 2},
            f"level-1 pair (0, 1) unbounded weights are {{{3 * g}, {n - 3 * g - 2}}}",
        )
    )
    what = f"recursive_seven_region(g={g}, levels={levels})"

    def candidates():
        for attempt in range(64):
            rng = Rng(501_000 + 7919 * g + 104729 * levels + attempt)
            try:
                coords = _seven_region_block(g, levels, rng)
            except OverflowError:
                raise ConstructionError(f"{what}: coordinates exceed the float range") from None
            yield ConstructionOutput(PointSet.from_coords(coords), pairs, claims)

    return _first_verified(what, candidates())


def _circle3(a, b, c):
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    a2 = a[0] ** 2 + a[1] ** 2
    b2 = b[0] ** 2 + b[1] ** 2
    c2 = c[0] ** 2 + c[1] ** 2
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy), (a[0] - ux) ** 2 + (a[1] - uy) ** 2


def _halving_layout(n: int, eps: float) -> list[tuple[float, float]]:
    """Float realization of the rotating-lines halving construction.

    Lines l_1..l_n through the midpoint of p1 q1, equally rotated so l_n is
    the perpendicular bisector; each line carries one pair (p_i above l_1,
    q_i below).  Points are placed back-to-front: q_i at the midpoint of the
    admissible interval (inside the circle through p1, q1, p_{i+1}; outside
    the one through the previous two pairs), then p_i as the second
    intersection of the circle through q_{i+1}, p_{i+1}, q_i with l_i.
    """
    p: dict[int, tuple[float, float]] = {1: (-1.0, 0.0)}
    q: dict[int, tuple[float, float]] = {1: (1.0, 0.0)}
    phi = {i: (i - 1) * math.pi / (2 * (n - 1)) for i in range(1, n + 1)}
    p[n] = (0.0, eps)
    center, _ = _circle3(p[1], q[1], p[n])
    q[n] = (0.0, 2 * center[1] - eps)

    def ray_hits(u, center, r2):
        # ray t -> -t*u, t >= 0
        b = u[0] * center[0] + u[1] * center[1]
        disc = b * b - (center[0] ** 2 + center[1] ** 2 - r2)
        if disc < 0:
            return None
        root = math.sqrt(disc)
        return (-b - root, -b + root)

    for i in range(n - 1, 1, -1):
        u = (math.cos(phi[i]), math.sin(phi[i]))
        cen1, r21 = _circle3(p[1], q[1], p[i + 1])
        hits = ray_hits(u, cen1, r21)
        if hits is None or hits[1] <= 0:
            raise ConstructionError(f"halving: ray misses containing circle at i={i}")
        t_lo, t_hi = 0.0, hits[1]
        if i <= n - 2:
            cen2, r22 = _circle3(q[i + 2], p[i + 2], q[i + 1])
            hits2 = ray_hits(u, cen2, r22)
            if hits2 is not None and hits2[1] > t_lo and hits2[0] < t_hi:
                t_lo = max(t_lo, hits2[1])
        if not t_lo < t_hi:
            raise ConstructionError(f"halving: empty admissible interval at i={i}")
        t_mid = (t_lo + t_hi) / 2
        q[i] = (-t_mid * u[0], -t_mid * u[1])
        # The ray runs along -u, so p_i = t_p * u is its lower hit, negated.
        hits3 = ray_hits(u, *_circle3(q[i + 1], p[i + 1], q[i]))
        if hits3 is None:
            raise ConstructionError(f"halving: no second intersection at i={i}")
        t_p = -hits3[0]
        if t_p <= 0:
            raise ConstructionError(f"halving: p_{i} not above the base line")
        p[i] = (t_p * u[0], t_p * u[1])

    return [pt for i in range(1, n + 1) for pt in (p[i], q[i])]


def halving_line_construction(n: int) -> ConstructionOutput:
    """2n points where every designated pair is a halving pair of depth ~n.

    Attached claims, verified exactly after snapping: each designated pair
    splits the remaining 2n-2 points evenly, its unbounded weights are both
    n-1, and every weight along its bisector lies in {n-2, n-1, n}.
    The candidates run over 64 initial spacing parameters, skipping any with
    no float layout; the raw layout contains one exactly-cocircular
    quadruple by construction, which snapping almost always (and perturbed
    spacings surely) break.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    claims = []
    for a, b in pairs:
        claims.append(Claim("halving-pair", {"pair": (a, b)}, f"pair ({a}, {b}) is a halving pair"))
        claims.append(
            Claim(
                "endpoint-weights",
                {"pair": (a, b), "a": n - 1, "b": n - 1},
                f"pair ({a}, {b}) unbounded weights are both {n - 1}",
            )
        )
        claims.append(
            Claim(
                "weights-within",
                {"pair": (a, b), "lo": n - 2, "hi": n},
                f"pair ({a}, {b}) weights lie in [{n - 2}, {n}]",
            )
        )

    def candidates():
        for attempt in range(64):
            try:
                coords = _halving_layout(n, (1 + 0.003719 * attempt) / (n * n))
            except ConstructionError:
                continue  # no float layout at this spacing; the next one may have one
            yield ConstructionOutput(snap_to_rational(coords, 10**12), pairs, claims)

    return _first_verified(f"halving_line_construction(n={n})", candidates())
