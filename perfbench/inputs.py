"""Workload definitions: seeded input generation and output checks.

Each workload is one batch job on one point file, the way a user runs the
package: the benchmark generates the file from its seed, and the program
only ever sees the file.  The checks here judge the program's outputs
without using the program's own verifier, so a wrong table cannot pass by
construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from circledepth.constructions import random_general_position, two_colored_convex
from circledepth.geom import ColoredPoint, Point, PointSet, validate_general_position
from circledepth.pointfile import serialize_point_file

DIGESTS_PATH = Path(__file__).with_name("digests.json")
DENOMINATOR_SEED = 997


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "random", "colored" or "rational": how the point file is made
    n: int  # points drawn, or the construction's size parameter for "colored"
    verify: bool  # whether the job runs `verify` besides `analyze`


# Why each workload exists is recorded beside its name in BENCHMARK.json.
# The sizes are where each layer's cost shows on a 2-CPU host: at n=60 the
# sweep and the count tables dominate `analyze`, at n=30 the oracle dominates
# `verify`, and 40 points with random denominators make a grid of a few
# hundred bits.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("analyze-random", "random", 60, verify=False),
        Workload("verify-random", "random", 30, verify=True),
        Workload("colored-convex", "colored", 12, verify=True),
        Workload("rational-grid", "rational", 40, verify=False),
    ]
}


@dataclass(frozen=True)
class Inputs:
    points: PointSet  # certified
    text: bytes  # the point file the program reads
    generated: bytes | None  # expected `generate` output, for "colored"


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate and certify the workload's point set from the seed."""
    if workload.kind == "random":
        # The same set `circledepth generate random --n N --seed S` writes.
        ps = random_general_position(workload.n, seed, max(4 * workload.n**2, 10**6))
        return Inputs(ps, serialize_point_file(ps).encode(), None)
    if workload.kind == "colored":
        out = two_colored_convex(workload.n)
        generated = serialize_point_file(out.points, out.designated_pairs).encode()
        order = list(range(len(out.points)))
        random.Random(seed).shuffle(order)
        ps = PointSet([out.points.points[i] for i in order])
        violations = validate_general_position(ps)
        if violations:
            raise RuntimeError(f"permuted construction is degenerate: {violations[:3]}")
        return Inputs(ps, serialize_point_file(ps).encode(), generated)
    if workload.kind == "rational":
        # The denominators are one fixed random draw shared by every seed, so
        # the common grid (their lcm) has the same size whatever the seed;
        # the seed assigns them to coordinates and draws the numerators.
        dens = random.Random(DENOMINATOR_SEED).choices(range(1, 998), k=2 * workload.n)
        rng = random.Random(seed)
        for _ in range(100):
            rng.shuffle(dens)
            coords = [Fraction(rng.randint(-1000 * d, 1000 * d), d) for d in dens]
            ps = PointSet([ColoredPoint(Point(x, y)) for x, y in zip(coords[::2], coords[1::2])])
            if not validate_general_position(ps):
                return Inputs(ps, serialize_point_file(ps).encode(), None)
        raise RuntimeError(f"no certified rational set after 100 draws (seed {seed})")
    raise ValueError(f"unknown workload kind {workload.kind!r}")


def grid_bits(ps: PointSet) -> int:
    """Bit length of the largest coordinate on the common integer grid."""
    coords = [c for cp in ps.points for c in (cp.point.x, cp.point.y)]
    lcm = math.lcm(*(c.denominator for c in coords))
    return max(abs(c.numerator * (lcm // c.denominator)).bit_length() for c in coords)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_key(workload: Workload, seed: int) -> str:
    return f"{workload.name} n={workload.n} seed={seed}"


def load_digests() -> dict[str, dict[str, str]]:
    """Report digests recorded for fixed (workload, size, seed) triples."""
    return json.loads(DIGESTS_PATH.read_text())


def analyze_problems(report_bytes: bytes, inputs: Inputs) -> list[str]:
    """Independent sanity laws every correct `analyze` report satisfies."""
    try:
        report = json.loads(report_bytes)
        n = report["input"]["points"]
        digest = report["input"]["digest"]
        c = report["tables"].get("triple_counts", [])
        census = report["tables"]["weight_census"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"analyze report unreadable: {exc!r}"]
    problems = []
    if n != len(inputs.points):
        problems.append(f"analyze reports {n} points, input has {len(inputs.points)}")
    if digest != "sha256:" + sha256(inputs.text):
        problems.append("analyze reports the digest of another input")
    if n >= 3:
        if len(c) != n - 2 or sum(c) != math.comb(n, 3):
            problems.append(f"triple_counts has {len(c)} entries summing to {sum(c)}")
        elif any(c[k] + c[n - k - 3] != 2 * (k + 1) * (n - k - 2) for k in range(n - 2)):
            problems.append("triple_counts breaks c[k] + c[n-k-3] == 2(k+1)(n-k-2)")
    if sum(census) != math.comb(n, 2) * (n - 1):
        problems.append(f"weight_census total {sum(census)} != C({n},2)*(n-1)")
    return problems


def verify_problems(report_bytes: bytes, inputs: Inputs) -> list[str]:
    try:
        report = json.loads(report_bytes)
        passed = report["pass"]
        digest = report["input"]["digest"]
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify report unreadable: {exc!r}"]
    problems = []
    if passed is not True:
        failed = [c.get("name") for c in checks if not c.get("pass")]
        problems.append(f"verify reports pass={passed!r} (failed: {failed})")
    if not checks:
        problems.append("verify ran no checks")
    if digest != "sha256:" + sha256(inputs.text):
        problems.append("verify reports the digest of another input")
    return problems
