import os
import tempfile

import pytest

from circledepth import (
    DegenerateInputError,
    PointSet,
    depth,
    forkmap,
    sweep_totals,
    validate_general_position,
)
from circledepth.geom import _incircle_det_int, _int_coords, _orient_int, _sign
from circledepth.constructions import random_general_position

# One verdict line per acceptance criterion, printed after the run summary so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def make_set(coords, colors=None) -> PointSet:
    ps = PointSet.from_coords(coords, colors)
    violations = validate_general_position(ps)
    assert not violations, f"fixture not in general position: {violations}"
    return ps


def in_circle(a, b, c, d) -> int:
    """+1 if d is strictly inside the circle through a, b, c; 0 on it; -1
    outside, whatever the orientation of (a, b, c).  Collinear a, b, c
    raise :class:`DegenerateInputError`: no circle exists."""
    ia, ib, ic, id_ = _int_coords([a, b, c, d])
    orient = _orient_int(ia, ib, ic)
    if orient == 0:
        raise DegenerateInputError("in_circle: defining points are collinear")
    return _sign(_incircle_det_int(ia, ib, ic, id_)) * orient


def sqdist(a, b):
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def red_blue_maximin(ps: PointSet):
    """Maximin depth over the red-blue pairs, from the fold over every pair."""
    return sweep_totals(ps).bichromatic_maximin


class InProcessChild(forkmap.Child):
    """Stands in for a forked child: runs its share in this process at once
    and leaves the pickled outcome in a file that reads like the pipe.
    Records the CPUs each child would be pinned to."""

    cpus: list = []

    def __init__(self, task, share, cpus):
        self.cpus.append(cpus)
        self.pid = None
        with tempfile.TemporaryFile() as f:
            f.write(forkmap.outcome(task, share))
            f.seek(0)
            self.fd = os.dup(f.fileno())

    def _wait(self):
        return 0


@pytest.fixture
def claim_cpus(monkeypatch):
    """Makes the maps of jobs > 1 see CPUs 0 .. count-1; this process's real CPU
    mask is put back after the test, since a map restores the claimed one."""
    real = os.sched_getaffinity(0)
    yield lambda count: monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count))
    )
    os.sched_setaffinity(0, real)


@pytest.fixture
def fork_small_maps(monkeypatch):
    """Lets a map of a few points' pairs fork: every process needs one event,
    not ``depth.SHARE_EVENTS``, so the fork machinery runs on small sets."""
    monkeypatch.setattr(depth, "SHARE_EVENTS", 1)


# Sets on which the float keys of the bisector sort, num / cross, cannot
# decide alone.  On pair (0, 1) of NEAR_COCIRCULAR, points 2 and 3 have
# distinct s whose correctly rounded floats are equal, and whose floats
# rounded twice, float(num) / float(cross), come out in the wrong order
# (nums of 113 bits, crosses of 58).  On pair (0, 1) of BEYOND_FLOAT point 2
# is nearly collinear with the pair, so its quotient is about -2e400.  Both
# are in general position.  RIGHT_ANGLE_TIE is not: points 2 and 3 see pair
# (0, 1) at a right angle, so both sit at s = 0, one with the float key 0.0
# and the other with -0.0.
#
# NEAR_COCIRCULAR_SMALL is the same case within the float copy's bound
# (geom.FLOAT_SPREAD): its coordinates span less than 2^25, so the sweep and
# the certifier read it as doubles, and on pair (0, 1) points 2 and 3 have
# distinct s (nums and crosses of 47 to 50 bits) whose floats are both
# -4.7899962744382405.  It is in general position, four points near a circle
# of radius about 2^24.
_A, _M1, _M2 = 343796015, 299303201, 518408351  # M2^2 - 3 M1^2 = -2
NEAR_COCIRCULAR = [(-_A, 0), (_A, 0), (_A * _M1, _A), (_A * _M2, 3 * _A)]
NEAR_COCIRCULAR_SMALL = [
    (30719070, 26106757), (33287273, 19749359), (25385928, 2379102), (18975384, 146411)
]
BEYOND_FLOAT = [(0, 0), (10**200, 1), (2 * 10**200 + 1, 2), (5, 7)]
RIGHT_ANGLE_TIE = [(0, 0), (4, 0), (2, 2), (2, -2), (1, 5)]


def random_corpus(count: int, sizes, seed0: int = 1000, coord_range: int = 10**6):
    """Deterministic list of certified random sets cycling through sizes."""
    sizes = list(sizes)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        out.append(random_general_position(n, seed0 + i, coord_range))
    return out


@pytest.fixture(scope="session")
def quad():
    # Convex quadrilateral used throughout; its diagonals behave differently:
    # bisector (0,2) carries weights (1,0,1) and (1,3) carries (1,2,1).
    return make_set([(0, 0), (10, 0), (9, 9), (0, 10)])


@pytest.fixture(scope="session")
def triangle():
    return make_set([(0, 0), (4, 0), (0, 4)])
