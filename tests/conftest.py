from concurrent.futures import Future

import pytest

from circledepth import (
    PointSet,
    all_profiles,
    bichromatic_pairs,
    maximin_pair,
    validate_general_position,
)
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


def red_blue_maximin(ps: PointSet):
    """Maximin depth over the red-blue pairs: the plain maximin, filtered."""
    return maximin_pair(ps, all_profiles(ps, pairs=bichromatic_pairs(ps)))


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        # Runs the call now and hands back its outcome as a finished future.
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


# Sets on which the float keys of the bisector sort, num / cross, cannot
# decide alone.  On pair (0, 1) of NEAR_COCIRCULAR, points 2 and 3 have
# distinct s whose correctly rounded floats are equal, and whose floats
# rounded twice, float(num) / float(cross), come out in the wrong order
# (nums of 113 bits, crosses of 58).  On pair (0, 1) of BEYOND_FLOAT point 2
# is nearly collinear with the pair, so its quotient is about -2e400.  Both
# are in general position.  RIGHT_ANGLE_TIE is not: points 2 and 3 see pair
# (0, 1) at a right angle, so both sit at s = 0, one with the float key 0.0
# and the other with -0.0.
_A, _M1, _M2 = 343796015, 299303201, 518408351  # M2^2 - 3 M1^2 = -2
NEAR_COCIRCULAR = [(-_A, 0), (_A, 0), (_A * _M1, _A), (_A * _M2, 3 * _A)]
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
