"""Exact enclosure-depth geometry for planar point sets.

Circles through a pair of points are parametrized by their centers on the
pair's perpendicular bisector; the number of points each circle strictly
encloses is piecewise constant along it.  This package computes those weight
sequences exactly (rational arithmetic throughout), derives the counting
statistics and extremal depths built on them, verifies the identities they
satisfy, and generates point sets with extreme depth behavior.
"""

from .geom import (
    Color,
    ColoredPoint,
    DegenerateInputError,
    NotCertifiedError,
    Point,
    PointSet,
    Violation,
    circumcenter,
    convex_hull,
    orientation,
    snap_to_rational,
    validate_general_position,
)
from .depth import (
    SweepTotals,
    all_profiles,
    bichromatic_pairs,
    j_edge_counts,
    oracle_weights,
    sweep_totals,
    triple_counts,
    weight_sequence,
)

__version__ = "0.1.0"
