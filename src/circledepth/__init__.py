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
    Scalar,
    Violation,
    circumcenter,
    convex_hull,
    in_circle,
    orientation,
    snap_to_rational,
    sqdist,
    validate_general_position,
)
from .depth import (
    BisectorEvent,
    BisectorProfile,
    DepthSummary,
    EdgeStats,
    KSetStats,
    RepeatStats,
    TripleStats,
    WeightCensus,
    all_profiles,
    bichromatic_pairs,
    j_edge_counts,
    kset_counts,
    maximin_pair,
    minimax_pair,
    oracle_weights,
    pair_depth,
    repeated_weight_stats,
    segment_weight_census,
    triple_counts,
    weight_sequence,
)

__version__ = "0.1.0"
