"""Structured verification reports with deterministic JSON serialization.

Field order is fixed by construction order (dicts preserve insertion order),
rationals serialize as "num/den" strings, and nothing time- or
machine-dependent enters the report, so byte-identical inputs and options
give byte-identical reports.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

# CPython's builtin SHA-256, the one hashlib falls back to: importing hashlib
# maps OpenSSL's libcrypto (about 3.6 MiB of RSS on CPython 3.11) for the one
# digest a report takes.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # built without either
        from hashlib import sha256

from . import __version__
from .geom import Color, PointSet
from .depth import kset_counts, sweep_totals

if TYPE_CHECKING:  # only annotations name it, and analyze runs no checks
    from .checks import CheckResult

SCHEMA_VERSION = 1


def input_digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


def check_to_dict(check: CheckResult) -> dict:
    return {
        "name": check.name,
        "claim": check.claim,
        "pass": check.passed,
        "instances": [
            {
                "label": inst.label,
                "lhs": inst.lhs,
                "relation": inst.relation,
                "rhs": inst.rhs,
                "pass": inst.passed,
            }
            for inst in check.instances
        ],
    }


def _header(ps: PointSet, digest: str) -> dict:
    """The schema, tool and input fields that open every report."""
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "circledepth", "version": __version__},
        "input": {
            "digest": digest,
            "points": len(ps),
            "red": len(ps.indices_of(Color.RED)),
            "blue": len(ps.indices_of(Color.BLUE)),
        },
    }


def analysis_report(ps: PointSet, digest: str, jobs: int = 1) -> dict:
    """Full depth analysis: extremal pairs and every count table.

    Everything comes from one fold over the pairs' weight sequences
    (:func:`circledepth.depth.sweep_totals`), which certifies a set not yet
    certified and raises :class:`~circledepth.geom.DegenerateInputError` on
    one out of general position; ``verify`` recounts the tables
    independently.
    """
    n = len(ps)
    totals = sweep_totals(ps, jobs=jobs)
    report = _header(ps, digest)
    extremal: dict = {}
    for name, found in (
        ("maximin", totals.maximin),
        ("minimax", totals.minimax),
        ("bichromatic_maximin", totals.bichromatic_maximin),
    ):
        if found is not None:
            pair, value = found
            extremal[name] = {"pair": list(pair), "value": value}
    report["extremal"] = extremal
    tables: dict = {}
    if n >= 3:
        tables["triple_counts"] = list(totals.triples.c)
    tables["weight_census"] = list(totals.census.hist)
    tables["directed_j"] = list(totals.edges.directed_j)
    tables["undirected_j"] = list(totals.edges.undirected_j)
    tables["ksets"] = list(kset_counts(ps, totals.edges).ksets)
    tables["repeat_b"] = list(totals.repeats.b)
    tables["max_collinear"] = list(totals.repeats.max_collinear)
    report["tables"] = tables
    return report


def verification_report(ps: PointSet, digest: str, checks: list[CheckResult]) -> dict:
    report = _header(ps, digest)
    report["pass"] = all(check.passed for check in checks)
    report["checks"] = [check_to_dict(check) for check in checks]
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"
