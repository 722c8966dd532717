"""JSON wire formats for matrices, spaces, outcomes and reports.

Conventions:

* field: ``{"prime": p}`` or ``"rational"``;
* matrix entries: integers for F_p residues; for the rationals, integers or
  ``"a/b"`` strings;
* matrix document: ``{"field": ..., "rows": [[...], ...]}``;
* space document: ``{"field": ..., "n": n, "base": [[...]],
  "directions": [[[...]], ...]}``;
* search reports omit wall time so identical runs serialize identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .catalog import BoundReport
from .fields import FieldSpec, PrimeField, RATIONALS
from .matrices import ExactMatrix
from .partitions import Partition
from .reduction import ShiftPolynomial, TraceWitness
from .search import ConjectureTest, SearchReport
from .spaces import AffineMatrixSpace, VerificationOutcome, Witness


def field_to_obj(field: FieldSpec):
    if isinstance(field, PrimeField):
        return {"prime": field.p}
    return "rational"


def field_from_obj(obj) -> FieldSpec:
    if obj == "rational" or obj == {"rational": True}:
        return RATIONALS
    if isinstance(obj, dict) and "prime" in obj:
        return PrimeField(int(obj["prime"]))
    raise ValueError(f"unrecognized field spec: {obj!r}")


def _entry_to_obj(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def rows_to_obj(m: ExactMatrix) -> list[list[Any]]:
    return [[_entry_to_obj(x) for x in row] for row in m.rows]


def matrix_to_obj(m: ExactMatrix) -> dict:
    return {"field": field_to_obj(m.field), "rows": rows_to_obj(m)}


def matrix_from_obj(obj: dict, field: FieldSpec | None = None) -> ExactMatrix:
    if field is None:
        field = field_from_obj(obj["field"])
    return ExactMatrix.from_rows(field, obj["rows"])


def partition_to_obj(p: Partition) -> dict:
    return {"n": p.n, "parts": list(p.parts)}


def partition_from_obj(obj: dict) -> Partition:
    p = Partition.of(obj["parts"])
    if "n" in obj and obj["n"] != p.n:
        raise ValueError("partition total does not match its declared n")
    return p


def space_to_obj(space: AffineMatrixSpace) -> dict:
    return {
        "field": field_to_obj(space.field),
        "n": space.n,
        "base": rows_to_obj(space.base),
        "directions": [rows_to_obj(m) for m in space.directions],
    }


def space_from_obj(obj: dict, field: FieldSpec | None = None) -> AffineMatrixSpace:
    if field is None:
        field = field_from_obj(obj["field"])
    n = int(obj["n"])
    base = ExactMatrix.from_rows(field, obj["base"])
    dirs = tuple(ExactMatrix.from_rows(field, rows) for rows in obj.get("directions", []))
    return AffineMatrixSpace(field, n, base, dirs)


def _witness_to_obj(w) -> dict | None:
    if w is None:
        return None
    if isinstance(w, Witness):
        return {
            "coefficients": [_entry_to_obj(x) for x in w.coefficients],
            "matrix": rows_to_obj(w.matrix),
        }
    if isinstance(w, TraceWitness):
        return {
            "coefficients": [_entry_to_obj(x) for x in w.coefficients],
            "basis_index": w.basis_index,
            "basis_matrix": rows_to_obj(w.basis_matrix),
            "power": w.power,
            "value": _entry_to_obj(w.value),
        }
    raise TypeError(f"unknown witness type: {type(w)!r}")


def outcome_to_obj(o: VerificationOutcome) -> dict:
    return {
        "status": o.status,
        "method": o.method,
        "checks_performed": o.checks_performed,
        "witness": _witness_to_obj(o.witness),
        "sample_count": o.sample_count,
        "seed": o.seed,
        "notes": list(o.notes),
    }


def bound_report_to_obj(b: BoundReport) -> dict:
    return {
        "name": b.name,
        "inputs": b.inputs_dict(),
        "value": b.value,
        "hypothesis": b.hypothesis,
    }


def shift_poly_to_obj(sp: ShiftPolynomial) -> dict:
    return {
        "field": field_to_obj(sp.field),
        "n": sp.n,
        "coefficients": [_entry_to_obj(c) for c in sp.coefficients],
    }


def search_report_to_obj(r: SearchReport) -> dict:
    # wall_time is intentionally omitted: identical (config, seed) runs must
    # serialize byte-identically
    return {
        "n": r.n,
        "r": r.r,
        "p": r.p,
        "max_dim_found": r.max_dim_found,
        "status": r.status,
        "witness": space_to_obj(r.witness),
        "base_points_tried": [partition_to_obj(p) for p in r.base_points_tried],
        "nodes_explored": r.nodes_explored,
        "pruned_by_trace": r.pruned_by_trace,
        "pruned_by_rank": r.pruned_by_rank,
        "evaluations": r.evaluations,
        "budget": r.budget,
        "pruning": r.pruning,
        "mode": r.mode,
        "seed": r.seed,
    }


def conjecture_test_to_obj(c: ConjectureTest) -> dict:
    return {
        "status": c.status,
        "n": c.n,
        "r": c.r,
        "p": c.p,
        "conjectured_dimension": c.conjectured_dimension,
        "lower_bound_dimension": c.lower_bound_dimension,
        "lower_bound_witness": (
            space_to_obj(c.lower_bound_witness) if c.lower_bound_witness else None
        ),
        "search_report": search_report_to_obj(c.search_report),
        "exceeding_space": (
            space_to_obj(c.exceeding_space) if c.exceeding_space else None
        ),
        "notes": list(c.notes),
    }
