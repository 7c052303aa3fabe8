"""Stable file formats: subspaces, assignments, verdicts, polynomial systems.

Everything is JSON with scalar entries as text ("a/b" or "a/b+c/d*i"),
plus a plain-text form for polynomial systems.  Emission is
deterministic: no timestamps, keys in fixed order, versioned headers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .exactlin import Scalar
from .formula import Assignment
from .lattice import Subspace
from .reductions import PolySystem
from .solve import SatVerdict

FORMAT_VERSION = 1


def subspace_to_obj(s: Subspace) -> dict[str, Any]:
    return {
        "ambient": s.ambient,
        "basis": [[str(x) for x in s.basis.row(i)] for i in range(s.dim)],
    }


def subspace_from_obj(obj: dict[str, Any]) -> Subspace:
    ambient = int(obj["ambient"])
    rows = [[Scalar.parse(x) for x in row] for row in obj["basis"]]
    if not rows:
        return Subspace.zero(ambient)
    return Subspace.from_rows(ambient, rows)


def assignment_to_obj(a: Assignment) -> dict[str, Any]:
    return {
        "format": "grlogic/assignment",
        "version": FORMAT_VERSION,
        "ambient": a.ambient,
        "bindings": {name: subspace_to_obj(s) for name, s in sorted(a.bindings.items())},
    }


def assignment_from_obj(obj: dict[str, Any]) -> Assignment:
    ambient = int(obj["ambient"])
    bindings = {name: subspace_from_obj(sub) for name, sub in obj["bindings"].items()}
    return Assignment(ambient, bindings)


def verdict_to_obj(v: SatVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {
        "format": "grlogic/verdict",
        "version": FORMAT_VERSION,
        "status": v.status,
        "certificate": v.certificate,
    }
    if v.witness is not None:
        out["witness"] = assignment_to_obj(v.witness)
    return out


def verdict_from_obj(obj: dict[str, Any]) -> SatVerdict:
    witness = assignment_from_obj(obj["witness"]) if "witness" in obj else None
    return SatVerdict(obj["status"], witness, obj.get("certificate", ""))


def pluecker_to_obj(v) -> dict[str, Any]:
    return {
        "format": "grlogic/pluecker",
        "version": FORMAT_VERSION,
        "ambient": v.ambient,
        "grade": v.grade,
        "coords": [[list(idx), str(val)] for idx, val in v.coords],
    }


def pluecker_from_obj(obj: dict[str, Any]):
    from .pluecker import PlueckerVector

    coords = tuple((tuple(int(i) for i in idx), Scalar.parse(val)) for idx, val in obj["coords"])
    return PlueckerVector(int(obj["ambient"]), int(obj["grade"]), coords)


def polysystem_to_text(system: PolySystem) -> str:
    """Header comments, one "var" line per unknown, one "poly" line per equation."""
    lines = [f"# grlogic/polysystem v{FORMAT_VERSION}"]
    lines.append(f"# d={system.d} mode={system.mode} split={int(system.split)}")
    for note in system.notes:
        lines.append(f"# {note}")
    for v in system.variables:
        lines.append(f"var {v}")
    for eq in system.equations:
        lines.append("poly " + _poly_text(eq) + " = 0")
    if system.combined is not None:
        lines.append("combined " + _poly_text(system.combined) + " = 0")
    return "\n".join(lines) + "\n"


def _poly_text(poly: dict[tuple[str, ...], Fraction]) -> str:
    if not poly:
        return "0"
    terms = []
    for mon in sorted(poly):
        coeff = poly[mon]
        mon_text = "*".join(mon) if mon else "1"
        terms.append(f"{coeff!s} {mon_text}")
    return " + ".join(terms)


def polysystem_to_obj(system: PolySystem) -> dict[str, Any]:
    def poly_obj(p):
        return [[list(mon), str(c)] for mon, c in sorted(p.items())]

    out: dict[str, Any] = {
        "format": "grlogic/polysystem",
        "version": FORMAT_VERSION,
        "d": system.d,
        "mode": system.mode,
        "split": system.split,
        "variables": list(system.variables),
        "equations": [poly_obj(eq) for eq in system.equations],
        "leaf_matrices": dict(sorted(system.leaf_matrices.items())),
        "matrix_shapes": {k: list(vv) for k, vv in sorted(system.matrix_shapes.items())},
        "notes": list(system.notes),
    }
    if system.combined is not None:
        out["combined"] = poly_obj(system.combined)
    return out


def polysystem_from_obj(obj: dict[str, Any]) -> PolySystem:
    def coeff(text: str):
        q = Fraction(text)
        return q.numerator if q.denominator == 1 else q

    def poly_from(rows):
        return {tuple(mon): coeff(c) for mon, c in rows}

    return PolySystem(
        d=int(obj["d"]),
        mode=obj["mode"],
        split=bool(obj["split"]),
        variables=tuple(obj["variables"]),
        equations=tuple(poly_from(eq) for eq in obj["equations"]),
        leaf_matrices=dict(obj["leaf_matrices"]),
        matrix_shapes={k: (int(v[0]), int(v[1])) for k, v in obj["matrix_shapes"].items()},
        combined=poly_from(obj["combined"]) if "combined" in obj else None,
        notes=tuple(obj.get("notes", ())),
    )


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
