"""Spans around the calls into grlogic's public functions, from outside the library.

`Tracer.install()` replaces each traced function where callers look it up
(module attributes, including names that other modules bound at import,
and methods on the `Matrix` and `Subspace` classes) with a wrapper that
records a span: name, start, end and parent.  `uninstall()` puts the
originals back.  Spans are kept in compact arrays in memory and written
out once, when the run ends.  A call to a function from inside a span of
the same name (the recursion of `mo.evaluate` and `mo.evaluate_grid`) is
part of that span and records nothing.
"""

from __future__ import annotations

import json
import time
from array import array

from grlogic import exactlin, formats, formula, lattice, mo, reductions, solve, staudt

import oracle

# span name -> where it is looked up: (owner, attribute) pairs
TRACED: dict[str, list[tuple[object, str]]] = {
    "exactlin.rref": [(exactlin.Matrix, "rref")],
    "exactlin.nullspace": [(exactlin.Matrix, "nullspace")],
    "exactlin.solve": [(exactlin.Matrix, "solve")],
    "exactlin.matmul": [(exactlin.Matrix, "__matmul__")],
    "lattice.meet": [(lattice.Subspace, "meet")],
    "lattice.join": [(lattice.Subspace, "join")],
    "lattice.complement": [(lattice.Subspace, "complement")],
    "lattice.contains": [(lattice.Subspace, "contains")],
    "formula.evaluate": [(m, "evaluate") for m in (formula, solve, reductions, staudt)],
    "formula.parse": [(formula, "parse")],
    "formula.format": [(formula, "format_formula")],
    "mo.evaluate": [(mo, "evaluate")],
    "mo.evaluate_grid": [(mo, "evaluate_grid")],
    "solve.decide_2d": [(solve, "decide_2d")],
    "solve.pool_search": [(solve, "pool_search")],
    "solve.decide_cnf": [(solve, "decide_cnf")],
    "solve.search": [(solve, "search")],
    "solve.verify": [(solve, "verify")],
    "reductions.bool_to_q2d": [(reductions, "bool_to_q2d")],
    "reductions.qelim2d": [(reductions, "qelim2d")],
    "reductions.to_polysystem": [(reductions, "to_polysystem")],
    "reductions.combine_quartic": [(reductions, "combine_quartic")],
    "reductions.witness_to_point": [(reductions, "witness_to_point")],
    "reductions.verify_poly_witness": [(reductions, "verify_poly_witness")],
    "staudt.mul": [(staudt, "mul")],
    "staudt.sub": [(staudt, "sub")],
    "staudt.adjoint": [(staudt, "adjoint")],
    "staudt.decode": [(staudt, "decode")],
    "staudt.poly_to_formula": [(staudt, "poly_to_formula")],
    "formats.dumps": [(formats, "dumps")],
    "formats.polysystem_to_text": [(formats, "polysystem_to_text")],
}

CONNECTIVES = ("lattice.meet", "lattice.join", "lattice.complement")
VERDICT_SOURCES = ("solve.decide_2d", "solve.decide_cnf", "solve.search")

# every per-layer metric a traced run reports, with its unit
COUNTERS = {
    "formula.evaluate.tree_nodes": "count",
    "formula.evaluate.dag_nodes": "count",
    "formula.evaluate.lattice_ops": "count",
    "formula.evaluate.distinct_ratio": "ratio",
    "mo.evaluate_grid.cells": "count",
    "reductions.unknowns": "count",
    "reductions.equations": "count",
    "reductions.terms": "count",
    "reductions.quartic_terms": "count",
    "solve.sat": "count",
    "solve.unsat": "count",
    "solve.unknown": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER = {**{f"{n}.{s}": u for n in TRACED for s, u in (("calls", "count"), ("self_s", "s"))}, **COUNTERS}


def formula_shape(f) -> tuple[int, int, int]:
    """(nodes, distinct nodes, lattice calls one evaluation per distinct node needs).

    Structural identity by hash-consing with an explicit stack; a negation
    costs two lattice calls (complement, then meet with the interval),
    a meet or join one, a leaf none.
    """
    ids: dict[int, int] = {}
    table: dict[tuple, int] = {}
    cost = 0
    nodes = 0
    stack = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        kind, kids = oracle.kind(node), oracle.children(node)
        if not expanded:
            nodes += 1
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        key = (kind, getattr(node, "name", None), *(ids[id(k)] for k in kids))
        if key not in table:
            table[key] = len(table)
            cost += {"Not": 2, "And": 1, "Or": 1}.get(kind, 0)
        ids[id(node)] = table[key]
    return nodes, len(table), cost


class Tracer:
    def __init__(self) -> None:
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {k: 0 for k in COUNTERS if k not in ("formula.evaluate.distinct_ratio", "trace.overhead_pct")}
        self.distinct_ops = 0
        self._open: list[list] = []  # [name index, child seconds, span index]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        self._shapes: dict[int, tuple[object, tuple[int, int, int]]] = {}
        self._evaluating = 0

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        for idx, name in enumerate(self.names):
            for owner, attr in TRACED[name]:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(idx, fn)
                setattr(owner, attr, self._wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        is_eval = name == "formula.evaluate"
        is_connective = name in CONNECTIVES
        is_verdict = name in VERDICT_SOURCES
        is_grid = name == "mo.evaluate_grid"
        open_spans = self._open
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if open_spans and open_spans[-1][0] == idx:
                return fn(*args, **kwargs)
            if is_connective and self._evaluating:
                self.counters["formula.evaluate.lattice_ops"] += 1
            elif is_grid:
                self.counters["mo.evaluate_grid.cells"] += len(args[3]) ** args[2]
            parent = open_spans[-1][2] if open_spans else -1
            span = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0, span]
            open_spans.append(frame)
            self._evaluating += is_eval
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._evaluating -= is_eval
                open_spans.pop()
                self.span_start[span] = start
                self.span_end[span] = end
                self.calls[idx] += 1
                self.self_s[idx] += (end - start) - frame[1]
                if open_spans:
                    open_spans[-1][1] += end - start
            if is_eval:  # sizes only of evaluations that returned, like the lattice calls they are set against
                self._count_formula(args[0])
            elif is_verdict:
                self.counters[f"solve.{result.status}"] += 1
            self._count_result(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------------

    def _count_formula(self, f) -> None:
        entry = self._shapes.get(id(f))
        if entry is None or entry[0] is not f:
            entry = self._shapes[id(f)] = (f, formula_shape(f))
        nodes, distinct, cost = entry[1]
        self.counters["formula.evaluate.tree_nodes"] += nodes
        self.counters["formula.evaluate.dag_nodes"] += distinct
        self.distinct_ops += cost

    def _count_result(self, name: str, result) -> None:
        if name == "reductions.to_polysystem":
            self.counters["reductions.unknowns"] += len(result.variables)
            self.counters["reductions.equations"] += len(result.equations)
            self.counters["reductions.terms"] += sum(len(eq) for eq in result.equations)
        elif name == "reductions.combine_quartic":
            self.counters["reductions.quartic_terms"] += len(result.combined)

    def forget_formulas(self) -> None:
        self._shapes.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out.update(self.counters)
        ops = self.counters["formula.evaluate.lattice_ops"]
        out["formula.evaluate.distinct_ratio"] = self.distinct_ops / ops if ops else 1.0
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)
