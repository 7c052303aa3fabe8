"""plane-decide: complete satisfiability over the plane (the NP side).

One round is 43 decisions, each serialised as `grlogic sat` does it:
  * 20 on `bool_to_q2d` of random 3-CNFs, as many satisfiable as not:
    n = 4 (one of each) and n = 5 (two of each) in both modes, n = 6, 7
    (two of each) in strong mode;
  * 19 on the fixed gadgets, parsed from text;
  * 4 on `qelim2d` outputs, which carry named plane constants: in strong
    mode one satisfiable and one unsatisfiable (the unsatisfiable ones
    exhaust the pool, so they cost several times more), in weak mode two.
"""

from __future__ import annotations

import json

from grlogic import formats, formula, gadgets, reductions, solve
from grlogic.solve import CnfFormula

import oracle
from inputs import Op, random_formula_using, require, three_cnf

# (label, builder, modes, verdict the gadget's docstring proves over the plane)
GADGETS = [
    ("generic_f(2,3)", lambda: gadgets.generic_f(2, 3), ("strong", "weak"), "sat"),
    ("generic_f(2,4)", lambda: gadgets.generic_f(2, 4), ("strong", "weak"), "sat"),
    ("generic_f(2,5)", lambda: gadgets.generic_f(2, 5), ("strong", "weak"), "sat"),
    # weak mode on generic_f(2,6) runs for tens of seconds; see CHANGES.md
    ("generic_f(2,6)", lambda: gadgets.generic_f(2, 6), ("strong",), "sat"),
    ("big_psi(2)", lambda: gadgets.big_psi(2), ("strong", "weak"), "sat"),
    # three strong copies: the slowest tenth of the operations is then mostly
    # this one 8-variable backtracking decision, so the 90th percentile of
    # latency sits on a plateau instead of between differently sized inputs
    ("big_psi(3)", lambda: gadgets.big_psi(3), ("strong", "strong", "strong"), "unsat"),
    ("big_psi(3)", lambda: gadgets.big_psi(3), ("weak",), None),
    ("ndist_psi(2)", lambda: gadgets.ndist_psi(2), ("strong", "weak"), "unsat"),
    ("ndist_psi(3)", lambda: gadgets.ndist_psi(3), ("strong", "weak"), "unsat"),
    ("fneq2d", gadgets.fneq2d, ("strong", "weak"), "sat"),
]
# (variables, modes, CNFs per verdict)
Q2D_PLAN = [(4, ("strong", "weak"), 1), (5, ("strong", "weak"), 2), (6, ("strong",), 2), (7, ("strong",), 2)]
BRUTE_FORCE_VARS = 5


def _serialised(v) -> str:
    return formats.dumps(formats.verdict_to_obj(v))


def _check_record(v, text: str) -> None:
    require(json.loads(text)["status"] == v.status, "serialised status differs from the verdict")


def _check_witness(f, v, mode: str, constants) -> None:
    """Re-evaluate a Sat witness exactly with the benchmark's own lattice code."""
    bindings = {**(constants or {}), **v.witness.bindings}
    require(oracle.satisfied(f, bindings, 2, mode), f"{mode} witness does not satisfy the formula")


class PlaneDecide:
    def __init__(self) -> None:
        self.gadgets = [
            (label, formula.format_formula(build()), modes, expected) for label, build, modes, expected in GADGETS
        ]
        self._brute_force: dict[tuple[str, str], bool] = {}

    def _plane_unsat(self, f, text: str, mode: str) -> bool:
        key = (text, mode)
        if key not in self._brute_force:
            self._brute_force[key] = oracle.plane_unsat(f, mode)
        return self._brute_force[key]

    def round(self, rng) -> list[Op]:
        ops = [
            self._q2d(three_cnf(rng, n, sat), n, mode)
            for n, modes, copies in Q2D_PLAN
            for sat in (True, False) * copies
            for mode in modes
        ]
        for label, text, modes, expected in self.gadgets:
            ops += [self._gadget(label, text, mode, expected) for mode in modes]
        for mode, status in (("strong", "sat"), ("strong", "unsat"), ("weak", "sat"), ("weak", None)):
            ops.append(self._qelim(self._two_variable_formula(rng, mode, status), mode))
        return ops

    @staticmethod
    def _two_variable_formula(rng, mode: str, status):
        """A random formula in X and Y whose plane verdict is `status` (None: any)."""
        while True:
            f = random_formula_using(rng, ["X", "Y"], rng.randint(3, 4))
            if status is None or solve.decide_2d(f, mode).status == status:
                return f

    def _q2d(self, clauses, n: int, mode: str) -> Op:
        cnf = CnfFormula.of(clauses)
        expected = "sat" if oracle.bool_satisfiable(clauses) else "unsat"

        def run():
            f = reductions.bool_to_q2d(cnf)
            v = solve.decide_2d(f, mode)
            return f, v, _serialised(v)

        def check(out) -> None:
            f, v, text = out
            _check_record(v, text)
            require(v.status == expected, f"q2d {mode} verdict {v.status}, Boolean satisfiability says {expected}")
            if v.status == "sat":
                decoded = reductions.decode_q2d_witness(cnf, v.witness)
                require(decoded is not None and oracle.satisfies(clauses, decoded), "witness decodes to no model")
                _check_witness(f, v, mode, None)
            elif n <= BRUTE_FORCE_VARS:
                require(oracle.plane_unsat(f, mode), "brute force over the plane pool finds a witness")

        return Op(f"q2d n={n} {mode}", run, check)

    def _gadget(self, label: str, text: str, mode: str, expected) -> Op:
        def run():
            f = formula.parse(text)
            v = solve.decide_2d(f, mode)
            return f, v, _serialised(v)

        def check(out) -> None:
            f, v, record = out
            _check_record(v, record)
            require(expected is None or v.status == expected, f"{label} {mode}: {v.status}, expected {expected}")
            if v.status == "sat":
                _check_witness(f, v, mode, None)
            elif len(oracle.free_names(f)) <= BRUTE_FORCE_VARS:
                require(self._plane_unsat(f, text, mode), f"{label} {mode}: brute force finds a witness")

        return Op(f"{label} {mode}", run, check)

    def _qelim(self, f, mode: str) -> Op:
        def run():
            g, constants = reductions.qelim2d(f, "X", None, mode)
            v = solve.decide_2d(g, mode, constants)
            return g, constants, v, _serialised(v)

        def check(out) -> None:
            g, constants, v, record = out
            _check_record(v, record)
            # exists X. f is satisfiable exactly when f is
            reference = solve.decide_2d(f, mode).status
            require(v.status == reference, f"qelim2d {mode}: {v.status}, f itself is {reference}")
            if v.status == "sat":
                _check_witness(g, v, mode, constants)

        return Op(f"qelim2d {mode}", run, check)
