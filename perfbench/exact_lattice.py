"""exact-lattice: the Q(i) subspace lattice itself.

One round is 28 operations:
  * 14 exact evaluations of a random 12-leaf formula over four variables
    bound to random subspaces of F^d, d = 2..8, real and complex entries;
  * 10 `decide_cnf` calls on random 1-to-3-literal CNFs, d = 2..6, both modes;
  * 4 `search` calls on random two-variable formulas, d = 3, 4, both modes.
"""

from __future__ import annotations

from grlogic import formula, solve
from grlogic.formula import Assignment
from grlogic.solve import CnfFormula

import oracle
from inputs import Op, random_cnf, random_formula, random_formula_using, random_subspace, require

NAMES = ["A", "B", "C", "D"]


def check_root(f, a: Assignment, value) -> None:
    """Check the value at the root connective with the benchmark's own rank routine.

    The children are evaluated by the library; the root step is not trusted.
    """
    d = a.ambient
    got = oracle.rows_of(value)
    dim = oracle.rank(got, d)
    kind = oracle.kind(f)
    kids = [oracle.rows_of(formula.evaluate(c, a)) for c in oracle.children(f)]
    if kind == "Not":
        (x,) = kids
        require(oracle.orthogonal(got, x), "complement is not orthogonal to its operand")
        require(dim == d - oracle.rank(x, d), "complement has the wrong dimension")
    elif kind in ("And", "Or"):
        x, y = kids
        dx, dy, dsum = oracle.rank(x, d), oracle.rank(y, d), oracle.rank(x + y, d)
        if kind == "And":
            require(oracle.contains(x, got, d) and oracle.contains(y, got, d), "meet is not below its operands")
            require(dim + dsum == dx + dy, "dim(A^B) + dim(AvB) != dim A + dim B")
        else:
            require(oracle.contains(got, x, d) and oracle.contains(got, y, d), "join is not above its operands")
            require(dim == dsum, "join has the wrong dimension")
    elif kind == "Var":
        require(value == a.bindings[f.name], "a variable evaluates to something other than its binding")


def check_cnf_witness(clauses, v, d: int, mode: str) -> None:
    """Re-evaluate a CNF witness exactly: each clause is a join of literals,
    and a meet of clauses is nonzero exactly when their complements do not span F^d."""
    rows = {k: oracle.rows_of(s) for k, s in v.witness.bindings.items()}
    values = [
        oracle.rref([r for x, pos in clause for r in (rows[x] if pos else oracle.complement(rows[x], d))], d)
        for clause in clauses
    ]
    if mode == "strong":
        require(all(len(c) == d for c in values), "strong witness leaves a clause below the full space")
    else:
        spanned = oracle.rank([r for c in values for r in oracle.complement(c, d)], d)
        require(spanned < d, "weak witness makes the conjunction zero")


class ExactLattice:
    def round(self, rng) -> list[Op]:
        ops = []
        for d in range(2, 9):
            for complex_entries in (False, True):
                f = random_formula(rng, NAMES, 12)
                a = Assignment(d, {n: random_subspace(rng, d, complex_entries) for n in NAMES})
                ops.append(self._evaluate(f, a, complex_entries))
        for d in range(2, 7):
            for mode in ("strong", "weak"):
                clauses = random_cnf(rng, rng.randint(3, 5), rng.randint(3, 8), (1, 2, 2, 3, 3))
                ops.append(self._decide_cnf(clauses, d, mode))
        for d in (3, 4):
            for mode in ("strong", "weak"):
                ops.append(self._search(random_formula_using(rng, ["X", "Y"], rng.randint(3, 5)), d, mode))
        return ops

    def _evaluate(self, f, a: Assignment, complex_entries: bool) -> Op:
        return Op(
            f"evaluate d={a.ambient} {'complex' if complex_entries else 'real'}",
            lambda: formula.evaluate(f, a),
            lambda value: check_root(f, a, value),
        )

    def _decide_cnf(self, clauses, d: int, mode: str) -> Op:
        cnf = CnfFormula.of(clauses)

        def check(v) -> None:
            require(v.status in ("sat", "unsat"), f"decide_cnf is complete but said {v.status}")
            if v.status == "sat":
                check_cnf_witness(clauses, v, d, mode)
                return
            # a Boolean model is a witness in every dimension and both modes
            require(not oracle.bool_satisfiable(clauses), "Unsat, but the CNF has a Boolean model")
            if d == 2:
                require(solve.decide_2d(cnf.to_formula(), mode).status == "unsat", "Unsat, but decide_2d finds a witness")

        return Op(f"decide_cnf d={d} {mode}", lambda: solve.decide_cnf(cnf, d, mode), check)

    def _search(self, f, d: int, mode: str) -> Op:
        def check(v) -> None:
            require(v.status in ("sat", "unknown"), "search is incomplete and may not refute")
            if v.status == "sat":
                require(oracle.satisfied(f, v.witness.bindings, d, mode), f"{mode} witness does not satisfy the formula")

        return Op(f"search d={d} {mode}", lambda: solve.search(f, d, mode), check)
