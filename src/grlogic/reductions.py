"""Problem transformations between satisfiability flavours.

Boolean SAT embeds into plane satisfiability by forcing pairwise
commutation; weak and strong satisfiability trade places through
disjoint copies and interval restrictions; existential quantification
over the plane is eliminated into a finite disjunction over a complete
candidate pool; and any fixed-dimension satisfiability question compiles
to the real feasibility of a quadratic equation system (one quartic
polynomial after summing squares).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactlin import Matrix, Scalar
from .formula import (
    And,
    Assignment,
    Const0,
    Const1,
    Formula,
    NamedConst,
    Not,
    Or,
    Var,
    const_names,
    evaluate,
    fold,
    free_vars,
    or_all,
    polarity_forms,
    substitute,
)
from .gadgets import big_psi, eq_f, fneq2d, multiple, npc_commuting_wrap, psi, restrict
from .generic import degree, Family, fresh_plane_lines
from .lattice import Subspace
from .solve import CnfFormula, Mode

# -- Boolean SAT -> plane satisfiability ----------------------------------------


def bool_to_q2d(cnf: CnfFormula) -> Formula:
    """Conjoin pairwise commutation of all variables: the result is
    (weakly) satisfiable over the plane iff the input is Boolean-satisfiable."""
    return npc_commuting_wrap(cnf.to_formula())


def decode_q2d_witness(cnf: CnfFormula, witness: Assignment) -> Optional[dict[str, bool]]:
    """Extract a Boolean witness from a plane witness of bool_to_q2d(cnf).

    Plane values commuting pairwise have degree of genericity at most 1:
    each binding is 0, 1, or one shared line/its complement.  Both ways
    of collapsing the shared line to a Boolean are tried and the first
    that satisfies the clauses is returned.
    """
    zero2, full2 = Subspace.zero(2), Subspace.full(2)
    line: Optional[Subspace] = None
    for s in witness.bindings.values():
        if s not in (zero2, full2):
            candidate = s if s.dim == 1 else s.complement()
            if candidate.dim != 1:
                return None
            line = s if s.dim == 1 else candidate
            break
    for flip in (True, False):
        candidate_map: dict[str, bool] = {}
        ok = True
        for v, s in witness.bindings.items():
            if s == zero2:
                candidate_map[v] = False
            elif s == full2:
                candidate_map[v] = True
            elif line is not None and s == line:
                candidate_map[v] = flip
            elif line is not None and s == line.complement():
                candidate_map[v] = not flip
            else:
                ok = False
                break
        if ok and _bool_satisfies(cnf, candidate_map):
            return candidate_map
    return None


def _bool_satisfies(cnf: CnfFormula, assignment: dict[str, bool]) -> bool:
    return all(any(assignment.get(v, False) == pos for v, pos in clause) for clause in cnf.clauses)


# -- weak <-> strong transfers ---------------------------------------------------


def strong_from_weak(f: Formula, d: int) -> Formula:
    """d disjoint copies: weakly satisfiable in F^d iff the result is
    (strongly) satisfiable in F^d."""
    if d < 1:
        raise ValueError("d must be positive")
    return multiple(d, f)


def weak_from_strong(f: Formula, d: int) -> Formula:
    """Restrict the 1-of-d projection shuttle by f: strongly satisfiable
    in F^d iff the result is weakly satisfiable in F^d."""
    if d < 1:
        raise ValueError("d must be positive")
    return restrict(psi(1, d), f)


def lift_dim(f: Formula, k: int, d: int) -> Formula:
    """Weak satisfiability in F^k iff weak satisfiability of the result in F^d."""
    if not 1 <= k < d:
        raise ValueError("need 1 <= k < d")
    return restrict(f, psi(k, d))


def _weak2strong_parts(f: Formula, d: int) -> tuple[Formula, str, dict[str, str]]:
    """The combined formula plus the fresh selector name and chain renaming."""
    if d < 1:
        raise ValueError("d must be positive")
    chain = big_psi(d)
    taken = free_vars(f) | const_names(f)
    mapping: dict[str, str] = {}
    for v in sorted(free_vars(chain)):
        candidate = v
        while candidate in taken:
            candidate = "p_" + candidate
        mapping[v] = candidate
        taken.add(candidate)
    chain_renamed = substitute(chain, {old: Var(new) for old, new in mapping.items()})
    x0 = "X0"
    while x0 in taken:
        x0 = "p_" + x0
    first = mapping.get("X1", "X1")
    combined = And(eq_f(And(f, Var(x0)), Var(first)), chain_renamed)
    return combined, x0, mapping


def weak2strong_psi(f: Formula, d: int) -> Formula:
    """("f ^ X0 = X1" via the equality gadget) conjoined with the
    dimension-multiple formula: strongly satisfiable in F^d iff f is
    weakly satisfiable in F^d.  Length 2|f| + O(log d)."""
    combined, _, _ = _weak2strong_parts(f, d)
    return combined


def weak2strong_witness(f: Formula, d: int, weak: Assignment) -> Assignment:
    """Strong witness for weak2strong_psi(f, d) from a weak witness of f.

    Takes a line inside the nonzero value of f, anchors the fresh
    selector variable and the chain's first block to it, and extends by
    the verified block construction.
    """
    from .gadgets import big_psi_witness

    value = evaluate(f, weak)
    if value.is_zero():
        raise ValueError("assignment does not weakly satisfy the formula")
    line = Subspace(d, Matrix.from_rows([value.basis.row(0)], cols=d))
    _, x0, mapping = _weak2strong_parts(f, d)
    chain_assignment = big_psi_witness(d, d, first=line if d > 1 else None)
    bindings = dict(weak.bindings)
    bindings[x0] = line if d > 1 else value
    for name, sub in chain_assignment.bindings.items():
        bindings[mapping.get(name, name)] = sub
    return Assignment(d, bindings)


# -- plane quantifier elimination -------------------------------------------------


def qelim2d(
    f: Formula,
    quantified_var: str,
    const_bindings: Optional[dict[str, Subspace]] = None,
    mode: Mode = "weak",
) -> tuple[Formula, dict[str, Subspace]]:
    """Eliminate "exists X" over the plane.

    Returns (g, new_constants): g is the disjunction of f with X replaced
    by 0, 1, each bound constant and its complement, each remaining
    variable and its complement, and enough fresh generic line constants
    to exceed every possible degree of genericity.  For every choice of
    the remaining variables, g is nonzero iff some X makes f nonzero.

    Strong mode first wraps f in the nonzero indicator (with two more
    fresh generic constants), so that g equals 1 iff some X gives f = 1.
    """
    consts = const_bindings or {}
    missing = const_names(f) - set(consts)
    if missing:
        raise ValueError(f"unbound constants: {sorted(missing)}")
    for name, sub in consts.items():
        if sub.ambient != 2:
            raise ValueError(f"constant {name!r} must be a plane subspace")
    if quantified_var not in free_vars(f):
        raise ValueError(f"{quantified_var!r} is not a variable of the formula")

    new_consts: dict[str, Subspace] = dict(consts)
    target = f
    if mode == "strong":
        target, new_consts = _strong_indicator(f, new_consts)

    params = sorted(free_vars(target) - {quantified_var})
    m_deg = degree(Family(2, tuple(new_consts.values()))) if new_consts else 0
    n_fresh = m_deg + len(params) + 1
    fresh = _fresh_generic_constants(n_fresh, new_consts, prefix="U")
    new_consts.update(fresh)

    candidates: list[Formula] = [Const0(), Const1()]
    for c in sorted(set(consts) | (set(new_consts) - set(fresh))):
        candidates.append(NamedConst(c))
        candidates.append(Not(NamedConst(c)))
    for y in params:
        candidates.append(Var(y))
        candidates.append(Not(Var(y)))
    for u in sorted(fresh):
        candidates.append(NamedConst(u))

    branches = [substitute(target, {quantified_var: cand}) for cand in candidates]
    return or_all(branches), new_consts


def _strong_indicator(f: Formula, consts: dict[str, Subspace]) -> tuple[Formula, dict[str, Subspace]]:
    """!fneq(!f): a {0,1}-valued formula equal to 1 exactly where f = 1."""
    fresh = _fresh_generic_constants(2, consts, prefix="E")
    names = sorted(fresh)
    out = dict(consts)
    out.update(fresh)
    base = fneq2d()  # over variables X, Y, Z
    wrapped = substitute(
        base,
        {"X": Not(f), "Y": NamedConst(names[0]), "Z": NamedConst(names[1])},
    )
    return Not(wrapped), out


def _fresh_generic_constants(
    n: int, existing: dict[str, Subspace], prefix: str
) -> dict[str, Subspace]:
    """n fresh plane lines, pairwise generic and generic against all
    existing constants (never equal or perpendicular to any of them)."""
    out: dict[str, Subspace] = {}
    k = 1
    for line in fresh_plane_lines(n, existing.values()):
        while f"{prefix}{k}" in existing:
            k += 1
        out[f"{prefix}{k}"] = line
        k += 1
    return out


def exists_2d(
    f: Formula,
    quantified_var: str,
    binding: Assignment,
    const_bindings: Optional[dict[str, Subspace]] = None,
    mode: Mode = "weak",
) -> bool:
    """Complete existential oracle over the plane for one variable.

    Scans X over {0, 1, y, !y for each bound value y, fresh generic
    lines}, which is a complete candidate pool for a single variable.
    """
    consts = const_bindings or {}
    pool: list[Subspace] = [Subspace.zero(2), Subspace.full(2)]
    seen: set[Subspace] = set(pool)
    for s in list(binding.bindings.values()) + list(consts.values()):
        for cand in (s, s.complement()):
            if cand not in seen:
                pool.append(cand)
                seen.add(cand)
    for extra in fresh_plane_lines(2, pool):
        pool += [extra, extra.complement()]
    full = Subspace.full(2)
    for cand in pool:
        env = dict(binding.bindings)
        env.update(consts)
        env[quantified_var] = cand
        value = evaluate(f, Assignment(2, env))
        if (mode == "strong" and value == full) or (mode == "weak" and not value.is_zero()):
            return True
    return False


# -- polynomial feasibility emission ----------------------------------------------

Monomial = tuple[str, ...]  # sorted variable names, possibly "conj(...)" in unsplit mode
Poly = dict[Monomial, int]
Entry = tuple[tuple[str, int], ...]  # a complex matrix entry: a sum of unknown * i**k
Table = list[list[Entry]]

_UNIT = ((0, 1), (1, 1), (0, -1), (1, -1))  # i**k as (real or imaginary part, sign)


def poly_degree(p: Poly) -> int:
    return max((len(m) for m in p), default=0)


def poly_eval(p: Poly, point: dict[str, Scalar]) -> Scalar:
    total = Scalar(0)
    for mon, coeff in p.items():
        term = Scalar(coeff)
        for name in mon:
            if name.startswith("conj(") and name.endswith(")"):
                term = term * point[name[5:-1]].conj()
            else:
                term = term * point[name]
        total = total + term
    return total


@dataclass
class PolySystem:
    """A multivariate polynomial system with integer coefficients.

    In split mode (the default) every variable is real-valued and every
    equation has total degree at most 2, so the combined form (sum of
    squares of all residuals) is a single quartic whose real zeros are
    exactly the common zeros of the system.
    """

    d: int
    mode: Mode
    split: bool
    variables: tuple[str, ...]
    equations: tuple[Poly, ...]
    leaf_matrices: dict[str, str]  # formula variable -> matrix symbol
    matrix_shapes: dict[str, tuple[int, int]]
    combined: Optional[Poly] = None
    combined_terms: tuple[Poly, ...] = ()
    notes: tuple[str, ...] = ()


class _Emitter:
    def __init__(self, d: int, split: bool):
        self.d = d
        self.split = split
        self.counter = 0
        self.variables: list[str] = []
        self.equations: list[Poly] = []
        self.matrix_shapes: dict[str, tuple[int, int]] = {}
        self.tables: dict[str, Table] = {}

    def fresh_matrix(self, rows: int, cols: int) -> str:
        name = f"M{self.counter}"
        self.counter += 1
        self.matrix_shapes[name] = (rows, cols)
        self.tables[name] = [[self._entry(f"{name}_{i}_{j}") for j in range(cols)] for i in range(rows)]
        return name

    def _entry(self, base: str) -> Entry:
        if self.split:
            re, im = base + "_re", base + "_im"
            self.variables += (re, im)
            return ((re, 0), (im, 1))
        self.variables.append(base)
        return ((base, 0),)

    def adjoint(self, name: str) -> Table:
        """Entry table of the conjugate transpose."""
        table = self.tables[name]
        if self.split:
            conj = [[tuple((x, -k % 4) for x, k in e) for e in row] for row in table]
        else:
            conj = [[((f"conj({e[0][0]})", 0),) for e in row] for row in table]
        return _transpose(conj)

    def require_zero(
        self,
        linear: tuple[tuple[int, Table], ...] = (),
        products: tuple[tuple[int, Table, Table], ...] = (),
        diag: int = 0,
    ) -> None:
        """Emit sum(s * A) + sum(s * A B) + diag * id = 0, entry by entry in
        row-major order, each as its real then its imaginary part (a part
        that is identically zero is skipped).  Every term is accumulated in
        place, straight from the unknown names in the entry tables.  No
        monomial arises twice, so no coefficient cancels to zero."""
        first = (linear + products)[0]
        rows, cols = len(first[1]), len(first[-1][0])  # rows of A, columns of A or of B
        for i in range(rows):
            for j in range(cols):
                parts: tuple[Poly, Poly] = ({(): diag} if i == j and diag else {}, {})
                for sign, a in linear:
                    for x, kx in a[i][j]:
                        part, s = _UNIT[kx]
                        poly = parts[part]
                        poly[(x,)] = poly.get((x,), 0) + sign * s
                for sign, a, b in products:
                    for a_ik, b_k in zip(a[i], b):
                        for x, kx in a_ik:
                            for y, ky in b_k[j]:
                                part, s = _UNIT[(kx + ky) % 4]
                                poly = parts[part]
                                m = (x, y) if x <= y else (y, x)
                                poly[m] = poly.get(m, 0) + sign * s
                self.equations += [poly for poly in parts if poly]


def _transpose(table: Table) -> Table:
    return [list(col) for col in zip(*table)]


def to_polysystem(f: Formula, d: int, mode: Mode, split: bool = True) -> PolySystem:
    """Compile satisfiability of f over F^d into polynomial feasibility.

    Every subspace variable becomes a d x d matrix of scalar unknowns
    whose column span carries the subspace.  Joins introduce auxiliary
    matrices X, Y, W, Z with R = S X + T Y, S = R W, T = R Z; complements
    introduce S with S^adj T = 0 and (S + T) X = id; meets are rewritten
    by de Morgan first.  Strong mode appends R X = id for the root matrix
    R; weak mode appends w = R v and u^T w = 1 (the nonzero condition as
    a pure equation system).  All equations are quadratic with integer
    coefficients; in split mode (real and imaginary parts as separate real
    unknowns) the system is over the reals and `combine_quartic` folds it
    into one quartic.
    """
    if d < 1:
        raise ValueError("d must be positive")
    em = _Emitter(d, split)
    root, leaf_map = _emit(f, em)
    r = em.tables[root]
    notes = []
    if mode == "strong":
        x = em.fresh_matrix(d, d)
        em.require_zero(products=((1, r, em.tables[x]),), diag=-1)
        notes.append("strong root: R X = id forces the root range to be the full space")
    else:
        v, w, u = (em.tables[em.fresh_matrix(d, 1)] for _ in range(3))
        em.require_zero(((1, w),), ((-1, r, v),))
        # u^T w = 1 without conjugation keeps the equation quadratic
        em.require_zero(products=((1, _transpose(u), w),), diag=-1)
        notes.append(
            "weak root: the nonzero condition 'exists u, v with u^T R v = 1' is emitted"
            " as w = R v plus u^T w = 1, keeping every equation quadratic"
        )
    system = PolySystem(
        d=d,
        mode=mode,
        split=split,
        variables=tuple(em.variables),
        equations=tuple(em.equations),
        leaf_matrices=leaf_map,
        matrix_shapes=dict(em.matrix_shapes),
        notes=tuple(notes),
    )
    assert all(poly_degree(p) <= 2 for p in system.equations)
    return system


def _demorganize(f: Formula) -> Formula:
    """Complements pushed down (!!g collapsed to g) and meets rewritten as
    complemented joins, so only Or, Not and leaves remain."""
    return polarity_forms(f, Not, lambda x, y: Not(Or(x[1], y[1])))[0]


def _no_meet(*_: object) -> str:
    raise AssertionError("meets are rewritten by de Morgan before emission")


def _emit(f: Formula, em: _Emitter) -> tuple[str, dict[str, str]]:
    """Emit each distinct node of the de Morgan form once, in fold order."""
    leaf_map: dict[str, str] = {}
    d = em.d
    tables = em.tables

    def leaf(x: Formula) -> str:
        if x.name not in leaf_map:
            leaf_map[x.name] = em.fresh_matrix(d, d)
        return leaf_map[x.name]

    def constant(diag: int) -> str:
        name = em.fresh_matrix(d, d)
        em.require_zero(((1, tables[name]),), diag=-diag)
        return name

    def join(s: str, t: str) -> str:
        r = em.fresh_matrix(d, d)
        x, y, w, z = (em.fresh_matrix(d, d) for _ in range(4))
        sm, tm, rm = tables[s], tables[t], tables[r]
        em.require_zero(((1, rm),), ((-1, sm, tables[x]), (-1, tm, tables[y])))
        em.require_zero(((1, sm),), ((-1, rm, tables[w]),))
        em.require_zero(((1, tm),), ((-1, rm, tables[z]),))
        return r

    def neg(t: str) -> str:
        s = em.fresh_matrix(d, d)
        x = em.fresh_matrix(d, d)
        sm, tm, xm = tables[s], tables[t], tables[x]
        # S^adj T = 0: the column ranges are orthogonal
        em.require_zero(products=((1, em.adjoint(s), tm),))
        em.require_zero(products=((1, sm, xm), (1, tm, xm)), diag=-1)
        return s

    root = fold(_demorganize(f), leaf, lambda: constant(0), lambda: constant(1), neg, _no_meet, join)
    return root, leaf_map


def combine_quartic(system: PolySystem) -> PolySystem:
    """Sum of squares of all residuals: one quartic polynomial with a real
    zero exactly where the (real, split-mode) system has a common zero."""
    if not system.split:
        raise ValueError("combine_quartic needs a split (real) system")
    combined: Poly = {}
    for eq in system.equations:
        terms = list(eq.items())
        for a, (m1, c1) in enumerate(terms):
            # the square once, and each cross term once with its factor 2
            m = tuple(sorted(m1 + m1))
            combined[m] = combined.get(m, 0) + c1 * c1
            c1 *= 2
            for m2, c2 in terms[a + 1 :]:
                m = tuple(sorted(m1 + m2))
                combined[m] = combined.get(m, 0) + c1 * c2
    # cross terms of different residuals can cancel
    for m in [m for m, c in combined.items() if not c]:
        del combined[m]
    assert poly_degree(combined) <= 4
    return PolySystem(
        d=system.d,
        mode=system.mode,
        split=system.split,
        variables=system.variables,
        equations=system.equations,
        leaf_matrices=system.leaf_matrices,
        matrix_shapes=system.matrix_shapes,
        combined=combined,
        combined_terms=system.equations,
        notes=system.notes + ("combined: sum of squares of all residuals",),
    )


def verify_poly_witness(system: PolySystem, point: dict[str, Fraction]) -> bool:
    """Exact rational evaluation; True iff every equation vanishes at the
    point.  The point is real, so conj(x) takes the value of x."""
    missing = [v for v in system.variables if v not in point]
    if missing:
        raise ValueError(f"unbound variables: {missing[:4]}{'...' if len(missing) > 4 else ''}")
    # integral values as ints: most products then never build a Fraction
    values = {name: x.numerator if x.denominator == 1 else x for name, x in point.items()}
    if not system.split:
        values.update({f"conj({v})": values[v] for v in system.variables})
    for eq in system.equations:
        total = 0
        for mon, coeff in eq.items():
            for name in mon:
                coeff *= values[name]
            total += coeff
        if total:
            return False
    return True


# -- witness transfer ---------------------------------------------------------------


def witness_to_point(system: PolySystem, f: Formula, witness: Assignment) -> dict[str, Fraction]:
    """Exact satisfying point of the emitted system from a subspace witness.

    Every node matrix gets its value's basis as leading columns; the
    auxiliary matrices of joins, complements and the root condition are
    produced by exact linear solves.
    """
    if not system.split:
        raise ValueError("witness transfer is implemented for split systems")
    d = system.d
    matrices: dict[str, Matrix] = {}
    counter = [0]

    def take(expected_rows: int, expected_cols: int) -> str:
        name = f"M{counter[0]}"
        counter[0] += 1
        if system.matrix_shapes[name] != (expected_rows, expected_cols):
            raise AssertionError("matrix layout mismatch during witness transfer")
        return name

    def basis_matrix(s: Subspace, skip: int = 0) -> Matrix:
        """d x d: `skip` zero columns, then the basis of s, then zero columns."""
        cols = [[Scalar(0)] * d for _ in range(skip)] + [list(s.basis.row(r)) for r in range(s.dim)]
        cols += [[Scalar(0)] * d for _ in range(d - len(cols))]
        return Matrix.from_rows(cols, cols=d).transpose()

    def solve_cols(a: Matrix, b: Matrix) -> Matrix:
        out_cols = []
        for j in range(b.cols):
            x = a.solve([b.entry(i, j) for i in range(a.rows)])
            if x is None:
                raise AssertionError("witness transfer solve failed")
            out_cols.append(x)
        return Matrix.from_rows(out_cols, cols=a.cols).transpose()

    # the same fold as the emitter's, so nodes take matrices in its order
    def leaf(x: Formula) -> tuple[str, Subspace]:
        name = system.leaf_matrices[x.name]
        if name not in matrices:
            # first encounter allocates the next number in the emitter
            if name != take(d, d):
                raise AssertionError("matrix layout mismatch at leaf")
            matrices[name] = basis_matrix(witness.bound(x.name))
        return name, witness.bound(x.name)

    def constant(value: Subspace) -> tuple[str, Subspace]:
        name = take(d, d)
        matrices[name] = basis_matrix(value)
        return name, value

    def join(s: tuple[str, Subspace], t: tuple[str, Subspace]) -> tuple[str, Subspace]:
        (s_name, s_val), (t_name, t_val) = s, t
        r_name = take(d, d)
        names = [take(d, d) for _ in range(4)]
        value = s_val.join(t_val)
        rm = basis_matrix(value)
        matrices[r_name] = rm
        st = matrices[s_name].hstack(matrices[t_name])
        xy = solve_cols(st, rm)  # 2d x d
        matrices[names[0]] = Matrix.from_rows([xy.row(i) for i in range(d)], cols=d)
        matrices[names[1]] = Matrix.from_rows([xy.row(i) for i in range(d, 2 * d)], cols=d)
        matrices[names[2]] = solve_cols(rm, matrices[s_name])
        matrices[names[3]] = solve_cols(rm, matrices[t_name])
        return r_name, value

    def neg(t: tuple[str, Subspace]) -> tuple[str, Subspace]:
        # the operand is a leaf or a join (complements never nest), so its
        # matrix has the basis first and the sum below is invertible
        t_name, t_val = t
        s_name = take(d, d)
        x_name = take(d, d)
        value = t_val.complement()
        matrices[s_name] = basis_matrix(value, skip=t_val.dim)
        matrices[x_name] = solve_cols(matrices[s_name] + matrices[t_name], Matrix.identity(d))
        return s_name, value

    zero, one = Subspace.zero(d), Subspace.full(d)
    root_name, _ = fold(_demorganize(f), leaf, lambda: constant(zero), lambda: constant(one), neg, _no_meet, join)
    if system.mode == "strong":
        x_name = take(d, d)
        matrices[x_name] = solve_cols(matrices[root_name], Matrix.identity(d))
    else:
        v_name = take(d, 1)
        w_name = take(d, 1)
        u_name = take(d, 1)
        rm = matrices[root_name]
        col = None
        for j in range(rm.cols):
            if any(not rm.entry(i, j).is_zero() for i in range(d)):
                col = j
                break
        if col is None:
            raise AssertionError("weak witness transfer on a zero root")
        v_vec = [[Scalar(1)] if j == col else [Scalar(0)] for j in range(d)]
        matrices[v_name] = Matrix.from_rows(v_vec, cols=1)
        w_vec = [[rm.entry(i, col)] for i in range(d)]
        matrices[w_name] = Matrix.from_rows(w_vec, cols=1)
        pivot = next(i for i in range(d) if not rm.entry(i, col).is_zero())
        u_vec = [[Scalar(1) / rm.entry(pivot, col)] if i == pivot else [Scalar(0)] for i in range(d)]
        matrices[u_name] = Matrix.from_rows(u_vec, cols=1)

    point: dict[str, Fraction] = {}
    for name, mat in matrices.items():
        rows, cols = system.matrix_shapes[name]
        for i in range(rows):
            for j in range(cols):
                val = mat.entry(i, j)
                point[f"{name}_{i}_{j}_re"] = val.re
                point[f"{name}_{i}_{j}_im"] = val.im
    return point


def point_to_assignment(system: PolySystem, f: Formula, point: dict[str, Fraction]) -> Assignment:
    """Decode leaf matrices of a satisfying point back into subspaces."""
    d = system.d
    bindings: dict[str, Subspace] = {}
    for var, name in system.leaf_matrices.items():
        rows = []
        for j in range(d):
            col = []
            for i in range(d):
                re = point.get(f"{name}_{i}_{j}_re", Fraction(0))
                im = point.get(f"{name}_{i}_{j}_im", Fraction(0))
                col.append(Scalar(re, im))
            rows.append(col)
        # rows currently hold columns of the matrix; their span is the range
        bindings[var] = Subspace.from_rows(d, rows)
    return Assignment(d, bindings)
