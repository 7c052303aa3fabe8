"""Satisfiability deciders, incomplete search, and witness utilities.

Complete deciders exist exactly where the underlying theory gives them:

* `decide_boolean` - dimension 1, and strong satisfiability over the
  union of all co-/finite dimensional subspaces of sequence space,
  both of which collapse to Boolean satisfiability;
* `decide_2d` - any formula over the plane, by a backtracking search of
  the complete candidate pool {0, 1, V_1, !V_1, ..., V_n, !V_n} built
  from a pairwise generic family, one assignment per symmetry orbit;
* `decide_cnf` - conjunctive-form formulas in any dimension d >= 2.

Everything else (`search`) is explicitly incomplete and only ever
answers Sat-with-witness or Unknown.  Every Sat verdict produced by any
decider carries a witness that has been re-verified by exact evaluation
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, not_
from typing import Callable, Literal, Optional, Sequence, TypeVar

from . import mo
from .exactlin import Scalar
from .formula import (
    Assignment,
    Formula,
    NamedConst,
    Not,
    Var,
    and_all,
    conjuncts,
    const_names,
    evaluate,
    fold,
    free_vars,
    length,
    or_all,
)
from .exactlin import Matrix
from .generic import fresh_plane_lines, moment_line, moment_span, pairwise_generic
from .lattice import Subspace, embed, graph_subspace

Mode = Literal["strong", "weak"]
T = TypeVar("T")

_BACKTRACK_VAR_LIMIT = 8


@dataclass
class SatVerdict:
    status: Literal["sat", "unsat", "unknown"]
    witness: Optional[Assignment] = None
    certificate: str = ""


# -- conjunctive forms ---------------------------------------------------------

Literal_ = tuple[str, bool]  # (variable name, positive?)


@dataclass(frozen=True)
class CnfFormula:
    """Clauses of literals; within one clause all variables are distinct."""

    clauses: tuple[tuple[Literal_, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            names = [v for v, _ in clause]
            if len(set(names)) != len(names):
                raise ValueError(f"repeated variable in clause {clause!r}")
            if not clause:
                raise ValueError("empty clause")

    @staticmethod
    def of(clauses: Sequence[Sequence[Literal_]]) -> "CnfFormula":
        return CnfFormula(tuple(tuple(c) for c in clauses))

    def variables(self) -> list[str]:
        seen: set[str] = set()
        for clause in self.clauses:
            seen.update(v for v, _ in clause)
        return sorted(seen)

    def to_formula(self) -> Formula:
        return and_all(
            [or_all([Var(v) if pos else Not(Var(v)) for v, pos in clause]) for clause in self.clauses]
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Standard "p cnf" format; literals are signed 1-based indices, clauses 0-terminated."""
    clauses: list[list[Literal_]] = []
    current: list[Literal_] = []
    declared: Optional[tuple[int, int]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            declared = (int(parts[2]), int(parts[3]))
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if current:
                    clauses.append(current)
                    current = []
            else:
                current.append((f"x{abs(lit)}", lit > 0))
    if current:
        clauses.append(current)
    cnf = CnfFormula.of(clauses)
    if declared is not None and len(clauses) != declared[1]:
        raise ValueError(f"clause count mismatch: header says {declared[1]}, found {len(clauses)}")
    return cnf


def to_dimacs(cnf: CnfFormula) -> str:
    names = cnf.variables()
    index = {v: i + 1 for i, v in enumerate(names)}
    lines = [f"p cnf {len(names)} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(index[v] if pos else -index[v]) for v, pos in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- verification --------------------------------------------------------------


def verify(f: Formula, a: Assignment, mode: Mode) -> bool:
    """Strong: the value is the full space.  Weak: the value is nonzero."""
    value = evaluate(f, a)
    if mode == "strong":
        return value.is_full()
    return not value.is_zero()


def weak_dim_bound(f: Formula) -> int:
    """Dimension within which a weak witness exists if one exists at all:
    (number of variables) * (node count)."""
    return len(free_vars(f)) * length(f)


# -- Boolean / dimension-free decider ------------------------------------------

_BOOLEAN_VAR_CAP = 20


def decide_boolean(f: Formula) -> SatVerdict:
    """Exhaustive Boolean satisfiability; also decides strong satisfiability
    over the dimension-free lattice of co-/finite dimensional subspaces,
    and both modes in ambient dimension 1."""
    if const_names(f):
        raise ValueError("decide_boolean expects a constant-free formula")
    names = sorted(free_vars(f))
    n = len(names)
    if n > _BOOLEAN_VAR_CAP:
        raise ValueError(f"{n} variables exceeds the Boolean cap {_BOOLEAN_VAR_CAP}")
    # The full grid of codes 0 and 1 (Boolean values), one int truth table per
    # code: with nothing to prune, as in a one-conjunct formula, it beats the
    # backtracking engine by orders of magnitude.
    hits = mo.evaluate_grid(f, {v: i for i, v in enumerate(names)}, n, (0, 1)).get(mo.CODE_ONE, 0)
    if not hits:
        return SatVerdict("unsat", None, "boolean: exhaustive over {0,1}^n")
    cell = (hits & -hits).bit_length() - 1  # the first model, names[0] most significant
    bindings = {v: (Subspace.full(1) if (cell >> (n - 1 - i)) & 1 else Subspace.zero(1)) for i, v in enumerate(names)}
    witness = Assignment(1, bindings)
    assert verify(f, witness, "strong")
    return SatVerdict("sat", witness, "boolean: exhaustive over {0,1}^n")


# -- complete plane decider ----------------------------------------------------


def _pool_subspace(code: int, lines: Sequence[Subspace]) -> Subspace:
    if code == 0:
        return Subspace.zero(2)
    if code == 1:
        return Subspace.full(2)
    k, negated = divmod(code - 2, 2)
    line = lines[k]
    return line.complement() if negated else line


def decide_2d(
    f: Formula,
    mode: Mode,
    constants: Optional[dict[str, Subspace]] = None,
    allow_large: bool = False,
) -> SatVerdict:
    """Complete decision over the plane.

    Values over a pairwise generic family of lines land in a finite
    ortholattice, so the complete pool {0, 1, V_1, !V_1, ..., V_n, !V_n}
    is searched on `mo` codes.  Named constants bound to plane subspaces
    become codes too: 0, 1, or a line pair shared by equal and by
    perpendicular constants, and the n fresh lines avoid them.  Only
    exact re-verification of a witness evaluates subspaces.
    """
    consts = const_names(f)
    if consts and (not constants or not consts.issubset(constants)):
        raise ValueError(f"unbound constants: {sorted(consts - set(constants or {}))}")
    bound = {c: constants[c] for c in sorted(consts)} if consts else {}
    env: dict[str, int] = {}
    lines: list[Subspace] = []
    for name, sub in bound.items():
        if sub.ambient != 2:
            raise ValueError(f"constant {name!r} is not a plane subspace")
        if sub.is_zero() or sub.is_full():
            env[name] = mo.CODE_ONE if sub.is_full() else mo.CODE_ZERO
            continue
        perp = sub.complement()
        k = next((k for k, line in enumerate(lines) if line in (sub, perp)), len(lines))
        if k == len(lines):
            lines.append(sub)
        env[name] = mo.atom(k + 1) if lines[k] == sub else mo.co_atom(k + 1)
    names = sorted(free_vars(f))
    n = len(names)
    pool_size = 2 * (len(lines) + n) + 2
    if not bound and n > _BACKTRACK_VAR_LIMIT and not allow_large:
        raise ValueError(f"{n} variables: pass allow_large=True to enumerate {pool_size}**{n} assignments")
    if bound:
        cert = f"2d: complete pool enumeration with constants ({pool_size}^{n} assignments)"
    else:
        cert = f"2d: complete pool enumeration ({pool_size}^{n} assignments)" if n else "2d: closed formula"
    used = len(lines)
    lines += fresh_plane_lines(n, lines)
    digits = _backtrack(f, mode, names, range(pool_size), env, mo.evaluate, mo.CODE_ONE, mo.meet, not_, used=used)
    if digits is None:
        return SatVerdict("unsat", None, cert)
    bindings = dict(bound)
    bindings.update((v, _pool_subspace(code, lines)) for v, code in zip(names, digits))
    witness = Assignment(2, bindings)
    if not verify(f, witness, mode):
        raise AssertionError("2d witness failed exact re-verification")
    return SatVerdict("sat", witness, cert)


def pool_search(
    f: Formula,
    mode: Mode,
    names: list[str],
    pool: Sequence[Subspace],
    base: Assignment,
    limit: Optional[int],
) -> Optional[Assignment]:
    """First assignment (in lexicographic pool order) satisfying f, or None.

    The plane engine run on exact subspaces: every name ranges over the
    whole pool, and `limit` caps the number of full assignments inspected
    (None means exhaustive).
    """
    ambient = base.ambient
    env = dict(base.bindings)

    def value(part: Formula, bindings: dict[str, Subspace]) -> Subspace:
        return evaluate(part, Assignment(ambient, bindings))

    full = Subspace.full(ambient)
    digits = _backtrack(f, mode, names, pool, env, value, full, Subspace.meet, Subspace.is_zero, limit=limit)
    if digits is None:
        return None
    bindings = dict(base.bindings)
    bindings.update((v, pool[i]) for v, i in zip(names, digits))
    return Assignment(ambient, bindings)


def _backtrack(
    f: Formula,
    mode: Mode,
    names: Sequence[str],
    candidates: Sequence[T],
    env: dict[str, T],
    value: Callable[[Formula, dict[str, T]], T],
    one: T,
    meet: Callable[[T, T], T],
    is_zero: Callable[[T], bool],
    used: Optional[int] = None,
    limit: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """The plane search engine: the first tuple of candidate indices, in
    lexicographic order, at which f satisfies the mode, or None.

    `env` holds the fixed bindings and receives each candidate in turn.
    A conjunct of the root meet is checked once its last name is bound,
    through a memo table on the candidate indices of its names; in weak
    mode the running meet of the checked conjuncts must stay nonzero.

    With `used` given, the candidates are `mo` codes and `used` lines are
    already taken by constants.  Permuting the free lines and swapping a
    line with its complement are automorphisms of the code lattice, so a
    name only takes 0, 1, a line in use or its complement, or the next
    free line with positive polarity: one representative per orbit.  That
    representative is the orbit's lexicographic minimum, so the first
    witness is the same as over the whole grid.  `limit` caps the number
    of full assignments inspected.
    """
    strong = mode == "strong"
    order = {v: i for i, v in enumerate(names)}
    ready: list[list[tuple[Formula, Callable, dict]]] = [[] for _ in names]
    acc = one
    for part in conjuncts(f):
        idx = sorted(order[v] for v in free_vars(part) | const_names(part) if v in order)
        if idx:
            ready[idx[-1]].append((part, itemgetter(*idx), {}))
            continue
        val = value(part, env)
        if (val != one) if strong else is_zero(val):
            return None
        acc = meet(acc, val)
    if not strong and is_zero(acc):
        return None
    if not names:
        return ()
    # depth-first on explicit stacks: per depth, the next candidate index,
    # the running meet on entry and the number of lines in use
    digits = [0] * len(names)
    nexts = [0] * len(names)
    accs = [acc] * len(names)
    useds = [used] * len(names)
    last = len(names) - 1
    count = 0
    depth = 0
    while depth >= 0:
        i, depth_used = nexts[depth], useds[depth]
        if i >= (len(candidates) if depth_used is None else min(2 * depth_used + 3, len(candidates))):
            depth -= 1
            continue
        if limit is not None and count >= limit:
            return None
        nexts[depth] = i + 1
        env[names[depth]] = candidates[i]
        digits[depth] = i
        running = accs[depth]
        for part, key, memo in ready[depth]:
            k = key(digits)
            val = memo.get(k)
            if val is None:
                val = memo[k] = value(part, env)
            if (val != one) if strong else is_zero(val):
                break
            if not strong:
                running = meet(running, val)
        else:
            count += depth == last
            if strong or not is_zero(running):
                if depth == last:
                    return tuple(digits)
                depth += 1
                nexts[depth], accs[depth] = 0, running
                useds[depth] = depth_used if depth_used is None or i != 2 * depth_used + 2 else depth_used + 1
    return None


# -- conjunctive-form decider ----------------------------------------------------


def decide_cnf(cnf: CnfFormula, d: int, mode: Mode) -> SatVerdict:
    """Complete polynomial-time decision for conjunctive formulas in F^d.

    Strong mode runs iterated unit-clause propagation; if it survives,
    even dimensions are always satisfiable (pairwise generic blocks) and
    odd dimensions reduce to Boolean 2-SAT on the residual two-literal
    clauses, with a mixed Boolean/moment-block witness.

    Weak mode must not propagate through chains (assigning a unit to 1
    can lose weak witnesses), so it only rejects the two genuinely
    value-free patterns: complementary unit clauses, and a clause all of
    whose literals are directly falsified by unit clauses.  Both rejections
    follow from f <= P ^ !P = 0; everything else gets an explicit witness.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    f = cnf.to_formula()
    if d == 1:
        verdict = decide_boolean(f)
        return SatVerdict(verdict.status, verdict.witness, "cnf: " + verdict.certificate)
    if mode == "strong":
        return _decide_cnf_strong(cnf, f, d)
    return _decide_cnf_weak(cnf, f, d)


def _propagate_units(cnf: CnfFormula) -> tuple[Optional[dict[str, bool]], list[tuple[Literal_, ...]]]:
    """Iterated unit propagation; (None, []) signals a contradiction."""
    known: dict[str, bool] = {}
    clauses = [list(c) for c in cnf.clauses]
    while True:
        changed = False
        remaining: list[list[Literal_]] = []
        for clause in clauses:
            live: list[Literal_] = []
            satisfied = False
            for v, pos in clause:
                if v in known:
                    if known[v] == pos:
                        satisfied = True
                        break
                else:
                    live.append((v, pos))
            if satisfied:
                changed = True
                continue
            if not live:
                return None, []
            if len(live) == 1:
                v, pos = live[0]
                known[v] = pos
                changed = True
                continue
            if len(live) != len(clause):
                changed = True
            remaining.append(live)
        clauses = remaining
        if not changed:
            return known, [tuple(c) for c in clauses]


def _two_sat_assignment(clauses: list[tuple[Literal_, ...]], variables: list[str]) -> Optional[dict[str, bool]]:
    """Boolean 2-SAT via strongly connected components of the implication graph."""
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    # literal id: 2*i for v, 2*i + 1 for !v
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in clauses:
        (v1, p1), (v2, p2) = clause
        a, b = 2 * index[v1] + (0 if p1 else 1), 2 * index[v2] + (0 if p2 else 1)
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)
    comp = _tarjan_scc(adj)
    for i in range(n):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
    # Tarjan numbers components in reverse topological order:
    # a literal is true when its component comes later in topological
    # order, i.e. has the smaller Tarjan index, than its negation's.
    return {v: comp[2 * i] < comp[2 * i + 1] for i, v in enumerate(variables)}


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    index_counter = 0
    comp_counter = 0
    indices = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []

    for root in range(n):
        if indices[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                indices[node] = low[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for j in range(pi, len(adj[node])):
                nxt = adj[node][j]
                if indices[nxt] == -1:
                    work[-1] = (node, j + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], indices[nxt])
            if recurse:
                continue
            if low[node] == indices[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_counter
                    if w == node:
                        break
                comp_counter += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def two_sat_satisfiable(clauses: list[tuple[Literal_, ...]]) -> bool:
    variables = sorted({v for c in clauses for v, _ in c})
    return _two_sat_assignment(clauses, variables) is not None


def _bool_binding(value: bool, d: int) -> Subspace:
    return Subspace.full(d) if value else Subspace.zero(d)


def _decide_cnf_strong(cnf: CnfFormula, f: Formula, d: int) -> SatVerdict:
    known, remaining = _propagate_units(cnf)
    if known is None:
        return SatVerdict("unsat", None, "cnf: unit propagation contradiction")
    rem_vars = sorted({v for c in remaining for v, _ in c})
    bindings: dict[str, Subspace] = {v: _bool_binding(b, d) for v, b in known.items()}
    for v in cnf.variables():
        bindings.setdefault(v, Subspace.zero(d))
    if not remaining:
        witness = Assignment(d, bindings)
        if verify(f, witness, "strong"):
            return SatVerdict("sat", witness, "cnf: satisfied by unit propagation")
        return SatVerdict("unknown", None, "cnf: propagation witness failed verification (bug)")
    if d % 2 == 0:
        blocks = pairwise_generic(d, len(rem_vars)).members
        for v, blk in zip(rem_vars, blocks):
            bindings[v] = blk
        witness = Assignment(d, bindings)
        if verify(f, witness, "strong"):
            return SatVerdict("sat", witness, "cnf: even dimension, pairwise generic blocks")
        return SatVerdict("unknown", None, "cnf: even-d witness failed verification (bug)")
    two_clauses = [c for c in remaining if len(c) == 2]
    assignment = _two_sat_assignment(two_clauses, rem_vars)
    if assignment is None:
        return SatVerdict("unsat", None, "cnf: odd dimension, residual 2-SAT unsatisfiable")
    k = (d - 1) // 2
    for i, v in enumerate(rem_vars):
        block = moment_span(d, [Fraction(i * k + r + 1) for r in range(k)])
        bindings[v] = block.complement() if assignment[v] else block
    witness = Assignment(d, bindings)
    if verify(f, witness, "strong"):
        return SatVerdict("sat", witness, "cnf: odd dimension, mixed Boolean/moment-block witness")
    return SatVerdict("unknown", None, "cnf: odd-d witness failed verification (bug signal)")


def _decide_cnf_weak(cnf: CnfFormula, f: Formula, d: int) -> SatVerdict:
    pos_units = {c[0][0] for c in cnf.clauses if len(c) == 1 and c[0][1]}
    neg_units = {c[0][0] for c in cnf.clauses if len(c) == 1 and not c[0][1]}
    if pos_units & neg_units:
        return SatVerdict("unsat", None, "cnf: complementary unit clauses")
    for clause in cnf.clauses:
        if len(clause) == 1:
            continue
        falsified = all(
            (not pos and v in pos_units) or (pos and v in neg_units) for v, pos in clause
        )
        if falsified:
            return SatVerdict("unsat", None, "cnf: clause directly falsified by unit clauses")
    de = d if d % 2 == 0 else d - 1
    variables = cnf.variables()
    free = [v for v in variables if v not in pos_units and v not in neg_units]
    fam = pairwise_generic(de, len(free) + 1).members
    unit_block = embed(fam[0], d)
    bindings: dict[str, Subspace] = {}
    for v in pos_units:
        bindings[v] = unit_block
    for v in neg_units:
        bindings[v] = unit_block.complement()
    for i, v in enumerate(free):
        bindings[v] = embed(fam[i + 1], d)
    witness = Assignment(d, bindings)
    if verify(f, witness, "weak"):
        return SatVerdict("sat", witness, "cnf: weak witness from a shared generic block")
    return SatVerdict("unknown", None, "cnf: weak witness failed verification (bug signal)")


# -- incomplete structured search ----------------------------------------------


@dataclass
class PoolConfig:
    """Candidate pool for the incomplete search: which building blocks to
    include, how far to close them under complement/join/meet, and how
    many assignments to inspect before giving up."""

    booleans: bool = True
    vandermonde_points: int = 3
    generic_members: int = 2
    graph_slopes: tuple[int, ...] = (-1, 2)
    seeds: tuple[Subspace, ...] = ()
    depth: int = 1
    max_pool: int = 40
    max_assignments: int = 200_000


def build_pool(d: int, cfg: PoolConfig) -> list[Subspace]:
    pool: list[Subspace] = []

    def add(s: Subspace) -> None:
        if len(pool) < cfg.max_pool and s not in pool:
            pool.append(s)

    if cfg.booleans:
        add(Subspace.zero(d))
        add(Subspace.full(d))
    for t in range(cfg.vandermonde_points):
        add(moment_line(d, Fraction(t)))
    if d % 2 == 0 and d >= 2:
        for member in pairwise_generic(d, cfg.generic_members).members:
            add(member)
        half = d // 2
        for slope in cfg.graph_slopes:
            add(graph_subspace(Matrix.identity(half).scale(Scalar(slope))))
    for s in cfg.seeds:
        if s.ambient != d:
            raise ValueError("seed with wrong ambient dimension")
        add(s)
    for _ in range(max(cfg.depth - 1, 0)):
        snapshot = list(pool)
        for s in snapshot:
            add(s.complement())
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1 :]:
                add(a.join(b))
                add(a.meet(b))
    return pool


def search(f: Formula, d: int, mode: Mode, pool: Optional[PoolConfig] = None) -> SatVerdict:
    """Structured incomplete search over a configurable candidate pool.

    Returns Sat with a verified witness, or Unknown; it can never refute.
    """
    cfg = pool or PoolConfig()
    candidates = build_pool(d, cfg)
    names = sorted(free_vars(f) | const_names(f))
    base = Assignment(d, {})
    found = pool_search(f, mode, names, candidates, base, cfg.max_assignments)
    if found is not None:
        assert verify(f, found, mode)
        return SatVerdict("sat", found, f"search: pool of {len(candidates)} candidates")
    return SatVerdict("unknown", None, f"search: exhausted pool of {len(candidates)} candidates")


# -- witness shrinking -----------------------------------------------------------


def shrink_witness(g: Formula, a: Assignment, z: Subspace) -> Assignment:
    """Shrink a weak witness of a negation-free formula.

    Given eval(g, a) >= z with z one-dimensional, returns bindings
    Y_v <= a(v) with dim(Y_v) <= |g| and eval(g, result) >= z: meets pass
    the target line to both sides, joins split it by an exact linear
    solve, and every variable collects the join of its contributions.
    """
    if z.dim != 1:
        raise ValueError("target must be a line")
    d = a.ambient
    zero = Subspace.zero(d)

    def _split_line(t: Subspace, left: Subspace, right: Subspace) -> tuple[Subspace, Subspace]:
        vec = list(t.basis.row(0))
        k, m = left.dim, right.dim
        stacked = left.basis.stack(right.basis).transpose()  # d x (k+m)
        coeffs = stacked.solve(vec)
        if coeffs is None:
            raise AssertionError("target line not inside the join")
        v1 = [Scalar(0)] * d
        for i in range(k):
            if coeffs[i].is_zero():
                continue
            v1 = [x + coeffs[i] * y for x, y in zip(v1, left.basis.row(i))]
        v2 = [x - y for x, y in zip(vec, v1)]
        t1 = zero if all(x.is_zero() for x in v1) else Subspace.from_rows(d, [v1])
        t2 = zero if all(x.is_zero() for x in v2) else Subspace.from_rows(d, [v2])
        return t1, t2

    # one fold gives each distinct node a row (kind, value, operand rows)
    rows: list[tuple[str, Subspace, tuple]] = []

    def row(kind: str, value: Subspace, *operands: object) -> int:
        rows.append((kind, value, operands))
        return len(rows) - 1

    def leaf(x: Formula) -> int:
        if type(x) is NamedConst:
            raise ValueError("shrink_witness does not support named constants")
        return row("var", a.bound(x.name), x.name)

    def neg(_: int) -> int:
        raise ValueError("shrink_witness needs a negation-free formula")

    meet = lambda i, j: row("meet", rows[i][1].meet(rows[j][1]), i, j)  # noqa: E731
    join = lambda i, j: row("join", rows[i][1].join(rows[j][1]), i, j)  # noqa: E731
    root = fold(g, leaf, lambda: row("zero", zero), lambda: row("one", Subspace.full(d)), neg, meet, join)
    if not rows[root][1].contains(z):
        raise ValueError("assignment does not weakly satisfy the formula at the target line")

    # parents come after their children in the fold, so walking the rows
    # backwards hands every occurrence of a node its target line first
    targets: list[list[Subspace]] = [[] for _ in rows]
    targets[root].append(z)
    shrunk: dict[str, Subspace] = {}
    for i in reversed(range(len(rows))):
        kind, _, operands = rows[i]
        for t in targets[i]:
            if t.is_zero():
                continue
            if kind == "var":
                name = operands[0]
                shrunk[name] = shrunk[name].join(t) if name in shrunk else t
            elif kind == "zero":
                raise AssertionError("constant 0 cannot contain a nonzero target")
            elif kind == "meet":
                targets[operands[0]].append(t)
                targets[operands[1]].append(t)
            elif kind == "join":
                left, right = operands
                t1, t2 = _split_line(t, rows[left][1], rows[right][1])
                targets[left].append(t1)
                targets[right].append(t2)

    bindings = {v: shrunk.get(v, zero) for v in free_vars(g)}
    return Assignment(d, bindings)


