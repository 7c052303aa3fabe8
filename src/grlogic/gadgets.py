"""Formula constructors with pinned dimensional behaviour.

Each builder returns a plain AST; the interesting ones control how large
the value of the formula can get as the ambient dimension varies, which
is what the dimension-transfer reductions in `reductions` are made of.
"""

from __future__ import annotations

from itertools import combinations

from fractions import Fraction

from .formula import (
    ZERO,
    And,
    Assignment,
    Formula,
    Not,
    Or,
    Var,
    and_all,
    commutator_f,
    const_names,
    eq_f,
    evaluate,
    fold,
    free_vars,
    leaf_negation_form,
    leq_f,
    or_all,
    proj_f,
    rename_vars,
)
from .generic import moment_span
from .lattice import Subspace


def semicommutator_f(x: Formula, y: Formula) -> Formula:
    """(x^y) v (x^!y); x commutes with y iff this equals x."""
    return Or(And(x, y), And(x, Not(y)))


def fresh_rename(f: Formula, taken: set[str]) -> tuple[Formula, dict[str, str]]:
    """Rename f's variables away from `taken`, deterministically."""
    mapping: dict[str, str] = {}
    for v in sorted(free_vars(f)):
        candidate = v
        while candidate in taken:
            candidate = "r_" + candidate
        mapping[v] = candidate
        taken.add(candidate)
    return rename_vars(f, mapping), mapping


def restrict(f: Formula, g: Formula) -> Formula:
    """Relativize f to the interval below g's value.

    f is first brought to leaf-negation form; then every positive leaf X
    becomes X ^ g and every complemented leaf !X becomes !(X ^ g) ^ g.
    g's variables are renamed apart from f's so the two blocks stay
    disjoint.
    """
    taken = set(free_vars(f)) | const_names(f)
    g_renamed, _ = fresh_rename(g, taken)
    # 1 is the top of the interval; a complement's operand is a relativized leaf
    leaf, neg = (lambda x: And(x, g_renamed)), (lambda v: And(Not(v), g_renamed))
    return fold(leaf_negation_form(f), leaf, lambda: ZERO, lambda: g_renamed, neg, And, Or)


def multiple(k: int, f: Formula) -> Formula:
    """k disjoint copies of f joined together; k = 1 returns f unchanged."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return f
    copies = []
    for i in range(1, k + 1):
        mapping = {v: f"{v}_{i}" for v in free_vars(f)}
        copies.append(rename_vars(f, mapping))
    return or_all(copies)


def generic_f(d: int, n: int | None = None) -> Formula:
    """Equal to 1 exactly on generic tuples of n lines spanning F^d.

    With n = d this is the base test: the Y_i join to 1, no Y_i is
    perpendicular to another, and no Y_i meets the join of the rest.
    For n > d it is the conjunction of the base test over all d-element
    subsets, whose size grows binomially in n - d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n is None:
        n = d
    if n < d:
        raise ValueError("need at least d arguments")
    names = [f"Y{i}" for i in range(1, n + 1)]
    if n == d:
        return _generic_base([Var(v) for v in names])
    return and_all([_generic_base([Var(names[i]) for i in idx]) for idx in combinations(range(n), d)])


def _generic_base(ys: list[Formula]) -> Formula:
    d = len(ys)
    parts: list[Formula] = [or_all(list(ys))]
    for i in range(d):
        for j in range(d):
            parts.append(Or(Not(ys[i]), ys[j]))
    for j in range(d):
        rest = or_all([ys[i] for i in range(d) if i != j])
        parts.append(Or(Not(ys[j]), Not(rest)))
    return and_all(parts)


def indicator_f(index_set: frozenset[int] | set[int], n: int) -> Formula:
    """Meet of the Y_i for i in the set and of !Y_i outside it."""
    parts: list[Formula] = []
    for i in range(1, n + 1):
        v: Formula = Var(f"Y{i}")
        parts.append(v if i in index_set else Not(v))
    return and_all(parts)


def psi12() -> Formula:
    """Project X to Z, back to X, then to !Z; value dimension is at most
    min(dim Z, dim !Z), and floor(d/2) is attained."""
    x, z = Var("X"), Var("Z")
    return proj_f(proj_f(proj_f(x, z), x), Not(z))


def psi(k: int, m: int) -> Formula:
    """Value dimension is exactly k * floor(d/m) at its maximum.

    Built as k disjoint copies of the m-fold projection shuttle: X is
    projected to pairwise-disjoint indicator blocks g_I and back,
    cycling through m distinct index sets (the binary encodings of
    0 .. m-1 over ceil(log2 m) bits).
    """
    if k < 1 or m < 1:
        raise ValueError("indices must be positive")
    return multiple(k, _psi1(m))


def _psi1(m: int) -> Formula:
    n = max(1, (m - 1).bit_length()) if m > 1 else 0
    blocks = [indicator_f({b + 1 for b in range(n) if (j >> b) & 1}, n) for j in range(m)]
    x = Var("X")
    acc: Formula = proj_f(x, blocks[0])
    for blk in blocks[1:]:
        acc = proj_f(proj_f(acc, x), blk)
    return acc


def floor_half_f() -> Formula:
    """Three-variable formula whose value dimension tops out at floor(d/2)."""
    p, q, r = Var("P"), Var("Q"), Var("R")
    return And(And(And(Or(p, q), Or(p, r)), Or(Not(q), Not(r))), Not(p))


def dim_eq_f(x: Formula, y: Formula) -> Formula:
    """Equal to 1 only when dim x = dim y (both join conditions hold)."""
    return And(Or(x, Not(y)), Or(y, Not(x)))


def big_psi(d: int) -> Formula:
    """Satisfiable exactly in ambient dimensions that are multiples of d.

    A doubling chain X_1, Y_1, X_2, ..., X_{n+1} forces
    dim X_{i+1} = 2 * dim X_i; for d a power of two the chain alone
    suffices, otherwise auxiliary blocks with a disjointness chain pick
    out the binary expansion of d.  Any satisfying assignment over
    F^(k*d) has dim X_1 = k.  Length is O(log d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return Var("X1")
    n = d.bit_length() - 1
    chain = _doubling_chain(n)
    if d == 1 << n:
        return And(Var(f"X{n + 1}"), chain)
    bits = [i for i in range(n + 1) if (d >> i) & 1]
    parts: list[Formula] = [chain]
    for i in bits:
        parts.append(dim_eq_f(Var(f"Z{i + 1}"), Var(f"X{i + 1}")))
    # disjointness chain: W_1 = 0, W_{t+1} = Z_(t) v W_t with Z_(t) ^ W_t = 0,
    # and the last W forced to 1, so the selected block dims must sum to d*k
    parts.append(Not(Var("W1")))
    for t, i in enumerate(bits, start=1):
        z, w, w_next = Var(f"Z{i + 1}"), Var(f"W{t}"), Var(f"W{t + 1}")
        parts.append(Not(And(z, w)))
        parts.append(eq_f(w_next, Or(z, w)))
    parts.append(Var(f"W{len(bits) + 1}"))
    return and_all(parts)


def _doubling_chain(n: int) -> Formula:
    parts: list[Formula] = []
    for i in range(1, n + 1):
        x, y, nxt = Var(f"X{i}"), Var(f"Y{i}"), Var(f"X{i + 1}")
        join = Or(x, y)
        parts.append(Or(x, Not(y)))
        parts.append(Or(y, Not(x)))
        parts.append(Or(Not(x), Not(y)))
        parts.append(Or(And(nxt, join), And(Not(nxt), Not(join))))
    return and_all(parts)


def ndist_psi(n: int) -> Formula:
    """Weakly satisfiable over F^d exactly when d > n.

    Encodes the failure of the n-fold meet-distribution law
    x ^ (y_1 v ... v y_{n+1}) = v_i (x ^ join of the y_j, j != i):
    the right side always lies below the left, so the formula
    left ^ !right is nonzero somewhere exactly when the law fails,
    which happens exactly in dimensions above n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = Var("X0")
    ys = [Var(f"X{i}") for i in range(1, n + 2)]
    left = And(x, or_all(list(ys)))
    right = or_all([And(x, or_all([ys[j] for j in range(n + 1) if j != i])) for i in range(n + 1)])
    return And(left, Not(right))


def fneq2d() -> Formula:
    """!(C(X,Y) ^ C(X,Z) ^ !X): with (Y, Z) a generic pair of plane lines,
    sends X = 0 to 0 and every other plane subspace to 1."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    return Not(And(And(commutator_f(x, y), commutator_f(x, z)), Not(x)))


def boolean_test_f(d: int) -> Formula:
    """Satisfied exactly by generic line tuples Y with X Boolean (0 or 1)."""
    x = Var("X")
    parts = [generic_f(d)] + [commutator_f(x, Var(f"Y{i}")) for i in range(1, d + 1)]
    return and_all(parts)


def npc_commuting_wrap(f: Formula) -> Formula:
    """Conjoin pairwise commutation of all of f's variables; over the plane
    the result is satisfiable exactly when f is satisfiable over {0, 1}."""
    names = sorted(free_vars(f))
    parts: list[Formula] = [f]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            parts.append(commutator_f(Var(names[i]), Var(names[j])))
    return and_all(parts)


# -- explicit witnesses for the dimension-multiple formula -----------------------


def _diagonal_partner(x: Subspace) -> Subspace:
    """A partner of equal dimension meeting x, !x-wise, trivially: the
    image {b + c} of a basis-to-basis map into the orthogonal complement."""
    comp = x.complement()
    if comp.dim < x.dim:
        raise ValueError("not enough room to double the block")
    rows = []
    for r in range(x.dim):
        rows.append([a + b for a, b in zip(x.basis.row(r), comp.basis.row(r))])
    return Subspace.from_rows(x.ambient, rows)


def big_psi_witness(d: int, ambient: int, first: Subspace | None = None) -> Assignment:
    """A satisfying assignment of big_psi(d) over F^ambient, ambient = k*d.

    The doubling chain starts from `first` (default: the leading
    coordinate block of dimension k); the auxiliary blocks are moment
    spans, nudged until the equal-dimension conditions against the chain
    hold (verified exactly, deterministic retry over parameter offsets).
    """
    k, rem = divmod(ambient, d)
    if rem or k < 1:
        raise ValueError("ambient must be a positive multiple of d")
    if d == 1:
        return Assignment(ambient, {"X1": Subspace.full(ambient)})
    n = d.bit_length() - 1
    if first is None:
        rows = [[1 if c == r else 0 for c in range(ambient)] for r in range(k)]
        first = Subspace.from_rows(ambient, rows)
    if first.ambient != ambient or first.dim != k:
        raise ValueError(f"first block must be {k}-dimensional in F^{ambient}")
    bindings: dict[str, Subspace] = {"X1": first}
    chain = [first]
    current = first
    for i in range(1, n + 1):
        partner = _diagonal_partner(current)
        bindings[f"Y{i}"] = partner
        current = current.join(partner)
        bindings[f"X{i + 1}"] = current
        chain.append(current)
    formula = big_psi(d)
    if d == 1 << n:
        assignment = Assignment(ambient, bindings)
        if not evaluate(formula, assignment).is_full():
            raise AssertionError("doubling-chain witness failed verification")
        return assignment
    bits = [i for i in range(n + 1) if (d >> i) & 1]
    for offset in range(24):
        trial = dict(bindings)
        t = Fraction(1 + offset)
        ok = True
        running = Subspace.zero(ambient)
        for idx, i in enumerate(bits, start=1):
            size = (1 << i) * k
            params = [t + j for j in range(size)]
            t += size
            z = moment_span(ambient, params)
            x = chain[i]
            if not (z.complement().meet(x).is_zero() and x.complement().meet(z).is_zero()):
                ok = False
                break
            if not z.meet(running).is_zero():
                ok = False
                break
            trial[f"Z{i + 1}"] = z
            trial[f"W{idx}"] = running
            running = running.join(z)
        if not ok or not running.is_full():
            continue
        trial[f"W{len(bits) + 1}"] = running
        assignment = Assignment(ambient, trial)
        if evaluate(formula, assignment).is_full():
            return assignment
    raise AssertionError("no block placement passed verification")
