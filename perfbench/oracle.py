"""Reference computations the benchmark checks outputs against.

Nothing here calls into grlogic's arithmetic: the linear algebra, the
plane code table, the Boolean brute force and the polynomial evaluator
are written apart from the code they check.  Formulas are read through
their node attributes only (``name``, ``child``, ``left``, ``right``),
with explicit stacks, so arbitrarily deep formulas are fine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# -- Gaussian rationals as (re, im) pairs of Fractions ---------------------------

GZERO = (Fraction(0), Fraction(0))
GONE = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def gconj(a):
    return (a[0], -a[1])


def rows_of(sub) -> list[list[tuple[Fraction, Fraction]]]:
    """Basis rows of a grlogic Subspace as Gaussian-rational pairs."""
    return [[(x.re, x.im) for x in sub.basis.row(i)] for i in range(sub.dim)]


def rref(rows: list[list], ncols: int) -> list[list]:
    """Reduced row echelon form, zero rows dropped."""
    m = [list(r) for r in rows]
    out_rows = 0
    for col in range(ncols):
        pivot = next((r for r in range(out_rows, len(m)) if m[r][col] != GZERO), None)
        if pivot is None:
            continue
        m[out_rows], m[pivot] = m[pivot], m[out_rows]
        p = m[out_rows][col]
        m[out_rows] = [gdiv(x, p) for x in m[out_rows]]
        for r in range(len(m)):
            if r != out_rows and m[r][col] != GZERO:
                c = m[r][col]
                m[r] = [gsub(x, gmul(c, y)) for x, y in zip(m[r], m[out_rows])]
        out_rows += 1
    return m[:out_rows]


def rank(rows: list[list], ncols: int) -> int:
    return len(rref(rows, ncols))


def complement(rows: list[list], d: int) -> list[list]:
    """Basis of {y : sum_i conj(a_i) y_i = 0 for every row a}."""
    red = rref([[gconj(x) for x in r] for r in rows], d)
    pivots = [next(j for j in range(d) if r[j] != GZERO) for r in red]
    basis = []
    for free in (j for j in range(d) if j not in pivots):
        vec = [GZERO] * d
        vec[free] = GONE
        for r, p in zip(red, pivots):
            vec[p] = (-r[free][0], -r[free][1])
        basis.append(vec)
    return rref(basis, d)


def join(a: list[list], b: list[list], d: int) -> list[list]:
    if not a or len(b) == d or a == b:
        return b
    if not b or len(a) == d:
        return a
    return rref(a + b, d)


def meet(a: list[list], b: list[list], d: int) -> list[list]:
    # arguments are in rref, so equal subspaces have equal rows
    if not a or len(b) == d or a == b:
        return a
    if not b or len(a) == d:
        return b
    # the form sum x_i conj(y_i) is anisotropic over Q(i), so A ^ B = !(!A v !B)
    return complement(join(complement(a, d), complement(b, d), d), d)


def contains(big: list[list], small: list[list], d: int) -> bool:
    return rank(big + small, d) == rank(big, d)


def orthogonal(a: list[list], b: list[list]) -> bool:
    for x in a:
        for y in b:
            acc = GZERO
            for u, v in zip(x, y):
                p = gmul(u, gconj(v))
                acc = (acc[0] + p[0], acc[1] + p[1])
            if acc != GZERO:
                return False
    return True


# -- formula walking ---------------------------------------------------------------


def kind(node) -> str:
    return type(node).__name__


def children(node) -> tuple:
    k = kind(node)
    if k == "Not":
        return (node.child,)
    if k in ("And", "Or"):
        return (node.left, node.right)
    return ()


def fold(f, leaf, unary, binary):
    """Post-order fold over a formula with an explicit stack, memoised by node identity.

    A node's value is dropped once every parent has used it, so memory
    follows the live frontier rather than the whole formula.
    """
    uses: dict[int, int] = {id(f): 1}
    stack = [f]
    while stack:
        for c in children(stack.pop()):
            uses[id(c)] = uses.get(id(c), 0) + 1
            if uses[id(c)] == 1:
                stack.append(c)
    memo: dict[int, object] = {}

    def take(node):
        uses[id(node)] -= 1
        return memo[id(node)] if uses[id(node)] else memo.pop(id(node))

    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        pending = [c for c in children(node) if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        k = kind(node)
        if k == "Not":
            memo[id(node)] = unary(take(node.child))
        elif k in ("And", "Or"):
            memo[id(node)] = binary(k, take(node.left), take(node.right))
        else:
            memo[id(node)] = leaf(node)
    return memo[id(f)]


def evaluate_exact(f, bindings: dict, d: int) -> list[list]:
    """Exact value of f over Q(i)^d; bindings map names to basis rows."""
    full = [[GONE if i == j else GZERO for j in range(d)] for i in range(d)]

    def leaf(node):
        k = kind(node)
        if k == "Const0":
            return []
        if k == "Const1":
            return full
        return bindings[node.name]

    def binary(k, a, b):
        return meet(a, b, d) if k == "And" else join(a, b, d)

    return fold(f, leaf, lambda a: complement(a, d), binary)


def satisfied(f, bindings: dict, d: int, mode: str) -> bool:
    """Does f take the full space (strong) or a nonzero value (weak) at these Subspace bindings?"""
    dim = len(evaluate_exact(f, {k: rows_of(s) for k, s in bindings.items()}, d))
    return dim == d if mode == "strong" else dim > 0


def same_formula(f, g) -> bool:
    """Structural equality with an explicit stack (the dataclass == recurses)."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if kind(a) != kind(b) or getattr(a, "name", None) != getattr(b, "name", None):
            return False
        stack.extend(zip(children(a), children(b)))
    return True


def free_names(f) -> set[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if kind(node) in ("Var", "NamedConst"):
            out.add(node.name)
        stack.extend(children(node))
    return out


def conjuncts(f) -> list:
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        if kind(node) == "And":
            stack.extend((node.right, node.left))
        else:
            out.append(node)
    return out


# -- the plane's finite ortholattice, lifted to sets of assignments ----------------
#
# Over a pairwise generic family of n plane lines, values lie in
# {0, 1, V_1, !V_1, ..., V_n, !V_n}, coded 0, 1, 2, 3, ..., 2n, 2n+1, with
#   neg:  0 <-> 1, V_k <-> !V_k
#   meet(x, y) = x if x == y or y == 1;  y if x == 1;  else 0
#   join(x, y) = x if x == y or y == 0;  y if x == 0;  else 1
# A node's value over every assignment of the n variables at once is kept
# as one bitset per code: bit a is set in table[c] when assignment a gives c.


def _digit_mask(pos: int, code: int, base: int, n: int) -> int:
    block = base**pos
    period = block * base
    unit = ((1 << block) - 1) << (code * block)
    count = base ** (n - pos - 1)
    return unit * (((1 << (period * count)) - 1) // ((1 << period) - 1))


def _table_neg(t):
    out = [t[1], t[0]]
    for c in range(2, len(t), 2):
        out += [t[c + 1], t[c]]
    return out


def _table_meet_join(t, u, absorb: int, everything: int):
    """absorb = 1 gives meet (1 is neutral, clash gives 0); absorb = 0 gives join."""
    other = 1 - absorb
    out = [0] * len(t)
    rest = 0
    out[absorb] = t[absorb] & u[absorb]
    rest |= out[absorb]
    for c in range(2, len(t)):
        out[c] = (t[c] & u[c]) | (t[c] & u[absorb]) | (t[absorb] & u[c])
        rest |= out[c]
    out[other] = everything & ~rest
    return out


def plane_unsat(f, mode: str) -> bool:
    """True when no assignment over {0, 1, V_i, !V_i} satisfies f (brute force)."""
    names = sorted(free_names(f))
    n = len(names)
    base = 2 * n + 2
    everything = (1 << (base**n)) - 1
    tables = {v: [_digit_mask(i, c, base, n) for c in range(base)] for i, v in enumerate(names)}

    def leaf(node):
        k = kind(node)
        if k in ("Const0", "Const1"):
            t = [0] * base
            t[0 if k == "Const0" else 1] = everything
            return t
        return tables[node.name]

    def binary(k, a, b):
        return _table_meet_join(a, b, 1 if k == "And" else 0, everything)

    if mode == "strong":
        ok = everything
        for part in conjuncts(f):
            ok &= fold(part, leaf, _table_neg, binary)[1]
            if not ok:
                return True
        return False
    acc = None
    for part in conjuncts(f):
        t = fold(part, leaf, _table_neg, binary)
        acc = t if acc is None else _table_meet_join(acc, t, 1, everything)
        if acc[0] == everything:
            return True
    return acc[0] == everything


# -- Boolean and polynomial references ------------------------------------------------


def bool_models(clauses: list[list[tuple[str, bool]]]):
    """Every satisfying assignment of a CNF, by enumeration of {0,1}^n."""
    names = sorted({v for c in clauses for v, _ in c})
    for bits in itertools.product((False, True), repeat=len(names)):
        a = dict(zip(names, bits))
        if all(any(a[v] == pos for v, pos in c) for c in clauses):
            yield a


def bool_satisfiable(clauses) -> bool:
    return next(bool_models(clauses), None) is not None


def satisfies(clauses, assignment: dict[str, bool]) -> bool:
    return all(any(assignment[v] == pos for v, pos in c) for c in clauses)


def poly_value(poly: dict, point: dict) -> Fraction:
    total = Fraction(0)
    for mon, coeff in poly.items():
        term = Fraction(coeff)
        for name in mon:
            term *= point[name]
        total += term
    return total


def poly_degree(poly: dict) -> int:
    return max((len(m) for m in poly), default=0)
