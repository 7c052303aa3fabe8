"""Ring arithmetic inside the subspace lattice of F^(3d).

A d x d matrix T embeds as the subspace {(0, x, -T x)} of F^(3d),
relative to a normalized orthogonal 3-frame: three pairwise orthogonal
d-dimensional blocks W0, W1, W2 spanning everything, plus two
perspectivity axes V0 (between W0 and W1) and V1 (between W1 and W2).
Multiplication, subtraction and adjoint of encoded matrices are computed
purely by meets, joins and complements of the arguments and the frame
members, so polynomial feasibility over d x d matrices compiles to
(strong) satisfiability of a lattice formula over F^(3d).

The term-level identities used here are proved for the coordinate frame
produced by `standard_frame`; the evaluators therefore refuse other
frames, while the compiled formula quantifies over the frame variables.

Against that frame, encodings are read straight off canonical bases: x
lies in the strip W0 v W1, meets ~W0 trivially and joins with it to
everything exactly when its rref basis has d rows, a zero first block
and the identity as middle block, i.e. the rows (0 | e_r | -T e_r).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Optional, Union

from .exactlin import ONE, ZERO, Matrix, Scalar
from .formula import And, Assignment, Formula, Not, Or, Var, and_all, evaluate
from .gadgets import eq_f, leq_f
from .lattice import Subspace

FRAME_NAMES = ("W0", "W1", "W2", "V0", "V1")


@dataclass(frozen=True)
class Frame3:
    w0: Subspace
    w1: Subspace
    w2: Subspace
    v0: Subspace
    v1: Subspace
    block: int

    @property
    def ambient(self) -> int:
        return 3 * self.block

    def members(self) -> dict[str, Subspace]:
        return {"W0": self.w0, "W1": self.w1, "W2": self.w2, "V0": self.v0, "V1": self.v1}


@cache
def standard_frame(d: int) -> Frame3:
    """The coordinate frame: W0, W1, W2 are the middle, last and first
    blocks of F^(3d); V0 and V1 the corresponding diagonal axes.  Built
    once per block size; callers share the returned frame."""
    if d < 1:
        raise ValueError("block size must be positive")
    z = [Scalar(0)] * d

    def block_rows(position: int) -> list[list[Scalar]]:
        rows = []
        for r in range(d):
            e = [Scalar(1) if c == r else Scalar(0) for c in range(d)]
            parts = [list(z), list(z), list(z)]
            parts[position] = e
            rows.append(parts[0] + parts[1] + parts[2])
        return rows

    def diag_rows(pos_a: int, pos_b: int, sign: int) -> list[list[Scalar]]:
        rows = []
        for r in range(d):
            e = [Scalar(1) if c == r else Scalar(0) for c in range(d)]
            ne = [Scalar(sign) if c == r else Scalar(0) for c in range(d)]
            parts = [list(z), list(z), list(z)]
            parts[pos_a] = e
            parts[pos_b] = ne
            rows.append(parts[0] + parts[1] + parts[2])
        return rows

    dd = 3 * d
    w0 = Subspace.from_rows(dd, block_rows(1))
    w1 = Subspace.from_rows(dd, block_rows(2))
    w2 = Subspace.from_rows(dd, block_rows(0))
    v0 = Subspace.from_rows(dd, diag_rows(1, 2, -1))  # {(0, x, -x)}
    v1 = Subspace.from_rows(dd, diag_rows(0, 2, -1))  # {(-x, 0, x)} up to sign
    return Frame3(w0, w1, w2, v0, v1, d)


def is_frame(fr: Frame3) -> bool:
    """Exact check of the normalized-frame conditions: equal block
    dimensions, pairwise orthogonal W's spanning everything, and V0, V1
    common complements in the spans of their block pairs."""
    d = fr.block
    ws = (fr.w0, fr.w1, fr.w2)
    if any(s.ambient != 3 * d for s in (*ws, fr.v0, fr.v1)):
        return False
    if any(s.dim != d for s in (*ws, fr.v0, fr.v1)):
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            if not ws[i].complement().contains(ws[j]):
                return False
    if not ws[0].join(ws[1]).join(ws[2]).is_full():
        return False
    pair01 = fr.w0.join(fr.w1)
    if not (fr.w0.meet(fr.v0).is_zero() and fr.w1.meet(fr.v0).is_zero()):
        return False
    if fr.w0.join(fr.v0) != pair01 or fr.w1.join(fr.v0) != pair01:
        return False
    pair12 = fr.w1.join(fr.w2)
    if not (fr.w1.meet(fr.v1).is_zero() and fr.w2.meet(fr.v1).is_zero()):
        return False
    if fr.w1.join(fr.v1) != pair12 or fr.w2.join(fr.v1) != pair12:
        return False
    return True


def _require_standard(fr: Frame3) -> None:
    std = standard_frame(fr.block)
    if fr is not std and fr != std:
        raise ValueError(
            "the arithmetic evaluators are proved for the coordinate frame only; "
            "build frames with standard_frame"
        )


# -- the lattice terms -----------------------------------------------------------
#
# Over the frame variables, X2ID below is the diagonal axis between W2
# and W0; the three arithmetic terms transport their arguments between
# coordinate strips so that inputs and output are all encoded the same way.


def _x2id() -> Formula:
    return And(Or(Var("V0"), Var("V1")), Not(Var("W1")))


def mul_term(a: Formula, b: Formula) -> Formula:
    """Encoding of (value of a) * (value of b)."""
    # transport a into the X1 strip, in two hops
    a2 = And(Or(a, Var("V1")), Not(Var("W1")))
    a1 = And(Or(a2, Var("V0")), Not(Var("W0")))
    prod2 = And(Or(b, a1), Not(Var("W1")))
    return And(Or(Var("V1"), prod2), Not(Var("W2")))


def _sub_core(a: Formula, b_upper1: Formula) -> Formula:
    inner = And(Or(a, b_upper1), Or(_x2id(), Var("W1")))
    return And(Or(inner, Var("W2")), Not(Var("W2")))


def _to_upper1(b: Formula) -> Formula:
    # X^1-strip version of an encoded value
    return And(Or(_x2id(), b), Not(Var("W0")))


def sub_term(a: Formula, b: Formula) -> Formula:
    """Encoding of (value of a) - (value of b)."""
    return _sub_core(a, _to_upper1(b))


def add_term(a: Formula, b: Formula) -> Formula:
    return sub_term(a, sub_term(Var("W0"), b))


def adjoint_term(a: Formula) -> Formula:
    """Encoding of the conjugate transpose of the value of a."""
    neg_adj_lower = And(Not(a), Not(Var("W2")))  # X^0 strip, value -a^adj
    neg_adj_2 = And(Or(neg_adj_lower, Var("V1")), Not(Var("W1")))
    neg_adj_upper1 = And(Or(neg_adj_2, Var("V0")), Not(Var("W0")))
    return _sub_core(Var("W0"), neg_adj_upper1)


def int_term(k: int) -> Formula:
    """Encoding of the integer k via double-and-add from 0 and 1."""
    if k == 0:
        return Var("W0")
    if k < 0:
        return sub_term(Var("W0"), int_term(-k))
    acc: Optional[Formula] = None
    for bit in bin(k)[2:]:
        if acc is not None:
            acc = add_term(acc, acc)
        if bit == "1":
            acc = Var("V0") if acc is None else add_term(acc, Var("V0"))
    assert acc is not None
    return acc


# -- encode / decode -------------------------------------------------------------


def encode(t: Matrix, fr: Frame3) -> Subspace:
    """The subspace {(0, x, -T x)} carrying the matrix T; its rows
    (0 | e_r | -T e_r) are already its canonical basis."""
    _require_standard(fr)
    d = fr.block
    if t.rows != d or t.cols != d:
        raise ValueError(f"need a {d}x{d} matrix")
    entries: list[Scalar] = []
    for r in range(d):
        entries += [ZERO] * d
        entries += [ONE if c == r else ZERO for c in range(d)]
        entries += [-t.entry(i, r) for i in range(d)]
    return Subspace(3 * d, Matrix(d, 3 * d, entries), _canonical=True)


def encode_scalar(x: Union[int, Fraction, Scalar], fr: Frame3) -> Subspace:
    return encode(Matrix(1, 1, [Scalar.coerce(x)]), fr)


def decode(x: Subspace, fr: Frame3) -> Optional[Matrix]:
    """Invert `encode`; None when the side conditions fail.

    The conditions are: x lies in the strip W0 v W1, meets the
    complement of W0 trivially, and joins with it to everything.  They
    hold exactly when the canonical basis of x is d rows (0 | e_r | y_r):
    the strip zeroes the first block, and the other two make projecting
    x onto the middle block a bijection, whose rref is the identity.
    Then T e_r = -y_r.
    """
    _require_standard(fr)
    d = fr.block
    if x.ambient != 3 * d:
        raise ValueError("ambient mismatch")
    if x.dim != d:
        return None
    rows = [x.basis.row(r) for r in range(d)]
    for r, row in enumerate(rows):
        if any(row[:d]) or any(row[d + c] != (ONE if c == r else ZERO) for c in range(d)):
            return None
    return Matrix(d, d, [-rows[r][2 * d + i] for i in range(d) for r in range(d)])


def _eval_term(term: Formula, fr: Frame3, args: dict[str, Subspace]) -> Subspace:
    """Value of term with the frame members and args bound."""
    return evaluate(term, Assignment(fr.ambient, {**fr.members(), **args}))


def mul(xt: Subspace, xs: Subspace, fr: Frame3) -> Subspace:
    """Encoded product: decode(mul(encode a, encode b)) = a @ b."""
    _require_standard(fr)
    _require_encoded(xt, fr)
    _require_encoded(xs, fr)
    return _eval_term(mul_term(Var("A"), Var("B")), fr, {"A": xt, "B": xs})


def sub(xt: Subspace, xs: Subspace, fr: Frame3) -> Subspace:
    """Encoded difference: decode(sub(encode a, encode b)) = a - b."""
    _require_standard(fr)
    _require_encoded(xt, fr)
    _require_encoded(xs, fr)
    return _eval_term(sub_term(Var("A"), Var("B")), fr, {"A": xt, "B": xs})


def adjoint(xt: Subspace, fr: Frame3) -> Subspace:
    """Encoded conjugate transpose."""
    _require_standard(fr)
    _require_encoded(xt, fr)
    return _eval_term(adjoint_term(Var("A")), fr, {"A": xt})


def _require_encoded(x: Subspace, fr: Frame3) -> None:
    if decode(x, fr) is None:
        raise ValueError("argument is not in the image of encode")


# -- polynomials over the encoded ring ---------------------------------------------


@dataclass(frozen=True)
class PolyNode:
    kind: str  # "var" | "adj" | "int" | "add" | "sub" | "mul" | "neg"
    value: Union[int, str, None] = None
    left: Optional["PolyNode"] = None
    right: Optional["PolyNode"] = None


class PolyParseError(ValueError):
    pass


_TOKEN = _re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*()]))")


def parse_poly(text: str) -> PolyNode:
    """Grammar: terms over identifiers, "+", "-", "*", integer literals
    and adj(ident); whitespace insignificant."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolyParseError(f"bad token at {pos}: {text[pos:pos + 8]!r}")
            break
        if m.group("int"):
            tokens.append(("int", m.group("int")))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return _parse_tokens(tokens)


_PREC = {"+": 1, "-": 1, "*": 2}
_BINARY_KIND = {"+": "add", "-": "sub", "*": "mul"}


def _parse_tokens(toks: list[tuple[str, str]]) -> PolyNode:
    """Operator precedence on explicit stacks: "*" binds tighter than "+"
    and "-", both left-associative; a unary "-" applies to one factor."""
    operands: list[PolyNode] = []
    ops: list[str] = []  # "(", "neg" or a binary operator

    def reduce_top() -> None:
        op = ops.pop()
        if op == "neg":
            operands.append(PolyNode("neg", None, operands.pop()))
        else:
            rhs = operands.pop()
            operands.append(PolyNode(_BINARY_KIND[op], None, operands.pop(), rhs))

    def reduce_negations() -> None:
        while ops and ops[-1] == "neg":
            reduce_top()

    i = 0
    while True:
        # a factor is expected
        if i >= len(toks):
            raise PolyParseError("unexpected end of polynomial")
        kind, val = toks[i]
        if (kind, val) in (("op", "-"), ("op", "(")):
            ops.append("neg" if val == "-" else "(")
            i += 1
            continue
        if kind == "int":
            operands.append(PolyNode("int", int(val)))
            i += 1
        elif kind == "ident" and val == "adj":
            if i + 3 < len(toks) and toks[i + 1] == ("op", "(") and toks[i + 2][0] == "ident" and toks[i + 3] == ("op", ")"):
                operands.append(PolyNode("adj", toks[i + 2][1]))
                i += 4
            else:
                raise PolyParseError("adj( ident ) expected")
        elif kind == "ident":
            operands.append(PolyNode("var", val))
            i += 1
        else:
            raise PolyParseError(f"unexpected token {toks[i]!r}")
        reduce_negations()
        # a binary operator, a closing parenthesis or the end is expected
        while True:
            tok = toks[i] if i < len(toks) else None
            if tok is not None and tok[0] == "op" and tok[1] in _BINARY_KIND:
                while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[tok[1]]:
                    reduce_top()
                ops.append(tok[1])
                i += 1
                break
            while ops and ops[-1] != "(":
                reduce_top()
            if not ops:
                if i != len(toks):
                    raise PolyParseError("trailing input in polynomial")
                return operands.pop()
            if tok != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
            ops.pop()
            i += 1
            reduce_negations()


def poly_variables(p: PolyNode) -> list[str]:
    out: set[str] = set()
    stack = [p]
    while stack:
        n = stack.pop()
        if n.kind in ("var", "adj"):
            out.add(n.value)  # type: ignore[arg-type]
        stack.extend(c for c in (n.left, n.right) if c is not None)
    return sorted(out)


def _formula_var(name: str) -> str:
    return f"X_{name}"


_TERM_OF = {"add": add_term, "sub": sub_term, "mul": mul_term}


def poly_term(p: PolyNode) -> Formula:
    """The term of a polynomial tree, built bottom-up on an explicit stack."""
    done: list[Formula] = []
    stack: list[tuple[PolyNode, bool]] = [(p, False)]
    while stack:
        n, children_done = stack.pop()
        if n.left is not None and not children_done:
            stack.append((n, True))
            stack.extend((c, False) for c in (n.right, n.left) if c is not None)
        elif n.kind == "int":
            done.append(int_term(n.value))  # type: ignore[arg-type]
        elif n.kind == "var":
            done.append(Var(_formula_var(n.value)))  # type: ignore[arg-type]
        elif n.kind == "adj":
            done.append(adjoint_term(Var(_formula_var(n.value))))  # type: ignore[arg-type]
        elif n.kind == "neg":
            done.append(sub_term(Var("W0"), done.pop()))
        elif n.kind in _TERM_OF:
            rhs = done.pop()
            done.append(_TERM_OF[n.kind](done.pop(), rhs))
        else:
            raise AssertionError(n.kind)
    return done.pop()


def frame_conditions() -> Formula:
    """Normalized-frame constraints over the variables W0, W1, W2, V0, V1."""
    w0, w1, w2, v0, v1 = (Var(n) for n in FRAME_NAMES)
    parts: list[Formula] = [
        leq_f(w1, Not(w0)),
        leq_f(w2, Not(w0)),
        leq_f(w2, Not(w1)),
        Or(Or(w0, w1), w2),
        Not(And(w0, v0)),
        Not(And(w1, v0)),
        eq_f(Or(w0, v0), Or(w0, w1)),
        eq_f(Or(w1, v0), Or(w0, w1)),
        Not(And(w1, v1)),
        Not(And(w2, v1)),
        eq_f(Or(w1, v1), Or(w1, w2)),
        eq_f(Or(w2, v1), Or(w1, w2)),
    ]
    return and_all(parts)


def encodability_conditions(var: str) -> Formula:
    x = Var(var)
    w0 = Var("W0")
    return and_all(
        [
            leq_f(x, Or(w0, Var("W1"))),
            Not(And(x, Not(w0))),
            Or(x, Not(w0)),
        ]
    )


def poly_to_formula(p: Union[str, PolyNode]) -> Formula:
    """Compile a polynomial with integer coefficients into a formula over
    the variables X_<name> plus the frame variables, strongly satisfiable
    over Gr(F^(3d)) exactly when the polynomial has a d x d matrix root."""
    node = parse_poly(p) if isinstance(p, str) else p
    parts: list[Formula] = [frame_conditions()]
    for v in poly_variables(node):
        parts.append(encodability_conditions(_formula_var(v)))
    parts.append(eq_f(poly_term(node), Var("W0")))
    return and_all(parts)


def assemble_poly_witness(
    p: Union[str, PolyNode], values: dict[str, Matrix], d: int
) -> Assignment:
    """Standard frame plus encodings of the given root values."""
    node = parse_poly(p) if isinstance(p, str) else p
    fr = standard_frame(d)
    bindings: dict[str, Subspace] = dict(fr.members())
    for v in poly_variables(node):
        if v not in values:
            raise ValueError(f"missing value for polynomial variable {v!r}")
        bindings[_formula_var(v)] = encode(values[v], fr)
    return Assignment(3 * d, bindings)
