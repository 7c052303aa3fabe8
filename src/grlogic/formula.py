"""Formula ASTs for the subspace logic: parsing, printing, evaluation.

The connectives are complement (!), meet (&) and join (|), with the
constants 0 and 1.  The concrete grammar (whitespace insignificant):

    formula = or ;
    or      = and , { "|" , and } ;
    and     = unary , { "&" , unary } ;
    unary   = "!" , unary | atom ;
    atom    = "0" | "1" | IDENT | "(" formula ")" | macro ;
    macro   = ( "C" | "proj" | "eq" | "leq" ) "(" formula "," formula ")" ;
    IDENT   = letter , { letter | digit | "_" } ;

Macros desugar at parse time; printing re-sugars only C for readability,
so parse(format_formula(f)) is f for every formula f.  Nodes are
hash-consed, and every traversal runs on an explicit stack (`fold` for
the connective algebras), so formulas of any depth work.

Evaluation follows the relative reading of complement: within an
interval [0, Z] the complement of X is Z ^ !X, with Z defaulting to the
full space.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Optional, TypeVar, Union

from .lattice import Subspace

# -- hash-consed nodes ---------------------------------------------------------

_interned: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref) -> None:
    # by the time a dead node's callback runs, a new node may own the key
    if _interned.get(key) is ref:
        del _interned[key]


class _Node:
    """Base of the node classes.  Nodes are immutable and hash-consed: building
    a node equal in class and fields to a live one returns that one, so equal
    formulas are one object and `==`/`hash` are identity, O(1) at any depth.
    A node leaves the intern table when its last reference goes."""

    __slots__ = ("_program", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
        key = (cls, *args)
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_program", None)
            _interned[key] = weakref.ref(node, partial(_forget, key))
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{format_formula(self)}>"


class Var(_Node):
    __slots__ = _fields = ("name",)


class NamedConst(_Node):
    __slots__ = _fields = ("name",)


class Const0(_Node):
    __slots__ = ()


class Const1(_Node):
    __slots__ = ()


class Not(_Node):
    __slots__ = _fields = ("child",)


class And(_Node):
    __slots__ = _fields = ("left", "right")


class Or(_Node):
    __slots__ = _fields = ("left", "right")


Formula = Union[Var, NamedConst, Const0, Const1, Not, And, Or]
Forms = tuple[Formula, Formula]  # a node's positive and complemented form

ZERO = Const0()
ONE = Const1()


def and_all(parts: list[Formula]) -> Formula:
    """Left-associated conjunction; empty input gives the constant 1."""
    if not parts:
        return ONE
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def or_all(parts: list[Formula]) -> Formula:
    """Left-associated disjunction; empty input gives the constant 0."""
    if not parts:
        return ZERO
    acc = parts[0]
    for p in parts[1:]:
        acc = Or(acc, p)
    return acc


# The grammar's macros, each defined once; `gadgets` re-exports them.


def commutator_f(x: Formula, y: Formula) -> Formula:
    """C(x, y) = (x^y) v (x^!y) v (!x^y) v (!x^!y); equal to 1 exactly when x, y commute."""
    nx, ny = Not(x), Not(y)
    return Or(Or(Or(And(x, y), And(x, ny)), And(nx, y)), And(nx, ny))


def eq_f(x: Formula, y: Formula) -> Formula:
    """eq(x, y) = (x^y) v (!x^!y); equal to 1 exactly when x = y."""
    return Or(And(x, y), And(Not(x), Not(y)))


def leq_f(x: Formula, y: Formula) -> Formula:
    """leq(x, y) = eq(x, x^y); equal to 1 exactly when x <= y."""
    return eq_f(x, And(x, y))


def proj_f(x: Formula, z: Formula) -> Formula:
    """proj(x, z) = z ^ (x v !z), the projection of x onto z."""
    return And(z, Or(x, Not(z)))


# -- the fold ------------------------------------------------------------------

_LEAF, _ZERO, _ONE, _NEG, _MEET, _JOIN = range(6)
_CODE = {Var: _LEAF, NamedConst: _LEAF, Const0: _ZERO, Const1: _ONE, Not: _NEG, And: _MEET, Or: _JOIN}


def _children(node: Formula) -> tuple:
    code = _CODE[type(node)]
    return (node.child,) if code == _NEG else (node.left, node.right) if code > _NEG else ()


def _compile(f: Formula) -> tuple[list[Formula], list[tuple], int]:
    """(the distinct nodes below f in post-order, the fold's steps, register count).

    Step (code, dst, a, b) writes register dst from registers a and b (a is
    the node itself for a leaf).  A register is reused once its value is read
    for the last time, so a fold holds only values still waiting for a parent.
    The result is cached on f, and f is left out of the node list so the
    cache forms no cycle."""
    index: dict[Formula, int] = {}
    nodes: list[Formula] = []
    operands: list[tuple[int, ...]] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if node in index:
            continue
        pending = [k for k in _children(node) if k not in index]
        if pending:
            stack.append(node)
            stack.extend(reversed(pending))
            continue
        index[node] = len(nodes)
        nodes.append(node)
        operands.append(tuple(index[k] for k in _children(node)))
    last_read = list(range(len(nodes)))
    for i, ops in enumerate(operands):
        for k in ops:
            last_read[k] = i
    register = [0] * len(nodes)
    free: list[int] = []
    registers = 0
    steps = []
    for i, (node, ops) in enumerate(zip(nodes, operands)):
        a, b = (register[ops[0]], register[ops[-1]]) if ops else (node, None)
        free.extend(register[k] for k in set(ops) if last_read[k] == i)
        if not free:
            free.append(registers)
            registers += 1
        register[i] = free.pop()
        steps.append((_CODE[type(node)], register[i], a, b))
    program = (nodes[:-1], steps, registers)
    if operands[-1]:  # a leaf root's own step refers to it
        object.__setattr__(f, "_program", program)
    return program


T = TypeVar("T")


def fold(
    f: Formula,
    leaf: Callable[[Formula], T],
    zero: Callable[[], T],
    one: Callable[[], T],
    neg: Callable[[T], T],
    meet: Callable[[T, T], T],
    join: Callable[[T, T], T],
) -> T:
    """Post-order fold over the distinct nodes of f, with an explicit stack.

    Each distinct node is visited once, children before parents and left
    before right; `leaf` gets the Var or NamedConst node itself.  The
    traversal is compiled once per root and cached on it.
    """
    _, steps, registers = f._program or _compile(f)
    regs: list = [None] * registers
    for code, dst, a, b in steps:
        if code == _MEET:
            regs[dst] = meet(regs[a], regs[b])
        elif code == _JOIN:
            regs[dst] = join(regs[a], regs[b])
        elif code == _NEG:
            regs[dst] = neg(regs[a])
        elif code == _LEAF:
            regs[dst] = leaf(a)
        elif code == _ZERO:
            regs[dst] = zero()
        else:
            regs[dst] = one()
    return regs[dst]


def iter_nodes(f: Formula) -> list[Formula]:
    """The distinct nodes of f in fold order: children before parents, f last."""
    return [*(f._program or _compile(f))[0], f]


def length(f: Formula) -> int:
    """Node count of the tree, leaves included: a shared subterm counts at each occurrence."""
    return fold(f, lambda x: 1, lambda: 1, lambda: 1, lambda a: a + 1, lambda a, b: a + b + 1, lambda a, b: a + b + 1)


def free_vars(f: Formula) -> set[str]:
    return {n.name for n in iter_nodes(f) if type(n) is Var}


def const_names(f: Formula) -> set[str]:
    return {n.name for n in iter_nodes(f) if type(n) is NamedConst}


def conjuncts(f: Formula) -> list[Formula]:
    """The operands of f's top-level chain of meets, left to right ([f] when f is no meet)."""
    nodes = iter(iter_nodes(f))  # the fold meets them in this order

    def node(*_: object) -> Formula:
        return next(nodes)

    def meet(a: object, b: object) -> tuple:
        next(nodes)
        return a, b

    out, stack = [], [fold(f, node, node, node, node, meet, node)]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack += (item[1], item[0])
        else:
            out.append(item)
    return out


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace Var leaves by formulas; NamedConst leaves are untouched."""

    def leaf(x: Formula) -> Formula:
        return mapping.get(x.name, x) if type(x) is Var else x

    return fold(f, leaf, lambda: ZERO, lambda: ONE, Not, And, Or)


def rename_vars(f: Formula, mapping: Mapping[str, str]) -> Formula:
    return substitute(f, {old: Var(new) for old, new in mapping.items()})


# -- assignment and evaluation -------------------------------------------------


@dataclass
class Assignment:
    """Ambient dimension plus bindings for variable and constant names."""

    ambient: int
    bindings: dict[str, Subspace]

    def __post_init__(self) -> None:
        for name, sub in self.bindings.items():
            if sub.ambient != self.ambient:
                raise ValueError(f"binding {name!r} has ambient {sub.ambient}, expected {self.ambient}")

    def bound(self, name: str) -> Subspace:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundNameError(f"unbound name {name!r}") from None


class UnboundNameError(KeyError):
    pass


def evaluate(f: Formula, a: Assignment, z: Optional[Subspace] = None) -> Subspace:
    """Value of f under a, within the interval [0, z] (z defaults to full).

    Complement is taken relative to z: value(!g) = z ^ !value(g).
    With z given, every binding must lie below z.
    """
    if z is None:
        z = Subspace.full(a.ambient)
    else:
        if z.ambient != a.ambient:
            raise ValueError("interval ambient mismatch")
        for name, sub in a.bindings.items():
            if not z.contains(sub):
                raise ValueError(f"binding {name!r} is not contained in the evaluation interval")
    zero = Subspace.zero(a.ambient)
    leaf, neg = (lambda x: a.bound(x.name)), (lambda v: z.meet(v.complement()))
    return fold(f, leaf, lambda: zero, lambda: z, neg, Subspace.meet, Subspace.join)


# -- negation normal forms -----------------------------------------------------

NNF_SUFFIX = "_c"


def primed_name(name: str, taken: set[str]) -> str:
    candidate = name + NNF_SUFFIX
    while candidate in taken:
        candidate += NNF_SUFFIX
    return candidate


def nnf(f: Formula) -> Formula:
    """Negation-free equivalent over doubled variables.

    Every complemented variable occurrence !X becomes a fresh positive
    variable (X with the `_c` suffix, extended past collisions); binding
    the fresh variable to the complement of X recovers the value of f on
    every assignment.  The result never exceeds the input's node count.
    """
    g, _ = nnf_with_map(f)
    return g


def nnf_with_map(f: Formula) -> tuple[Formula, dict[str, str]]:
    """nnf(f) plus the map from each complemented name to its fresh partner."""
    taken = free_vars(f) | const_names(f)
    mapping: dict[str, str] = {}

    def fresh(x: Formula) -> Formula:
        if x.name not in mapping:
            mapping[x.name] = primed_name(x.name, taken)
            taken.add(mapping[x.name])
        return Var(mapping[x.name])

    g = polarity_forms(f, fresh, lambda x, y: And(x[0], y[0]))[0]
    used = free_vars(g)
    return g, {name: primed for name, primed in mapping.items() if primed in used}


def leaf_negation_form(f: Formula) -> Formula:
    """Push complements down to the leaves (complemented literals stay)."""
    return polarity_forms(f, Not, lambda x, y: And(x[0], y[0]))[0]


def polarity_forms(
    f: Formula, negate_leaf: Callable[[Formula], Formula], conj: Callable[[Forms, Forms], Formula]
) -> Forms:
    """The positive and the complemented form of f, complements pushed to the leaves.

    One fold gives every node both forms, so !!g collapses to g (valid in
    every ortholattice).  `negate_leaf` gives a leaf's complemented form;
    `conj` builds a meet from the (positive, complemented) pairs of its
    operands, as And or, by de Morgan, as a complemented join.
    """

    def meet(x: Forms, y: Forms) -> Forms:
        return conj(x, y), Or(x[1], y[1])

    def join(x: Forms, y: Forms) -> Forms:
        return Or(x[0], y[0]), conj((x[1], x[0]), (y[1], y[0]))

    return fold(
        f, lambda x: (x, negate_leaf(x)), lambda: (ZERO, ONE), lambda: (ONE, ZERO), lambda x: (x[1], x[0]), meet, join
    )


# -- parsing -------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MACROS = {"C": commutator_f, "proj": proj_f, "eq": eq_f, "leq": leq_f}


class _Parser:
    def __init__(self, text: str, constants: frozenset[str]):
        self.text = text
        self.pos = 0
        self.constants = constants

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not self.text[self.pos].isalpha():
            raise ParseError("expected identifier", self.pos)
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]

    def parse(self) -> Formula:
        # Recursive descent with the recursion on an explicit stack: each open "(" or
        # macro argument list is a frame [closer, complements to apply, disjunction so
        # far, conjunction so far, first macro argument]; the closer is None at the top
        # level, ")" for a parenthesis, or the macro's name.
        frames: list[list] = []
        frame: list = [None, 0, None, None, None]
        while True:
            nots = 0
            while self.peek() == "!":
                self.pos += 1
                nots += 1
            ch = self.peek()
            if ch in ("0", "1"):
                self.pos += 1
                value = ZERO if ch == "0" else ONE
            else:
                closer = ")" if ch == "(" else self.ident()
                if closer == ")" or (closer in _MACROS and self.peek() == "("):
                    self.pos += 1  # past the opening "("
                    frames.append(frame)
                    frame = [closer, nots, None, None, None]
                    continue
                value = NamedConst(closer) if closer in self.constants else Var(closer)
            # a complete unary: extend the open levels until an operator continues one
            while True:
                for _ in range(nots):
                    value = Not(value)
                frame[3] = value if frame[3] is None else And(frame[3], value)
                ch = self.peek()
                if ch == "&":
                    self.pos += 1
                    break
                frame[2] = frame[3] if frame[2] is None else Or(frame[2], frame[3])
                frame[3] = None
                if ch == "|":
                    self.pos += 1
                    break
                closer, nots, value, _, first = frame
                if closer is None:
                    if self.pos != len(self.text):
                        raise ParseError("trailing input", self.pos)
                    return value
                if closer != ")" and first is None:
                    self.expect(",")
                    frame[2], frame[4] = None, value
                    break
                self.expect(")")
                if closer != ")":
                    value = _MACROS[closer](first, value)
                frame = frames.pop()


def parse(text: str, constants: "Iterable[str]" = ()) -> Formula:
    """Parse a formula; identifiers listed in `constants` become NamedConst."""
    return _Parser(text, frozenset(constants)).parse()


# -- printing ------------------------------------------------------------------


def _match_commutator(f: Formula) -> Optional[tuple[Formula, Formula]]:
    # f is an Or; C(a, b) is interned, so its node for the leading a & b is f or not
    t = f.left.left.left if type(f.left) is Or and type(f.left.left) is Or else None
    if type(t) is And and f is commutator_f(t.left, t.right):
        return t.left, t.right
    return None


_INFIX = {And: (" & ", 1, 2), Or: (" | ", 0, 1)}  # operator, levels of its operands


def format_formula(f: Formula) -> str:
    """Grammar text of f, with C re-sugared; an explicit stack, so any depth prints."""
    out: list[str] = []
    # items: (node, level) with level 0 = or context, 1 = and context, 2 = unary
    # context; plain text waiting to be written has level None
    stack: list[tuple] = [(f, 0)]
    while stack:
        item, level = stack.pop()
        if level is None:
            out.append(item)
            continue
        code = _CODE[type(item)]
        sugar = _match_commutator(item) if code == _JOIN else None
        if sugar is not None:
            out.append("C(")
            stack += [(")", None), (sugar[1], 0), (", ", None), (sugar[0], 0)]
        elif code == _LEAF:
            out.append(item.name)
        elif code == _NEG:
            out.append("!")
            stack.append((item.child, 2))
        elif code < _NEG:
            out.append("0" if code == _ZERO else "1")
        else:
            op, lhs, rhs = _INFIX[type(item)]
            if level > lhs:
                out.append("(")
                stack.append((")", None))
            stack += [(item.right, rhs), (op, None), (item.left, lhs)]
    return "".join(out)
