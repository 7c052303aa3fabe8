"""The lattice of linear subspaces of F^d over the Gaussian rationals.

A subspace is stored as its ambient dimension plus the unique reduced
row echelon basis of its row space, which makes equality structural:
two subspaces are equal exactly when their canonical bases coincide.

Connectives follow the usual geometric quantum logic reading:
meet is intersection, join is sum, complement is the orthogonal
complement for the inner product <y, x> = sum_k y_k * conj(x_k)
(conjugation on the second argument).  Positive definiteness of this
form over Q(i) guarantees S meet ~S = 0 and S join ~S = 1 exactly.

Subspaces are immutable, so results are shared.  `meet`, `join` and
`complement` first look up one LRU computed table (as in BDD packages,
Bryant 1986) of at most `_TABLE_BOUND` entries, keyed on the connective
and the operands' ids.  Identity keys are safe because each entry holds
its operands and result strongly: no key's id can be reused while the
entry lives.  `complement` records both directions, so !!S is S, and
`zero(d)` and `full(d)` are one shared object per d, so the constants
and complements taken within the full interval hit the table from call
to call.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .exactlin import Matrix, Scalar, ScalarLike


_TABLE_BOUND = 1024
_table: OrderedDict[tuple[str, int, int], tuple[Subspace, Optional[Subspace], Subspace]] = OrderedDict()


def _remember(op: str, a: Subspace, b: Optional[Subspace], result: Subspace) -> None:
    key = (op, id(a), id(b))
    _table[key] = (a, b, result)
    _table.move_to_end(key)
    if len(_table) > _TABLE_BOUND:
        _table.popitem(last=False)


def _computed(op: str, a: Subspace, b: Optional[Subspace], compute: Callable) -> Subspace:
    """The table's result for (op, a, b), computing and recording it on a miss."""
    key = (op, id(a), id(b))
    entry = _table.get(key)
    if entry is not None:
        _table.move_to_end(key)
        return entry[2]
    result = compute(a, b)
    _remember(op, a, b, result)
    return result


class Subspace:
    """A subspace of F^d in canonical (rref basis) form."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix, *, _canonical: bool = False):
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        if basis.cols != ambient:
            raise ValueError(f"basis has {basis.cols} columns, ambient is {ambient}")
        if not _canonical:
            basis = basis.rref()
        self.ambient = ambient
        self.basis = basis

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(ambient: int, rows: Iterable[Sequence[ScalarLike]]) -> "Subspace":
        return Subspace(ambient, Matrix.from_rows(rows, cols=ambient))

    @staticmethod
    def span(*vectors: Sequence[ScalarLike]) -> "Subspace":
        if not vectors:
            raise ValueError("span needs at least one vector to infer the ambient dimension")
        return Subspace.from_rows(len(vectors[0]), vectors)

    @staticmethod
    @cache
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.zeros(0, ambient), _canonical=True)

    @staticmethod
    @cache
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(ambient), _canonical=True)

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        rows = [[str(x) for x in self.basis.row(i)] for i in range(self.dim)]
        return f"Subspace(d={self.ambient}, dim={self.dim}, basis={rows})"

    def contains_vector(self, vec: Sequence[ScalarLike]) -> bool:
        aug = self.basis.transpose()
        return aug.solve(list(vec)) is not None

    def contains(self, other: "Subspace") -> bool:
        """True when other <= self (each basis row of other lies in self)."""
        self._check_ambient(other)
        return all(self.contains_vector(other.basis.row(i)) for i in range(other.dim))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    # -- lattice connectives: the public ones look up the computed table,
    # the private ones compute on a miss -------------------------------------

    def complement(self) -> "Subspace":
        """Orthogonal complement {y : <y, x> = 0 for all x in self}."""
        result = _computed("!", self, None, Subspace._complement)
        _remember("!", result, None, self)  # both directions, so !!S is S
        return result

    def join(self, other: "Subspace") -> "Subspace":
        return _computed("|", self, other, Subspace._join)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, via the kernel of the stacked coefficient system."""
        return _computed("&", self, other, Subspace._meet)

    def _complement(self, _: None) -> "Subspace":
        return Subspace(self.ambient, self.basis.conj().nullspace(), _canonical=True)

    def _join(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.basis.stack(other.basis))

    def _meet(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        k, m = self.dim, other.dim
        if k == 0 or m == 0:
            return Subspace.zero(self.ambient)
        # columns: rows of self, then negated rows of other
        coeff = self.basis.transpose().hstack(other.basis.transpose().scale(-1))
        kernel = coeff.nullspace()
        rows = []
        for r in range(kernel.rows):
            u = kernel.row(r)[:k]
            vec = [Scalar(0)] * self.ambient
            for i in range(k):
                if u[i].is_zero():
                    continue
                row = self.basis.row(i)
                vec = [a + u[i] * b for a, b in zip(vec, row)]
            rows.append(vec)
        if not rows:
            return Subspace.zero(self.ambient)
        return Subspace.from_rows(self.ambient, rows)

    # -- derived predicates --------------------------------------------------

    def commutator(self, other: "Subspace") -> "Subspace":
        """(X^Y) v (X^~Y) v (~X^Y) v (~X^~Y)."""
        self._check_ambient(other)
        nx, ny = self.complement(), other.complement()
        return self.meet(other).join(self.meet(ny)).join(nx.meet(other)).join(nx.meet(ny))

    def commutes(self, other: "Subspace") -> bool:
        """True when self = (self^other) v (self^~other), i.e. the commutator is full."""
        self._check_ambient(other)
        ny = other.complement()
        return self.meet(other).join(self.meet(ny)) == self

    def project(self, z: "Subspace") -> "Subspace":
        """Projection of self onto z: z ^ (self v ~z); always <= z."""
        self._check_ambient(z)
        return z.meet(self.join(z.complement()))


# -- embeddings ---------------------------------------------------------------


def complexify(s: Subspace) -> Subspace:
    """View a rational subspace inside Q(i)^d; requires an all-real basis.

    On canonical bases this is the identity on the representation; the
    point is the realness check plus the documented reading as X + iX.
    """
    if not all(x.is_real() for x in s.basis.entries):
        raise ValueError("complexify needs a subspace with an all-real basis")
    return s


def realify(s: Subspace) -> Subspace:
    """The real shadow {(v, w) : v + i w in X} inside Q^(2d); doubles the dimension."""
    d = s.ambient
    rows = []
    for r in range(s.dim):
        row = s.basis.row(r)
        re = [x.re for x in row]
        im = [x.im for x in row]
        rows.append([Scalar(a) for a in re] + [Scalar(b) for b in im])
        rows.append([Scalar(b) for b in im] + [Scalar(-a) for a in re])
    if not rows:
        return Subspace.zero(2 * d)
    return Subspace.from_rows(2 * d, rows)


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Block-diagonal placement of a and b inside F^(da+db)."""
    d = a.ambient + b.ambient
    rows = []
    for r in range(a.dim):
        rows.append(list(a.basis.row(r)) + [Scalar(0)] * b.ambient)
    for r in range(b.dim):
        rows.append([Scalar(0)] * a.ambient + list(b.basis.row(r)))
    if not rows:
        return Subspace.zero(d)
    return Subspace.from_rows(d, rows)


def embed(s: Subspace, ambient: int) -> Subspace:
    """Inject into a larger space by appending zero coordinates."""
    if ambient < s.ambient:
        raise ValueError("target ambient smaller than source")
    return direct_sum(s, Subspace.zero(ambient - s.ambient))


def graph_subspace(t: Matrix) -> Subspace:
    """The graph {(x, T x)} of a linear map T: F^d -> F^e, inside F^(d+e)."""
    d, e = t.cols, t.rows
    rows = []
    for j in range(d):
        unit = [Scalar(1) if k == j else Scalar(0) for k in range(d)]
        image = [t.entry(i, j) for i in range(e)]
        rows.append(unit + image)
    return Subspace.from_rows(d + e, rows)
