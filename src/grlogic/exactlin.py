"""Exact linear algebra over the Gaussian rationals Q(i).

Scalars are complex numbers with rational real and imaginary parts, kept in
canonical form by ``fractions.Fraction``.  Matrices are dense and immutable;
row reduction, kernel computation and linear solving are all exact, so
equality of scalars, matrices and (downstream) subspaces is decidable and
used as the primary comparison everywhere in this package.

``rref``, ``rank``, ``nullspace`` and ``solve`` all rest on one row
reduction, ``_rref_rows``.  It converts its rows once into Gaussian-integer
pairs of Python ints, eliminates fraction-free with exact division
(Bareiss), and converts the result once back into canonical Scalar rows;
no Fraction arithmetic runs in between.

No floating point enters at any stage.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

ScalarLike = Union["Scalar", int, Fraction]


class Scalar:
    """A Gaussian rational a + b*i with exact rational parts.

    Treated as immutable everywhere: operations return new instances.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(Fraction(x))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse the text form "a/b", "c/d*i" or "a/b+c/d*i" (signs optional);
        ValueError on bad text, a zero denominator included."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        if not s.endswith("i"):
            m = _NUM_RE.fullmatch(s)
            if not m:
                raise ValueError(f"bad scalar: {text!r}")
            return Scalar(parse_fraction(s))
        # pure imaginary, or real followed by signed imaginary
        m = _COMBINED_RE.fullmatch(s)
        if m:
            return Scalar(parse_fraction(m.group("re")), _imag_value(m.group("im")))
        m = _IMAG_RE.fullmatch(s)
        if m:
            return Scalar(0, _imag_value(s))
        raise ValueError(f"bad scalar: {text!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.coerce(other)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.coerce(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.coerce(other)
        if not self.im and not o.im:
            return Scalar(self.re * o.re)
        return Scalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.coerce(other)
        n = o.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) / self

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus re^2 + im^2; zero exactly when the scalar is zero."""
        return self.re * self.re + self.im * self.im

    # -- predicates and hashing -------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re!s}{sign}{abs(self.im)!s}*i"


_NUM_RE = _re.compile(r"[+-]?\d+(?:/\d+)?")
_IMAG_RE = _re.compile(r"[+-]?(?:\d+(?:/\d+)?)?\*?i")
_COMBINED_RE = _re.compile(r"(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-](?:\d+(?:/\d+)?)?\*?i)")


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with ValueError (not ZeroDivisionError) for a zero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _imag_value(part: str) -> Fraction:
    part = part[:-1].rstrip("*")  # strip trailing 'i' and optional '*'
    if part in ("", "+"):
        return Fraction(1)
    if part == "-":
        return Fraction(-1)
    return parse_fraction(part)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


class Matrix:
    """Dense matrix of Scalars, row-major; treated as immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[ScalarLike]):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(Scalar.coerce(e) for e in entries)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[ScalarLike]], cols: Optional[int] = None) -> "Matrix":
        rl = [list(r) for r in rows]
        if rl:
            width = len(rl[0])
            if any(len(r) != width for r in rl):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        flat = [x for r in rl for x in r]
        return Matrix(len(rl), width, flat)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entry(i, j) for i in range(self.rows))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c: ScalarLike) -> "Matrix":
        c = Scalar.coerce(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.entry(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def conj(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [a.conj() for a in self.entries])

    def conj_transpose(self) -> "Matrix":
        """Adjoint: entry (i, j) of the result is the conjugate of entry (j, i)."""
        return Matrix(self.cols, self.rows, [self.entry(i, j).conj() for j in range(self.cols) for i in range(self.rows)])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.rows + other.rows, self.cols, list(self.entries) + list(other.entries))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        ent: list[Scalar] = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Matrix(self.rows, self.cols + other.cols, ent)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    # -- row reduction -----------------------------------------------------

    def rref(self) -> "Matrix":
        """Reduced row echelon form with zero rows removed.

        Pivots are normalized to 1 and their columns fully cleared, so the
        result is the unique canonical basis of the row space.
        """
        reduced, pivots = _rref_rows(self.row_list(), self.cols)
        return Matrix.from_rows(reduced, cols=self.cols)

    def rank(self) -> int:
        _, pivots = _rref_rows(self.row_list(), self.cols)
        return len(pivots)

    def nullspace(self) -> "Matrix":
        """Basis (in rref, as rows) of {x : self @ x^T = 0}."""
        reduced, pivots = _rref_rows(self.row_list(), self.cols)
        n = self.cols
        pivot_set = set(pivots)
        free = [j for j in range(n) if j not in pivot_set]
        basis: list[list[Scalar]] = []
        for f in free:
            vec = [ZERO] * n
            vec[f] = ONE
            for r, p in enumerate(pivots):
                vec[p] = -reduced[r][f]
            basis.append(vec)
        if not basis:
            return Matrix.zeros(0, n)
        reduced_basis, _ = _rref_rows(basis, n)
        return Matrix.from_rows(reduced_basis, cols=n)

    def solve(self, b: Sequence[ScalarLike]) -> Optional[list[Scalar]]:
        """Some x with self @ x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        bs = [Scalar.coerce(x) for x in b]
        aug = [list(self.row(i)) + [bs[i]] for i in range(self.rows)]
        reduced, pivots = _rref_rows(aug, self.cols + 1)
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, p in enumerate(pivots):
            x[p] = reduced[r][self.cols]
        return x

    # -- predicates --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _rref_rows(rows: Sequence[Sequence[Scalar]], cols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form of the given rows; returns (nonzero rows, pivot columns).

    The rows are read, not modified.  Elimination is fraction-free
    Gauss-Jordan on Gaussian integers (re, im): each row is first scaled by
    the lcm of its denominators.  A step with pivot p in pivot row b replaces
    every other row a by (p*a - a[c]*b) / q, where q is the previous step's
    pivot (1 at the first).  The division is exact in Z[i], since every entry
    is a minor of the scaled rows (Bareiss, Math. Comp. 22, 1968); it is done
    as an integer division after multiplying by conj(q).  Every pivot row
    ends with the last pivot in its pivot column, so dividing by it gives the
    canonical rows: pivots ONE, cleared entries ZERO, the rest Fraction pairs.
    """
    work: list[list[tuple[int, int]]] = []
    for row in rows:
        parts = [(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in row]
        den = lcm(*[a[1] for a, _ in parts], *[b[1] for _, b in parts])
        if den == 1:
            work.append([(a[0], b[0]) for a, b in parts])
        else:
            work.append([(a[0] * (den // a[1]), b[0] * (den // b[1])) for a, b in parts])
    m = len(work)
    pivots: list[int] = []
    r = 0
    qr, qi = 1, 0
    for c in range(cols):
        for i in range(r, m):
            pr, pi = work[i][c]
            if pr or pi:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        b = work[r]
        # (p*a - f*b) / q == (P*a - F*b) // n with P = p*conj(q), F = f*conj(q), n = |q|^2
        n = qr * qr + qi * qi
        Pr, Pi = pr * qr + pi * qi, pi * qr - pr * qi
        for k in range(m):
            if k == r:
                continue
            a = work[k]
            fr, fi = a[c]
            if not (fr or fi) and pr == qr and pi == qi:
                continue  # (p*a - 0*b) / q is a itself
            Fr, Fi = fr * qr + fi * qi, fi * qr - fr * qi
            if Pi or Fi:
                work[k] = [
                    ((Pr * x - Pi * y - Fr * u + Fi * v) // n, (Pr * y + Pi * x - Fr * v - Fi * u) // n)
                    for (x, y), (u, v) in zip(a, b)
                ]
            else:  # real multipliers: no cross terms
                work[k] = [((Pr * x - Fr * u) // n, (Pr * y - Fr * v) // n) for (x, y), (u, v) in zip(a, b)]
        pivots.append(c)
        qr, qi = pr, pi
        r += 1
        if r == m:
            break
    n = qr * qr + qi * qi
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    reduced = []
    for row, p in zip(work, pivots):
        out = [ZERO] * cols
        out[p] = ONE
        for j in free:
            x, y = row[j]
            if x or y:
                out[j] = Scalar(Fraction(x * qr + y * qi, n), Fraction(y * qr - x * qi, n))
        reduced.append(out)
    return reduced, pivots
