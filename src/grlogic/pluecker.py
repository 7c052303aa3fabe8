"""Exact projective coordinates for subspaces and their inversion.

A k-dimensional subspace of F^d is identified by the vector of k x k
minors of any basis matrix, indexed by sorted k-element column sets.
The vector is projectively well-defined; we canonicalize by dividing
through by the first nonzero coordinate in lexicographic index order,
making equal subspaces yield identical coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .exactlin import Matrix, Scalar
from .lattice import Subspace


@dataclass(frozen=True)
class PlueckerVector:
    ambient: int
    grade: int
    coords: tuple[tuple[tuple[int, ...], Scalar], ...]  # sorted 1-based index tuples

    def as_dict(self) -> dict[tuple[int, ...], Scalar]:
        return dict(self.coords)


def _det(m: Matrix) -> Scalar:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = m.row_list()
    det = Scalar(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if not rows[r][c].is_zero():
                pivot = r
                break
        if pivot is None:
            return Scalar(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        pv = rows[c][c]
        det = det * pv
        inv = Scalar(1) / pv
        for r in range(c + 1, n):
            factor = rows[r][c] * inv
            if factor.is_zero():
                continue
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def to_pluecker(s: Subspace) -> PlueckerVector:
    """All k x k minors of the canonical basis, canonically rescaled."""
    d, k = s.ambient, s.dim
    coords: list[tuple[tuple[int, ...], Scalar]] = []
    first_nonzero: Optional[Scalar] = None
    for idx in combinations(range(1, d + 1), k):
        minor = _det(
            Matrix.from_rows(
                [[s.basis.entry(r, j - 1) for j in idx] for r in range(k)],
                cols=k,
            )
        )
        coords.append((idx, minor))
        if first_nonzero is None and not minor.is_zero():
            first_nonzero = minor
    if k == 0:
        return PlueckerVector(d, 0, (((), Scalar(1)),))
    assert first_nonzero is not None
    inv = Scalar(1) / first_nonzero
    return PlueckerVector(d, k, tuple((idx, val * inv) for idx, val in coords))


def from_pluecker(v: PlueckerVector) -> Subspace:
    """Recover the subspace from its coordinates.

    Fix the lexicographically first index tuple with nonzero coordinate,
    say (i_1, ..., i_k); the recovered basis has, as its s-th vector, the
    signed coordinates obtained by replacing i_s with a running index.
    """
    d, k = v.ambient, v.grade
    if k == 0:
        return Subspace.zero(d)
    table = v.as_dict()
    base: Optional[tuple[int, ...]] = None
    for idx in combinations(range(1, d + 1), k):
        if not table[idx].is_zero():
            base = idx
            break
    if base is None:
        raise ValueError("all-zero coordinate vector")
    rows = []
    for s_pos in range(k):
        vec = []
        for r in range(1, d + 1):
            pattern = list(base)
            pattern[s_pos] = r
            if len(set(pattern)) != k:
                vec.append(Scalar(0))
                continue
            order = tuple(sorted(pattern))
            sign = _perm_sign(pattern)
            vec.append(table[order] * Scalar(sign))
        rows.append(vec)
    return Subspace.from_rows(d, rows)


def _perm_sign(pattern: list[int]) -> int:
    inversions = 0
    for i in range(len(pattern)):
        for j in range(i + 1, len(pattern)):
            if pattern[i] > pattern[j]:
                inversions += 1
    return -1 if inversions % 2 else 1
