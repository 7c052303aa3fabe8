"""Generic families of subspaces and the degree of pairwise genericity.

Two flavours of "general position" are used throughout:

* pairwise generic: all four meets U_i ^ U_j, U_i ^ !U_j, !U_i ^ U_j,
  !U_i ^ !U_j vanish for i != j (singletons must be strictly between 0
  and 1).  Such families exist exactly in even ambient dimensions; the
  canonical one places U_q = {(x, q*x)} for q = 1, 2, 3, ...

* generic (line families): every d-element subset of lines spans F^d and
  no member is perpendicular to another; the canonical construction is
  the moment curve span(1, t, t^2, ..., t^(d-1)) at distinct points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exactlin import Scalar
from .lattice import Subspace


@dataclass(frozen=True)
class Family:
    ambient: int
    members: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        for s in self.members:
            if s.ambient != self.ambient:
                raise ValueError("family member with wrong ambient dimension")

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]


class DegreeCapExceeded(Exception):
    """Raised instead of silently truncating an exhaustive subset search."""


def pairwise_generic(d: int, n: int) -> Family:
    """The canonical pairwise generic family of n half-dimensional members of F^d.

    Member q is the graph {(x, q*x) : x in F^(d/2)} for q = 1 .. n.
    """
    if d % 2 != 0 or d < 2:
        raise ValueError("pairwise generic families need even ambient dimension >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    half = d // 2
    members = []
    for q in range(1, n + 1):
        rows = []
        for r in range(half):
            row = [Scalar(0)] * d
            row[r] = Scalar(1)
            row[half + r] = Scalar(q)
            rows.append(row)
        members.append(Subspace.from_rows(d, rows))
    return Family(d, tuple(members))


def is_pairwise_generic(fam: Family) -> bool:
    members = fam.members
    if len(members) == 1:
        u = members[0]
        return 0 < u.dim < fam.ambient
    comps = [u.complement() for u in members]
    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            if not members[i].meet(members[j]).is_zero():
                return False
            if not members[i].meet(comps[j]).is_zero():
                return False
            if not comps[i].meet(comps[j]).is_zero():
                return False
    return True


def _pairwise_generic_pair(a: Subspace, b: Subspace) -> bool:
    if not (0 < a.dim < a.ambient and 0 < b.dim < b.ambient):
        return False
    ca, cb = a.complement(), b.complement()
    return (
        a.meet(b).is_zero()
        and a.meet(cb).is_zero()
        and ca.meet(b).is_zero()
        and ca.meet(cb).is_zero()
    )


def moment_line(d: int, t: Fraction) -> Subspace:
    return moment_span(d, [t])


def moment_span(d: int, params: Sequence[Fraction]) -> Subspace:
    """Span of the moment-curve points (1, t, ..., t^(d-1)) at the given parameters."""
    return Subspace.from_rows(d, [[Scalar(t**j) for j in range(d)] for t in params])


def fresh_plane_lines(n: int, avoid: Iterable[Subspace]) -> list[Subspace]:
    """The first n plane lines span(1, q), q = 1, 2, ..., that are pairwise
    generic and never equal or perpendicular to anything in avoid."""
    blocked = {t for s in avoid for t in (s, s.complement())}
    out: list[Subspace] = []
    q = 1
    while len(out) < n:
        line = Subspace.from_rows(2, [[Scalar(1), Scalar(q)]])
        if line not in blocked:
            out.append(line)
            blocked.update((line, line.complement()))
        q += 1
    return out


def vandermonde_generic(d: int, n: int, points: Optional[Sequence[Fraction]] = None) -> Family:
    """Lines span(1, t_i, ..., t_i^(d-1)) at distinct nonnegative points."""
    if points is None:
        points = [Fraction(i) for i in range(n)]
    pts = [Fraction(p) for p in points]
    if len(pts) != n:
        raise ValueError("need exactly n points")
    if len(set(pts)) != n:
        raise ValueError("points must be distinct")
    if any(p < 0 for p in pts):
        raise ValueError("points must be nonnegative")
    return Family(d, tuple(moment_line(d, p) for p in pts))


def is_generic(fam: Family) -> bool:
    """Every member a line, every d-subset spanning, no member meeting
    the complement of another."""
    d = fam.ambient
    members = fam.members
    if len(members) < d:
        return False
    if any(u.dim != 1 for u in members):
        return False
    comps = [u.complement() for u in members]
    for i in range(len(members)):
        for j in range(len(members)):
            if not members[i].meet(comps[j]).is_zero():
                return False
    for idx in combinations(range(len(members)), d):
        acc = members[idx[0]]
        for k in idx[1:]:
            acc = acc.join(members[k])
        if not acc.is_full():
            return False
    return True


def degree(fam: Family, cap: int = 12) -> int:
    """Cardinality of a largest pairwise generic subfamily.

    In the plane this reduces to counting lines up to complement.  In
    general it is an exhaustive max-clique search over the pairwise
    compatibility graph, refused (DegreeCapExceeded) past `cap` eligible
    members rather than answering incorrectly.
    """
    eligible = [u for u in fam.members if 0 < u.dim < fam.ambient]
    if fam.ambient == 2:
        # distinct, non-complementary lines are automatically pairwise generic
        classes: list[Subspace] = []
        for u in eligible:
            cu = u.complement()
            if not any(u == v or cu == v for v in classes):
                classes.append(u)
        return len(classes)
    if len(eligible) > cap:
        raise DegreeCapExceeded(f"{len(eligible)} eligible members exceeds cap {cap}")
    m = len(eligible)
    compatible = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            ok = _pairwise_generic_pair(eligible[i], eligible[j])
            compatible[i][j] = compatible[j][i] = ok
    best = 0
    for r in range(m, 0, -1):
        if r <= best:
            break
        for idx in combinations(range(m), r):
            if all(compatible[a][b] for a, b in combinations(idx, 2)):
                best = r
                break
        if best == r:
            break
    return best
