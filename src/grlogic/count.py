"""Counting plane-nonequivalent formulas, and function encodings.

Two formulas in n variables are plane-equivalent when they agree on
every assignment of plane subspaces.  Their number is

    card_f(n) = 2^(2^n) * prod_{p=2..n} (2p + 2)^phi(n, p)

with phi built from Stirling numbers of the second kind.  Note the
per-factor alphabet size is 2p + 2 (p ranges over the product index);
this is what reproduces the anchor counts 4, 96 and 2^8 * 6^12 * 8.

For n <= 2 the count is independently reproduced by a fixed-point
closure: evaluate the variables over the full grid of assignments drawn
from {0, 1, A, !A, B, !B} with (A, B) a pairwise generic pair of plane
lines, then close the signature set under pointwise complement, meet
and join.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Mapping, Sequence

from . import mo
from .formula import Formula, Var, and_all, const_names, free_vars, or_all
from .gadgets import commutator_f


def stirling2(m: int, p: int) -> int:
    """Number of partitions of an m-set into p nonempty blocks,
    by the recurrence S(i, j) = j S(i-1, j) + S(i-1, j-1)."""
    if not 0 <= p <= m:
        raise ValueError("need 0 <= p <= m")
    row = [1] + [0] * p
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, p + 1)]
    return row[p]


def phi(n: int, p: int) -> int:
    """2^(n-p) * sum_l C(n, l) S(n-l, p)."""
    if not 2 <= p <= n:
        raise ValueError("need 2 <= p <= n")
    total = sum(comb(n, l) * stirling2(n - l, p) for l in range(n - p + 1))
    return (1 << (n - p)) * total


def card_f(n: int) -> int:
    """Exact number of plane-nonequivalent formulas in n variables."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1 << (1 << n)
    for p in range(2, n + 1):
        out *= (2 * p + 2) ** phi(n, p)
    return out


_POOL = (mo.CODE_ZERO, mo.CODE_ONE, mo.atom(1), mo.co_atom(1), mo.atom(2), mo.co_atom(2))


def enumerate_signatures_2d(n: int) -> tuple[int, frozenset[tuple[int, ...]]]:
    """Fixed-point closure of evaluation signatures over the plane grid.

    The grid is every assignment of the n variables from the six-element
    pool {0, 1, A, !A, B, !B}; a signature is the tuple of symbolic
    values over the grid.  Starting from the variables and the constants
    0 and 1, the set is closed under pointwise !, ^, v; its size is the
    number of plane-nonequivalent formulas (4 for n = 1, 96 for n = 2).
    """
    if n not in (1, 2):
        raise ValueError("closure enumeration is supported for n in {1, 2}")
    grid = list(product(_POOL, repeat=n))
    start: set[tuple[int, ...]] = set()
    for i in range(n):
        start.add(tuple(g[i] for g in grid))
    start.add(tuple(mo.CODE_ZERO for _ in grid))
    start.add(tuple(mo.CODE_ONE for _ in grid))
    closed = set(start)
    frontier = list(start)
    while frontier:
        fresh: list[tuple[int, ...]] = []

        def maybe_add(sig: tuple[int, ...]) -> None:
            if sig not in closed:
                closed.add(sig)
                fresh.append(sig)

        for sig in frontier:
            maybe_add(tuple(mo.neg(x) for x in sig))
        known = list(closed)
        for sig in frontier:
            for other in known:
                maybe_add(tuple(mo.meet(a, b) for a, b in zip(sig, other)))
                maybe_add(tuple(mo.join(a, b) for a, b in zip(sig, other)))
        frontier = fresh
    return len(closed), frozenset(closed)


def signature_of(f: Formula, names: Sequence[str]) -> tuple[int, ...]:
    """Evaluation signature of a formula over the closure grid of the
    ordered coordinate names (n = len(names), first name slowest)."""
    stray = (free_vars(f) | const_names(f)) - set(names)
    if stray:
        raise ValueError(f"names {sorted(stray)} are not grid coordinates")
    return tuple(mo.evaluate(f, dict(zip(names, point))) for point in product(_POOL, repeat=len(names)))


def encode_function(table: Mapping[tuple[int, ...], int], n: int) -> Formula:
    """A 2n-variable formula reproducing F: {1..n}^n -> {0, 1}.

    The formula is the join, over index tuples where F is 1, of the meets
    of commutators C(Y_i, X_{k_i}); evaluated at X = (V_1, ..., V_n) and
    Y = (V_{k_1}, ..., V_{k_n}) over a pairwise generic family it returns
    F(k) as 0 or 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    branches: list[Formula] = []
    for key in sorted(table):
        if len(key) != n or not all(1 <= k <= n for k in key):
            raise ValueError(f"bad index tuple {key!r}")
        if table[key]:
            branches.append(
                and_all([commutator_f(Var(f"Y{i + 1}"), Var(f"X{key[i]}")) for i in range(n)])
            )
    return or_all(branches)
