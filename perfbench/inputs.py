"""Seeded input generators and the operation record shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from grlogic.exactlin import Scalar
from grlogic.formula import And, Not, Or, Var
from grlogic.lattice import Subspace

from oracle import bool_satisfiable, free_names


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` is given its result afterwards."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fails_with: Optional[type] = None  # the exception a known fault raises today


def random_formula(rng, names: list[str], leaves: int, meet_share: float = 0.5):
    """A random formula tree with the given number of leaves; about a fifth of nodes negated."""
    if leaves == 1:
        leaf = Var(rng.choice(names))
        return Not(leaf) if rng.random() < 0.3 else leaf
    split = rng.randint(1, leaves - 1)
    left = random_formula(rng, names, split, meet_share)
    right = random_formula(rng, names, leaves - split, meet_share)
    node = And(left, right) if rng.random() < meet_share else Or(left, right)
    return Not(node) if rng.random() < 0.2 else node


def random_formula_using(rng, names: list[str], leaves: int, meet_share: float = 0.5):
    """As random_formula, redrawn until every name occurs."""
    while True:
        f = random_formula(rng, names, leaves, meet_share)
        if set(names) <= free_names(f):
            return f


def random_cnf(rng, n: int, m: int, widths: tuple[int, ...]) -> list[list[tuple[str, bool]]]:
    """m clauses over x0..x(n-1), each of a width drawn from `widths`, variables distinct."""
    return [
        [(f"x{v}", rng.random() < 0.5) for v in rng.sample(range(n), rng.choice(widths))]
        for _ in range(m)
    ]


def three_cnf(rng, n: int, want_sat: bool) -> list[list[tuple[str, bool]]]:
    """A random 3-CNF using all n variables whose Boolean satisfiability is `want_sat`.

    Satisfiable ones are drawn below the threshold ratio, unsatisfiable ones
    above it; the benchmark's own brute force decides which is which.
    """
    while True:
        ratio = rng.uniform(3.0, 4.5) if want_sat else rng.uniform(5.5, 8.0)
        clauses = random_cnf(rng, n, round(ratio * n), (3,))
        if len({v for c in clauses for v, _ in c}) == n and bool_satisfiable(clauses) == want_sat:
            return clauses


def random_subspace(rng, d: int, complex_entries: bool) -> Subspace:
    """Span of 1..d-1 random rows with small integer (or Gaussian integer) entries."""
    rows = [
        [Scalar(rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0) for _ in range(d)]
        for _ in range(rng.randint(1, d - 1))
    ]
    return Subspace.from_rows(d, rows)
