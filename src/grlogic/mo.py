"""Symbolic evaluation in the height-2 ortholattice generated by generic lines.

Over a pairwise generic family V_1, ..., V_n in the plane, every formula
value lands in the closed set {0, 1, V_i, !V_i}.  That set is a finite
ortholattice whose operations depend only on the index pattern, so
evaluation can be done on small integer codes instead of actual
subspaces:

    code 0       -> the zero subspace
    code 1       -> the full space
    code 2k      -> the k-th generic element      (k >= 1)
    code 2k + 1  -> its complement

Two distinct generic elements always meet in 0 and join to 1, in every
combination with complements.  The same coding doubles as plain Boolean
algebra when only codes 0 and 1 appear.

The connectives are defined once, on single codes.  They drive the
plane search directly, and `evaluate_grid` lifts them to the whole
product grid of `decide_boolean`: each value there maps every code to
the set of grid cells that take it, one Python int bitmask per code.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import formula as fm

CODE_ZERO = 0
CODE_ONE = 1


def atom(k: int) -> int:
    """Code of the k-th generic element, k >= 1."""
    return 2 * k


def co_atom(k: int) -> int:
    return 2 * k + 1


def neg(a: int) -> int:
    if a == CODE_ZERO:
        return CODE_ONE
    if a == CODE_ONE:
        return CODE_ZERO
    return a ^ 1


def meet(a: int, b: int) -> int:
    if a == CODE_ONE:
        return b
    if b == CODE_ONE:
        return a
    if a == b:
        return a
    return CODE_ZERO


def join(a: int, b: int) -> int:
    if a == CODE_ZERO:
        return b
    if b == CODE_ZERO:
        return a
    if a == b:
        return a
    return CODE_ONE


def evaluate(f: fm.Formula, env: Mapping[str, int]) -> int:
    """Evaluate a formula on an assignment of codes."""
    return fm.fold(f, lambda x: env[x.name], lambda: CODE_ZERO, lambda: CODE_ONE, neg, meet, join)


def evaluate_grid(f: fm.Formula, var_axes: Mapping[str, int], n_axes: int, codes: Sequence[int]) -> dict[int, int]:
    """Evaluate f over the full product grid codes^n_axes, one axis per variable.

    var_axes maps each free name to its axis.  The value maps each code
    f takes to the mask of cells where it takes it: bit i is cell i in
    row-major order, axis 0 slowest, so the lowest set bit is the
    lexicographically first cell.  The masks partition the grid.
    """
    p = len(codes)
    cells = p**n_axes
    full = (1 << cells) - 1

    def leaf(x: fm.Formula) -> dict[int, int]:
        # axis k holds each code for w consecutive cells, repeating every p*w;
        # the repeats come from doubling shifts, far faster than a repunit division
        w = p ** (n_axes - 1 - var_axes[x.name])
        out: dict[int, int] = {}
        for j, c in enumerate(codes):
            m, span = ((1 << w) - 1) << (j * w), p * w
            while span < cells:
                m |= m << span
                span *= 2
            out[c] = out.get(c, 0) | (m & full)
        return out

    def lift(op):
        def apply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
            out: dict[int, int] = {}
            for x, mx in a.items():
                for y, my in b.items():
                    m = mx & my
                    if m:
                        z = op(x, y)
                        out[z] = out.get(z, 0) | m
            return out

        return apply

    return fm.fold(
        f,
        leaf,
        lambda: {CODE_ZERO: full},
        lambda: {CODE_ONE: full},
        lambda a: {neg(x): m for x, m in a.items()},
        lift(meet),
        lift(join),
    )
