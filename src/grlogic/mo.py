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

Scalar and numpy-vectorized versions of the connectives are provided.
The scalar ones drive the plane search; the vectorized ones evaluate
the full Boolean grid of `decide_boolean` and import numpy on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Union

from . import formula as fm

if TYPE_CHECKING:
    import numpy as np

    ArrayLike = Union[int, np.ndarray]

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


def vneg(a: ArrayLike) -> ArrayLike:
    import numpy as np

    a = np.asarray(a)
    return np.where(a <= 1, 1 - a, a ^ 1)


def vmeet(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    import numpy as np

    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return np.where(a == 1, b, np.where(b == 1, a, np.where(a == b, a, 0)))


def vjoin(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    import numpy as np

    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return np.where(a == 0, b, np.where(b == 0, a, np.where(a == b, a, 1)))


def evaluate_grid(f: fm.Formula, var_axes: Mapping[str, int], n_axes: int, codes: np.ndarray) -> np.ndarray:
    """Evaluate f over the full product grid codes^n, one axis per variable.

    var_axes maps each free name to its axis; the result broadcasts to
    shape (len(codes),) * n_axes.
    """
    import numpy as np

    def leaf(x: fm.Formula) -> np.ndarray:
        shape = [1] * n_axes
        shape[var_axes[x.name]] = len(codes)
        return codes.reshape(shape)

    zeros, ones = np.zeros((1,) * n_axes, dtype=codes.dtype), np.ones((1,) * n_axes, dtype=codes.dtype)
    return fm.fold(f, leaf, lambda: zeros, lambda: ones, vneg, vmeet, vjoin)
