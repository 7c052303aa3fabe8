"""The symbolic finite-ortholattice evaluation must match the real lattice.

This is the keystone under the plane decider: over a pairwise generic
family, formula values stay inside {0, 1, V_i, !V_i}, and the integer
codes compute exactly the same algebra.
"""

import random
from itertools import product

from grlogic import mo
from grlogic.formula import Assignment, evaluate, free_vars
from grlogic.generic import pairwise_generic
from grlogic.lattice import Subspace

from conftest import random_formula


def code_to_subspace(code: int, fam) -> Subspace:
    if code == mo.CODE_ZERO:
        return Subspace.zero(fam.ambient)
    if code == mo.CODE_ONE:
        return Subspace.full(fam.ambient)
    k, negated = divmod(code - 2, 2)
    return fam[k].complement() if negated else fam[k]


def test_scalar_codes_match_concrete_lattice():
    rng = random.Random(121)
    for d in (2, 4):
        fam = pairwise_generic(d, 3)
        pool_codes = [mo.CODE_ZERO, mo.CODE_ONE] + [c for k in (1, 2, 3) for c in (mo.atom(k), mo.co_atom(k))]
        for _ in range(60):
            f = random_formula(rng, ["A", "B", "C"], rng.randint(1, 9))
            names = sorted(free_vars(f))
            codes = {v: rng.choice(pool_codes) for v in names}
            symbolic = mo.evaluate(f, codes)
            bindings = {v: code_to_subspace(c, fam) for v, c in codes.items()}
            concrete = evaluate(f, Assignment(d, bindings))
            assert concrete == code_to_subspace(symbolic, fam)


def test_code_algebra_tables():
    # involution, de Morgan, absorption on the whole code alphabet
    codes = [0, 1] + [c for k in (1, 2) for c in (mo.atom(k), mo.co_atom(k))]
    for a in codes:
        assert mo.neg(mo.neg(a)) == a
        assert mo.join(a, mo.neg(a)) == mo.CODE_ONE
        assert mo.meet(a, mo.neg(a)) == mo.CODE_ZERO
        for b in codes:
            assert mo.neg(mo.meet(a, b)) == mo.join(mo.neg(a), mo.neg(b))
            assert mo.meet(a, mo.join(a, b)) == a
            assert mo.join(a, mo.meet(a, b)) == a


def test_evaluate_grid_matches_pointwise():
    rng = random.Random(122)
    for _ in range(25):
        f = random_formula(rng, ["A", "B"], rng.randint(1, 8))
        names = sorted(free_vars(f))
        n = len(names)
        pool = 2 * n + 2
        grid = mo.evaluate_grid(f, {v: i for i, v in enumerate(names)}, n, range(pool))
        # the masks are nonempty and partition the grid's pool**n cells
        covered = 0
        for mask in grid.values():
            assert mask and not covered & mask
            covered |= mask
        assert covered == (1 << pool**n) - 1
        # bit i is cell i in row-major order, axis 0 slowest
        for cell, digits in enumerate(product(range(pool), repeat=n)):
            (code,) = [c for c, mask in grid.items() if mask >> cell & 1]
            assert code == mo.evaluate(f, dict(zip(names, digits)))
