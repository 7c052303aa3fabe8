import random
from itertools import product

import pytest

from grlogic import count as ct
from grlogic.formula import Assignment, Not, Var, evaluate
from grlogic.gadgets import commutator_f
from grlogic.generic import pairwise_generic
from grlogic.lattice import Subspace


def test_stirling_examples():
    # S(3,2) = 3: enumerate the partitions of {1,2,3} into 2 blocks by brute force
    def brute(m, p):
        count = 0
        for labels in product(range(p), repeat=m):
            if len(set(labels)) == p and sorted(set(labels)) == list(range(p)):
                # canonical labelling: block of element 0 is 0, etc.
                seen: dict[int, int] = {}
                canon = []
                for x in labels:
                    seen.setdefault(x, len(seen))
                    canon.append(seen[x])
                if canon == list(labels):
                    count += 1
        return count

    for m in range(1, 6):
        for p in range(1, m + 1):
            assert ct.stirling2(m, p) == brute(m, p)
    with pytest.raises(ValueError):
        ct.stirling2(2, 3)


def test_phi_values():
    assert ct.phi(3, 2) == 12
    assert ct.phi(3, 3) == 1
    assert ct.phi(2, 2) == 1
    with pytest.raises(ValueError):
        ct.phi(3, 1)


def test_card_values():
    assert ct.card_f(1) == 4
    assert ct.card_f(2) == 96
    assert ct.card_f(3) == 2**8 * 6**12 * 8


def test_closure_enumeration():
    n1, _ = ct.enumerate_signatures_2d(1)
    n2, sigs2 = ct.enumerate_signatures_2d(2)
    assert n1 == 4 and n2 == 96
    c = commutator_f(Var("X"), Var("Y"))
    assert ct.signature_of(c, ["X", "Y"]) in sigs2
    assert ct.signature_of(Not(c), ["X", "Y"]) in sigs2
    # coordinates are the given names, not the formula's own variables
    assert ct.signature_of(Var("A"), ["A", "B"]) != ct.signature_of(Var("B"), ["A", "B"])
    assert ct.signature_of(Var("B"), ["A", "B"]) in sigs2
    with pytest.raises(ValueError):
        ct.signature_of(Var("C"), ["A", "B"])
    with pytest.raises(ValueError):
        ct.enumerate_signatures_2d(3)


def test_closure_concrete_pool_independence():
    # run the closure with two concrete pairwise generic pools; identical counts
    def concrete_closure(q1: int, q2: int) -> int:
        a, b = Subspace.span([1, q1]), Subspace.span([1, q2])
        pool = [Subspace.zero(2), Subspace.full(2), a, a.complement(), b, b.complement()]
        index = {s: i for i, s in enumerate(pool)}
        # values never leave the pool, so tabulate the exact operations once
        neg_t = [index[s.complement()] for s in pool]
        meet_t = [[index[x.meet(y)] for y in pool] for x in pool]
        join_t = [[index[x.join(y)] for y in pool] for x in pool]
        grid = list(product(range(len(pool)), repeat=2))
        start = {
            tuple(g[0] for g in grid),
            tuple(g[1] for g in grid),
            tuple(0 for _ in grid),
            tuple(1 for _ in grid),
        }
        closed = set(start)
        frontier = list(start)
        while frontier:
            fresh = []
            for sig in frontier:
                cand = tuple(neg_t[x] for x in sig)
                if cand not in closed:
                    closed.add(cand)
                    fresh.append(cand)
            for sig in frontier:
                for other in list(closed):
                    for table in (meet_t, join_t):
                        cand = tuple(table[x][y] for x, y in zip(sig, other))
                        if cand not in closed:
                            closed.add(cand)
                            fresh.append(cand)
            frontier = fresh
        return len(closed)

    assert concrete_closure(1, 2) == 96
    assert concrete_closure(3, 7) == 96


def test_encode_function_exhaustive_n2():
    fam = pairwise_generic(2, 2).members
    rng = random.Random(111)
    for _ in range(4):
        table = {k: rng.randint(0, 1) for k in product(range(1, 3), repeat=2)}
        f = ct.encode_function(table, 2)
        for k in product(range(1, 3), repeat=2):
            env = {f"X{i+1}": fam[i] for i in range(2)}
            env.update({f"Y{i+1}": fam[k[i] - 1] for i in range(2)})
            val = evaluate(f, Assignment(2, env))
            assert val.is_full() == (table[k] == 1)
            assert val.is_zero() == (table[k] == 0)


def test_encode_function_random_n3():
    fam = pairwise_generic(2, 3).members
    rng = random.Random(112)
    table = {k: rng.randint(0, 1) for k in product(range(1, 4), repeat=3)}
    f = ct.encode_function(table, 3)
    for k in product(range(1, 4), repeat=3):
        env = {f"X{i+1}": fam[i] for i in range(3)}
        env.update({f"Y{i+1}": fam[k[i] - 1] for i in range(3)})
        val = evaluate(f, Assignment(2, env))
        assert val.is_full() == (table[k] == 1)


def test_encode_function_signatures_distinct():
    # the encoding is injective: different tables give different signatures
    tables = []
    for bits in range(16):
        table = {}
        for idx, k in enumerate(product(range(1, 3), repeat=2)):
            table[k] = (bits >> idx) & 1
        tables.append(table)
    fam = pairwise_generic(2, 2).members
    seen = set()
    for table in tables:
        f = ct.encode_function(table, 2)
        sig = []
        for k in product(range(1, 3), repeat=2):
            env = {f"X{i+1}": fam[i] for i in range(2)}
            env.update({f"Y{i+1}": fam[k[i] - 1] for i in range(2)})
            sig.append(evaluate(f, Assignment(2, env)).is_full())
        seen.add(tuple(sig))
    assert len(seen) == 16


def test_empty_function_is_constant_zero():
    f = ct.encode_function({(1,): 0}, 1)
    from grlogic.formula import ZERO

    assert f == ZERO
