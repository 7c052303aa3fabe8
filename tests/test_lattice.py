import random

import pytest

from grlogic.exactlin import I, Scalar
from grlogic import lattice
from grlogic.lattice import Subspace, complexify, direct_sum, graph_subspace, realify

from conftest import random_matrix, random_subspace


def leq(a: Subspace, b: Subspace) -> bool:
    """Double-inclusion order oracle, independent of canonical equality."""
    return b.contains(a)


def test_complement_examples():
    assert Subspace.span([1, 0]).complement() == Subspace.span([0, 1])
    c = Subspace.span([Scalar(1), I]).complement()
    assert c == Subspace.span([I, Scalar(1)])
    # verify the defining inner product directly
    v, w = c.basis.row(0), [Scalar(1), I]
    assert sum((a * b.conj() for a, b in zip(v, w)), Scalar(0)).is_zero()


def test_graph_complement_identity():
    rng = random.Random(21)
    for _ in range(25):
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        t = random_matrix(rng, e, d)
        g = graph_subspace(t)
        assert g.ambient == d + e and g.dim == d
        adj = t.conj_transpose()
        rows = []
        for r in range(e):
            unit = [Scalar(1) if k == r else Scalar(0) for k in range(e)]
            head = [-adj.entry(i, r) for i in range(d)]
            rows.append(head + unit)
        assert g.complement() == Subspace.from_rows(d + e, rows)


def test_meet_join_examples():
    assert Subspace.span([1, 0]).join(Subspace.span([0, 1])).is_full()
    assert Subspace.span([1, 0]).meet(Subspace.span([1, 1])).is_zero()
    lines = [Subspace.span([1, 0, 0]), Subspace.span([1, 1, 0]), Subspace.span([1, 1, 1])]
    assert lines[0].join(lines[1]).join(lines[2]).is_full()


def test_meet_join_against_inclusion_oracle():
    rng = random.Random(22)
    for _ in range(100):
        d = rng.randint(1, 4)
        a, b = random_subspace(rng, d), random_subspace(rng, d)
        m, j = a.meet(b), a.join(b)
        assert leq(m, a) and leq(m, b)
        assert leq(a, j) and leq(b, j)
        assert j.dim + m.dim == a.dim + b.dim


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        Subspace.span([1, 0]).meet(Subspace.span([1, 0, 0]))
    with pytest.raises(ValueError):
        Subspace.span([1, 0]).join(Subspace.span([1, 0, 0]))


def test_commutator_and_commutes():
    a, b = Subspace.span([1, 0]), Subspace.span([1, 1])
    assert a.commutator(b).is_zero()
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 4)
        x = random_subspace(rng, d)
        assert x.commutes(Subspace.full(d))
        assert x.commutes(Subspace.zero(d))
        assert x.commutes(x)
        assert x.commutes(x.complement())
    # two half-dimension generic blocks in d = 4
    x = Subspace.from_rows(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    y = Subspace.from_rows(4, [[1, 0, 2, 0], [0, 1, 0, 2]])
    assert x.commutator(y).is_zero()
    # commutes(x, y) iff commutator is full
    for _ in range(30):
        d = rng.randint(1, 3)
        x, y = random_subspace(rng, d), random_subspace(rng, d)
        assert x.commutes(y) == x.commutator(y).is_full()


def test_project():
    x, z = Subspace.span([1, 1]), Subspace.span([1, 0])
    assert x.project(Subspace.full(2)) == x
    assert Subspace.zero(2).project(z).is_zero()
    assert x.project(z) == z
    rng = random.Random(24)
    for _ in range(50):
        d = rng.randint(1, 4)
        a, b = random_subspace(rng, d), random_subspace(rng, d)
        p = a.project(b)
        assert leq(p, b)
        assert p.dim <= min(a.dim, b.dim) or p.dim <= b.dim


def test_complexify_realify():
    rng = random.Random(25)
    assert complexify(Subspace.zero(3)) == Subspace.zero(3)
    with pytest.raises(ValueError):
        complexify(Subspace.span([Scalar(1), I]))
    for _ in range(40):
        d = rng.randint(1, 4)
        s = random_subspace(rng, d, complex_ok=False)
        assert complexify(s.complement()) == complexify(s).complement()
        t = random_subspace(rng, d, complex_ok=False)
        assert complexify(s.meet(t)) == complexify(s).meet(complexify(t))
        assert complexify(s.join(t)) == complexify(s).join(complexify(t))
    # realify doubles dimension and is an ortho-embedding
    one_plus_i = Subspace.span([Scalar(1, 1)])
    r = realify(one_plus_i)
    assert r.ambient == 2 and r.dim == 2
    for _ in range(40):
        d = rng.randint(1, 3)
        s, t = random_subspace(rng, d), random_subspace(rng, d)
        assert realify(s).dim == 2 * s.dim
        assert realify(s.complement()) == realify(s).complement()
        assert realify(s.meet(t)) == realify(s).meet(realify(t))
        assert realify(s.join(t)) == realify(s).join(realify(t))


def test_direct_sum():
    assert direct_sum(Subspace.full(1), Subspace.zero(1)) == Subspace.span([1, 0])
    rng = random.Random(26)
    for _ in range(40):
        a = random_subspace(rng, 2)
        b = random_subspace(rng, 2)
        s = direct_sum(a, b)
        assert s.dim == a.dim + b.dim
        assert s.complement() == direct_sum(a.complement(), b.complement())


def test_ortholattice_axioms_random():
    rng = random.Random(27)
    for _ in range(150):
        d = rng.randint(0, 4)
        a, b = random_subspace(rng, d), random_subspace(rng, d)
        assert a.meet(a.join(b)) == a
        assert a.join(a.meet(b)) == a
        assert a.join(b).complement() == a.complement().meet(b.complement())
        assert a.meet(b).complement() == a.complement().join(b.complement())
        assert a.complement().complement() == a
        assert a.join(a.complement()).is_full()
        assert a.meet(a.complement()).is_zero()


def test_modular_law_random():
    rng = random.Random(28)
    for _ in range(100):
        d = rng.randint(1, 4)
        c = random_subspace(rng, d)
        b = random_subspace(rng, d)
        a = c.meet(random_subspace(rng, d))  # forces a <= c
        assert a.join(b.meet(c)) == a.join(b).meet(c)


def test_foulis_distributivity():
    rng = random.Random(29)
    done = 0
    while done < 30:
        d = rng.randint(1, 3)
        x, y, z = (random_subspace(rng, d) for _ in range(3))
        if x.commutes(y) and x.commutes(z):
            assert x.meet(y.join(z)) == x.meet(y).join(x.meet(z))
            assert x.join(y.meet(z)) == x.join(y).meet(x.join(z))
            done += 1


def test_boolean_generation_power_of_two():
    # closure of a pairwise-commuting tuple under the connectives has 2^k elements
    rng = random.Random(30)
    cases = 0
    while cases < 12:
        d = rng.randint(1, 3)
        tup = [random_subspace(rng, d) for _ in range(2)]
        if not all(a.commutes(b) for a in tup for b in tup):
            continue
        closure = set(tup)
        changed = True
        while changed:
            changed = False
            fresh = set()
            for a in closure:
                fresh.add(a.complement())
            for a in closure:
                for b in closure:
                    fresh.add(a.meet(b))
                    fresh.add(a.join(b))
            if not fresh <= closure:
                closure |= fresh
                changed = True
        assert bin(len(closure)).count("1") == 1, len(closure)
        cases += 1


def test_inclusion_exclusion_fails_for_dimensions():
    x, y, z = Subspace.span([1, 0]), Subspace.span([0, 1]), Subspace.span([1, 1])
    lhs = x.join(y).join(z).dim
    rhs = (
        x.dim + y.dim + z.dim
        - x.meet(y).dim - x.meet(z).dim - y.meet(z).dim
        + x.meet(y).meet(z).dim
    )
    assert lhs == 2 and rhs == 3 and lhs != rhs


def test_zero_dimensional_space():
    z = Subspace.zero(0)
    assert z == Subspace.full(0)
    assert z.complement() == z
    assert z.meet(z) == z and z.join(z) == z


def test_complement_characterized_by_join_and_orthogonality():
    # if x <= !y and x v y = 1, then x = !y
    rng = random.Random(31)
    hits = 0
    while hits < 20:
        d = rng.randint(1, 4)
        y = random_subspace(rng, d)
        ny = y.complement()
        # build x <= !y with the join condition, then check equality
        x = ny.meet(random_subspace(rng, d))
        if x.join(y).is_full():
            assert x == ny
            hits += 1


def test_line_plane_containment_characterizations():
    # for a line x and a plane y in F^3:
    #   x <= y   iff  !x v (x ^ y) = 1,   and   x not<= y  iff  x v y = 1
    rng = random.Random(32)
    for _ in range(40):
        x = random_subspace(rng, 3, dim=1)
        y = random_subspace(rng, 3, dim=2)
        contained = y.contains(x)
        assert (x.complement().join(x.meet(y)).is_full()) == contained
        assert (x.join(y).is_full()) == (not contained)


# -- the computed table -----------------------------------------------------------
#
# References that bypass the table: join by row reduction of the stacked
# bases, complement by a null space, meet by De Morgan over both.


def raw_join(a: Subspace, b: Subspace) -> Subspace:
    return Subspace(a.ambient, a.basis.stack(b.basis))


def raw_complement(a: Subspace) -> Subspace:
    return Subspace(a.ambient, a.basis.conj().nullspace(), _canonical=True)


def raw_meet(a: Subspace, b: Subspace) -> Subspace:
    return raw_complement(raw_join(raw_complement(a), raw_complement(b)))


def test_computed_table_matches_uncached_recomputation():
    rng = random.Random(24)
    transient_ids: set[int] = set()
    reused = evictions = 0
    for d in range(2, 7):
        for complex_ok in (False, True):
            pool = [random_subspace(rng, d, complex_ok) for _ in range(5)] + [Subspace.zero(d), Subspace.full(d)]
            for _ in range(60):
                a, b = rng.choice(pool), rng.choice(pool)
                # dropped after this step; once the table evicts it, its id is free for reuse
                transient = random_subspace(rng, d, complex_ok)
                reused += id(transient) in transient_ids
                transient_ids.add(id(transient))
                for x, y in ((a, b), (a, transient), (transient, b)):
                    full_before = len(lattice._table) == lattice._TABLE_BOUND
                    m, j, c = x.meet(y), x.join(y), x.complement()
                    assert (m, j, c) == (raw_meet(x, y), raw_join(x, y), raw_complement(x))
                    assert x.meet(y) is m and x.join(y) is j and x.complement() is c
                    assert c.complement() is x
                    assert len(lattice._table) <= lattice._TABLE_BOUND
                    evictions += full_before
                # results become operands, so later steps repeat earlier ones
                pool[rng.randrange(len(pool))] = rng.choice((a.meet(b), a.join(b), a.complement()))
    assert evictions > 0 and reused > 0


def test_shared_constants_and_double_complement():
    for d in range(0, 5):
        assert Subspace.zero(d) is Subspace.zero(d) and Subspace.full(d) is Subspace.full(d)
        assert Subspace.zero(d).complement().complement() is Subspace.zero(d)
    rng = random.Random(25)
    for d in (2, 3, 4):
        s = random_subspace(rng, d)
        assert s.complement().complement() is s
