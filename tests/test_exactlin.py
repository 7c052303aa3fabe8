import random

import pytest

from grlogic.exactlin import I, Matrix, Scalar

from conftest import random_matrix, random_scalar


def test_scalar_field_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_scalar_conj_and_norm():
    rng = random.Random(12)
    for _ in range(100):
        x = random_scalar(rng)
        assert x.conj().conj() == x
        assert x.norm2() >= 0
        assert (x.norm2() == 0) == x.is_zero()
        assert (x * x.conj()).re == x.norm2()


def test_scalar_text_roundtrip():
    rng = random.Random(13)
    cases = ["0", "5", "-7/3", "i", "-i", "3*i", "-2/5*i", "1+i", "1/2-3/4*i", "-1-2*i"]
    for text in cases:
        s = Scalar.parse(text)
        assert Scalar.parse(str(s)) == s
    for _ in range(100):
        s = random_scalar(rng)
        assert Scalar.parse(str(s)) == s


def test_scalar_parse_rejects_garbage():
    for bad in ["", "x", "1++2", "2i3", "1/0*i", "1/0", "2+1/0*i", "1/0-i"]:
        with pytest.raises(ValueError):
            Scalar.parse(bad)


def test_rref_examples():
    assert Matrix.from_rows([[0, 1], [1, 0]]).rref() == Matrix.identity(2)
    # second row is i times the first: one nonzero row remains
    m = Matrix.from_rows([[Scalar(1), I], [I, Scalar(-1)]])
    assert m.rref() == Matrix.from_rows([[Scalar(1), I]])
    assert Matrix.from_rows([[2, 4]]).rref() == Matrix.from_rows([[1, 2]])


def test_rref_is_canonical_under_row_mixing():
    rng = random.Random(14)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        r = m.rref()
        assert r.rref() == r  # idempotent
        # random invertible row mixing preserves the row space
        mixed = [list(m.row(i)) for i in range(rows)]
        for _ in range(4):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                c = random_scalar(rng)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert Matrix.from_rows(mixed, cols=cols).rref() == r


def test_nullspace_examples_and_rank_nullity():
    assert Matrix.from_rows([[1, 0]]).nullspace() == Matrix.from_rows([[0, 1]])
    assert Matrix.identity(3).nullspace().rows == 0
    ns = Matrix.from_rows([[1, 1, 1]]).nullspace()
    assert ns.rows == 2
    assert (Matrix.from_rows([[1, 1, 1]]) @ ns.transpose()).is_zero()
    rng = random.Random(15)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        null = m.nullspace()
        assert m.rank() + null.rows == m.cols
        if null.rows:
            assert (m @ null.transpose()).is_zero()


def test_solve_examples():
    assert Matrix.identity(2).solve([3, 5]) == [Scalar(3), Scalar(5)]
    x = Matrix.from_rows([[1, 1]]).solve([2])
    assert x is not None and x[0] + x[1] == Scalar(2)
    assert Matrix.from_rows([[1, 0], [1, 0]]).solve([0, 1]) is None


def test_solve_random_consistency():
    rng = random.Random(16)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        xs = [random_scalar(rng) for _ in range(m.cols)]
        b = [sum((m.entry(i, j) * xs[j] for j in range(m.cols)), Scalar(0)) for i in range(m.rows)]
        sol = m.solve(b)
        assert sol is not None
        back = [sum((m.entry(i, j) * sol[j] for j in range(m.cols)), Scalar(0)) for i in range(m.rows)]
        assert back == b


def test_conj_transpose():
    assert Matrix.from_rows([[I]]).conj_transpose() == Matrix.from_rows([[Scalar(0, -1)]])
    assert Matrix.from_rows([[1, 2], [3, 4]]).conj_transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    one_plus_i = Scalar(1, 1)
    m = Matrix.from_rows([[one_plus_i, Scalar(0)]])
    assert m.conj_transpose() == Matrix.from_rows([[Scalar(1, -1)], [Scalar(0)]])
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert m.conj_transpose().conj_transpose() == m
