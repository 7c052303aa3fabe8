import random
from fractions import Fraction

import pytest

from grlogic import exactlin
from grlogic.exactlin import I, ONE, Matrix, Scalar

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


# -- the fraction-free kernel against the Fraction Gauss-Jordan it replaced -----


def _fraction_rref_rows(rows: list[list[Scalar]], cols: int) -> tuple[list[list[Scalar]], list[int]]:
    """In-place Gauss-Jordan on a list of rows; returns (nonzero rows, pivot columns)."""
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            inv = ONE / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i == r:
                continue
            factor = rows[i][c]
            if not factor.re and not factor.im:
                continue
            rows[i] = [a if (not b.re and not b.im) else a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _gaussian_rational(rng: random.Random, complex_ok: bool) -> Scalar:
    """Often zero; small parts, mostly integers, so pivots and factors often coincide."""
    if rng.random() < 0.3:
        return Scalar(0)

    def part() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, rng.randint(2, 12))))

    return Scalar(part(), part() if complex_ok else 0)


def _awkward_matrix(rng: random.Random, complex_ok: bool) -> Matrix:
    """0-9 rows, 0-10 columns, with zero rows and rows that are sums of others."""
    rows, cols = rng.randint(0, 9), rng.randint(0, 10)
    out: list[list[Scalar]] = []
    while len(out) < rows:
        kind = rng.random()
        if kind < 0.15:
            out.append([Scalar(0)] * cols)
        elif kind < 0.4 and len(out) >= 2:
            a, b = rng.sample(out, 2)
            out.append([x + y for x, y in zip(a, b)])
        else:
            out.append([_gaussian_rational(rng, complex_ok) for _ in range(cols)])
    rng.shuffle(out)
    return Matrix.from_rows(out, cols=cols)


def _reference(monkeypatch, fn):
    """fn() with Matrix's methods running on the Fraction Gauss-Jordan."""
    with monkeypatch.context() as mp:
        mp.setattr(exactlin, "_rref_rows", _fraction_rref_rows)
        return fn()


def _all_fraction_parts(rows) -> bool:
    return all(type(x.re) is Fraction and type(x.im) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("complex_ok", [False, True])
def test_kernel_matches_the_fraction_gauss_jordan(complex_ok):
    rng = random.Random(21 + complex_ok)
    for _ in range(400):
        m = _awkward_matrix(rng, complex_ok)
        rows = m.row_list()
        reduced, pivots = exactlin._rref_rows(rows, m.cols)
        assert rows == m.row_list()  # the input is read, not modified
        expected, expected_pivots = _fraction_rref_rows(m.row_list(), m.cols)
        assert reduced == expected
        assert pivots == expected_pivots
        assert _all_fraction_parts(reduced)


@pytest.mark.parametrize("complex_ok", [False, True])
def test_rank_nullspace_solve_match_the_fraction_gauss_jordan(monkeypatch, complex_ok):
    rng = random.Random(23 + complex_ok)
    inconsistent = 0
    for _ in range(300):
        m = _awkward_matrix(rng, complex_ok)
        assert m.rank() == _reference(monkeypatch, m.rank)
        null = m.nullspace()
        assert null == _reference(monkeypatch, m.nullspace)
        assert _all_fraction_parts(null.row_list())
        # consistent when b is a combination of the columns, often not when it is random
        if rng.random() < 0.5:
            xs = [_gaussian_rational(rng, complex_ok) for _ in range(m.cols)]
            b = [sum((m.entry(i, j) * xs[j] for j in range(m.cols)), Scalar(0)) for i in range(m.rows)]
        else:
            b = [_gaussian_rational(rng, complex_ok) for _ in range(m.rows)]
        x = m.solve(b)
        assert x == _reference(monkeypatch, lambda: m.solve(b))
        if x is None:
            inconsistent += 1
        else:
            assert _all_fraction_parts([x])
    assert inconsistent > 20


@pytest.mark.parametrize("n", [15, 23])
def test_dense_complex_growth(n):
    """Dense complex n x (n+1) input: exact division keeps the entries as small as minors."""
    rng = random.Random(25 + n)

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    m = Matrix(n, n + 1, [Scalar(part(), part()) for _ in range(n * (n + 1))])
    reduced, pivots = exactlin._rref_rows(m.row_list(), m.cols)
    assert (reduced, pivots) == _fraction_rref_rows(m.row_list(), m.cols)
    assert _all_fraction_parts(reduced)


@pytest.mark.parametrize("complex_ok", [False, True])
def test_elimination_does_no_scalar_arithmetic(monkeypatch, complex_ok):
    """rref and rank compute on ints; Scalars are only built at the output."""
    rng = random.Random(27 + complex_ok)
    matrices = [_awkward_matrix(rng, complex_ok) for _ in range(60)]

    def refuse(*_):
        raise AssertionError("Scalar arithmetic inside the elimination kernel")

    with monkeypatch.context() as mp:
        for op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "neg"):
            mp.setattr(Scalar, f"__{op}__", refuse)
        results = [(m.rref(), m.rank()) for m in matrices]
    for m, (reduced, rank) in zip(matrices, results):
        expected, pivots = _fraction_rref_rows(m.row_list(), m.cols)
        assert reduced == Matrix.from_rows(expected, cols=m.cols)
        assert rank == len(pivots)
