import random
from fractions import Fraction

import pytest

from grlogic import staudt
from grlogic.exactlin import I, Matrix, Scalar
from grlogic.formula import Assignment, Var, evaluate
from grlogic.lattice import Subspace

from conftest import random_matrix, random_scalar, random_subspace


def rational_matrix(rng, n):
    return Matrix(n, n, [Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n * n)])


def test_standard_frame_d1():
    fr = staudt.standard_frame(1)
    assert fr.w0 == Subspace.span([0, 1, 0])
    assert fr.w1 == Subspace.span([0, 0, 1])
    assert fr.w2 == Subspace.span([1, 0, 0])
    assert fr.v0 == Subspace.span([0, 1, -1])
    assert fr.v1 == Subspace.span([-1, 0, 1])
    assert staudt.is_frame(fr)


def test_frame_properties_up_to_4():
    for d in range(1, 5):
        fr = staudt.standard_frame(d)
        assert staudt.is_frame(fr)
        for member in fr.members().values():
            assert member.dim == d


def test_frame_checker_rejects_perturbations():
    fr = staudt.standard_frame(1)
    bad_w1 = Subspace.span([0, 1, 1])  # not orthogonal to W0
    assert not staudt.is_frame(staudt.Frame3(fr.w0, bad_w1, fr.w2, fr.v0, fr.v1, 1))
    bad_v0 = Subspace.span([0, 1, 0])  # meets W0
    assert not staudt.is_frame(staudt.Frame3(fr.w0, fr.w1, fr.w2, bad_v0, fr.v1, 1))
    bad_v1 = Subspace.span([1, 1, 1])  # leaves the W1-W2 span
    assert not staudt.is_frame(staudt.Frame3(fr.w0, fr.w1, fr.w2, fr.v0, bad_v1, 1))


def test_encode_decode_examples():
    fr = staudt.standard_frame(1)
    two = staudt.encode_scalar(2, fr)
    assert two == Subspace.span([0, 1, -2])
    assert staudt.decode(two, fr) == Matrix(1, 1, [Scalar(2)])
    # side-condition violations decode to nothing
    assert staudt.decode(Subspace.span([1, 1, -2]), fr) is None  # outside the strip
    assert staudt.decode(fr.w1, fr) is None  # meets the complement of W0
    assert staudt.decode(Subspace.zero(3), fr) is None


def _reference_decode(x, fr):
    """decode by the lattice side conditions plus a linear solve."""
    d = fr.block
    nw0 = fr.w0.complement()
    if not fr.w0.join(fr.w1).contains(x) or not x.meet(nw0).is_zero() or not x.join(nw0).is_full():
        return None
    mid = Matrix.from_rows([x.basis.row(r)[d : 2 * d] for r in range(x.dim)], cols=d)
    last = [x.basis.row(r)[2 * d :] for r in range(x.dim)]
    # row j of T solves mid @ t_j = -(column j of last)
    t_rows = [mid.solve([-y[j] for y in last]) for j in range(d)]
    assert all(row is not None for row in t_rows)
    return Matrix.from_rows(t_rows, cols=d)


def _decode_cases(rng, d, complex_ok):
    """Seeded subspaces of F^(3d), labelled by the side condition they probe."""
    zero_block = [Scalar(0)] * d

    def spanning_rows(t, k):
        # k vectors (0 | m | -T m) for random middles m
        m = random_matrix(rng, k, d, complex_ok)
        image = (m @ t.transpose()).scale(-1)
        return [zero_block + list(m.row(r)) + list(image.row(r)) for r in range(k)]

    t = random_matrix(rng, d, d, complex_ok)
    rows = spanning_rows(t, d)
    yield "encoding", Subspace.from_rows(3 * d, rows)
    shifted = [list(r) for r in rows]
    shifted[rng.randrange(d)][rng.randrange(d)] += Scalar(rng.randint(1, 3))
    yield "outside the strip", Subspace.from_rows(3 * d, shifted)
    hit = [list(r) for r in rows]
    hit[rng.randrange(d)] = zero_block + zero_block + [random_scalar(rng, complex_ok) or Scalar(1) for _ in range(d)]
    yield "meets ~W0", Subspace.from_rows(3 * d, hit)
    yield "dimension 0", Subspace.zero(3 * d)
    if d > 1:
        yield "dimension d-1", Subspace.from_rows(3 * d, spanning_rows(t, d - 1))
    yield "dimension d+1", Subspace.from_rows(3 * d, rows + [zero_block + zero_block + [Scalar(1)] * d])
    yield "random", random_subspace(rng, 3 * d, complex_ok)


def test_decode_matches_lattice_side_conditions():
    rng = random.Random(94)
    seen: dict[tuple[str, bool], int] = {}
    for d in (1, 2, 3):
        fr = staudt.standard_frame(d)
        for complex_ok in (False, True):
            for _ in range(25):
                for kind, x in _decode_cases(rng, d, complex_ok):
                    got, want = staudt.decode(x, fr), _reference_decode(x, fr)
                    assert got == want, (kind, x)
                    seen[kind, want is not None] = seen.get((kind, want is not None), 0) + 1
    # every kind of failure occurred, and encodings decode
    for kind in ("outside the strip", "meets ~W0", "dimension 0", "dimension d-1", "dimension d+1"):
        assert seen.get((kind, False), 0) > 0 and (kind, True) not in seen, kind
    assert seen.get(("encoding", True), 0) > 100


def test_encode_is_the_canonical_basis_of_its_rows():
    rng = random.Random(95)
    for d in (1, 2, 3):
        fr = staudt.standard_frame(d)
        for complex_ok in (False, True):
            for _ in range(10):
                t = random_matrix(rng, d, d, complex_ok)
                rows = [[Scalar(0)] * d + [Scalar(int(c == r)) for c in range(d)] + [-t.entry(i, r) for i in range(d)] for r in range(d)]
                assert staudt.encode(t, fr) == Subspace.from_rows(3 * d, rows)


def test_standard_frame_is_built_once_and_equal_frames_are_accepted():
    for d in (1, 2):
        fr = staudt.standard_frame(d)
        assert staudt.standard_frame(d) is fr
        by_hand = staudt.Frame3(*(Subspace.from_rows(3 * d, s.basis.row_list()) for s in (fr.w0, fr.w1, fr.w2, fr.v0, fr.v1)), d)
        assert by_hand is not fr and by_hand == fr
        one = staudt.encode(Matrix.identity(d), by_hand)
        assert staudt.decode(staudt.mul(one, one, by_hand), by_hand) == Matrix.identity(d)


def test_encode_and_decode_use_no_lattice_connectives(monkeypatch):
    calls = {}
    for name in ("meet", "join", "complement", "contains"):
        original = getattr(Subspace, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(Subspace, name, counted)
    rng = random.Random(96)
    for d in (1, 2, 3):
        fr = staudt.standard_frame(d)
        t = random_matrix(rng, d, d)
        assert staudt.decode(staudt.encode(t, fr), fr) == t
        assert staudt.decode(fr.w1, fr) is None
        assert staudt.decode(Subspace.full(3 * d), fr) is None
    assert calls == {}
    fr.w0.meet(fr.w1)  # the counter itself works
    assert calls == {"meet": 1}


def gaussian_integer_matrix(rng, d, complex_ok):
    return Matrix(d, d, [Scalar(rng.randint(-4, 4), rng.randint(-4, 4) if complex_ok else 0) for _ in range(d * d)])


ARITHMETIC = (
    ("mul", staudt.mul_term(Var("A"), Var("B")), ("A", "B")),
    ("sub", staudt.sub_term(Var("A"), Var("B")), ("A", "B")),
    ("adjoint", staudt.adjoint_term(Var("A")), ("A",)),
)


def test_arithmetic_matches_plain_evaluation_of_its_terms():
    # the reference evaluates the whole term with the frame members bound
    rng = random.Random(97)
    for d in (1, 2, 3):
        fr = staudt.standard_frame(d)
        for complex_ok in (False, True):
            for _ in range(4 if d < 3 else 2):
                a, b = (staudt.encode(gaussian_integer_matrix(rng, d, complex_ok), fr) for _ in range(2))
                for kind, term, names in ARITHMETIC:
                    args = dict(zip(names, (a, b)))
                    want = evaluate(term, Assignment(3 * d, {**fr.members(), **args}))
                    assert getattr(staudt, kind)(*args.values(), fr) == want, (kind, d)


def count_kernel_computations(monkeypatch) -> dict[str, int]:
    """Count the lattice's computed-table misses: each one runs the
    private connective that does the kernel computation."""
    calls = {"all": 0}
    for name in ("_meet", "_join", "_complement"):
        original = getattr(Subspace, name)

        def counted(*args, _original=original):
            calls["all"] += 1
            return _original(*args)

        monkeypatch.setattr(Subspace, name, counted)
    return calls


def test_warmed_arithmetic_steps_skip_the_frame_only_subterms(monkeypatch):
    # a step on fresh encodings computes only the subterms that read them;
    # evaluating every subterm afresh would take 14, 15 and 20 computations
    calls = count_kernel_computations(monkeypatch)
    rng = random.Random(98)
    expected = {"mul": 8, "sub": 6, "adjoint": 11}
    for d in (1, 2):
        fr = staudt.standard_frame(d)
        for kind, _, names in ARITHMETIC:
            step = getattr(staudt, kind)
            step(*(staudt.encode(gaussian_integer_matrix(rng, d, True), fr) for _ in names), fr)  # warm
            args = [staudt.encode(gaussian_integer_matrix(rng, d, True), fr) for _ in names]
            calls["all"] = 0
            step(*args, fr)
            assert calls == {"all": expected[kind]}, (kind, d)


def test_warmed_int_terms_compute_nothing(monkeypatch):
    # int_term reads only frame members, so a second evaluation is all table hits
    calls = count_kernel_computations(monkeypatch)
    for d in (1, 2, 3):
        fr = staudt.standard_frame(d)
        for k in (-3, 0, 1, 6, 56, 72):
            term = staudt.int_term(k)
            want = evaluate(term, Assignment(3 * d, fr.members()))
            calls["all"] = 0
            assert evaluate(term, Assignment(3 * d, fr.members())) is want
            assert calls == {"all": 0}, (k, d)
            assert staudt.decode(want, fr) == Matrix.identity(d).scale(k)


def test_encode_decode_roundtrip_random():
    rng = random.Random(91)
    for d in (1, 2):
        fr = staudt.standard_frame(d)
        for _ in range(20):
            t = random_matrix(rng, d, d)
            assert staudt.decode(staudt.encode(t, fr), fr) == t


def test_scalar_ring_homomorphism():
    rng = random.Random(92)
    fr = staudt.standard_frame(1)
    for _ in range(100):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        ea, eb = staudt.encode_scalar(a, fr), staudt.encode_scalar(b, fr)
        assert staudt.decode(staudt.mul(ea, eb, fr), fr).entry(0, 0) == Scalar(a * b)
        assert staudt.decode(staudt.sub(ea, eb, fr), fr).entry(0, 0) == Scalar(a - b)
        assert staudt.decode(staudt.adjoint(ea, fr), fr).entry(0, 0) == Scalar(a)
    # subtraction of equal values gives the zero encoding
    e = staudt.encode_scalar(Fraction(7, 3), fr)
    assert staudt.sub(e, e, fr) == fr.w0
    # adjoint conjugates
    ei = staudt.encode(Matrix(1, 1, [I]), fr)
    assert staudt.decode(staudt.adjoint(ei, fr), fr) == Matrix(1, 1, [Scalar(0, -1)])


def test_matrix_ring_homomorphism():
    rng = random.Random(93)
    fr = staudt.standard_frame(2)
    for _ in range(20):
        a, b = rational_matrix(rng, 2), rational_matrix(rng, 2)
        ea, eb = staudt.encode(a, fr), staudt.encode(b, fr)
        assert staudt.decode(staudt.mul(ea, eb, fr), fr) == a @ b
        assert staudt.decode(staudt.sub(ea, eb, fr), fr) == a - b
        assert staudt.decode(staudt.adjoint(ea, fr), fr) == a.conj_transpose()
    # the documented transpose example
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert staudt.decode(staudt.adjoint(staudt.encode(n, fr), fr), fr) == Matrix.from_rows([[0, 0], [1, 0]])


def test_operations_reject_non_encoded_arguments():
    fr = staudt.standard_frame(1)
    with pytest.raises(ValueError):
        staudt.mul(fr.w1, staudt.encode_scalar(1, fr), fr)


def test_operations_reject_non_standard_frames():
    fr = staudt.standard_frame(1)
    shuffled = staudt.Frame3(fr.w1, fr.w0, fr.w2, fr.v0, fr.v1, 1)
    with pytest.raises(ValueError):
        staudt.mul(staudt.encode_scalar(1, fr), staudt.encode_scalar(1, fr), shuffled)


def test_scaled_frame_identities_regression():
    # the multiplication identity also holds for a rescaled coordinate frame:
    # with X~_j(T) := X_j(r_j T r_{j-1}^{-1}) the displayed product rule
    # transports through the same strips (checked at d = 1)
    r0, r1, r2 = Fraction(2), Fraction(3), Fraction(5)
    scale = {0: (r0, r2), 1: (r1, r0), 2: (r2, r1)}  # X~_j(T) = X_j(r_j T / r_{j-1})

    def lower(j, t):
        rj, rjm1 = scale[j]
        val = rj * t / rjm1
        if j == 0:
            return Subspace.span([0, 1, -val])
        if j == 1:
            return Subspace.span([-val, 0, 1])
        return Subspace.span([1, -val, 0])

    def upper(j, t):
        rj, rjm1 = scale[j]
        val = rjm1 * t / rj
        if j == 0:
            return Subspace.span([0, -val, 1])
        if j == 1:
            return Subspace.span([1, 0, -val])
        return Subspace.span([-val, 1, 0])

    t, s = Fraction(4), Fraction(7)
    for j, w_next in ((0, Subspace.span([0, 0, 1])),):
        left = lower(j, t).join(lower(j + 1, s)).meet(w_next.complement())
        assert left == upper(j + 2, s * t)


def test_poly_parse_and_variables():
    node = staudt.parse_poly("x*y - 6 + adj(z)")
    assert staudt.poly_variables(node) == ["x", "y", "z"]
    with pytest.raises(staudt.PolyParseError):
        staudt.parse_poly("x + ")
    with pytest.raises(staudt.PolyParseError):
        staudt.parse_poly("adj(2)")
    for bad in ("", "(x", "x)", "x y", "(x y)", "x * )", "adj(x", "- + x"):
        with pytest.raises(staudt.PolyParseError):
            staudt.parse_poly(bad)


def test_poly_parse_precedence():
    def shape(n):
        if n.left is None:
            return n.value
        return (n.kind, shape(n.left)) + ((shape(n.right),) if n.right else ())

    node = staudt.parse_poly("-x*y - 2 - (3 + -adj(z))")
    assert shape(node) == ("sub", ("sub", ("mul", ("neg", "x"), "y"), 2), ("add", 3, ("neg", "z")))


def _chain(node, kind):
    """Follow left children while they have the given kind: (length, end node)."""
    n = 0
    while node.kind == kind:
        node, n = node.left, n + 1
    return n, node


def test_poly_parse_deeper_than_the_recursion_limit():
    assert staudt.parse_poly("(" * 1200 + "x" + ")" * 1200) == staudt.PolyNode("var", "x")
    depth, end = _chain(staudt.parse_poly("-" * 1200 + "x"), "neg")
    assert (depth, end) == (1200, staudt.PolyNode("var", "x"))


def test_poly_to_formula_of_a_long_sum():
    text = " + ".join(["x"] * 1500)
    node = staudt.parse_poly(text)
    depth, end = _chain(node, "add")
    assert (depth, end) == (1499, staudt.PolyNode("var", "x"))
    assert staudt.poly_variables(node) == ["x"]
    g = staudt.poly_to_formula(text)
    for value, is_root in ((0, True), (1, False)):
        witness = staudt.assemble_poly_witness(text, {"x": Matrix(1, 1, [Scalar(value)])}, 1)
        assert evaluate(g, witness).is_full() == is_root


def test_poly_to_formula_witness_direction():
    g = staudt.poly_to_formula("x*y - 6")
    witness = staudt.assemble_poly_witness(
        "x*y - 6", {"x": Matrix(1, 1, [Scalar(2)]), "y": Matrix(1, 1, [Scalar(3)])}, 1
    )
    assert evaluate(g, witness).is_full()
    # a non-root does not satisfy it
    bad = staudt.assemble_poly_witness(
        "x*y - 6", {"x": Matrix(1, 1, [Scalar(2)]), "y": Matrix(1, 1, [Scalar(4)])}, 1
    )
    assert not evaluate(g, bad).is_full()


def test_poly_to_formula_matrix_root():
    # x^2 = 0 has the nilpotent matrix root at d = 2
    g = staudt.poly_to_formula("x*x")
    nil = Matrix.from_rows([[0, 1], [0, 0]])
    witness = staudt.assemble_poly_witness("x*x", {"x": nil}, 2)
    assert evaluate(g, witness).is_full()


def test_poly_zero_polynomial():
    g = staudt.poly_to_formula("0")
    witness = staudt.assemble_poly_witness("0", {}, 1)
    assert evaluate(g, witness).is_full()


def test_poly_negative_and_adjoint():
    fr = staudt.standard_frame(1)
    g = staudt.poly_to_formula("adj(x) + 5")
    witness = staudt.assemble_poly_witness("adj(x) + 5", {"x": Matrix(1, 1, [Scalar(-5)])}, 1)
    assert evaluate(g, witness).is_full()


def test_x_squared_plus_one_no_rational_witness():
    # structured search finds no root encoding over the rationals (evidence only)
    from grlogic.solve import PoolConfig, search

    g = staudt.poly_to_formula("x*x + 1")
    fr = staudt.standard_frame(1)
    seeds = tuple(fr.members().values()) + tuple(
        staudt.encode_scalar(t, fr) for t in (-2, -1, 0, 1, 2)
    )
    verdict = search(g, 3, "strong", PoolConfig(seeds=seeds, depth=1, max_assignments=150_000))
    assert verdict.status == "unknown"
    # while x*x - 1 does have one, found from the same pool
    g2 = staudt.poly_to_formula("x*x - 1")
    verdict2 = search(g2, 3, "strong", PoolConfig(seeds=seeds, depth=1, max_assignments=150_000))
    assert verdict2.status == "sat"


def test_repeated_multiplication_stays_exact():
    # encoded arithmetic composes without any precision loss
    fr = staudt.standard_frame(1)
    acc = staudt.encode_scalar(1, fr)
    two = staudt.encode_scalar(2, fr)
    for _ in range(r := 10):
        acc = staudt.mul(acc, two, fr)
    assert staudt.decode(acc, fr) == Matrix(1, 1, [Scalar(2**r)])
    third = staudt.encode_scalar(Fraction(1, 3), fr)
    acc = staudt.encode_scalar(1, fr)
    for _ in range(6):
        acc = staudt.mul(acc, third, fr)
    assert staudt.decode(acc, fr) == Matrix(1, 1, [Scalar(Fraction(1, 729))])
