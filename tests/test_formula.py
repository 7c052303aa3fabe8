import random

import pytest

from grlogic import mo
from grlogic import formula as fm
from grlogic.formula import (
    And,
    Assignment,
    Const0,
    Const1,
    NamedConst,
    Not,
    Or,
    ParseError,
    Var,
    and_all,
    conjuncts,
    evaluate,
    format_formula,
    free_vars,
    leaf_negation_form,
    length,
    nnf,
    nnf_with_map,
    parse,
    substitute,
)
from grlogic.lattice import Subspace
from grlogic.solve import decide_2d

from conftest import random_formula, random_subspace


def test_parse_examples():
    assert parse("!(X & Y)") == Not(And(Var("X"), Var("Y")))
    c = parse("C(X,Y)")
    x, y = Var("X"), Var("Y")
    assert c == Or(Or(Or(And(x, y), And(x, Not(y))), And(Not(x), y)), And(Not(x), Not(y)))
    assert format_formula(parse("X | !X")) == "X | !X"
    assert parse("proj(X, Z)") == And(Var("Z"), Or(Var("X"), Not(Var("Z"))))
    assert parse("eq(X, Y)") == Or(And(x, y), And(Not(x), Not(y)))


def test_parse_precedence_and_errors():
    assert parse("X | Y & Z") == Or(Var("X"), And(Var("Y"), Var("Z")))
    assert parse("!X & Y") == And(Not(Var("X")), Var("Y"))
    for bad in ["", "X |", "(X", "X & & Y", "C(X)", "2"]:
        with pytest.raises(ParseError):
            parse(bad)
    err = None
    try:
        parse("X & (Y |")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == len("X & (Y |")


def test_print_parse_roundtrip_random():
    rng = random.Random(31)
    for _ in range(300):
        f = random_formula(rng, ["X", "Y", "Z"], rng.randint(0, 12))
        assert parse(format_formula(f)) is f


def test_macros_parse_to_their_builders():
    from grlogic import gadgets

    a, b = Var("A"), Var("B")
    for name, builder in (("C", gadgets.commutator_f), ("proj", gadgets.proj_f), ("eq", gadgets.eq_f), ("leq", gadgets.leq_f)):
        assert parse(f"{name}(A, B)") is builder(a, b)
        assert parse(f"{name}(A & !B, B | A)") is builder(And(a, Not(b)), Or(b, a))


def test_commutator_resugar():
    from grlogic.gadgets import commutator_f

    c = commutator_f(Var("A"), Var("B"))
    assert format_formula(c) == "C(A, B)"
    assert parse(format_formula(c)) is c
    nested = And(c, Var("Z"))
    assert "C(A, B)" in format_formula(nested)


def test_named_constants():
    f = parse("X & K", constants={"K"})
    assert NamedConst("K") in list(_leaves(f))
    # printing keeps the name; reparsing with the same constant set round-trips
    assert parse(format_formula(f), constants={"K"}) is f


def _leaves(f):
    from grlogic.formula import iter_nodes

    return [n for n in iter_nodes(f) if isinstance(n, (Var, NamedConst))]


def test_eval_examples():
    s = Subspace.span([1, 0])
    a = Assignment(2, {"X": s})
    assert evaluate(parse("X"), a) == s
    t = Subspace.span([1, 1])
    ab = Assignment(2, {"X": s, "Y": t})
    assert evaluate(parse("!X | !Y"), ab) == evaluate(parse("!(X & Y)"), ab)
    assert evaluate(parse("C(X,Y)"), ab).is_zero()


def test_eval_is_homomorphism_against_naive():
    def naive(f, a, z):
        if isinstance(f, (Var, NamedConst)):
            return a.bindings[f.name]
        if isinstance(f, Const0):
            return Subspace.zero(a.ambient)
        if isinstance(f, Const1):
            return z
        if isinstance(f, Not):
            return z.meet(naive(f.child, a, z).complement())
        if isinstance(f, And):
            return naive(f.left, a, z).meet(naive(f.right, a, z))
        return naive(f.left, a, z).join(naive(f.right, a, z))

    rng = random.Random(32)
    for _ in range(60):
        d = rng.randint(1, 3)
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 8))
        a = Assignment(d, {"X": random_subspace(rng, d), "Y": random_subspace(rng, d)})
        assert evaluate(f, a) == naive(f, a, Subspace.full(d))


def test_eval_relative_interval():
    # negation relative to z: value(!X) = z ^ !X
    z = Subspace.from_rows(3, [[1, 0, 0], [0, 1, 0]])
    x = Subspace.span([1, 0, 0])
    a = Assignment(3, {"X": x})
    val = evaluate(parse("!X"), a, z)
    assert val == z.meet(x.complement())
    assert evaluate(parse("1"), a, z) == z
    with pytest.raises(ValueError):
        evaluate(parse("!X"), Assignment(3, {"X": Subspace.span([0, 0, 1])}), Subspace.from_rows(3, [[1, 0, 0]]))


def test_eval_unbound_name():
    from grlogic.formula import UnboundNameError

    with pytest.raises(UnboundNameError):
        evaluate(parse("X & Y"), Assignment(2, {"X": Subspace.zero(2)}))


def test_relativization_under_commuting_blocks():
    # eval_z(f; X ^ z) = eval(f; X) ^ z when z commutes with every binding
    from grlogic.lattice import direct_sum

    rng = random.Random(33)
    for _ in range(25):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 7))
        a1 = Assignment(2, {"X": random_subspace(rng, 2), "Y": random_subspace(rng, 2)})
        a2 = Assignment(2, {"X": random_subspace(rng, 2), "Y": random_subspace(rng, 2)})
        combined = Assignment(
            4, {v: direct_sum(a1.bindings[v], a2.bindings[v]) for v in ("X", "Y")}
        )
        z = direct_sum(Subspace.full(2), Subspace.zero(2))
        cut = Assignment(4, {v: combined.bindings[v].meet(z) for v in ("X", "Y")})
        assert evaluate(f, cut, z) == evaluate(f, combined).meet(z)


def test_weak_equivalence_pair():
    # f and g take the value 1 together on a sampled grid, yet differ pointwise
    f, g = parse("X & (!X | Y)"), parse("Y & (!Y | X)")
    x, y = Subspace.span([1, 0]), Subspace.span([1, 1])
    a = Assignment(2, {"X": x, "Y": y})
    assert evaluate(f, a) == x and evaluate(g, a) == y
    pool = [Subspace.zero(2), Subspace.full(2), x, y, x.complement(), y.complement()]
    for u in pool:
        for v in pool:
            ab = Assignment(2, {"X": u, "Y": v})
            assert evaluate(f, ab).is_full() == evaluate(g, ab).is_full()


def test_length_counts_all_nodes():
    assert length(parse("X")) == 1
    assert length(parse("!X")) == 2
    assert length(parse("X & Y | Z")) == 5
    assert length(parse("C(X,Y)")) == 19  # 8 leaves, 4 complements, 4 meets, 3 joins


def test_nnf_examples():
    assert nnf(parse("!(!X)")) == Var("X")
    g = nnf(parse("!(X & Y)"))
    assert g == Or(Var("X_c"), Var("Y_c"))
    assert not any(isinstance(n, Not) for n in _nodes(g))


def _nodes(f):
    from grlogic.formula import iter_nodes

    return list(iter_nodes(f))


def test_nnf_size_and_equivalence_random():
    rng = random.Random(34)
    for _ in range(100):
        d = rng.randint(1, 4)
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 9))
        g, mapping = nnf_with_map(f)
        assert length(g) <= length(f)
        assert not any(isinstance(n, Not) for n in _nodes(g))
        bindings = {"X": random_subspace(rng, d), "Y": random_subspace(rng, d)}
        a = Assignment(d, dict(bindings))
        extended = dict(bindings)
        for orig, primed in mapping.items():
            extended[primed] = bindings[orig].complement()
        assert evaluate(f, a) == evaluate(g, Assignment(d, extended))


def test_nnf_collision_avoidance():
    f = And(Not(Var("X")), Var("X_c"))
    g, mapping = nnf_with_map(f)
    assert mapping["X"] != "X_c"
    assert free_vars(g) == {"X_c", mapping["X"]}


def test_leaf_negation_form():
    f = parse("!(X & (Y | !Z))")
    g = leaf_negation_form(f)
    for n in _nodes(g):
        if isinstance(n, Not):
            assert isinstance(n.child, (Var, NamedConst))
    rng = random.Random(35)
    for _ in range(50):
        d = rng.randint(1, 3)
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 8))
        a = Assignment(d, {"X": random_subspace(rng, d), "Y": random_subspace(rng, d)})
        assert evaluate(f, a) == evaluate(leaf_negation_form(f), a)


def test_parser_never_crashes_on_garbage():
    rng = random.Random(36)
    alphabet = "XY!&|()01,Cproje q_"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        try:
            f = parse(text)
        except ParseError:
            continue
        # whatever parses must round-trip
        assert parse(format_formula(f)) is f


def test_whitespace_insignificant():
    assert parse("X&Y |!Z") == parse("  X & Y | ! Z  ")
    assert parse("C( X ,Y )") == parse("C(X,Y)")


# -- hash-consing and depth ----------------------------------------------------


def test_equal_structure_is_one_object():
    x, y = Var("X"), Var("Y")
    assert Var("X") is x and NamedConst("X") is not x
    assert And(x, Not(y)) is And(Var("X"), Not(Var("Y")))
    assert And(x, y) is not Or(x, y) and And(x, y) is not And(y, x)
    assert parse("C(X,Y)") is parse("C(X, Y)") is parse(format_formula(parse("C(X,Y)")))
    assert Const0() is Const0() and Const1() is Const1()


def test_nodes_are_immutable():
    f = parse("X & !Y")
    for node, attr in ((f, "left"), (f.right, "child"), (f.left, "name"), (Const1(), "extra")):
        with pytest.raises(AttributeError):
            setattr(node, attr, Var("Z"))
    assert f is And(Var("X"), Not(Var("Y")))
    with pytest.raises(TypeError):
        And(Var("X"))


def test_intern_table_does_not_grow_after_formulas_are_dropped():
    before = len(fm._interned)
    for i in range(3):
        f = and_all([Or(Var(f"T{i}_{k}"), Not(Var(f"T{i}_{k + 1}"))) for k in range(2000)])
        assert length(f) == 9999 and evaluate(f, Assignment(1, {v: Subspace.full(1) for v in free_vars(f)})).is_full()
        del f
        assert len(fm._interned) == before


def test_conjuncts_of_left_and_right_chains():
    a, b, c = Var("A"), parse("B | C"), parse("!D")
    assert conjuncts(And(And(a, b), c)) == [a, b, c]
    assert conjuncts(And(a, And(b, c))) == [a, b, c]
    assert conjuncts(b) == [b] and conjuncts(And(a, a)) == [a, a]


DEPTH = 100_000


def _deep_formulas():
    names = [f"V{i}" for i in range(3)]
    left = and_all([Var(names[i % 3]) for i in range(DEPTH)])
    right = Var("V0")
    for i in range(1, DEPTH):
        right = And(Var(names[i % 3]), right)
    nots = Var("V0")
    for _ in range(DEPTH):
        nots = Not(nots)
    return [left, right, nots]


def test_formulas_of_any_depth():
    full, zero = Subspace.full(1), Subspace.zero(1)
    a = Assignment(1, {"V0": full, "V1": full, "V2": zero})
    codes = {"V0": mo.atom(1), "V1": mo.atom(2), "V2": mo.atom(1)}
    for f in _deep_formulas():
        is_chain = type(f) is And
        assert f is not Var("V0") and f == f and hash(f) == hash(f)
        assert length(f) == (2 * DEPTH - 1 if is_chain else DEPTH + 1)
        assert free_vars(f) == ({"V0", "V1", "V2"} if is_chain else {"V0"})
        assert evaluate(f, a) == (zero if is_chain else full)
        assert mo.evaluate(f, codes) == (mo.CODE_ZERO if is_chain else mo.atom(1))
        assert parse(format_formula(f)) is f
        g = substitute(f, {"V0": Var("V1")})
        assert g is substitute(f, {"V0": Var("V1")}) and free_vars(g) == free_vars(f) - {"V0"} | {"V1"}
        assert mo.evaluate(g, codes) == (mo.CODE_ZERO if is_chain else mo.atom(2))
        for h in (nnf(f), leaf_negation_form(f)):
            assert not any(type(n) is Not for n in _nodes(h))  # an even number of complements cancels
            assert mo.evaluate(h, codes) == mo.evaluate(f, codes)
        assert decide_2d(And(f, Not(Var("V0"))), "weak").status == "unsat"
