import hashlib
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from grlogic import reductions as rd
from grlogic import staudt
from grlogic.formats import polysystem_to_text
from grlogic.exactlin import Matrix, Scalar
from grlogic.formula import Assignment, Var, and_all, evaluate, format_formula, free_vars, length, parse
from grlogic.gadgets import floor_half_f
from grlogic.lattice import Subspace
from grlogic.solve import CnfFormula, decide_2d, decide_boolean, search, verify

from conftest import random_formula


def simple_cnf(*clauses):
    return CnfFormula.of([[(f"x{abs(l)}", l > 0) for l in clause] for clause in clauses])


# -- Boolean SAT -> plane --------------------------------------------------------


def test_bool_to_q2d_examples():
    assert decide_2d(rd.bool_to_q2d(simple_cnf([1], [-1])), "strong").status == "unsat"
    v = decide_2d(rd.bool_to_q2d(simple_cnf([1, 2])), "strong")
    assert v.status == "sat"
    decoded = rd.decode_q2d_witness(simple_cnf([1, 2]), v.witness)
    assert decoded is not None and (decoded["x1"] or decoded["x2"])


def test_bool_to_q2d_random_equivalence():
    rng = random.Random(81)
    for _ in range(30):
        n = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            size = min(3, n) if n >= 3 else n
            vs = rng.sample(range(1, n + 1), rng.randint(1, size))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        cnf = simple_cnf(*clauses)
        g = rd.bool_to_q2d(cnf)
        boolean = decide_boolean(cnf.to_formula()).status
        plane = decide_2d(g, "strong").status
        assert boolean == plane
        if plane == "sat":
            witness = decide_2d(g, "strong").witness
            decoded = rd.decode_q2d_witness(cnf, witness)
            assert decoded is not None


# -- weak/strong transfers --------------------------------------------------------


def test_strong_from_weak_at_2d():
    h = floor_half_f()  # weakly but not strongly satisfiable in the plane
    assert decide_2d(h, "weak").status == "sat"
    assert decide_2d(h, "strong").status == "unsat"
    doubled = rd.strong_from_weak(h, 2)
    assert decide_2d(doubled, "strong").status == "sat"
    dead = parse("X & !X")
    assert decide_2d(rd.strong_from_weak(dead, 2), "strong").status == "unsat"
    f = parse("X | !Y")
    assert length(rd.strong_from_weak(f, 3)) == 3 * length(f) + 2


def test_weak_from_strong_at_2d():
    f = parse("eq(X, Y)")
    assert decide_2d(f, "strong").status == "sat"
    transformed = rd.weak_from_strong(f, 2)
    assert decide_2d(transformed, "weak").status == "sat"
    dead = parse("X & !X")
    assert decide_2d(rd.weak_from_strong(dead, 2), "weak").status == "unsat"


def test_lift_dim_bounds():
    with pytest.raises(ValueError):
        rd.lift_dim(parse("X"), 2, 2)
    lifted = rd.lift_dim(parse("X"), 1, 2)
    assert decide_2d(lifted, "weak").status == "sat"


def test_weak2strong_psi_examples():
    f = parse("Y")
    for d in (1, 2, 3):
        combined = rd.weak2strong_psi(f, d)
        weak = Assignment(d, {"Y": Subspace.full(d)})
        witness = rd.weak2strong_witness(f, d, weak)
        assert verify(combined, witness, "strong")
    dead = parse("Y & !Y")
    assert decide_2d(rd.weak2strong_psi(dead, 2), "strong").status == "unsat"
    f2 = parse("X | !Y")
    combined = rd.weak2strong_psi(f2, 4)
    assert length(combined) <= 2 * length(f2) + 200  # 2|f| plus the logarithmic chain


def test_weak2strong_equivalence_at_2d():
    rng = random.Random(82)
    for _ in range(20):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 6))
        weak = decide_2d(f, "weak").status
        strong = decide_2d(rd.weak2strong_psi(f, 2), "strong").status
        assert weak == strong, format_formula(f)


# -- plane quantifier elimination ---------------------------------------------------


def grid_2d():
    a, b = Subspace.span([1, 1]), Subspace.span([1, 2])
    return [Subspace.zero(2), Subspace.full(2), a, a.complement(), b]


def test_qelim2d_commutator_examples():
    # exists X: C(X,Y) != 0 always (X = 0 commutes with everything)
    g, consts = rd.qelim2d(parse("C(X,Y)"), "X", mode="weak")
    for y in grid_2d():
        val = evaluate(g, Assignment(2, {**consts, "Y": y}))
        assert not val.is_zero()
    # exists X: !C(X,Y) != 0 exactly when dim Y = 1
    g2, consts2 = rd.qelim2d(parse("!C(X,Y)"), "X", mode="weak")
    for y in grid_2d():
        val = evaluate(g2, Assignment(2, {**consts2, "Y": y}))
        assert (not val.is_zero()) == (y.dim == 1)
    # and the strong version: exists X with !C(X,Y) = 1, again iff dim Y = 1
    g3, consts3 = rd.qelim2d(parse("!C(X,Y)"), "X", mode="strong")
    for y in grid_2d():
        val = evaluate(g3, Assignment(2, {**consts3, "Y": y}))
        assert val.is_full() == (y.dim == 1)


def test_qelim2d_against_oracle_random():
    rng = random.Random(83)
    for _ in range(20):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 7))
        if "X" not in free_vars(f):
            continue
        for mode in ("weak", "strong"):
            g, consts = rd.qelim2d(f, "X", mode=mode)
            for y in grid_2d():
                binding = Assignment(2, {"Y": y}) if "Y" in free_vars(f) else Assignment(2, {})
                oracle = rd.exists_2d(f, "X", binding, mode=mode)
                env = dict(consts)
                if "Y" in free_vars(g):
                    env["Y"] = y
                val = evaluate(g, Assignment(2, env))
                got = val.is_full() if mode == "strong" else not val.is_zero()
                assert got == oracle, (format_formula(f), mode, y)


def test_qelim2d_with_constants():
    k = Subspace.span([1, 3])
    f = parse("eq(X, K)", constants={"K"})
    g, consts = rd.qelim2d(f, "X", {"K": k}, mode="weak")
    assert "K" in consts
    val = evaluate(g, Assignment(2, consts))
    assert not val.is_zero()  # X = K always exists


# -- polynomial emission -------------------------------------------------------------


def test_to_polysystem_simplest():
    sys1 = rd.to_polysystem(parse("X"), 1, "strong")
    point = {v: Fraction(0) for v in sys1.variables}
    point["M0_0_0_re"] = Fraction(1)
    point["M1_0_0_re"] = Fraction(1)
    assert rd.verify_poly_witness(sys1, point)
    zero_point = {v: Fraction(0) for v in sys1.variables}
    assert not rd.verify_poly_witness(sys1, zero_point)


def test_to_polysystem_unsat_evidence():
    # f = X & !X at d = 1: no zero found on grids or random rational points,
    # and the combined quartic stays strictly positive (it is a sum of squares)
    system = rd.to_polysystem(parse("X & !X"), 1, "strong")
    combined = rd.combine_quartic(system)
    names = system.variables
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    head = [v for v in names if v.endswith("_re")][:5]
    for values in product(grid, repeat=len(head)):
        point = {v: Fraction(0) for v in names}
        point.update(dict(zip(head, values)))
        assert not rd.verify_poly_witness(system, point)
    rng = random.Random(87)
    for _ in range(200):
        point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
        assert not rd.verify_poly_witness(system, point)
        values = {k: Scalar(x) for k, x in point.items()}
        total = rd.poly_eval(combined.combined, values)
        assert total.is_real() and total.re > 0


def test_witness_transfer_and_decode():
    rng = random.Random(84)
    done = 0
    while done < 8:
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 6))
        for mode in ("strong", "weak"):
            verdict = decide_2d(f, mode)
            if verdict.status != "sat" or not free_vars(f):
                continue
            system = rd.to_polysystem(f, 2, mode)
            point = rd.witness_to_point(system, f, verdict.witness)
            assert rd.verify_poly_witness(system, point)
            decoded = rd.point_to_assignment(system, f, point)
            assert verify(f, decoded, mode)
            done += 1


def _assert_leaves_round_trip(f, d, mode, witness):
    system = rd.to_polysystem(f, d, mode)
    point = rd.witness_to_point(system, f, witness)
    assert rd.verify_poly_witness(system, point)
    decoded = rd.point_to_assignment(system, f, point)
    assert decoded.bindings == {name: witness.bound(name) for name in free_vars(f)}, (format_formula(f), mode)


def test_witness_transfer_round_trips_the_leaf_subspaces():
    # formulas with meets: de Morgan turns each into a complemented join
    lines = [Subspace.span([1, q]) for q in (0, 2, -1)]
    cases = [
        ("X & Y", {"X": lines[1], "Y": lines[1]}),
        ("!(!X & Y) & X", {"X": lines[0], "Y": lines[1]}),
        ("X & !Y", {"X": lines[1], "Y": lines[1].complement()}),
        ("(X | Y) & !(X & Y)", {"X": lines[0], "Y": lines[2]}),
        ("X & (Y | !X) & (Z | X)", {"X": lines[2], "Y": lines[0], "Z": Subspace.zero(2)}),
    ]
    for text, bindings in cases:
        f = parse(text)
        witness = Assignment(2, bindings)
        assert verify(f, witness, "weak"), text
        _assert_leaves_round_trip(f, 2, "weak", witness)
        for mode in ("strong", "weak"):
            verdict = decide_2d(f, mode)
            if verdict.status == "sat":
                _assert_leaves_round_trip(f, 2, mode, verdict.witness)
    # a search witness at d = 3, two lines that do not commute
    f = parse("!C(X,Y)")
    verdict = search(f, 3, "weak")
    assert verdict.status == "sat" and {s.dim for s in verdict.witness.bindings.values()} == {1}
    _assert_leaves_round_trip(f, 3, "weak", verdict.witness)


def test_equation_degrees_quadratic():
    rng = random.Random(85)
    for _ in range(10):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 6))
        for mode in ("strong", "weak"):
            system = rd.to_polysystem(f, 2, mode)
            assert all(rd.poly_degree(eq) <= 2 for eq in system.equations)


def test_combine_quartic_zero_set():
    rng = random.Random(86)
    for _ in range(12):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 5))
        system = rd.to_polysystem(f, rng.randint(1, 2), rng.choice(["strong", "weak"]))
        combined = rd.combine_quartic(system)
        assert rd.poly_degree(combined.combined) <= 4
        # at random rational points, the quartic vanishes iff every equation does
        for _ in range(4):
            point = {v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in system.variables}
            values = {k: Scalar(x) for k, x in point.items()}
            each = all(rd.poly_eval(eq, values).is_zero() for eq in system.equations)
            total = rd.poly_eval(combined.combined, values).is_zero()
            assert each == total


def test_combine_requires_split():
    system = rd.to_polysystem(parse("X"), 1, "strong", split=False)
    with pytest.raises(ValueError):
        rd.combine_quartic(system)


def test_unsplit_mode_uses_conjugation_markers():
    system = rd.to_polysystem(parse("!X"), 1, "strong", split=False)
    monomials = {name for eq in system.equations for mon in eq for name in mon}
    assert any(name.startswith("conj(") for name in monomials)


def test_witness_transfer_through_a_complemented_operand():
    # de Morgan writes X & !Y as !(!X | !!Y); the double complement collapses
    # to Y, so no complement is emitted over a complement's matrix
    line = Subspace.span([1, 2])
    f = parse("X & !Y")
    witness = Assignment(2, {"X": line, "Y": line.complement()})
    assert evaluate(f, witness) == line
    system = rd.to_polysystem(f, 2, "weak")
    point = rd.witness_to_point(system, f, witness)
    assert rd.verify_poly_witness(system, point)
    assert verify(f, rd.point_to_assignment(system, f, point), "weak")


def test_witness_transfer_of_a_compiled_polynomial():
    f = staudt.poly_to_formula("x - 1")
    witness = staudt.assemble_poly_witness("x - 1", {"x": Matrix(1, 1, [Scalar(1)])}, 1)
    assert verify(f, witness, "strong")
    system = rd.to_polysystem(f, 3, "strong")
    point = rd.witness_to_point(system, f, witness)
    assert rd.verify_poly_witness(system, point)


def test_emission_shares_repeated_subterms():
    # one set of matrices per distinct node; emitting per tree occurrence gave
    # 1,260 unknowns / 972 equations and 16,398 / 12,762 for these two
    for f, old in ((parse("C(X,Y)"), (1260, 972)), (staudt.poly_to_formula("x - 1"), (16398, 12762))):
        system = rd.to_polysystem(f, 3, "strong")
        assert len(system.variables) < old[0] and len(system.equations) < old[1]


def test_witness_transfer_beyond_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    f = and_all([Var("X") if i % 2 else Var("Y") for i in range(depth)])
    witness = Assignment(1, {"X": Subspace.full(1), "Y": Subspace.full(1)})
    system = rd.to_polysystem(f, 1, "strong")
    point = rd.witness_to_point(system, f, witness)
    assert rd.verify_poly_witness(system, point)


def test_emitted_text_is_pinned():
    # sha256 of polysystem_to_text, recorded from the Fraction-based emitter
    cases = [
        (
            lambda: rd.to_polysystem(parse("C(X,Y)"), 3, "strong"),
            "e8e8a6bf67d8898a8e860620c48575aa9d947254407610fa421dc578bd0ebec4",
        ),
        (
            lambda: rd.combine_quartic(rd.to_polysystem(parse("C(X,Y)"), 2, "weak")),
            "56aaab00a1f4a64e09588a543930eb794ae27df66d78f44efb6501ec20d63113",
        ),
        (
            lambda: rd.to_polysystem(parse("X | !Y"), 2, "weak", split=False),
            "a360681f34437983400f394b577446bbf7eb65066dff92ec1e022c511d768b17",
        ),
        (
            lambda: rd.to_polysystem(staudt.poly_to_formula("x - 1"), 3, "strong"),
            "743dd089a02472a83d26b0d1013dc4436fc0863533d430a7e9d3e598e6a255bf",
        ),
    ]
    for build, digest in cases:
        assert hashlib.sha256(polysystem_to_text(build()).encode()).hexdigest() == digest


def test_combine_quartic_of_a_compiled_polynomial_is_integral():
    # 5,850 equations; summing squares by copying the running sum per equation took about 33 s
    combined = rd.combine_quartic(rd.to_polysystem(staudt.poly_to_formula("x - 1"), 3, "strong"))
    assert len(combined.combined) == 257_185
    assert rd.poly_degree(combined.combined) <= 4
    assert all(type(c) is int for eq in combined.equations for c in eq.values())
    assert all(type(c) is int for c in combined.combined.values())
