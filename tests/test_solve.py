import hashlib
import random
from itertools import product

import pytest

from grlogic import formats, mo
from grlogic.exactlin import Scalar
from grlogic.formula import (
    And,
    Assignment,
    NamedConst,
    Not,
    Or,
    Var,
    and_all,
    const_names,
    evaluate,
    free_vars,
    length,
    or_all,
    parse,
    substitute,
)
from grlogic.gadgets import big_psi, big_psi_witness, floor_half_f, fneq2d, generic_f, ndist_psi
from grlogic.generic import fresh_plane_lines, pairwise_generic
from grlogic.lattice import Subspace
from grlogic.reductions import bool_to_q2d
from grlogic.solve import (
    CnfFormula,
    PoolConfig,
    decide_2d,
    decide_boolean,
    decide_cnf,
    parse_dimacs,
    search,
    shrink_witness,
    to_dimacs,
    two_sat_satisfiable,
    verify,
    weak_dim_bound,
)

from conftest import random_formula, random_subspace


# -- verify -----------------------------------------------------------------


def test_verify_examples():
    f = parse("X")
    assert verify(f, Assignment(2, {"X": Subspace.full(2)}), "strong")
    assert not verify(parse("X & !X"), Assignment(2, {"X": Subspace.span([1, 1])}), "weak")
    fam = pairwise_generic(2, 2)
    assert verify(parse("!C(X,Y)"), Assignment(2, {"X": fam[0], "Y": fam[1]}), "strong")


def test_weak_dim_bound():
    f = parse("X & (Y | X)")
    assert weak_dim_bound(f) == 2 * 5
    assert weak_dim_bound(parse("X")) == 1


# -- Boolean ------------------------------------------------------------------


def test_decide_boolean():
    assert decide_boolean(parse("C(X,Y)")).status == "sat"
    assert decide_boolean(parse("X & !X")).status == "unsat"
    v = decide_boolean(parse("X & !Y"))
    assert v.status == "sat"
    assert v.witness.bindings["X"].is_full() and v.witness.bindings["Y"].is_zero()


def test_decide_boolean_matches_truth_tables():
    rng = random.Random(71)
    for _ in range(60):
        f = random_formula(rng, ["X", "Y", "Z"], rng.randint(1, 8))
        names = sorted(free_vars(f))
        first = None
        for bits in product((0, 1), repeat=len(names)):
            a = Assignment(1, {v: Subspace.full(1) if b else Subspace.zero(1) for v, b in zip(names, bits)})
            if evaluate(f, a).is_full():
                first = a
                break
        verdict = decide_boolean(f)
        assert (verdict.status == "sat") == (first is not None)
        if first is not None:
            # the witness is the first model in product((0, 1), repeat=n) order
            assert verdict.witness.bindings == first.bindings


def test_decide_boolean_at_the_variable_cap():
    xs = [Var(f"x{i:02d}") for i in range(20)]
    assert decide_boolean(or_all([And(x, Not(x)) for x in xs])).status == "unsat"
    # the only model sets exactly x19, the last (least significant) variable
    verdict = decide_boolean(and_all([Not(x) for x in xs[:19]] + [xs[19]]))
    assert verdict.status == "sat"
    assert [verdict.witness.bindings[x.name].is_full() for x in xs] == [False] * 19 + [True]
    too_many = xs + [Var("x20")]
    with pytest.raises(ValueError):
        decide_boolean(or_all([Or(x, Not(x)) for x in too_many]))


def _pinned_boolean_formulas():
    """A fixed, seeded set of Boolean decisions: random formulas in 1-9 variables,
    random 3-CNFs below and above the threshold, and two structured families."""
    rng = random.Random(711)
    formulas = []
    for _ in range(200):
        names = [f"V{i}" for i in range(rng.randint(1, 9))]
        formulas.append(random_formula(rng, names, rng.randint(1, 24)))
    for n in (6, 9, 12):
        for clauses_per_var in (3, 6):
            clauses = [
                [(f"x{v}", rng.random() < 0.5) for v in rng.sample(range(n), 3)] for _ in range(clauses_per_var * n)
            ]
            formulas.append(CnfFormula.of(clauses).to_formula())
    for n in (1, 5, 12):
        xs = [Var(f"x{i}") for i in range(n)]
        formulas.append(or_all([And(x, Not(x)) for x in xs]))
        formulas.append(and_all([Or(x, Not(x)) for x in xs]))
    return formulas


def test_decide_boolean_verdicts_are_pinned():
    # sha256 of the serialised verdicts (status, certificate, first witness),
    # computed with the numpy grid evaluator the int truth tables replaced:
    # 179 Sat, 33 Unsat
    digest = hashlib.sha256()
    for f in _pinned_boolean_formulas():
        digest.update(formats.dumps(formats.verdict_to_obj(decide_boolean(f))).encode())
    assert digest.hexdigest() == "3488439c03b77fcc17a4716f6044b26767eb0aa0b2c3102e3ee9c0d7b4e4a2fa"


# -- plane decider ---------------------------------------------------------------


def test_decide_2d_examples():
    v = decide_2d(parse("!C(X,Y)"), "strong")
    assert v.status == "sat" and verify(parse("!C(X,Y)"), v.witness, "strong")
    assert decide_2d(parse("X & !X"), "weak").status == "unsat"
    assert decide_2d(parse("X & !X"), "strong").status == "unsat"
    assert decide_2d(parse("1"), "strong").status == "sat"
    assert decide_2d(parse("0"), "weak").status == "unsat"


def test_decide_2d_weak_vs_strong():
    # weakly but not strongly satisfiable
    f = parse("X & (!X | Y) & (!X | !Y)")
    assert decide_2d(f, "weak").status == "sat"
    assert decide_2d(f, "strong").status == "unsat"


def _code_subspace(code, lines):
    if code < 2:
        return Subspace.full(2) if code else Subspace.zero(2)
    line = lines[(code - 2) // 2]
    return line.complement() if code % 2 else line


def test_decide_2d_matches_full_enumeration():
    # the orbit-representative search reports the first point of the whole
    # code grid {0, 1, V_1, !V_1, ..., V_n, !V_n}^n, in both modes
    rng = random.Random(72)
    for _ in range(60):
        f = random_formula(rng, ["W", "X", "Y", "Z"][: rng.randint(2, 4)], rng.randint(3, 14))
        names = sorted(free_vars(f))
        lines = pairwise_generic(2, len(names)).members if names else ()
        for mode in ("strong", "weak"):
            first = None
            for codes in product(range(2 * len(names) + 2), repeat=len(names)):
                value = mo.evaluate(f, dict(zip(names, codes)))
                if (value == 1) if mode == "strong" else (value != 0):
                    first = codes
                    break
            verdict = decide_2d(f, mode)
            if first is None:
                assert verdict.status == "unsat", (f, mode)
            else:
                assert verdict.status == "sat", (f, mode)
                expected = {v: _code_subspace(c, lines) for v, c in zip(names, first)}
                assert verdict.witness.bindings == expected, (f, mode)


def _plane_brute_force(f, mode, constants):
    """Exact enumeration over {0, 1, constants and complements, fresh lines and complements}."""
    names = sorted(free_vars(f))
    pool = [Subspace.zero(2), Subspace.full(2)]
    for sub in constants.values():
        pool += [sub, sub.complement()]
    for line in fresh_plane_lines(len(names), constants.values()):
        pool += [line, line.complement()]
    for subs in product(pool, repeat=len(names)):
        if verify(f, Assignment(2, {**constants, **dict(zip(names, subs))}), mode):
            return True
    return False


def test_decide_2d_constants_match_exact_brute_force():
    rng = random.Random(81)
    line, other = Subspace.span([1, 0]), Subspace.span([1, 2])
    tilted = Subspace.from_rows(2, [[1, Scalar(0, 1)]])
    choices = [
        {"C": line},
        {"C": tilted},
        {"C": Subspace.zero(2)},
        {"C": Subspace.full(2)},
        {"C": line, "D": line.complement()},  # perpendicular constants share a pair
        {"C": line, "D": line},
        {"C": line, "D": other},
    ]
    for _ in range(60):
        constants = rng.choice(choices)
        f = random_formula(rng, ["X", "Y"] + list(constants), rng.randint(2, 9))
        f = substitute(f, {c: NamedConst(c) for c in constants})
        used = {c: constants[c] for c in const_names(f)}
        for mode in ("strong", "weak"):
            verdict = decide_2d(f, mode, constants)
            assert (verdict.status == "sat") == _plane_brute_force(f, mode, used), (f, mode)
            if verdict.status == "sat":
                assert verify(f, verdict.witness, mode)


def test_decide_2d_constants_fresh_line_complements():
    # X = span(1,1), Y = span(1,-1) is a witness: the search needs the
    # complement of a fresh line
    text = (
        "(X | C) & !(X & C) & (Y | C) & !(Y & C) & ((X & Y) | (X & !Y) | (!X & Y) | (!X & !Y))"
        " & (X | Y) & (!X | !Y)"
    )
    f = parse(text, constants={"C"})
    constants = {"C": Subspace.span([1, 0])}
    assert verify(f, Assignment(2, {**constants, "X": Subspace.span([1, 1]), "Y": Subspace.span([1, -1])}), "strong")
    for mode in ("strong", "weak"):
        verdict = decide_2d(f, mode, constants)
        assert verdict.status == "sat"
        assert verify(f, verdict.witness, mode)


def _pinned_decisions():
    """A fixed, seeded set of constant-free plane decisions, each in both modes."""
    formulas = [generic_f(2, n) for n in (3, 4, 5, 6)]
    formulas += [big_psi(2), big_psi(3), ndist_psi(2), ndist_psi(3), ndist_psi(4), fneq2d()]
    rng = random.Random(701)
    for n in (4, 5, 6, 7):
        for clauses_per_var in (3, 7):  # below and above the 3-SAT threshold
            clauses = [
                [(f"x{v}", rng.random() < 0.5) for v in rng.sample(range(n), 3)] for _ in range(clauses_per_var * n)
            ]
            formulas.append(bool_to_q2d(CnfFormula.of(clauses)))
    for _ in range(80):
        names = ["V", "W", "X", "Y", "Z"][: rng.randint(1, 5)]
        formulas.append(random_formula(rng, names, rng.randint(1, 12)))
    return [(f, mode) for f in formulas for mode in ("strong", "weak")]


def test_decide_2d_verdicts_are_pinned():
    # sha256 of the serialised verdicts (status, certificate, first witness),
    # computed with the full-grid and plain backtracking searches this engine
    # replaced: 161 Sat, 35 Unsat
    digest = hashlib.sha256()
    for f, mode in _pinned_decisions():
        digest.update(formats.dumps(formats.verdict_to_obj(decide_2d(f, mode))).encode())
    assert digest.hexdigest() == "e23d7b5e5fa4d8fefc3e6f9db57c931f7ab765ca96f472355c8713d61c14e218"


def test_decide_2d_weak_prunes_on_the_running_meet():
    # each needs weak mode to prune on the running meet of the conjuncts;
    # checked only at full assignments, each takes many seconds
    assert decide_2d(ndist_psi(4), "weak").status == "unsat"
    verdict = decide_2d(generic_f(2, 6), "weak")
    assert verdict.status == "sat" and verify(generic_f(2, 6), verdict.witness, "weak")
    rng = random.Random(83)
    while True:
        clauses = [[(f"x{v}", rng.random() < 0.5) for v in rng.sample(range(7), 3)] for _ in range(42)]
        models = (
            bits
            for bits in product((False, True), repeat=7)
            if all(any(bits[int(v[1:])] == pos for v, pos in clause) for clause in clauses)
        )
        if len({v for clause in clauses for v, _ in clause}) == 7 and next(models, None) is None:
            break
    assert decide_2d(bool_to_q2d(CnfFormula.of(clauses)), "weak").status == "unsat"


def test_decide_2d_pool_invariance():
    # verdicts agree whichever concrete pairwise generic pool evaluates them
    rng = random.Random(73)
    from grlogic.solve import pool_search

    for _ in range(25):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 7))
        names = sorted(free_vars(f))
        symbolic = decide_2d(f, "strong").status
        for start in (1, 5):
            lines = [Subspace.span([1, q]) for q in range(start, start + len(names))]
            pool = [Subspace.zero(2), Subspace.full(2)]
            for ln in lines:
                pool.extend([ln, ln.complement()])
            found = pool_search(f, "strong", names, pool, Assignment(2, {}), None)
            assert (found is not None) == (symbolic == "sat")


def test_decide_2d_with_constants():
    # exists X with X = K is decided relative to the bound constant
    f = parse("eq(X, K)", constants={"K"})
    line = Subspace.span([1, 3])
    v = decide_2d(f, "strong", constants={"K": line})
    assert v.status == "sat"
    assert v.witness.bindings["X"] == line
    with pytest.raises(ValueError):
        decide_2d(f, "strong")


def test_decide_2d_large_guard():
    f = parse(" & ".join(f"X{i}" for i in range(1, 11)))
    with pytest.raises(ValueError):
        decide_2d(f, "strong")


def test_decide_2d_deeper_than_the_recursion_limit():
    # the search keeps one stack frame per variable only in data, not in calls
    names = [f"X{i}" for i in range(1200)]
    with_constant = and_all([Or(Var(x), NamedConst("C")) for x in names])
    tautologies = and_all([Or(Var(x), Not(Var(x))) for x in names])
    for mode in ("strong", "weak"):
        for f, kwargs in ((with_constant, {"constants": {"C": Subspace.full(2)}}), (tautologies, {"allow_large": True})):
            v = decide_2d(f, mode, **kwargs)
            assert v.status == "sat"
            assert all(v.witness.bindings[x].is_zero() for x in names)


# -- conjunctive forms --------------------------------------------------------


def test_cnf_validation():
    with pytest.raises(ValueError):
        CnfFormula.of([[("x", True), ("x", False)]])
    with pytest.raises(ValueError):
        CnfFormula.of([[]])


def test_dimacs_roundtrip():
    text = """c example
p cnf 3 2
1 -2 0
2 3 0
"""
    cnf = parse_dimacs(text)
    assert cnf.clauses == ((("x1", True), ("x2", False)), (("x2", True), ("x3", True)))
    again = parse_dimacs(to_dimacs(cnf))
    assert again == cnf


def test_two_sat_matches_brute_force():
    rng = random.Random(74)
    for _ in range(200):
        n = rng.randint(1, 5)
        names = [f"x{i}" for i in range(1, n + 1)]
        clauses = []
        for _ in range(rng.randint(1, 6)):
            a, b = rng.sample(names, 2) if n > 1 else (names[0], None)
            if b is None:
                continue
            clauses.append(((a, rng.random() < 0.5), (b, rng.random() < 0.5)))
        if not clauses:
            continue
        brute = any(
            all(any(dict(zip(names, bits))[v] == pos for v, pos in clause) for clause in clauses)
            for bits in product((False, True), repeat=n)
        )
        assert two_sat_satisfiable(clauses) == brute


def simple_cnf(*clauses):
    return CnfFormula.of([[(f"x{abs(l)}", l > 0) for l in clause] for clause in clauses])


def test_decide_cnf_contradiction():
    cnf = simple_cnf([1], [-1])
    for d in (1, 2, 3, 4):
        for mode in ("strong", "weak"):
            assert decide_cnf(cnf, d, mode).status == "unsat"


def test_decide_cnf_three_literal_clauses_always_sat():
    cnf = simple_cnf([1, 2, 3], [-1, -2, 3], [1, -2, -3])
    for d in (2, 3, 4, 5):
        for mode in ("strong", "weak"):
            v = decide_cnf(cnf, d, mode)
            assert v.status == "sat"
            assert verify(cnf.to_formula(), v.witness, mode)


def test_decide_cnf_boolean_unsat_two_cnf():
    # Boolean-unsatisfiable 2-CNF: strong-unsat in every odd d, sat in even d
    cnf = simple_cnf([1, 2], [-1, 2], [-2, 1], [-1, -2])
    for d in (3, 5):
        assert decide_cnf(cnf, d, "strong").status == "unsat"
    for d in (2, 4):
        v = decide_cnf(cnf, d, "strong")
        assert v.status == "sat" and verify(cnf.to_formula(), v.witness, "strong")
    # weakly satisfiable everywhere above dimension 1
    for d in (2, 3):
        v = decide_cnf(cnf, d, "weak")
        assert v.status == "sat" and verify(cnf.to_formula(), v.witness, "weak")


def test_decide_cnf_weak_no_chain_propagation():
    # weakly satisfiable although unit propagation derives a contradiction
    cnf = simple_cnf([1], [-1, 2], [-1, -2])
    v = decide_cnf(cnf, 2, "weak")
    assert v.status == "sat"
    assert verify(cnf.to_formula(), v.witness, "weak")
    assert decide_cnf(cnf, 2, "strong").status == "unsat"
    # but a clause of directly falsified literals is genuinely value-free
    cnf2 = simple_cnf([1], [2], [-1, -2])
    for d in (2, 3, 4):
        assert decide_cnf(cnf2, d, "weak").status == "unsat"


def test_decide_cnf_mixed_clause_sizes_odd_dimension():
    cnf = simple_cnf([1], [-1, 2], [2, 3, 4], [-3, -4])
    for d in (3, 5):
        v = decide_cnf(cnf, d, "strong")
        assert v.status == "sat"
        assert verify(cnf.to_formula(), v.witness, "strong")


def test_decide_cnf_dimension_one_delegates():
    cnf = simple_cnf([1, 2], [-1, 2], [-2, 1], [-1, -2])
    assert decide_cnf(cnf, 1, "strong").status == "unsat"
    assert decide_cnf(simple_cnf([1, 2]), 1, "strong").status == "sat"


def test_decide_cnf_agrees_with_2d_on_random_formulas():
    rng = random.Random(75)
    names = ["x1", "x2", "x3"]
    for _ in range(120):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 3)
            vs = rng.sample(names, size)
            clauses.append([(v, rng.random() < 0.5) for v in vs])
        cnf = CnfFormula.of(clauses)
        f = cnf.to_formula()
        for mode in ("strong", "weak"):
            assert decide_cnf(cnf, 2, mode).status == decide_2d(f, mode).status, (clauses, mode)


# -- incomplete search ---------------------------------------------------------


def test_search_floor_half_weak_witness():
    verdict = search(floor_half_f(), 2, "weak", PoolConfig(depth=2))
    assert verdict.status == "sat"
    value = evaluate(floor_half_f(), verdict.witness)
    assert value.dim == 1


def test_search_big_psi_2():
    verdict = search(big_psi(2), 2, "strong")
    assert verdict.status == "sat"
    assert verify(big_psi(2), verdict.witness, "strong")


def test_search_never_refutes():
    assert search(parse("X & !X"), 2, "strong").status == "unknown"
    assert search(parse("X & !X"), 3, "weak").status == "unknown"


def test_search_binds_named_constants_from_the_pool():
    f = parse("X & !K", constants={"K"})
    verdict = search(f, 2, "weak")
    assert verdict.status == "sat" and verify(f, verdict.witness, "weak")


def test_search_seeded_pool():
    w = big_psi_witness(2, 4)
    cfg = PoolConfig(seeds=tuple(w.bindings.values()))
    verdict = search(big_psi(2), 4, "strong", cfg)
    assert verdict.status == "sat"


# -- witness shrinking ----------------------------------------------------------


def test_shrink_witness_base_case():
    g = parse("X")
    z = Subspace.span([1, 0, 0, 0, 0])
    a = Assignment(5, {"X": Subspace.full(5)})
    out = shrink_witness(g, a, z)
    assert out.bindings["X"] == z


def test_shrink_witness_join_split():
    g = parse("X | Y")
    x = Subspace.span([1, 0, 0])
    y = Subspace.span([0, 1, 0])
    z = Subspace.span([1, 1, 0])  # inside the join, in neither part
    a = Assignment(3, {"X": x, "Y": y})
    out = shrink_witness(g, a, z)
    assert out.bindings["X"].dim <= 1 and out.bindings["Y"].dim <= 1
    assert evaluate(g, out).contains(z)
    assert x.contains(out.bindings["X"]) and y.contains(out.bindings["Y"])


def test_shrink_witness_random_property():
    rng = random.Random(76)
    checked = 0
    while checked < 40:
        d = rng.randint(2, 4)
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 7))
        from grlogic.formula import nnf_with_map

        g, mapping = nnf_with_map(f)
        bindings = {"X": random_subspace(rng, d), "Y": random_subspace(rng, d)}
        extended = dict(bindings)
        for orig, primed in mapping.items():
            extended[primed] = bindings[orig].complement()
        ga = Assignment(d, {v: extended[v] for v in free_vars(g)}) if free_vars(g) else Assignment(d, {})
        value = evaluate(g, ga)
        if value.is_zero():
            continue
        z = Subspace(d, value.basis.__class__.from_rows([value.basis.row(0)], cols=d))
        out = shrink_witness(g, ga, z)
        bound = length(g)
        for v, sub in out.bindings.items():
            assert sub.dim <= bound
            assert ga.bindings[v].contains(sub)
        assert evaluate(g, out).contains(z)
        # support fits inside the variable-count * length bound
        support = Subspace.zero(d)
        for sub in out.bindings.values():
            support = support.join(sub)
        assert support.dim <= weak_dim_bound(g)
        checked += 1


def test_shrink_witness_rejects_bad_input():
    with pytest.raises(ValueError):
        shrink_witness(parse("!X"), Assignment(2, {"X": Subspace.zero(2)}), Subspace.span([1, 0]))
    with pytest.raises(ValueError):
        shrink_witness(
            parse("X"),
            Assignment(2, {"X": Subspace.span([0, 1])}),
            Subspace.span([1, 0]),
        )


# -- cross-decider consistency ----------------------------------------------------


def test_search_never_contradicts_complete_deciders():
    rng = random.Random(77)
    for _ in range(25):
        f = random_formula(rng, ["X", "Y"], rng.randint(1, 6))
        for mode in ("strong", "weak"):
            complete = decide_2d(f, mode)
            found = search(f, 2, mode)
            if found.status == "sat":
                assert complete.status == "sat"
            # a search Sat verdict always carries a verified witness
            if complete.status == "unsat":
                assert found.status in ("unknown",)


def test_certificates_and_witness_serialization():
    import json

    cases = [
        (decide_2d(parse("!C(X,Y)"), "strong"), parse("!C(X,Y)"), "strong"),
        (decide_cnf(simple_cnf([1, 2, 3]), 4, "strong"), simple_cnf([1, 2, 3]).to_formula(), "strong"),
        (decide_cnf(simple_cnf([1], [-1, 2]), 3, "weak"), simple_cnf([1], [-1, 2]).to_formula(), "weak"),
        (decide_boolean(parse("X | Y")), parse("X | Y"), "strong"),
    ]
    for verdict, f, mode in cases:
        assert verdict.status == "sat"
        assert verdict.certificate  # names the rule applied
        blob = formats.dumps(formats.verdict_to_obj(verdict))
        parsed = formats.verdict_from_obj(json.loads(blob))
        assert parsed.status == "sat"
        assert verify(f, parsed.witness, mode)


def test_example_g_trivially_strong_sat_2d():
    g = parse("(C(X,Y)|X|Y) & (C(X,Z)|X|Z) & (C(Y,Z)|Y|Z)")
    assert decide_2d(g, "strong").status == "sat"


def test_npc_wrap_of_satisfiable_boolean():
    from grlogic.gadgets import npc_commuting_wrap

    f = parse("X & !Y | Z")
    wrapped = npc_commuting_wrap(f)
    assert decide_boolean(f).status == "sat"
    assert decide_boolean(wrapped).status == "sat"


def test_decide_cnf_weak_upward_heredity():
    # a weak witness in F^d embeds into F^(d+1): verdicts never flip downward
    rng = random.Random(78)
    names = ["x1", "x2", "x3"]
    for _ in range(60):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            vs = rng.sample(names, rng.randint(1, 3))
            clauses.append([(v, rng.random() < 0.5) for v in vs])
        cnf = CnfFormula.of(clauses)
        statuses = [decide_cnf(cnf, d, "weak").status for d in (2, 3, 4, 5)]
        assert "unknown" not in statuses
        for earlier, later in zip(statuses, statuses[1:]):
            if earlier == "sat":
                assert later == "sat"


def test_decide_cnf_strong_implies_weak():
    rng = random.Random(79)
    names = ["x1", "x2", "x3", "x4"]
    for _ in range(60):
        clauses = []
        for _ in range(rng.randint(1, 5)):
            vs = rng.sample(names, rng.randint(1, 3))
            clauses.append([(v, rng.random() < 0.5) for v in vs])
        cnf = CnfFormula.of(clauses)
        for d in (2, 3, 4):
            if decide_cnf(cnf, d, "strong").status == "sat":
                assert decide_cnf(cnf, d, "weak").status == "sat"


def test_decide_cnf_odd_unsat_consistent_with_search():
    # when the odd-dimension decider refutes, the incomplete search agrees
    # by failing to find anything (it can never contradict a complete decider)
    cnf = simple_cnf([1, 2], [-1, 2], [-2, 1], [-1, -2])
    assert decide_cnf(cnf, 3, "strong").status == "unsat"
    found = search(cnf.to_formula(), 3, "strong", PoolConfig(vandermonde_points=4, depth=2, max_pool=20))
    assert found.status == "unknown"


def test_decide_cnf_agrees_with_search_beyond_the_plane():
    # a search witness where decide_cnf said Unsat would refute it, and
    # every decide_cnf witness must verify on its own
    rng = random.Random(81)
    seen = set()
    for d in (3, 4, 5, 6):
        for mode in ("strong", "weak"):
            for _ in range(20):
                names = [f"x{i}" for i in range(1, rng.randint(3, 4) + 1)]
                clauses = [
                    [(v, rng.random() < 0.5) for v in rng.sample(names, rng.randint(1, 3))]
                    for _ in range(rng.randint(2, 6))
                ]
                cnf = CnfFormula.of(clauses)
                f = cnf.to_formula()
                decided, found = decide_cnf(cnf, d, mode), search(f, d, mode)
                assert decided.status in ("sat", "unsat"), (clauses, d, mode)
                if decided.status == "sat":
                    assert verify(f, decided.witness, mode), (clauses, d, mode)
                else:
                    assert found.status == "unknown", (clauses, d, mode)
                seen.add((decided.status, found.status))
    assert ("sat", "sat") in seen and ("unsat", "unknown") in seen


def test_decide_cnf_never_unknown_stress():
    # the complete decider must never fall back to Unknown: stress the
    # mixed-witness construction across parities, sizes and modes
    rng = random.Random(80)
    for _ in range(60):
        n = rng.randint(2, 8)
        names = [f"x{i}" for i in range(1, n + 1)]
        clauses = []
        for _ in range(rng.randint(1, 9)):
            vs = rng.sample(names, min(rng.randint(1, 3), n))
            clauses.append([(v, rng.random() < 0.5) for v in vs])
        cnf = CnfFormula.of(clauses)
        for d in (2, 3, 5, 7):
            for mode in ("strong", "weak"):
                assert decide_cnf(cnf, d, mode).status != "unknown"


def test_decide_2d_lexicographic_first_witness():
    # the reported witness is the first in pool-enumeration order:
    # 0, 1, V1, !V1, V2, !V2 per variable, variables sorted by name
    v = decide_2d(parse("X | Y"), "strong")
    assert v.witness.bindings["X"] == Subspace.zero(2)
    assert v.witness.bindings["Y"] == Subspace.full(2)
    w = decide_2d(parse("X"), "weak")
    assert w.witness.bindings["X"] == Subspace.full(2)
