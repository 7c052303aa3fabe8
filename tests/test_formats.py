import json
import random
from fractions import Fraction

from grlogic import formats
from grlogic.exactlin import Scalar
from grlogic.formula import Assignment, parse
from grlogic.lattice import Subspace
from grlogic.pluecker import to_pluecker
from grlogic.reductions import combine_quartic, to_polysystem
from grlogic.solve import SatVerdict, decide_2d

from conftest import random_subspace


def test_subspace_roundtrip():
    rng = random.Random(131)
    for _ in range(40):
        s = random_subspace(rng, rng.randint(0, 4))
        blob = json.dumps(formats.subspace_to_obj(s))
        assert formats.subspace_from_obj(json.loads(blob)) == s


def test_assignment_roundtrip():
    a = Assignment(
        3,
        {
            "X": Subspace.span([1, 0, 0]),
            "Y": Subspace.from_rows(3, [[1, 0, 0], [0, Scalar(1), Scalar(0, 1)]]),
        },
    )
    blob = formats.dumps(formats.assignment_to_obj(a))
    back = formats.assignment_from_obj(json.loads(blob))
    assert back.ambient == 3 and back.bindings == a.bindings


def test_verdict_roundtrip():
    v = decide_2d(parse("!C(X,Y)"), "strong")
    blob = formats.dumps(formats.verdict_to_obj(v))
    back = formats.verdict_from_obj(json.loads(blob))
    assert back.status == "sat" and back.witness.bindings == v.witness.bindings
    unsat = SatVerdict("unsat", None, "why")
    assert formats.verdict_from_obj(json.loads(formats.dumps(formats.verdict_to_obj(unsat)))).witness is None


def test_pluecker_roundtrip():
    s = Subspace.from_rows(4, [[1, 0, 2, 0], [0, 1, 0, Scalar(0, 1)]])
    v = to_pluecker(s)
    back = formats.pluecker_from_obj(json.loads(formats.dumps(formats.pluecker_to_obj(v))))
    assert back == v


def test_polysystem_roundtrip_and_text():
    system = combine_quartic(to_polysystem(parse("X | !Y"), 2, "weak"))
    obj = formats.polysystem_to_obj(system)
    back = formats.polysystem_from_obj(json.loads(json.dumps(obj)))
    assert back.variables == system.variables
    assert back.equations == system.equations
    assert back.combined == system.combined
    text = formats.polysystem_to_text(system)
    assert text.splitlines()[0].startswith("# grlogic/polysystem")
    assert sum(1 for line in text.splitlines() if line.startswith("var ")) == len(system.variables)
    assert sum(1 for line in text.splitlines() if line.startswith("poly ")) == len(system.equations)
    assert any(line.startswith("combined ") for line in text.splitlines())


def test_polysystem_roundtrip_keeps_integer_coefficients():
    system = to_polysystem(parse("X"), 1, "strong")
    back = formats.polysystem_from_obj(json.loads(json.dumps(formats.polysystem_to_obj(system))))
    assert back.equations == system.equations
    assert all(type(c) is int for eq in back.equations for c in eq.values())


def test_emission_is_deterministic():
    s1 = formats.dumps(formats.subspace_to_obj(Subspace.span([1, Fraction(2, 3)])))
    s2 = formats.dumps(formats.subspace_to_obj(Subspace.span([1, Fraction(2, 3)])))
    assert s1 == s2
