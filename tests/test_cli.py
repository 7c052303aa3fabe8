import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from grlogic import formats
from grlogic.cli import main
from grlogic.formula import Assignment, parse
from grlogic.lattice import Subspace
from grlogic.solve import decide_2d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_command(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("C(X,Y)\n")
    a = tmp_path / "a.json"
    assignment = Assignment(2, {"X": Subspace.span([1, 0]), "Y": Subspace.span([1, 1])})
    a.write_text(formats.dumps(formats.assignment_to_obj(assignment)))
    code, out, _ = run(capsys, "eval", "--formula", str(f), "--assignment", str(a))
    assert code == 0
    record = json.loads(out)
    assert record["dim"] == 0 and record["weak"] is False and record["strong"] is False


def test_sat_2d_with_witness(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("!C(X,Y)\n")
    wout = tmp_path / "w.json"
    code, out, _ = run(capsys, "sat", "--engine", "2d", "--mode", "strong", "--formula", str(f), "--witness-out", str(wout))
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "sat"
    witness = formats.assignment_from_obj(json.loads(wout.read_text()))
    from grlogic.solve import verify

    assert verify(parse("!C(X,Y)"), witness, "strong")


def test_sat_unsat_exit_codes(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("X & !X\n")
    code, out, _ = run(capsys, "sat", "--engine", "2d", "--formula", str(f))
    assert code == 0 and json.loads(out)["status"] == "unsat"
    # demanding a witness of an unsatisfiable formula exits 1
    code, out, err = run(capsys, "sat", "--engine", "2d", "--formula", str(f), "--witness-out", str(tmp_path / "w.json"))
    assert code == 1


def test_sat_cnf_dimacs(tmp_path, capsys):
    dimacs = tmp_path / "c.cnf"
    dimacs.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "sat", "--engine", "cnf", "-d", "3", "--mode", "strong", "--dimacs", str(dimacs))
    assert code == 0
    assert json.loads(out)["status"] == "unsat"


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "sat", "--engine", "cnf")
    assert code == 2
    assert "error" in err


def test_reduce_bool2q2d_and_roundtrip(tmp_path, capsys):
    dimacs = tmp_path / "c.cnf"
    dimacs.write_text("p cnf 2 1\n1 2 0\n")
    out_file = tmp_path / "g.txt"
    code, _, _ = run(capsys, "reduce", "--kind", "bool2q2d", "--dimacs", str(dimacs), "--out", str(out_file))
    assert code == 0
    g = parse(out_file.read_text().strip())
    assert decide_2d(g, "strong").status == "sat"


def test_reduce_poly_emission(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("X | !Y\n")
    code, out, _ = run(capsys, "reduce", "--kind", "poly", "--formula", str(f), "-d", "2", "--mode", "weak", "--combine")
    assert code == 0
    assert out.startswith("# grlogic/polysystem")
    assert "var M0_0_0_re" in out
    assert "combined " in out


def test_reduce_weak2strong(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("X\n")
    code, out, _ = run(capsys, "reduce", "--kind", "weak2strong", "--formula", str(f), "-d", "2")
    assert code == 0
    assert parse(out.strip())  # emitted artifact re-parses


def test_reduce_qelim(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("!C(X,Y)\n")
    code, out, _ = run(capsys, "reduce", "--kind", "qelim2d", "--formula", str(f), "--var", "X", "--mode", "weak")
    assert code == 0
    body = out.splitlines()[0]
    assert parse(body, constants={f"U{i}" for i in range(1, 9)})


def test_staudt_demo(capsys):
    code, out, _ = run(capsys, "staudt", "--poly", "x*y - 6", "--demo", "2", "3")
    assert code == 0
    assert "decodes to 6" in out
    assert "decodes to -1" in out
    # pinned before staudt evaluated frame-only subterms once per block size
    assert hashlib.sha256(out.encode()).hexdigest() == "2b29dd85cce55f03df9896bee8e7f421827d8a22895d07c226e972bfb99de513"


def test_zero_denominator_is_a_usage_error(tmp_path, capsys):
    # exit 1 means "witness demanded but none exists"; bad input exits 2
    f = tmp_path / "f.txt"
    f.write_text("X\n")
    a = tmp_path / "a.json"
    obj = formats.assignment_to_obj(Assignment(1, {"X": Subspace.span([1])}))
    a.write_text(formats.dumps(obj).replace('"1"', '"1/0"'))
    for argv in (
        ["eval", "--formula", str(f), "--assignment", str(a)],
        ["staudt", "--poly", "x", "--demo", "1/0", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "zero denominator" in err and "Traceback" not in err, err


def test_staudt_compile(tmp_path, capsys):
    code, out, _ = run(capsys, "staudt", "--poly", "x*y - 6", "--compile")
    assert code == 0
    g = parse(out.strip())
    from grlogic.staudt import poly_to_formula

    assert g == poly_to_formula("x*y - 6")


def test_plucker_roundtrip_via_files(tmp_path, capsys):
    s = Subspace.from_rows(4, [[1, 0, 2, 0], [0, 1, 0, 3]])
    sub_file = tmp_path / "s.json"
    sub_file.write_text(formats.dumps(formats.subspace_to_obj(s)))
    coords_file = tmp_path / "v.json"
    code, _, _ = run(capsys, "plucker", "--to", str(sub_file), "--out", str(coords_file))
    assert code == 0
    back_file = tmp_path / "s2.json"
    code, _, _ = run(capsys, "plucker", "--from", str(coords_file), "--out", str(back_file))
    assert code == 0
    assert formats.subspace_from_obj(json.loads(back_file.read_text())) == s


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--vars", "2", "--enumerate")
    assert code == 0
    assert "card_f(2) = 96" in out
    assert "closure enumeration: 96" in out


def test_gadget_command(tmp_path, capsys):
    code, out, _ = run(capsys, "gadget", "--name", "h")
    assert code == 0
    from grlogic.gadgets import floor_half_f

    assert parse(out.strip()) == floor_half_f()
    code, out, _ = run(capsys, "gadget", "--name", "bigpsi", "-d", "6")
    assert code == 0
    assert parse(out.strip())


def test_deterministic_outputs(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("!C(X,Y)\n")
    code1, out1, _ = run(capsys, "sat", "--engine", "2d", "--formula", str(f))
    code2, out2, _ = run(capsys, "sat", "--engine", "2d", "--formula", str(f))
    assert out1 == out2


def test_verdict_witness_file_reverifies(tmp_path, capsys):
    # end-to-end: emitted verdict and witness files re-parse and re-verify
    f = tmp_path / "f.txt"
    f.write_text("eq(X, Y)\n")
    w = tmp_path / "w.json"
    code, out, _ = run(capsys, "sat", "--engine", "2d", "--mode", "strong", "--formula", str(f), "--witness-out", str(w))
    assert code == 0
    verdict = formats.verdict_from_obj(json.loads(out))
    assert verdict.status == "sat"
    witness = formats.assignment_from_obj(json.loads(w.read_text()))
    from grlogic.solve import verify

    assert verify(parse("eq(X, Y)"), witness, "strong")


def _run_python(code, *args, timeout=60):
    # a fresh interpreter with this checkout's src first on the path
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # grlogic needs only the standard library
    assert _run_python("import sys, grlogic.cli; sys.exit('numpy' in sys.modules)").returncode == 0
    # with numpy made unimportable, the Boolean decider and its CLI engine still run
    f = tmp_path / "f.txt"
    f.write_text("(X | Y) & !(X & Y) & (Y | Z)\n")
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from grlogic.cli import main\n"
        "from grlogic.formula import parse\n"
        "from grlogic.solve import decide_boolean\n"
        "assert decide_boolean(parse('X & !Y')).status == 'sat'\n"
        "sys.exit(main(['sat', '--engine', 'boolean', '--formula', sys.argv[1]]))\n"
    )
    proc = _run_python(code, str(f))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "sat"


def test_cli_too_deep_input_exits_2_without_traceback(tmp_path):
    # JSON nested deeper than the interpreter's recursion limit cannot be
    # decoded; that is reported as an input error
    f = tmp_path / "f.txt"
    f.write_text("X\n")
    a = tmp_path / "a.json"
    a.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    code = "import sys; from grlogic.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _run_python(code, "eval", "--formula", str(f), "--assignment", str(a))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: input too large") and "Traceback" not in proc.stderr


def test_cli_decides_more_variables_than_the_recursion_limit(tmp_path):
    # the plane search keeps its depth in data, so 1,200 variables decide
    f = tmp_path / "f.txt"
    f.write_text(" & ".join(f"(x{i} | !x{i})" for i in range(1200)) + "\n")
    code = "import sys; from grlogic.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _run_python(code, "sat", "--engine", "2d", "--force", "--formula", str(f))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "sat"
