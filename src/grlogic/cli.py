"""Command-line surface: evaluation, satisfiability, reductions, arithmetic demos.

Exit codes: 0 on success (including a clean Unsat report), 1 when a
witness was demanded (--witness-out) but none exists, 2 on usage errors.
All outputs are deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import count as count_mod
from . import formats
from . import gadgets
from . import reductions
from . import solve
from . import staudt
from .exactlin import Matrix, parse_fraction
from .formula import evaluate, format_formula, parse
from .lattice import Subspace


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large ({exc!r})", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grlogic", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="reserved; all constructions are deterministic")
    sub = parser.add_subparsers(required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula on an assignment")
    p_eval.add_argument("--formula", required=True, help="formula file (grammar text)")
    p_eval.add_argument("--assignment", required=True, help="assignment file (JSON)")
    p_eval.add_argument("-d", "--dimension", type=int, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    p_sat = sub.add_parser("sat", help="decide satisfiability")
    p_sat.add_argument("--engine", choices=["cnf", "2d", "boolean", "search"], required=True)
    p_sat.add_argument("--formula", help="formula file (2d/boolean/search engines)")
    p_sat.add_argument("--dimacs", help="DIMACS CNF file (cnf engine)")
    p_sat.add_argument("-d", "--dimension", type=int, default=2)
    p_sat.add_argument("--mode", choices=["strong", "weak"], default="strong")
    p_sat.add_argument("--witness-out", default=None)
    p_sat.add_argument("--force", action="store_true", help="allow very large 2d enumerations")
    p_sat.set_defaults(handler=_cmd_sat)

    p_red = sub.add_parser("reduce", help="formula and problem transformations")
    p_red.add_argument(
        "--kind",
        choices=["bool2q2d", "weak2strong", "strong2weak", "lift", "qelim2d", "poly"],
        required=True,
    )
    p_red.add_argument("--formula", help="input formula file")
    p_red.add_argument("--dimacs", help="input DIMACS file (bool2q2d)")
    p_red.add_argument("-d", "--dimension", type=int, default=2)
    p_red.add_argument("-k", type=int, default=1, help="source dimension for lift")
    p_red.add_argument("--mode", choices=["strong", "weak"], default="strong")
    p_red.add_argument("--var", default=None, help="variable to eliminate (qelim2d)")
    p_red.add_argument("--constants", default=None, help="assignment file binding named constants (qelim2d)")
    p_red.add_argument("--gaussian", action="store_true", help="suppress the real/imaginary split (poly)")
    p_red.add_argument("--combine", action="store_true", help="also emit the single quartic (poly)")
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(handler=_cmd_reduce)

    p_st = sub.add_parser("staudt", help="ring arithmetic in the subspace lattice")
    p_st.add_argument("--poly", required=True, help='polynomial, e.g. "x*y - 6"')
    p_st.add_argument("--matdim", type=int, default=1)
    group = p_st.add_mutually_exclusive_group(required=True)
    group.add_argument("--compile", action="store_true", help="emit the satisfiability formula")
    group.add_argument("--demo", nargs=2, metavar=("A", "B"), help="arithmetic transcript for two rationals")
    p_st.add_argument("--out", default=None)
    p_st.set_defaults(handler=_cmd_staudt)

    p_pl = sub.add_parser("plucker", help="projective coordinates of subspaces")
    group = p_pl.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", dest="to_file", help="subspace JSON -> coordinates")
    group.add_argument("--from", dest="from_file", help="coordinates JSON -> subspace")
    p_pl.add_argument("--out", default=None)
    p_pl.set_defaults(handler=_cmd_plucker)

    p_count = sub.add_parser("count", help="formula counting table")
    p_count.add_argument("--vars", type=int, required=True)
    p_count.add_argument("--enumerate", action="store_true", help="also run the closure enumeration (n <= 2)")
    p_count.set_defaults(handler=_cmd_count)

    p_gadget = sub.add_parser("gadget", help="emit a named formula gadget")
    p_gadget.add_argument(
        "--name",
        choices=["h", "psi", "psi12", "bigpsi", "generic", "ndist", "fneq2d", "booltest", "commutator", "eq", "proj"],
        required=True,
    )
    p_gadget.add_argument("-d", "--dimension", type=int, default=2)
    p_gadget.add_argument("-k", type=int, default=1)
    p_gadget.add_argument("-m", type=int, default=2)
    p_gadget.add_argument("-n", type=int, default=None)
    p_gadget.add_argument("--out", default=None)
    p_gadget.set_defaults(handler=_cmd_gadget)

    return parser


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_formula(path: str):
    return parse(Path(path).read_text().strip())


def _cmd_eval(args) -> int:
    f = _read_formula(args.formula)
    a = formats.assignment_from_obj(json.loads(Path(args.assignment).read_text()))
    if args.dimension is not None and args.dimension != a.ambient:
        raise ValueError(f"assignment ambient {a.ambient} does not match -d {args.dimension}")
    value = evaluate(f, a)
    record = {
        "format": "grlogic/value",
        "version": formats.FORMAT_VERSION,
        "value": formats.subspace_to_obj(value),
        "dim": value.dim,
        "strong": value.is_full(),
        "weak": not value.is_zero(),
    }
    _write(formats.dumps(record), args.out)
    return 0


def _cmd_sat(args) -> int:
    if args.engine == "cnf":
        if not args.dimacs:
            raise ValueError("--engine cnf needs --dimacs")
        cnf = solve.parse_dimacs(Path(args.dimacs).read_text())
        verdict = solve.decide_cnf(cnf, args.dimension, args.mode)
    else:
        if not args.formula:
            raise ValueError(f"--engine {args.engine} needs --formula")
        f = _read_formula(args.formula)
        if args.engine == "2d":
            verdict = solve.decide_2d(f, args.mode, allow_large=args.force)
        elif args.engine == "boolean":
            verdict = solve.decide_boolean(f)
        else:
            verdict = solve.search(f, args.dimension, args.mode)
    sys.stdout.write(formats.dumps(formats.verdict_to_obj(verdict)))
    if args.witness_out:
        if verdict.witness is None:
            print("no witness to write", file=sys.stderr)
            return 1
        Path(args.witness_out).write_text(formats.dumps(formats.assignment_to_obj(verdict.witness)))
    return 0


def _cmd_reduce(args) -> int:
    if args.kind == "bool2q2d":
        if not args.dimacs:
            raise ValueError("bool2q2d needs --dimacs")
        cnf = solve.parse_dimacs(Path(args.dimacs).read_text())
        out_formula = reductions.bool_to_q2d(cnf)
        _write(format_formula(out_formula) + "\n", args.out)
        return 0
    if args.kind == "poly":
        f = _read_formula(args.formula)
        system = reductions.to_polysystem(f, args.dimension, args.mode, split=not args.gaussian)
        if args.combine:
            system = reductions.combine_quartic(system)
        _write(formats.polysystem_to_text(system), args.out)
        return 0
    f = _read_formula(args.formula)
    if args.kind == "weak2strong":
        out_formula = reductions.weak2strong_psi(f, args.dimension)
    elif args.kind == "strong2weak":
        out_formula = reductions.weak_from_strong(f, args.dimension)
    elif args.kind == "lift":
        out_formula = reductions.lift_dim(f, args.k, args.dimension)
    elif args.kind == "qelim2d":
        if not args.var:
            raise ValueError("qelim2d needs --var")
        consts = {}
        if args.constants:
            consts = formats.assignment_from_obj(json.loads(Path(args.constants).read_text())).bindings
        out_formula, new_consts = reductions.qelim2d(f, args.var, consts, args.mode)
        payload = format_formula(out_formula) + "\n"
        payload += "# constants:\n"
        for name, subspace in sorted(new_consts.items()):
            payload += f"# {name} = {json.dumps(formats.subspace_to_obj(subspace))}\n"
        _write(payload, args.out)
        return 0
    else:  # pragma: no cover
        raise AssertionError(args.kind)
    _write(format_formula(out_formula) + "\n", args.out)
    return 0


def _cmd_staudt(args) -> int:
    if args.compile:
        g = staudt.poly_to_formula(args.poly)
        _write(format_formula(g) + "\n", args.out)
        return 0
    a_val, b_val = (parse_fraction(x) for x in args.demo)
    d = args.matdim
    if d != 1:
        raise ValueError("--demo works on scalars (matdim 1); use the API for matrix blocks")
    fr = staudt.standard_frame(1)
    ea = staudt.encode_scalar(a_val, fr)
    eb = staudt.encode_scalar(b_val, fr)
    lines = [
        f"frame: standard coordinate frame, block size 1 (ambient 3)",
        f"encode({a_val}) = {_sub_text(ea)}",
        f"encode({b_val}) = {_sub_text(eb)}",
    ]
    adj = staudt.adjoint(ea, fr)
    diff = staudt.sub(ea, eb, fr)
    prod = staudt.mul(ea, eb, fr)
    lines.append(f"adj  -> {_sub_text(adj)} decodes to {_mat_text(staudt.decode(adj, fr))}")
    lines.append(f"sub  -> {_sub_text(diff)} decodes to {_mat_text(staudt.decode(diff, fr))}")
    lines.append(f"mul  -> {_sub_text(prod)} decodes to {_mat_text(staudt.decode(prod, fr))}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _sub_text(s: Subspace) -> str:
    return json.dumps(formats.subspace_to_obj(s))


def _mat_text(m: Optional[Matrix]) -> str:
    if m is None:
        return "<not encoded>"
    if m.rows == 1 and m.cols == 1:
        return str(m.entry(0, 0))
    return json.dumps([[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)])


def _cmd_plucker(args) -> int:
    from . import pluecker

    if args.to_file:
        s = formats.subspace_from_obj(json.loads(Path(args.to_file).read_text()))
        _write(formats.dumps(formats.pluecker_to_obj(pluecker.to_pluecker(s))), args.out)
    else:
        v = formats.pluecker_from_obj(json.loads(Path(args.from_file).read_text()))
        _write(formats.dumps(formats.subspace_to_obj(pluecker.from_pluecker(v))), args.out)
    return 0


def _cmd_count(args) -> int:
    n = args.vars
    rows = [f"n = {n}"]
    if n >= 2:
        phi_row = ", ".join(f"phi({n},{p}) = {count_mod.phi(n, p)}" for p in range(2, n + 1))
        rows.append(phi_row)
    rows.append(f"card_f({n}) = {count_mod.card_f(n)}")
    if args.enumerate:
        size, _ = count_mod.enumerate_signatures_2d(n)
        rows.append(f"closure enumeration: {size}")
    print("\n".join(rows))
    return 0


def _cmd_gadget(args) -> int:
    name = args.name
    if name == "h":
        f = gadgets.floor_half_f()
    elif name == "psi":
        f = gadgets.psi(args.k, args.m)
    elif name == "psi12":
        f = gadgets.psi12()
    elif name == "bigpsi":
        f = gadgets.big_psi(args.dimension)
    elif name == "generic":
        f = gadgets.generic_f(args.dimension, args.n)
    elif name == "ndist":
        f = gadgets.ndist_psi(args.n if args.n else 2)
    elif name == "fneq2d":
        f = gadgets.fneq2d()
    elif name == "booltest":
        f = gadgets.boolean_test_f(args.dimension)
    elif name == "commutator":
        f = gadgets.commutator_f(*_two_vars())
    elif name == "eq":
        f = gadgets.eq_f(*_two_vars())
    elif name == "proj":
        f = gadgets.proj_f(*_two_vars())
    else:  # pragma: no cover
        raise AssertionError(name)
    _write(format_formula(f) + "\n", args.out)
    return 0


def _two_vars():
    from .formula import Var

    return Var("X"), Var("Y")


if __name__ == "__main__":
    sys.exit(main())
