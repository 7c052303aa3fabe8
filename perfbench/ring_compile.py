"""ring-compile: the d >= 3 side, ring arithmetic and polynomial compilation.

One round is 44 operations:
  * 24 `staudt` products, differences and adjoints (encode, operate,
    decode) of random Gaussian-integer matrices, 12 each of block sizes
    1 and 2; the median latency falls among the block-2 steps;
  * 4 evaluations of `int_term(k)`, 56 <= k <= 72 (2,861 to 3,693
    nodes, under 90 of them distinct); with the compilation below they
    are the slowest 5 of the 40 operations that complete, so the 90th
    percentile of latency falls among them;
  * 8 evaluations of `poly_to_formula(p)`, four polynomials, each at a
    root and at a non-root;
  * 3 polynomial compilations (`to_polysystem`, `combine_quartic`,
    `witness_to_point`, `verify_poly_witness`, text) of random
    plane-satisfiable join/complement formulas, two at d = 2 and one at
    d = 3 (no meets: de Morgan turns a meet over a complement into a
    double complement, where `witness_to_point` fails; see CHANGES.md);
  * 1 compilation of `poly_to_formula("x - 1")` at d = 3, to text;
  * 4 deep-chain operations, `evaluate` plus `format_formula` of a
    1,500-conjunct chain; they fail with RecursionError today.
"""

from __future__ import annotations

from fractions import Fraction

from grlogic import formats, formula, reductions, solve, staudt
from grlogic.exactlin import Matrix, Scalar
from grlogic.formula import Assignment, Var, and_all
from grlogic.lattice import Subspace

import oracle
from inputs import Op, random_formula_using, require

CHAIN_LENGTH = 1500
INT_TERM_RANGE = (56, 72)
COMPILED_POLY = "x - 1"


def _pairs(m: Matrix) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(x.re, x.im) for x in m.row(i)] for i in range(m.rows)]


def _reference(kind: str, a, b):
    """Product, difference or adjoint over Fraction pairs."""
    n = len(a)
    if kind == "mul":
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = oracle.GZERO
                for k in range(n):
                    p = oracle.gmul(a[i][k], b[k][j])
                    acc = (acc[0] + p[0], acc[1] + p[1])
                row.append(acc)
            out.append(row)
        return out
    if kind == "sub":
        return [[oracle.gsub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[oracle.gconj(a[j][i]) for j in range(n)] for i in range(n)]


class RingCompile:
    def __init__(self) -> None:
        self.frames = {b: staudt.standard_frame(b) for b in (1, 2)}
        self.chain = and_all([Var(f"V{i % 3}") for i in range(CHAIN_LENGTH)])
        lines = [Subspace.from_rows(2, [[Scalar(1), Scalar(q)]]) for q in (0, 1, 2)]
        self.chain_env = Assignment(2, {f"V{i}": line for i, line in enumerate(lines)})

    def round(self, rng) -> list[Op]:
        ops = []
        for _ in range(4):
            for block in (1, 2):
                for kind in ("mul", "sub", "adjoint"):
                    ops.append(self._arith(rng, block, kind))
        ops += [self._int_term(rng.randint(*INT_TERM_RANGE)) for _ in range(4)]
        for _ in range(4):
            ops += self._poly_points(rng)
        for d in (2, 2, 3):
            ops.append(self._polysystem(rng, d, rng.choice(("strong", "weak"))))
        ops.append(self._compile_poly())
        ops += [self._deep_chain() for _ in range(4)]
        return ops

    def _arith(self, rng, block: int, kind: str) -> Op:
        fr = self.frames[block]
        a, b = (
            [[(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(block)] for _ in range(block)]
            for _ in range(2)
        )

        def run():
            ea, eb = (staudt.encode(Matrix.from_rows([[Scalar(*x) for x in r] for r in m]), fr) for m in (a, b))
            if kind == "adjoint":
                return staudt.decode(staudt.adjoint(ea, fr), fr)
            return staudt.decode(getattr(staudt, kind)(ea, eb, fr), fr)

        def check(m) -> None:
            require(m is not None and _pairs(m) == _reference(kind, a, b), f"staudt.{kind} decodes to the wrong matrix")

        return Op(f"staudt.{kind} block={block}", run, check)

    def _int_term(self, k: int) -> Op:
        fr = self.frames[1]
        term = staudt.int_term(k)

        def check(m) -> None:
            require(m is not None and _pairs(m) == [[(Fraction(k), Fraction(0))]], f"int_term({k}) decodes wrongly")

        return Op(
            "int_term",
            lambda: staudt.decode(formula.evaluate(term, Assignment(3, fr.members())), fr),
            check,
        )

    def _poly_points(self, rng) -> list[Op]:
        """A polynomial with a known integer root, evaluated at the root and off it."""
        x, y = rng.randint(1, 4), rng.randint(1, 4)
        k = x * y - x * x
        text, value = rng.choice(
            [
                (f"x*y - {x * y}", lambda p: p["x"] * p["y"] - x * y),
                (f"x*x - {x * x}", lambda p: p["x"] * p["x"] - x * x),
                (f"x*x - x*y + {k}" if k >= 0 else f"x*x - x*y - {-k}", lambda p: p["x"] * (p["x"] - p["y"]) + k),
            ]
        )
        root = {"x": x, "y": y} if "y" in text else {"x": x}
        off = next(p for p in ({**root, "x": x + 1}, {**root, "x": x + 2}) if value(p) != 0)
        ops = []
        for point, is_root in ((root, True), (off, False)):
            a = staudt.assemble_poly_witness(text, {v: Matrix(1, 1, [Scalar(c)]) for v, c in point.items()}, 1)

            def run(a=a):
                return formula.evaluate(staudt.poly_to_formula(text), a)

            def check(value, is_root=is_root, point=point) -> None:
                full = oracle.rank(oracle.rows_of(value), 3) == 3
                require(full == is_root, f"{text} at {point}: full={full}, root={is_root}")

            ops.append(Op("poly_to_formula " + ("root" if is_root else "non-root"), run, check))
        return ops

    def _polysystem(self, rng, d: int, mode: str) -> Op:
        while True:
            f = random_formula_using(rng, ["X", "Y"], rng.randint(2, 3), meet_share=0.0)
            plane = solve.decide_2d(f, mode)
            if plane.status != "sat":
                continue
            found = plane if d == 2 else solve.search(f, d, mode)
            if found.status == "sat":
                break
        witness = found.witness

        def run():
            system = reductions.to_polysystem(f, d, mode)
            combined = reductions.combine_quartic(system)
            point = reductions.witness_to_point(system, f, witness)
            return combined, point, reductions.verify_poly_witness(system, point), formats.polysystem_to_text(combined)

        def check(out) -> None:
            combined, point, verified, text = out
            require(verified, "verify_poly_witness rejects the transferred point")
            require(all(oracle.poly_degree(eq) <= 2 for eq in combined.equations), "an equation has degree above 2")
            require(all(oracle.poly_value(eq, point) == 0 for eq in combined.equations), "the point misses an equation")
            require(oracle.poly_degree(combined.combined) <= 4, "the quartic has degree above 4")
            require(text.count("\nvar ") == len(combined.variables), "the text lists the wrong unknowns")

        return Op(f"polysystem d={d}", run, check)

    def _compile_poly(self) -> Op:
        def run():
            system = reductions.to_polysystem(staudt.poly_to_formula(COMPILED_POLY), 3, "strong")
            return system, formats.polysystem_to_text(system)

        def check(out) -> None:
            system, text = out
            require(all(oracle.poly_degree(eq) <= 2 for eq in system.equations), "an equation has degree above 2")
            require(text.count("\npoly ") == len(system.equations), "the text lists the wrong equations")

        return Op("compile poly_to_formula", run, check)

    def _deep_chain(self) -> Op:
        def run():
            # both calls are made even when the first one fails, so both are measured
            try:
                value = formula.evaluate(self.chain, self.chain_env)
            finally:
                text = formula.format_formula(self.chain)
            return value, text

        def check(out) -> None:
            value, text = out
            require(value.is_zero(), "three distinct lines meet in a nonzero subspace")
            require(oracle.same_formula(formula.parse(text), self.chain), "the printed chain parses differently")

        return Op("deep chain", run, check, fails_with=RecursionError)
