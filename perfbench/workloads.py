"""The benchmark's three workloads: input generation, tasks and output checks.

``build(name, seed, tiny)`` does all set-up work for a workload (input
generation from the seed, and parsing the generated text through the
package's own parsers) and returns a list of ``Task``.  A task's ``run``
is the timed call into the package; its ``check`` runs afterwards,
outside the timed region, and raises ``CheckFailed`` when the output is
wrong.  Shapes are fixed per workload; the seed changes only
coefficients, graph labellings and divisor support points.

``tiny`` selects small stand-in shapes for the self-test, which must run
every workload in seconds.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

from quasigor import cli, divisors, parse
from quasigor.groebner import s_polynomial
from quasigor.ideals import Ideal
from quasigor.rings import monomial_coprime, monomial_divides

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckFailed(Exception):
    """A task's output does not match what the benchmark knows to be true."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def build(name: str, seed: int, tiny: bool = False) -> list[Task]:
    try:
        make = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return make(seed, tiny)


def _rng(seed: int, *labels) -> random.Random:
    # str seeds hash through SHA-512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(":".join(map(str, (seed,) + labels)))


# ---------------------------------------------------------------------------
# deformation-f2: the paper's liaison pipeline through the CLI


def _pipeline_task(command: str) -> Task:
    reference = (REFERENCE_DIR / f"{command}-F2.json").read_text(encoding="utf-8")
    argv = [command, "--field", "F2", "--json"]

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(output):
        code, text = output
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        report = json.loads(text)
        report.pop("timings_ms", None)
        if canonical_report(report) != reference:
            raise CheckFailed("JSON report differs from the reference")

    return Task(command, run, check)


def canonical_report(report: dict) -> str:
    """The byte form the reference file is kept in."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _deformation(seed: int, tiny: bool) -> list[Task]:
    # The built-in data is fixed; the seed is unused.  The tiny stand-in is
    # the quotient-ring pipeline, which walks the same layers in ~1 s.
    return [_pipeline_task("verify-quotient" if tiny else "verify-counterexample")]


# ---------------------------------------------------------------------------
# generic-gb: dense generic ideals and edge ideals, straight into the engine

FIELDS = ("Q", "F32003")

# (variables, generator degrees, homogeneous)
GB_SHAPES = (
    (4, (2, 2, 2), True),
    (4, (2, 2, 2, 2), True),
    (5, (2, 2, 2), True),
    (5, (2, 2, 2, 2), True),
    (5, (2, 2, 2, 2, 2), True),
    (6, (2, 2, 2), True),
    (6, (2, 2, 2, 2), True),
    (6, (2, 2, 2, 2, 2), True),
    (4, (3, 3), True),
    (4, (2, 3, 3), True),
    (5, (3, 3), True),
    (4, (2, 2), False),
    (4, (2, 2, 2), False),
    (5, (2, 2), False),
    (5, (2, 2, 2), False),
    (6, (2, 2), False),
    (6, (2, 2, 2), False),
    (4, (3, 3), False),
)
TINY_GB_SHAPES = ((3, (2, 2), True), (3, (2, 2), False))

# (vertices, clique sizes, cross edges): a cover by k cliques plus cross
# edges that avoid one chosen vertex per clique has independence number k
# exactly, so the exhaustive dimension search always stops at the same size.
# The sizes put the edge ideals, with the 6-variable 5-quadric task over
# F32003, around the 90th percentile of task latency at similar costs,
# so that percentile pools several tasks' samples.
EDGE_SHAPES = ((16, (3, 3, 3, 3, 2, 2), 24), (17, (3, 3, 3, 3, 3, 2), 26),
               (17, (4, 3, 3, 3, 2, 2), 26), (18, (3, 3, 2, 2, 2, 2, 2, 2), 30))
TINY_EDGE_SHAPES = ((8, (3, 3, 2), 6),)

HILBERT_DEGREES = (1, 2, 3, 4)
COEFF_RANGE = 9


def _ring_text(field: str, nvars: int) -> str:
    return f"field {field}; vars x0..x{nvars - 1}"


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(nvars - 1, degree - e)]


def _term_text(coeff: int, mono) -> str:
    factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]
    return "*".join([str(abs(coeff))] + factors)


def _poly_text(rng: random.Random, nvars: int, degree: int, homogeneous: bool) -> str:
    degrees = [degree] if homogeneous else range(degree, -1, -1)
    out = ""
    for d in degrees:
        for mono in _monomials(nvars, d):
            c = rng.randint(-COEFF_RANGE, COEFF_RANGE)
            if c:
                out += (" - " if c < 0 else " + ") + _term_text(c, mono)
    return out.strip(" +") or "1"


def _gb_task(seed: int, nvars: int, degrees, homogeneous: bool, field: str) -> Task:
    rng = _rng(seed, "gb", nvars, degrees, homogeneous, field)
    gen_texts = [_poly_text(rng, nvars, d, homogeneous) for d in degrees]
    # members: combinations of the generators with linear multipliers
    member_texts = [
        " + ".join(f"({_poly_text(rng, nvars, 1, homogeneous)})*({g})" for g in gen_texts)
        for _ in range(2)
    ]
    # non-members: a nonzero linear form lies below every generator degree of
    # a homogeneous ideal; 1 lies outside every proper ideal
    non_member_texts = [_poly_text(rng, nvars, 1, True) if homogeneous else "1"]

    ring = parse.parse_ring(_ring_text(field, nvars))
    gens = parse.parse_generators("\n".join(gen_texts), ring)
    members = [parse.parse_polynomial(t, ring) for t in member_texts]
    non_members = [parse.parse_polynomial(t, ring) for t in non_member_texts]
    hilbert_degrees = HILBERT_DEGREES if homogeneous else ()

    def run():
        ideal = Ideal(ring, gens)
        return {
            "basis": ideal.groebner_basis(),
            "members": [ideal.contains(f) for f in members],
            "non_members": [ideal.contains(f) for f in non_members],
            "dimension": ideal.dimension(),
            "hilbert": [ideal.hilbert_function(d) for d in hilbert_degrees],
        }

    certified = []  # the basis that passed the full certification

    def check(out):
        basis = out["basis"]
        if not certified or basis.polys != certified[0]:
            _certify(basis, gens)
            certified[:] = [basis.polys]
        if out["members"] != [True] * len(members):
            raise CheckFailed("a known member was reported outside the ideal")
        if out["non_members"] != [False] * len(non_members):
            raise CheckFailed("a known non-member was reported inside the ideal")
        # Krull's principal ideal theorem bounds a proper ideal's dimension
        if not nvars - len(gens) <= out["dimension"] <= nvars:
            raise CheckFailed(f"dimension {out['dimension']} out of range")
        for d, value in zip(hilbert_degrees, out["hilbert"]):
            full = comb(nvars + d - 1, d)
            # below the lowest generator degree nothing is cut out
            wrong = value != full if d < min(degrees) else not 0 <= value <= full
            if wrong:
                raise CheckFailed(f"Hilbert function {value} wrong at degree {d}")

    return Task(f"gb-{nvars}v-{'x'.join(map(str, degrees))}-{'hom' if homogeneous else 'inh'}-{field}",
                run, check)


def _certify(basis, gens) -> None:
    """The basis is monic and reduced, every input generator reduces to 0
    on it, and it is a Groebner basis by Buchberger's criterion (S-pairs of
    non-coprime leading monomials reduce to 0).  This costs more than the
    computation, so each task certifies a basis once and later rounds only
    compare with it."""
    one = basis.ring.field.one
    lms = basis.leading_monomials()
    for i, p in enumerate(basis.polys):
        if p.leading_coefficient() != one:
            raise CheckFailed("basis element is not monic")
        for j, lm in enumerate(lms):
            if j != i and any(monomial_divides(lm, m) for m, _ in p.terms):
                raise CheckFailed("basis is not reduced")
    if not all(basis.contains(g) for g in gens):
        raise CheckFailed("an input generator does not reduce to 0")
    for f, g in combinations(basis.polys, 2):
        if not monomial_coprime(f.leading_monomial(), g.leading_monomial()) \
                and not basis.contains(s_polynomial(f, g)):
            raise CheckFailed("an S-polynomial does not reduce to 0: not a Groebner basis")


def _edge_graph(rng: random.Random, nvertices: int, cliques, cross: int):
    labels = list(range(nvertices))
    rng.shuffle(labels)
    blocks, start = [], 0
    for size in cliques:
        blocks.append(labels[start:start + size])
        start += size
    edges = {frozenset((a, b)) for block in blocks for a in block for b in block if a < b}
    block_of = {v: k for k, block in enumerate(blocks) for v in block}
    keep_free = {block[0] for block in blocks}
    candidates = sorted(
        (a, b) for a in range(nvertices) for b in range(a + 1, nvertices)
        if block_of[a] != block_of[b] and not (a in keep_free and b in keep_free)
    )
    edges |= {frozenset(e) for e in rng.sample(candidates, cross)}
    return sorted(tuple(sorted(e)) for e in edges)


def independence_number(nvertices: int, edges) -> int:
    """Largest independent vertex set, by branching on a vertex of the
    remaining set: leave it out, or take it and drop its neighbours."""
    neighbours = [0] * nvertices
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a

    def best(remaining: int) -> int:
        if not remaining:
            return 0
        v = remaining.bit_length() - 1
        rest = remaining & ~(1 << v)
        return max(best(rest), 1 + best(rest & ~neighbours[v]))

    return best((1 << nvertices) - 1)


def _edge_task(seed: int, nvertices: int, cliques, cross: int) -> Task:
    edges = _edge_graph(_rng(seed, "edge", nvertices, cliques, cross), nvertices, cliques, cross)
    ring = parse.parse_ring(_ring_text("Q", nvertices))
    gens = parse.parse_generators("\n".join(f"x{a}*x{b}" for a, b in edges), ring)
    expected = independence_number(nvertices, edges)

    def run():
        return Ideal(ring, gens).dimension()

    def check(dimension):
        if dimension != expected:
            raise CheckFailed(f"edge-ideal dimension {dimension}, independence number {expected}")

    return Task(f"edge-{nvertices}v-{len(edges)}e", run, check)


def _generic(seed: int, tiny: bool) -> list[Task]:
    tasks = [
        _gb_task(seed, nvars, degrees, homogeneous, field)
        for nvars, degrees, homogeneous in (TINY_GB_SHAPES if tiny else GB_SHAPES)
        for field in FIELDS
    ]
    tasks += [_edge_task(seed, *shape) for shape in (TINY_EDGE_SHAPES if tiny else EDGE_SHAPES)]
    return tasks


# ---------------------------------------------------------------------------
# divisor-rings: Q-divisor section rings on P^1, no Groebner bases


@dataclass(frozen=True)
class DivisorShape:
    """a*P(p0) - c*(P(p1)+...+P(pk)) with the values the package must give:
    generator and relation degrees up to ``bound`` and the a-invariants in
    A_RANGE for which the section ring is Gorenstein."""

    a: int
    c: Fraction
    k: int
    bound: int
    generators: tuple
    relations: tuple
    gorenstein: tuple


# Bounds are set so that six tasks take about 0.3 s and two (D2 and the
# a=2, c=1/2 shape) about 1.3 s.  The median latency then falls among the
# six and the 90th percentile among the two, so each pools the samples of
# several tasks instead of sitting in the gap between two task costs.
DIVISOR_SHAPES = (
    DivisorShape(2, Fraction(5, 8), 3, 24, (3, 8, 8), (24,), (5,)),  # D1 of the paper
    DivisorShape(5, Fraction(1, 2), 9, 18, (2, 2, 9), (18,), (5,)),  # D2 of the paper
    DivisorShape(1, Fraction(1, 3), 2, 24, (2, 3, 3), (6,), (-2,)),
    DivisorShape(2, Fraction(1, 2), 3, 24, (2, 2, 3), (6,), (-1,)),
    DivisorShape(3, Fraction(3, 4), 3, 12, (1, 4, 4, 4), (8, 8, 8), ()),
    DivisorShape(1, Fraction(2, 5), 2, 30, (2, 5, 5), (10,), (-2,)),
    DivisorShape(4, Fraction(1, 2), 7, 14, (2, 2, 7), (14,), (3,)),
    DivisorShape(3, Fraction(1, 2), 5, 15, (2, 2, 5), (10,), (1,)),
)
TINY_DIVISOR_SHAPES = (
    DivisorShape(1, Fraction(1, 3), 2, 6, (2, 3, 3), (6,), (-2,)),
    DivisorShape(2, Fraction(1, 2), 3, 6, (2, 2, 3), (6,), (-1,)),
)

A_RANGE = tuple(a for a in range(-6, 7) if a)
WINDOW = range(-6, 7)


def _divisor_text(rng: random.Random, shape: DivisorShape) -> str:
    # Support points P(+-1), ..., P(+-(k+1)) with seeded signs and roles.
    # The cost of exact products grows with the point scalars, so fixing
    # their magnitudes keeps the work the same across seeds; P(0) = (w) is
    # sparser and left out for the same reason.
    points = [rng.choice((-1, 1)) * m for m in range(1, shape.k + 2)]
    rng.shuffle(points)
    return f"{shape.a}*P({points[0]}) - " + " - ".join(f"{shape.c}*P({p})" for p in points[1:])


def _rr(coefficients: dict, n: int):
    """(h0, h1) of floor(n*D) on P^1 by Riemann-Roch, from the coefficients."""
    degree = sum((n * c).numerator // (n * c).denominator for c in coefficients.values())
    return max(0, degree + 1), max(0, -degree - 1)


def _kuenneth(rr1, rr2, i: int) -> int:
    return sum(
        (rr1[0] if p == 0 else rr1[1]) * (rr2[0] if i - 1 - p == 0 else rr2[1])
        for p in range(i) if p <= 1 and i - 1 - p <= 1
    )


def _divisor_task(shape: DivisorShape, divisor, partner) -> Task:
    coefficients = dict(divisor.coefficients)
    partner_coefficients = dict(partner.coefficients)

    def run():
        table = divisors.P1CohomologyTable(divisor)
        other = divisors.P1CohomologyTable(partner)
        return {
            "degrees": divisors.generator_degrees(divisor, shape.bound),
            "gorenstein": tuple(a for a in A_RANGE if divisors.watanabe_gorenstein(divisor, a)),
            "window": [(table.h0(n), table.h1(n)) for n in WINDOW],
            "kuenneth": [divisors.segre_local_cohomology_dim(table, other, i, n)
                         for i in (2, 3) for n in WINDOW],
        }

    def check(out):
        if out["degrees"] != (shape.generators, shape.relations):
            raise CheckFailed(f"generator/relation degrees {out['degrees']}")
        if out["gorenstein"] != shape.gorenstein:
            raise CheckFailed(f"Gorenstein a-invariants {out['gorenstein']}")
        for n in range(shape.bound + 1):
            size = len(divisors.section_basis(divisor, n))
            if size != _rr(coefficients, n)[0] or size != divisors.h0(divisor.floor_multiple(n)):
                raise CheckFailed(f"section basis of size {size} at level {n}")
        if out["window"] != [_rr(coefficients, n) for n in WINDOW]:
            raise CheckFailed("h0/h1 window")
        expected = [_kuenneth(_rr(coefficients, n), _rr(partner_coefficients, n), i)
                    for i in (2, 3) for n in WINDOW]
        if out["kuenneth"] != expected:
            raise CheckFailed("Kuenneth dimensions")

    return Task(f"divisor-{shape.a}-{shape.c}x{shape.k}-b{shape.bound}", run, check)


def _divisor(seed: int, tiny: bool) -> list[Task]:
    shapes = TINY_DIVISOR_SHAPES if tiny else DIVISOR_SHAPES
    parsed = [divisors.parse_divisor(_divisor_text(_rng(seed, "divisor", i), s))
              for i, s in enumerate(shapes)]
    # each divisor is paired with the next for the Segre/Kuenneth dimensions (D1 with D2)
    return [_divisor_task(s, parsed[i], parsed[(i + 1) % len(parsed)]) for i, s in enumerate(shapes)]


WORKLOADS = {
    "deformation-f2": _deformation,
    "generic-gb": _generic,
    "divisor-rings": _divisor,
}
