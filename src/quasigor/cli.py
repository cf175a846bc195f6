"""Command-line front end.

Subcommands::

    verify-counterexample   built-in deformed-Segre pipeline (full check)
    verify-quotient         the quotient ring itself (cyclic canonical module)
    ideal <op>              gb, dim, codim, colon, intersect, eliminate,
                            member, hilbert, regular on user ring/ideal files
    divisor <op>            h0, h1, floor, gens, watanabe, segre-h2, segre-qg

Exit codes: 0 success / all assertions pass, 1 input error, 2 verification
or internal failure, 3 unsupported request.  Output is deterministic:
identical inputs give byte-identical output, except that measured timings
appear only under ``--timings``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

from . import divisors as dv
from .errors import (
    InputError,
    QuasigorError,
    UnsupportedRequestError,
    VerificationError,
)
from .groebner import buchberger
from .ideals import Ideal
from .linkage import verify_counterexample, verify_quotient_ring
from .parse import parse_generators, parse_polynomial, parse_ring
from .reporting import SCHEMA_VERSION

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_UNSUPPORTED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasigor",
        description="Exact Groebner/linkage verification and Q-divisor section rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("verify-counterexample", "run the full deformed-Segre verification"),
        ("verify-quotient", "verify the quotient ring has a cyclic canonical module"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", default="Q", help="Q, F2 or Fp:<p> (default Q)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        p.add_argument("--trace", action="store_true", help="step progress on stderr")

    p = sub.add_parser("ideal", help="operations on ideals given by text files")
    p.add_argument("op", choices=list(IDEAL_OPS))
    p.add_argument("--ring", required=True, metavar="FILE", help="ring declaration file")
    p.add_argument("inputs", nargs="+", help="ideal file(s), then op-specific arguments")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true", help="Buchberger trace on stderr (gb only)")

    p = sub.add_parser("divisor", help="Q-divisor computations on P^1")
    p.add_argument("op", choices=["h0", "h1", "floor", "gens", "watanabe", "segre-h2", "segre-qg"])
    p.add_argument("inputs", nargs="+", help="divisor expression(s); 'elliptic' for the built-in table")
    p.add_argument("--n", type=int, default=1, help="level (multiple of the divisor)")
    p.add_argument("--i", type=int, default=2, help="local cohomology index for segre-h2")
    p.add_argument("--a", type=int, help="a-invariant for watanabe / shift for segre-qg")
    p.add_argument("--bound", type=int, help="degree bound for gens")
    p.add_argument("--range", dest="n_range", default="-5:5", help="n range LO:HI for segre-qg")
    p.add_argument("--json", action="store_true")
    return parser


def _digest(pieces) -> str:
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _render(result) -> str:
    if isinstance(result, list):
        return "\n".join(result)
    if isinstance(result, bool):
        return str(result).lower()
    return str(result)


def _emit_result(args, digest_pieces, result, text=None) -> int:
    """Print an ``ideal``/``divisor`` result: the JSON envelope under
    ``--json``, else ``text``, which defaults to the rendered result."""
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "op": args.op,
                "inputs_digest": _digest(digest_pieces),
                "result": result,
            }
        )
    else:
        print(_render(result) if text is None else text)
    return EXIT_OK


def _run_verification(args) -> int:
    trace = (lambda msg: print(msg, file=sys.stderr)) if args.trace else None
    runner = verify_counterexample if args.command == "verify-counterexample" else verify_quotient_ring
    report = runner(args.field)
    if trace:
        for label, ms in report.timings_ms.items():
            trace(f"{label}: {ms:.0f} ms")
    if args.json:
        payload = report.to_json_dict(include_timings=args.timings)
        payload["inputs_digest"] = _digest([args.command, report.field_label])
        _emit_json(payload)
    else:
        print(report.render_text(include_timings=args.timings))
    if report.experimental:
        return EXIT_OK
    if not report.passed:
        failing = ", ".join(s.label for s in report.failed_steps)
        print(f"verification failed at: {failing}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _load_ideal(path: str, ring) -> Ideal:
    text = Path(path).read_text(encoding="utf-8")
    return Ideal(ring, parse_generators(text, ring))


def _take(items: list, count: int, what: str):
    if len(items) != count:
        raise InputError(f"'{what}' expects {count} argument(s), got {len(items)}")
    return items


def _basis(ideal: Ideal) -> list:
    return [str(g) for g in ideal.groebner_basis()]


def _gb(ideal: Ideal, trace) -> list:
    # the engine refuses a list of zero generators; the zero ideal's basis is empty
    return [] if ideal.is_zero_ideal() else [str(g) for g in buchberger(ideal.generators, trace=trace)]


def _names(text: str) -> list:
    return [v.strip() for v in text.split(",") if v.strip()]


def _degree(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad Hilbert degree {text!r}, expected an integer") from None


# op -> (number of inputs, function of the first ideal, the remaining
# inputs as given and the trace callback, which only ``gb`` uses)
IDEAL_OPS = {
    "gb": (1, _gb),
    "dim": (1, lambda ideal, trace: ideal.dimension()),
    "codim": (1, lambda ideal, trace: ideal.codimension()),
    "colon": (2, lambda ideal, path, trace: _basis(ideal.colon(_load_ideal(path, ideal.ring)))),
    "intersect": (2, lambda ideal, path, trace: _basis(ideal.intersect(_load_ideal(path, ideal.ring)))),
    "eliminate": (2, lambda ideal, names, trace: _basis(ideal.eliminate(_names(names)))),
    "member": (2, lambda ideal, expr, trace: ideal.contains(parse_polynomial(expr, ideal.ring))),
    "hilbert": (2, lambda ideal, degree, trace: ideal.hilbert_function(_degree(degree))),
    "regular": (2, lambda ideal, expr, trace: ideal.is_regular_element(parse_polynomial(expr, ideal.ring))),
}


def _run_ideal(args) -> int:
    ring = parse_ring(Path(args.ring).read_text(encoding="utf-8"))
    inputs = list(args.inputs)
    count, fn = IDEAL_OPS[args.op]
    path, *rest = _take(inputs, count, args.op)
    trace = (lambda msg: print(msg, file=sys.stderr)) if args.trace else None
    result = fn(_load_ideal(path, ring), *rest, trace)
    return _emit_result(args, [args.ring] + inputs, result)


def _table(spec: str):
    if spec == "elliptic":
        return dv.EllipticCohomologyTable()
    return dv.P1CohomologyTable(dv.parse_divisor(spec))


def _run_divisor(args) -> int:
    op = args.op
    inputs = list(args.inputs)
    text = None
    if op in ("h0", "h1", "floor"):
        (expr,) = _take(inputs, 1, op)
        floored = dv.parse_divisor(expr).floor_multiple(args.n)
        result = str(floored) if op == "floor" else (dv.h0 if op == "h0" else dv.h1)(floored)
    elif op == "gens":
        (expr,) = _take(inputs, 1, op)
        if args.bound is None:
            raise InputError("'gens' needs --bound")
        gens, rels = dv.generator_degrees(dv.parse_divisor(expr), args.bound)
        result = {"generators": list(gens), "relations": list(rels)}
        text = "generators: " + (",".join(map(str, gens)) if gens else "none")
        text += "; relation: " + (",".join(map(str, rels)) if rels else "none")
    elif op == "watanabe":
        (expr,) = _take(inputs, 1, op)
        if args.a is None:
            raise InputError("'watanabe' needs --a")
        result = dv.watanabe_gorenstein(dv.parse_divisor(expr), args.a)
    elif op == "segre-h2":
        left, right = _take(inputs, 2, op)
        result = dv.segre_local_cohomology_dim(_table(left), _table(right), args.i, args.n)
        if args.i == 2 and result:
            text = f"{result}\nnon-Cohen-Macaulay witness: nonzero H^2 in a graded piece"
    elif op == "segre-qg":
        left, right = _take(inputs, 2, op)
        if args.a is None:
            raise InputError("'segre-qg' needs --a")
        lo, _, hi = args.n_range.partition(":")
        try:
            n_range = range(int(lo), int(hi) + 1)
        except ValueError:
            raise InputError(f"bad --range {args.n_range!r}, expected LO:HI") from None
        if not n_range:
            raise InputError(f"empty --range {args.n_range!r}, expected LO <= HI")
        result = dv.quasi_gorenstein_hilbert_check(_table(left), _table(right), args.a, n_range)
        text = _render(result) + "  (necessary condition at Hilbert-function level, not a proof)"
    else:  # pragma: no cover
        raise InputError(f"unknown op {op!r}")
    return _emit_result(args, inputs, result, text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    # each library warning becomes one `warning:` line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.command in ("verify-counterexample", "verify-quotient"):
                return _run_verification(args)
            if args.command == "ideal":
                return _run_ideal(args)
            return _run_divisor(args)
        except UnsupportedRequestError as exc:
            print(f"unsupported: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        except VerificationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except QuasigorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
