"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function at every name it is
bound under in the loaded ``quasigor`` modules and classes (``buchberger``,
for one, is imported by name into ``quasigor.ideals``, ``quasigor.cli`` and
the package itself), and ``uninstall()`` puts the originals back.  While
``active`` is set, each call records a span: name, start, end, parent span
and task id, plus the counts taken at that boundary.  Spans stay in memory
until ``write()``.  Pair and zero-reduction counts come from the public
``trace=`` callback of ``buchberger``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from quasigor import divisors, groebner, linalg, linkage, parse
from quasigor.groebner import GroebnerBasis
from quasigor.ideals import Ideal
from quasigor.rings import Polynomial

# span name -> the (owner, attribute) pairs that define it
TARGETS = {
    "groebner.buchberger": [(groebner, "buchberger")],
    "groebner.normal_form": [(GroebnerBasis, "normal_form"), (groebner, "normal_form")],
    "ideals.colon": [(Ideal, "colon")],
    "ideals.intersect": [(Ideal, "intersect")],
    "ideals.dimension": [(Ideal, "dimension")],
    "ideals.hilbert": [(Ideal, "hilbert_function")],
    "ideals.contains": [(Ideal, "contains")],
    "linalg.rank": [(linalg, "rank")],
    "linalg.kernel": [(linalg, "kernel_basis")],
    "rings.mul": [(Polynomial, "__mul__")],
    "rings.pow": [(Polynomial, "__pow__")],
    "divisors.gens": [(divisors, "generator_degrees")],
    "divisors.section_basis": [(divisors, "section_basis")],
    "parse": [(parse, "parse_ring"), (parse, "parse_generators"),
              (parse, "parse_polynomial"), (divisors, "parse_divisor")],
    "linkage.pipeline": [(linkage, "verify_counterexample"), (linkage, "verify_quotient_ring")],
}

# report timing label -> stage metric
STAGES = {
    "codim-link": "codim_s",
    "codim-ambient": "codim_s",
    "linkage-colon": "colon_s",
    "canonical-min-gens": "mingens_s",
    "regular-element": "regular_s",
    "unmixed": "unmixed_s",
}

# counters that must repeat exactly for a given seed and source tree
DETERMINISTIC = (
    "groebner.calls", "groebner.pairs", "groebner.zero_pairs", "groebner.basis_size",
    "ideals.colon.calls", "ideals.intersect.calls", "ideals.dimension.calls",
    "ideals.hilbert.calls", "ideals.contains.calls", "linalg.rank.cells",
)


def _bindings(original):
    """Every (namespace owner, attribute) under which ``original`` is bound."""
    owners = [m for n, m in sorted(sys.modules.items()) if n == "quasigor" or n.startswith("quasigor.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("quasigor")]
    seen = set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            if value is original:
                yield owner, attr


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "task", "counts")

    def __init__(self, sid, name, start, parent, task):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.task = None
        self.active = False
        self.stage_s = defaultdict(float)
        self._patches = []
        self._origin = time.perf_counter()

    # -- patching -----------------------------------------------------------

    def install(self):
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                for where, bound_as in list(_bindings(original)):
                    self._patches.append((where, bound_as, original))
                    setattr(where, bound_as, wrapper)

    def uninstall(self):
        for where, attr, original in reversed(self._patches):
            setattr(where, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), name, 0.0, parent.id if parent else None, tracer.task)
            tracer.spans.append(span)
            tracer.stack.append(span)
            if before:
                args, kwargs = before(span, args, kwargs)
            span.start = time.perf_counter() - tracer._origin
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - tracer._origin
                tracer.stack.pop()
            if after:
                after(tracer, span, args, result)
            return result

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "start": round(s.start, 7),
                          "end": round(s.end, 7), "parent": s.parent, "task": s.task}
                record.update(s.counts)
                out.write(json.dumps(record) + "\n")

    def metrics(self) -> dict:
        by_name = defaultdict(list)
        child_time = defaultdict(float)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        spans = self.spans

        def calls(name):
            return len(by_name[name])

        def outermost(s):
            parent = s.parent
            while parent is not None:
                if spans[parent].name == s.name:
                    return False
                parent = spans[parent].parent
            return True

        def total(name):
            # outermost spans only, so nested calls are not counted twice
            return sum(s.end - s.start for s in by_name[name] if outermost(s))

        def self_time(name):
            return sum(s.end - s.start - child_time[s.id] for s in by_name[name])

        def longest(name):
            return max((s.end - s.start for s in by_name[name]), default=0.0)

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in by_name[name])

        gb = "groebner.buchberger"
        pairs = count(gb, "pairs")
        m = {}
        for stage in sorted(set(STAGES.values())):
            m[f"linkage.stage.{stage}"] = self.stage_s[stage]
        m.update({
            "ideals.colon.calls": calls("ideals.colon"),
            "ideals.colon.s": total("ideals.colon"),
            "ideals.colon.divisor_gens": count("ideals.colon", "divisor_gens"),
            "ideals.intersect.calls": calls("ideals.intersect"),
            "ideals.intersect.s": total("ideals.intersect"),
            "ideals.intersect.self_s": self_time("ideals.intersect"),
            "ideals.intersect.max_s": longest("ideals.intersect"),
            "ideals.dimension.calls": calls("ideals.dimension"),
            "ideals.dimension.s": total("ideals.dimension"),
            "ideals.hilbert.calls": calls("ideals.hilbert"),
            "ideals.hilbert.s": total("ideals.hilbert"),
            "ideals.contains.calls": calls("ideals.contains"),
            "ideals.contains.s": total("ideals.contains"),
            "groebner.calls": calls(gb),
            "groebner.s": total(gb),
            "groebner.max_s": longest(gb),
            "groebner.input_gens": count(gb, "input_gens"),
            "groebner.basis_size": count(gb, "basis_size"),
            "groebner.pairs": pairs,
            "groebner.zero_pairs": count(gb, "zero_pairs"),
            "groebner.useful_ratio": count(gb, "new_elements") / pairs if pairs else 0.0,
            "groebner.normal_form.calls": calls("groebner.normal_form"),
            "groebner.normal_form.s": total("groebner.normal_form"),
            "fields.q.s": sum(s.end - s.start for s in by_name[gb] if s.counts.get("characteristic") == 0),
            "fields.fp.s": sum(s.end - s.start for s in by_name[gb] if s.counts.get("characteristic", 0) > 0),
            "fields.q.max_bits": max((s.counts.get("max_bits", 0) for s in by_name[gb]), default=0),
            "linalg.rank.calls": calls("linalg.rank"),
            "linalg.rank.s": total("linalg.rank"),
            "linalg.rank.cells": count("linalg.rank", "cells"),
            "linalg.kernel.calls": calls("linalg.kernel"),
            "linalg.kernel.s": total("linalg.kernel"),
            "rings.mul.calls": calls("rings.mul"),
            "rings.mul.self_s": self_time("rings.mul"),
            "rings.pow.calls": calls("rings.pow"),
            "divisors.gens.calls": calls("divisors.gens"),
            "divisors.gens.s": total("divisors.gens"),
            "divisors.gens.self_s": self_time("divisors.gens"),
            "divisors.section_basis.calls": calls("divisors.section_basis"),
            "divisors.section_basis.s": total("divisors.section_basis"),
            "parse.s": total("parse"),
        })
        return m


# -- counts taken at the boundaries -------------------------------------------


def _before_buchberger(span, args, kwargs):
    rest = list(args)
    generators = list(rest.pop(0)) if rest else list(kwargs.pop("generators"))
    caller_trace = rest.pop(1) if len(rest) > 1 else kwargs.get("trace")
    span.counts.update(input_gens=len(generators), pairs=0, zero_pairs=0, new_elements=0)

    def count(line):
        if line.startswith("pair "):
            span.counts["pairs"] += 1
        elif line == "  -> reduced to 0":
            span.counts["zero_pairs"] += 1
        elif line.startswith("  -> new element"):
            span.counts["new_elements"] += 1
        if caller_trace:
            caller_trace(line)

    kwargs["trace"] = count
    return (generators, *rest), kwargs


def _after_buchberger(tracer, span, args, basis):
    span.counts["basis_size"] = len(basis)
    span.counts["characteristic"] = basis.ring.field.characteristic
    if basis.ring.field.characteristic == 0:
        span.counts["max_bits"] = max(
            (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
             for p in basis for _, c in p.terms),
            default=0,
        )


def _after_colon(tracer, span, args, result):
    span.counts["divisor_gens"] = len(args[1].generators)


def _after_rank(tracer, span, args, result):
    rows = args[0]
    span.counts["cells"] = len(rows) * (len(rows[0]) if rows else 0)


def _after_pipeline(tracer, span, args, report):
    for label, ms in report.timings_ms.items():
        tracer.stage_s[STAGES[label]] += ms / 1000.0


_BEFORE = {"groebner.buchberger": _before_buchberger}
_AFTER = {
    "groebner.buchberger": _after_buchberger,
    "ideals.colon": _after_colon,
    "linalg.rank": _after_rank,
    "linkage.pipeline": _after_pipeline,
}
