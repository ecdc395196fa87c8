"""Outside-in tracer: spans and counters around mediatrix's public functions.

The program has no trace hooks of its own, so the tracer replaces each
listed function, in every module that bound it by name, with a wrapper
that records a span, and replaces the listed methods on their classes.
`restore` puts every original back. Self time is a span's duration minus
the durations of its direct child spans, kept on a span stack. A few
functions that run very often and have no interesting time of their own
(`unify`, `select_plan`) are only counted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, name) of each function or method that gets a span
SPANS = (
    ("scenario", "parse_scenario"),
    ("scenario", "serialize_scenario"),
    ("logic", "Rule.rename"),
    ("logic", "prove"),
    ("logic", "Theory.__init__"),
    ("logic", "Theory.extended"),
    ("logic", "forward_chain"),
    ("argumentation", "construct_argument"),
    ("argumentation", "evaluate"),
    ("agent", "disclose"),
    ("agent", "bridge_step"),
    ("agent", "plan"),
    ("mediator", "revise"),
    ("mediator", "create_solution"),
    ("mediator", "mediate"),
    ("oracle", "brute_force_candidates"),
    ("transcript", "serialize_transcript"),
)
# (module, name) of each function that is only counted
COUNTS = (
    ("lang", "unify"),
    ("logic", "select_plan"),
)


def _found(key):
    def tally(counts, result, args):
        counts[key] += result is not None

    return tally


def _add(key, measure):
    def tally(counts, result, args):
        counts[key] += measure(result, args)

    return tally


# extra counters per traced function, taken from each call's result and arguments
ON_RESULT = {
    "lang.unify": _found("lang.unify.hits"),
    "logic.prove": _found("logic.prove.found"),
    "mediator.create_solution": _found("mediator.create_solution.found"),
    "scenario.parse_scenario": _add("scenario.parse_scenario.bytes", lambda r, a: len(a[0])),
    "argumentation.evaluate": _add(
        "argumentation.evaluate.rejects", lambda r, a: r.verdict.value == "reject"
    ),
    "mediator.revise": _add("mediator.revise.incoming_items", lambda r, a: len(a[1])),
    "mediator.mediate": _add("mediator.mediate.rounds", lambda r, a: r.rounds),
    "oracle.brute_force_candidates": _add(
        "oracle.brute_force_candidates.candidates", lambda r, a: len(r)
    ),
    "transcript.serialize_transcript": _add(
        "transcript.serialize_transcript.bytes", lambda r, a: len(r)
    ),
}
# extra counters per traced function, taken from the exceptions it raises
ON_ERROR = {
    "scenario.parse_scenario": (("ParseError", "ValidationError"), "scenario.parse_scenario.rejected"),
    "logic.prove": (("DepthExceeded",), "logic.prove.depth_exceeded"),
}


def _no_tally(counts, result, args):
    pass


class Tracer:
    """Span stack, per-name call counts, self and total time in ns."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []  # [key, start, time covered by children]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent key, child key) -> calls

    def enter(self, key: str) -> None:
        self.calls[key] += 1
        if self.stack:
            self.edges[(self.stack[-1][0], key)] += 1
        self.stack.append([key, self.clock(), 0])

    def exit(self) -> None:
        key, start, children = self.stack.pop()
        duration = self.clock() - start
        self.self_ns[key] += duration - children
        self.total_ns[key] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, key: str, fn):
        tally = ON_RESULT.get(key, _no_tally)
        errors, error_key = ON_ERROR.get(key, ((), None))

        def traced(*args, **kwargs):
            self.enter(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self.exit()
                if type(error).__name__ in errors:
                    self.counts[error_key] += 1
                raise
            self.exit()
            tally(self.counts, result, args)
            return result

        return traced

    def counted(self, key: str, fn):
        tally = ON_RESULT.get(key, _no_tally)

        def counted(*args, **kwargs):
            self.calls[key] += 1
            result = fn(*args, **kwargs)
            tally(self.counts, result, args)
            return result

        return counted


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function where it is bound; return what to restore."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "mediatrix" or n.startswith("mediatrix.")]
    undo: list[tuple[object, str, object]] = []
    for wrap, listed in ((tracer.span, SPANS), (tracer.counted, COUNTS)):
        for module_name, name in listed:
            key = f"{module_name}.{name}"
            home = sys.modules[f"mediatrix.{module_name}"]
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(home, cls_name)
                undo.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, wrap(key, cls.__dict__[method]))
                continue
            original = getattr(home, name)
            wrapped = wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
