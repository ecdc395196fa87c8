"""End-to-end and per-layer benchmark of mediatrix.

Run from the root of a checkout:

    python3 bench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

The benchmark imports `mediatrix` from the checkout's `src/` and calls only
its public functions. It is one process and one thread: a closed loop with
one client, which starts the next op when the last one returned. It sets up
once (import, input generation, parsing or case building, one warm-up pass
over every input), checks every warm-up output against facts it knows on
its own, then runs whole passes over the inputs, in a seeded order, for
`--seconds` seconds and at least `MIN_OPS` ops. Every timed op's output
must repeat its warm-up output byte for byte. The percentiles and the
throughput are taken over every timed op.

Other tenants of a shared machine slow it by up to 1.5x in phases that
last from seconds to minutes, often longer than a run. So the run also
times a fixed pure-Python loop that touches no mediatrix code
(`calibrate`), once every `CALIBRATE_EVERY_S` between ops, and reports
every time at the reference speed: each op's time is multiplied by
`REFERENCE_MS` / the median time of the loops around it. Every op is
kept; only the machine's speed is taken out. The raw wall times are
printed on their own lines.

Each input takes its own, fairly fixed time, so op times come in one
cluster per input. Whole passes keep every cluster the same size, and the
generated families hold 5 mod 10 inputs, so that both percentiles fall in
the middle of one input's cluster, not on the edge between two, where
they would jump from run to run.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes over all inputs for `--seconds`
seconds and reports per-layer metrics: counts from one traced pass and the
median self time over the traced passes. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import family
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
CALIBRATE_EVERY_S = 0.05
SPEED_WINDOW = 9  # loops whose median gives the speed around an op
# median `calibrate` time on a 2-vCPU virtual machine with Python 3.11 in a
# quiet phase; it only sets the scale of the reported times
REFERENCE_MS = 1.25


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def calibrate() -> float:
    """Milliseconds for a fixed integer loop: the machine's current speed.

    It allocates no objects the garbage collector tracks, so the program's
    heap cannot make it slower.
    """
    started = time.perf_counter_ns()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return (time.perf_counter_ns() - started) / 1e6


def speeds(loop_ms: list[float]) -> list[float]:
    """Per loop, REFERENCE_MS / the median of the SPEED_WINDOW loop times centred on it."""
    half = SPEED_WINDOW // 2
    return [
        REFERENCE_MS / statistics.median(loop_ms[max(0, j - half) : j + half + 1])
        for j in range(len(loop_ms))
    ]


def since_process_start() -> float:
    """Seconds since this process started, interpreter start-up included.

    The kernel gives the start in clock ticks since boot, so the value is
    up to one tick (10 ms on most systems) long.
    """
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def load_program():
    """Import mediatrix from the checkout's `src/`."""
    program = importlib.import_module("mediatrix")
    for sub in ("oracle", "scenario", "mediator", "transcript"):
        importlib.import_module(f"mediatrix.{sub}")
    if not Path(program.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mediatrix was imported from {program.__file__}, not from {SRC}")
    return program


@dataclass(frozen=True)
class Input:
    index: int
    data: object  # what `prepare` turns into the op's argument
    model: Optional[family.Model] = None
    fault_line: Optional[int] = None  # set for malformed parse inputs


class Shipped:
    """One op: parse, mediate and serialize each of the six shipped scenarios in turn.

    A whole pass is one op because the six scenarios take from 1 to 11 ms
    each: the median of single-scenario times falls on the edge between two
    of them and jumps from run to run.
    """

    def inputs(self, seed: int) -> list[Input]:
        names = sorted(p.stem for p in SCENARIOS.glob("*.med"))
        if names != sorted(checks.SHIPPED):
            raise SystemExit(f"{SCENARIOS} holds {names}, expected {sorted(checks.SHIPPED)}")
        random.Random(seed).shuffle(names)
        return [Input(0, [(n, (SCENARIOS / f"{n}.med").read_bytes()) for n in names])]

    def prepare(self, program, inp: Input):
        return inp.data

    def run(self, program, case):
        outputs = []
        for _, data in case:
            s = program.scenario.parse_scenario(data)
            outcome = program.mediator.mediate(list(s.agents), s.mediator, s.config, s.name)
            outputs.append(program.transcript.serialize_transcript(outcome.transcript, "json"))
        return b"".join(outputs), outputs

    warm = run

    def check(self, program, inp: Input, output: bytes, evidence) -> list[checks.Failure]:
        return [f for (name, _), out in zip(inp.data, evidence) for f in checks.check_shipped(name, out)]


class Scaled:
    """One op: mediate one generated scenario (parsed in set-up) and serialize its transcript."""

    size = 35
    params = family.SCALED

    def inputs(self, seed: int) -> list[Input]:
        return [Input(i, None, family.generate(seed, i, self.params)) for i in range(self.size)]

    def prepare(self, program, inp: Input):
        return program.scenario.parse_scenario(inp.model.text)

    def run(self, program, s):
        outcome = program.mediator.mediate(list(s.agents), s.mediator, s.config, s.name)
        return program.transcript.serialize_transcript(outcome.transcript, "json"), outcome

    warm = run

    def check(self, program, inp: Input, output: bytes, outcome) -> list[checks.Failure]:
        return checks.check_scaled(inp.model, output, outcome)


class Oracle(Scaled):
    """One op: certify one generated scenario (parsed in set-up), as `mediatrix oracle` does."""

    size = 15
    params = family.ORACLE

    def run(self, program, s):
        return json.dumps(program.oracle.certify(s)).encode(), None

    def warm(self, program, s):
        """Run the op and capture the planner's solution from inside it."""
        original = program.oracle.create_solution
        solutions = []

        def capture(*args, **kwargs):
            solutions.append(original(*args, **kwargs))
            return solutions[-1]

        program.oracle.create_solution = capture
        try:
            output, _ = self.run(program, s)
        finally:
            program.oracle.create_solution = original
        return output, solutions[-1] if solutions else None

    def check(self, program, inp: Input, output: bytes, solution) -> list[checks.Failure]:
        return checks.check_oracle(inp.model, output, solution)


class Parse:
    """One op: parse one corpus file; a valid one is also serialized again.

    Input k is generated file k // 4 itself when k % 4 == 0, and otherwise
    a copy of it with one of the three fault kinds, so one input in four
    is valid.
    """

    size = 35

    def inputs(self, seed: int) -> list[Input]:
        out = []
        for k in range(self.size):
            if k % 4 == 0:
                model = family.generate(seed, k // 4, family.PARSE)
                out.append(Input(k, model.text, model))
            else:
                data, line = family.malformed(model.text, family.FAULTS[k % 4 - 1], k // 4)
                out.append(Input(k, data, model, line))
        return out

    def prepare(self, program, inp: Input):
        return inp.data

    def run(self, program, data):
        scenario = program.scenario
        try:
            s = scenario.parse_scenario(data)
        except (scenario.ParseError, scenario.ValidationError) as error:
            # without its traceback the error does not keep the parser's tokens alive
            return f"{type(error).__name__}: {error}".encode(), error.with_traceback(None)
        return scenario.serialize_scenario(s), s

    warm = run

    def check(self, program, inp: Input, output: bytes, evidence) -> list[checks.Failure]:
        scenario = program.scenario
        rejected = isinstance(evidence, Exception)
        if inp.fault_line is not None:
            return checks.check_rejected(inp.fault_line, evidence if rejected else None, scenario.ParseError)
        if rejected:
            return [checks.Failure("parse", f"valid input rejected: {evidence}")]
        return checks.check_parsed(inp.model, evidence, output, scenario.parse_scenario)


WORKLOADS = {"shipped": Shipped, "scaled": Scaled, "oracle": Oracle, "parse": Parse}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[tracing.Tracer]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes; ratios read 0 when their base is 0."""
    first = passes[0]
    calls, counts = first.calls, first.counts

    def self_ms(key: str) -> float:
        return statistics.median(t.self_ns[key] for t in passes) / 1e6

    def total_s(key: str) -> float:
        return statistics.median(t.total_ns[key] for t in passes) / 1e9

    out: dict[str, tuple[float, str]] = {}
    for module, name in tracing.SPANS + tracing.COUNTS:
        key = f"{module}.{name}"
        out[f"{key}.calls"] = (calls[key], "count")
        if (module, name) in tracing.SPANS:
            out[f"{key}.self_ms"] = (self_ms(key), "ms")
    parse = "scenario.parse_scenario"
    out[f"{parse}.rejected_ratio"] = (_ratio(counts[f"{parse}.rejected"], calls[parse]), "ratio")
    out[f"{parse}.kb_per_s"] = (_ratio(counts[f"{parse}.bytes"] / 1024, total_s(parse)), "KB/s")
    out["lang.unify.hit_ratio"] = (_ratio(counts["lang.unify.hits"], calls["lang.unify"]), "ratio")
    out["logic.prove.found_ratio"] = (_ratio(counts["logic.prove.found"], calls["logic.prove"]), "ratio")
    out["logic.prove.depth_exceeded"] = (counts["logic.prove.depth_exceeded"], "count")
    construct = "argumentation.construct_argument"
    out[f"{construct}.reproofs"] = (first.edges[(construct, "logic.prove")] - calls[construct], "count")
    out["argumentation.evaluate.reject_ratio"] = (
        _ratio(counts["argumentation.evaluate.rejects"], calls["argumentation.evaluate"]),
        "ratio",
    )
    out["mediator.revise.incoming_items"] = (counts["mediator.revise.incoming_items"], "count")
    out["mediator.create_solution.found_ratio"] = (
        _ratio(counts["mediator.create_solution.found"], calls["mediator.create_solution"]),
        "ratio",
    )
    out["mediator.mediate.rounds"] = (counts["mediator.mediate.rounds"], "count")
    bf = "oracle.brute_force_candidates"
    out[f"{bf}.candidates"] = (counts[f"{bf}.candidates"], "count")
    st = "transcript.serialize_transcript"
    out[f"{st}.bytes"] = (counts[f"{st}.bytes"], "bytes")
    return out


class Run:
    """One benchmark run of one workload with one seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.program = None

    def set_up(self) -> None:
        """Import, generate, prepare and warm up."""
        self.program = load_program()
        self.inputs = self.workload.inputs(self.seed)
        self.cases = [self.workload.prepare(self.program, inp) for inp in self.inputs]
        self.reference = [self._warm(case) for case in self.cases]

    def _warm(self, case):
        try:
            return self.workload.warm(self.program, case)
        except Exception as error:  # an op that raises fails; the run goes on
            return None, error

    def check(self) -> list[list[checks.Failure]]:
        out = []
        for inp, (output, evidence) in zip(self.inputs, self.reference):
            if output is None:
                out.append([checks.Failure("raised", f"{type(evidence).__name__}: {evidence}")])
                continue
            try:
                out.append(self.workload.check(self.program, inp, output, evidence))
            except Exception as error:  # a malformed output can break a check
                out.append([checks.Failure("check", f"{type(error).__name__}: {error}")])
        return out

    def settle(self) -> None:
        """Drop what only the checks needed and hide set-up objects from the collector.

        The parsed inputs stay alive for the whole run; frozen, they do not
        make every full garbage collection during the timed ops longer
        than it would be in a process that holds one scenario.
        """
        self.reference = [(output, None) for output, _ in self.reference]
        gc.collect()
        gc.freeze()

    def digest(self) -> str:
        h = hashlib.sha256()
        for output, _ in self.reference:
            h.update(hashlib.sha256(output or b"").digest())
        return h.hexdigest()

    def op(self, i: int) -> tuple[int, bool]:
        """Time one op on input i; returns (ns, output repeated its warm-up bytes)."""
        started = time.perf_counter_ns()
        try:
            output, _ = self.workload.run(self.program, self.cases[i])
        except Exception:
            return time.perf_counter_ns() - started, False
        elapsed = time.perf_counter_ns() - started
        return elapsed, output == self.reference[i][0]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mediatrix" / "__init__.py").is_file():
        print(f"no mediatrix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(WORKLOADS[args.workload](), args.seed)
    run.set_up()
    failures = run.check()
    run.settle()
    order = list(range(len(run.cases)))
    random.Random(args.seed).shuffle(order)
    print(f"{args.workload} seed {args.seed}: {len(order)} inputs, digest {run.digest()}")

    bad_ops: dict[int, int] = {}  # input index -> ops that repeated different bytes or raised
    attempted = failed = 0

    def do_op(i: int) -> int:
        nonlocal attempted, failed
        ns, same = run.op(i)
        attempted += 1
        if not same:
            bad_ops[i] = bad_ops.get(i, 0) + 1
        if failures[i] or not same:
            failed += 1
        return ns

    if args.trace:
        walls: dict[bool, list[float]] = {False: [], True: []}
        passes: list[tracing.Tracer] = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            for traced in (False, True):
                t = tracing.Tracer()
                undo = tracing.install(t) if traced else []
                try:
                    pass_started = time.perf_counter()
                    for i in order:
                        do_op(i)
                    walls[traced].append(time.perf_counter() - pass_started)
                finally:
                    tracing.restore(undo)
                if traced:
                    passes.append(t)
        if any(p.calls != passes[0].calls for p in passes):
            print("note: call counts differ between traced passes")
        layers = layer_metrics(passes)
        layers["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]),
            "ratio",
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        print(f"{len(passes)} traced and {len(walls[False])} untraced passes; self time share of a traced pass:")
        traced_ms = statistics.median(walls[True]) * 1e3
        spans = sorted((v, k[: -len(".self_ms")]) for k, (v, _) in layers.items() if k.endswith(".self_ms") and v)
        for ms, key in reversed(spans[-5:]):
            print(f"  {key} {ms / traced_ms:.0%}")
    else:
        setup_s = since_process_start()
        ms: list[float] = []
        loops_before: list[int] = []  # per op, the loops timed before it
        loop_ms = [calibrate()]
        calibrated = started = time.perf_counter()
        while len(ms) < MIN_OPS or time.perf_counter() - started < args.seconds:
            for i in order:
                ms.append(do_op(i) / 1e6)
                loops_before.append(len(loop_ms))
                if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                    loop_ms.append(calibrate())
                    calibrated = time.perf_counter()
        speed = speeds(loop_ms)
        at_reference = [m * speed[n - 1] for m, n in zip(ms, loops_before)]
        print(f"wall: op_ms_p50 {percentile(ms, 50):.6g} ms, op_ms_p90 {percentile(ms, 90):.6g} ms, "
              f"ops_per_s {len(ms) / (sum(ms) / 1e3):.6g} 1/s, setup_s {setup_s:.6g} s")
        print(f"speed: {len(loop_ms)} loops, median {statistics.median(loop_ms):.4g} ms, "
              f"times scaled by {min(speed):.4g} to {max(speed):.4g}")
        metrics = {
            "op_ms_p50": {"value": percentile(at_reference, 50), "unit": "ms"},
            "op_ms_p90": {"value": percentile(at_reference, 90), "unit": "ms"},
            "ops_per_s": {"value": len(ms) / (sum(at_reference) / 1e3), "unit": "1/s"},
            "setup_s": {"value": setup_s * speed[0], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    unexpected = False
    for i, found in enumerate(failures):
        for f in found:
            unexpected |= f.kind != checks.KNOWN_DEFECT
            print(f"FAIL {args.workload} seed={args.seed} index={run.inputs[i].index} {f.kind}: {f.detail}")
    for i, n in sorted(bad_ops.items()):
        unexpected = True
        print(f"FAIL {args.workload} seed={args.seed} index={run.inputs[i].index} repeat: {n} ops raised or changed their output")
    print(f"failed_share {_ratio(failed, attempted):.4f} ratio ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
