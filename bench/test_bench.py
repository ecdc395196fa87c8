"""Tests of the benchmark's own helpers.

Run from the root of a checkout: python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import family  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(run.percentile(values, 50), 5.0)
        self.assertEqual(run.percentile(values, 90), 9.0)
        self.assertEqual(run.percentile(values, 100), 10.0)
        self.assertEqual(run.percentile([3.5], 90), 3.5)

    def test_ten_values_lie_beyond_p90_of_a_hundred(self):
        values = list(range(1, 101))
        p90 = run.percentile(values, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)


class SpeedTest(unittest.TestCase):
    def test_each_loop_gets_the_median_of_its_window(self):
        ref = run.REFERENCE_MS
        loops = [ref] * 10 + [2 * ref] * 10
        self.assertEqual(run.speeds(loops), [1.0] * 10 + [0.5] * 10)
        # one slow loop inside a steady phase does not move its neighbours' speed
        self.assertEqual(run.speeds([ref] * 4 + [9 * ref] + [ref] * 4), [1.0] * 9)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 100] holds b [10, 40], which holds c [15, 25]; then d [50, 70]
        ticks = iter([0, 10, 15, 25, 40, 50, 70, 100])
        t = tracing.Tracer(clock=lambda: next(ticks))
        t.enter("a")
        t.enter("b")
        t.enter("c")
        t.exit()
        t.exit()
        t.enter("d")
        t.exit()
        t.exit()
        self.assertEqual(dict(t.self_ns), {"a": 50, "b": 20, "c": 10, "d": 20})
        self.assertEqual(dict(t.total_ns), {"a": 100, "b": 30, "c": 10, "d": 20})
        self.assertEqual(dict(t.edges), {("a", "b"): 1, ("b", "c"): 1, ("a", "d"): 1})
        self.assertEqual(t.stack, [])

    def test_span_closes_on_error(self):
        t = tracing.Tracer(clock=iter(range(100)).__next__)

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            t.span("x", boom)()
        self.assertEqual((t.calls["x"], t.stack), (1, []))

    def test_install_wraps_every_binding_and_restore_undoes_it(self):
        run.load_program()
        from mediatrix import argumentation, logic, oracle
        from mediatrix.lang import atom
        from mediatrix.logic import Rule

        prove, rename = logic.prove, Rule.__dict__["rename"]
        t = tracing.Tracer()
        undo = tracing.install(t)
        try:
            self.assertIsNot(argumentation.prove, prove)
            self.assertIs(argumentation.prove, oracle.prove)
            theory = logic.Theory([("f", atom("p", "a")), ("r", Rule("r", atom("q", "X"), (atom("p", "X"),)))])
            self.assertIsNotNone(argumentation.prove(theory, atom("q", "a")))
        finally:
            tracing.restore(undo)
        self.assertIs(argumentation.prove, prove)
        self.assertIs(logic.prove, prove)
        self.assertIs(Rule.__dict__["rename"], rename)
        self.assertEqual(t.calls["logic.prove"], 1)
        self.assertEqual(t.counts["logic.prove.found"], 1)
        self.assertEqual(t.edges[("logic.prove", "logic.Rule.rename")], 1)
        self.assertGreater(t.calls["lang.unify"], 0)

    def test_layer_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = set(run.layer_metrics([tracing.Tracer()])) | {"trace.overhead_ratio"}
        self.assertEqual(names, {m["name"] for m in spec["per_layer"]})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for params in (family.SCALED, family.ORACLE, family.PARSE):
            self.assertEqual(family.generate(7, 3, params), family.generate(7, 3, params))

    def test_seed_renames_but_keeps_structure(self):
        a, b = family.generate(1, 5, family.SCALED), family.generate(2, 5, family.SCALED)
        self.assertNotEqual(a.text, b.text)
        self.assertEqual(sorted(a.owner.values()), sorted(b.owner.values()))
        self.assertEqual(
            {k: sorted(map(len, v)) for k, v in a.plans.items()},
            {k: sorted(map(len, v)) for k, v in b.plans.items()},
        )
        self.assertEqual((a.strategy, a.generous, a.beliefs), (b.strategy, b.generous, b.beliefs))
        self.assertEqual(a.text.count(b"\n"), b.text.count(b"\n"))

    def test_malformed_copy_is_deterministic_and_locates_its_fault(self):
        text = family.generate(1, 0, family.PARSE).text
        for fault in family.FAULTS:
            data, line = family.malformed(text, fault, 4)
            self.assertEqual((data, line), family.malformed(text, fault, 4))
            self.assertNotEqual(data, text)
            lines = data.split(b"\n")
            self.assertNotEqual(lines[line - 1], text.split(b"\n")[line - 1])
            self.assertEqual(lines[: line - 1], text.split(b"\n")[: line - 1])


def _transcript(name, outcome, rounds, ownership) -> bytes:
    return json.dumps(
        {
            "scenario_name": name,
            "outcome": outcome,
            "rounds": [{}] * rounds,
            "final_ownership": [[a, sorted(rs)] for a, rs in ownership.items()],
        }
    ).encode()


def _give(giver, receiver, resource):
    return SimpleNamespace(giver=giver, receiver=receiver, resource=resource)


def _plan(agent, needed):
    return SimpleNamespace(agent=agent, rule_label="M.9", needed=tuple(needed))


MODEL = family.Model(
    name="toy",
    owner={"r1": "a1", "r2": "m", "r3": "a2"},
    plans={"a1": (frozenset({"r1", "r2"}),), "a2": (frozenset({"r3"}),)},
    strategy={"a1": "eager", "a2": "eager"},
    generous=False,
    beliefs={"a1": 2, "a2": 2},
    mediator_entries=1,
    text=b"",
)


class CheckTest(unittest.TestCase):
    def test_shipped(self):
        status, rounds, owned = checks.SHIPPED["home_improvement"]
        good = _transcript("home_improvement", status, rounds, owned)
        self.assertEqual(checks.check_shipped("home_improvement", good), [])
        self.assertTrue(checks.check_shipped("home_improvement", _transcript("home_improvement", "failure", rounds, owned)))
        self.assertTrue(checks.check_shipped("home_improvement", _transcript("home_improvement", status, 3, owned)))
        moved = dict(owned, alpha={"hammer", "picture"}, mu={"nail"})
        self.assertTrue(checks.check_shipped("home_improvement", _transcript("home_improvement", status, rounds, moved)))

    def test_scaled(self):
        solution = SimpleNamespace(transfers=[_give("m", "a1", "r2")], assignment=[_plan("a1", ["r1", "r2"]), _plan("a2", ["r3"])])
        outcome = SimpleNamespace(status="success", solution=solution)
        good = _transcript("toy", "success", 2, {"a1": {"r1", "r2"}, "a2": {"r3"}, "m": set()})
        self.assertEqual(checks.check_scaled(MODEL, good, outcome), [])

        kept = _transcript("toy", "success", 2, {"a1": {"r1"}, "a2": {"r3"}, "m": {"r2"}})
        self.assertEqual([f.kind for f in checks.check_scaled(MODEL, kept, outcome)], [checks.KNOWN_DEFECT])

        lost = _transcript("toy", "success", 2, {"a1": {"r1", "r2"}, "a2": set(), "m": set()})
        self.assertIn("conservation", [f.kind for f in checks.check_scaled(MODEL, lost, outcome)])

        unknown_plan = SimpleNamespace(status="success", solution=SimpleNamespace(transfers=[], assignment=[_plan("a2", ["r1"])]))
        self.assertIn("plan", [f.kind for f in checks.check_scaled(MODEL, good, unknown_plan)])

    def test_oracle(self):
        solution = SimpleNamespace(transfers=[_give("m", "a1", "r2")], assignment=[_plan("a1", ["r1", "r2"]), _plan("a2", ["r3"])])
        self.assertEqual(checks.check_oracle(MODEL, b"[]", solution), [])
        self.assertEqual(checks.check_oracle(MODEL, b"[]", None), [])
        self.assertTrue(checks.check_oracle(MODEL, b'["planner returned x"]', solution))
        stolen = SimpleNamespace(transfers=[_give("a2", "a1", "r2")], assignment=solution.assignment)
        self.assertTrue(checks.check_oracle(MODEL, b"[]", stolen))
        short = SimpleNamespace(transfers=[], assignment=solution.assignment)
        self.assertTrue(checks.check_oracle(MODEL, b"[]", short))

    def test_parse(self):
        program = run.load_program()
        scenario_module = program.scenario
        model = family.generate(3, 1, family.PARSE)
        parsed = scenario_module.parse_scenario(model.text)
        output = scenario_module.serialize_scenario(parsed)
        self.assertEqual(checks.check_parsed(model, parsed, output, scenario_module.parse_scenario), [])
        fewer = family.Model(**dict(vars(model), beliefs={"a1": 0, "a2": 0}))
        self.assertTrue(checks.check_parsed(fewer, parsed, output, scenario_module.parse_scenario))
        other = scenario_module.parse_scenario(family.generate(3, 2, family.PARSE).text)
        self.assertTrue(checks.check_parsed(model, parsed, output, lambda data: other))

        data, line = family.malformed(model.text, "bad_separator", 1)
        with self.assertRaises(scenario_module.ParseError) as caught:
            scenario_module.parse_scenario(data)
        error = caught.exception
        self.assertEqual(checks.check_rejected(line, error, scenario_module.ParseError), [])
        self.assertTrue(checks.check_rejected(line + 1, error, scenario_module.ParseError))
        self.assertTrue(checks.check_rejected(line, None, scenario_module.ParseError))
        self.assertTrue(checks.check_rejected(line, ValueError("x"), scenario_module.ParseError))


class RunTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "shipped", "--seed", "3", "--seconds", "0.01"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
