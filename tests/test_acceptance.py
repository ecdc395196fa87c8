"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS line when its checks hold (a failed criterion fails the test)."""

from __future__ import annotations

import random
import time

from mediatrix.agent import GiveAction, RealismViolation
from mediatrix.argumentation import construct_argument
from mediatrix.cli import main
from mediatrix.lang import atom, intends
from mediatrix.mediator import IncoherentInput, mediate
from mediatrix.oracle import oracle_diff
from mediatrix.scenario import ParseError, ValidationError, parse_scenario, serialize_scenario
from mediatrix.transcript import from_dict, parse_transcript, serialize_transcript, to_dict

from checkers import minimality_check
from conftest import SCENARIOS, load_scenario
from generators import MEDIATOR, make_case, make_scenario


def report(capsys, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS — {text}")


def run_scenario(name: str):
    s = load_scenario(name)
    return mediate(list(s.agents), s.mediator, s.config, s.name)


def test_criterion_1_case_study_reproduction(capsys):
    started = time.time()
    out = run_scenario("home_improvement")
    elapsed = time.time() - started
    assert out.status == "success"
    assert out.rounds == 2
    conclusions = {str(a.conclusion) for a in out.solution.arguments}
    assert conclusions == {
        "int beta: give(alpha, beta, screw)",
        "int beta: give(mu, beta, screwdriver)",
        "int alpha: give(beta, alpha, nail)",
    }
    ownership = dict(out.transcript.final_ownership)
    assert set(ownership["alpha"]) == {"hammer", "picture", "nail"}
    assert set(ownership["beta"]) == {"mirror", "screw", "screwdriver"}
    assert elapsed < 1.0
    report(
        capsys,
        1,
        f"case study succeeds in 2 rounds with the three expected transfers ({elapsed:.3f}s)",
    )


def test_criterion_2_support_fidelity(capsys, gamma_full):
    goal = intends("beta", atom("give", "alpha", "beta", "screw"))
    arg = construct_argument(gamma_full, goal)
    assert arg is not None
    assert arg.labels() <= {"M.2", "M.5", "M.7", "G.1", "G.2"}
    assert minimality_check(arg, gamma_full)
    # the same support shows up in the live run
    out = run_scenario("home_improvement")
    live = next(
        a
        for a in out.transcript.rounds[1].solution.arguments
        if a.conclusion == "int beta: give(alpha, beta, screw)"
    )
    assert set(live.support) <= {"M.2", "M.5", "M.7", "G.1", "G.2"}
    report(capsys, 2, f"screw-transfer support {sorted(arg.labels())} is minimal and within bounds")


def test_criterion_3_failure_ablation(capsys):
    out = run_scenario("home_improvement_no_m2")
    assert out.status == "failure"
    assert all(r.solution is None for r in out.transcript.rounds)
    # full disclosure happens in round 2; the stall triggers one round later
    assert not out.transcript.rounds[1].new_knowledge or out.rounds == 3
    assert out.rounds == 3
    assert main(["run", str(SCENARIOS / "home_improvement_no_m2.med"), "--verbosity", "quiet"]) == 2
    report(capsys, 3, "ablated mediator stalls in round 3 with no solution ever proposed")


def test_criterion_4_both_reject_path(capsys):
    out = run_scenario("both_reject")
    first, second = out.transcript.rounds
    assert all(not p.accepted for p in first.proposals)
    assert first.solution is not None and second.solution is not None
    assert set(second.solution.transfers) != set(first.solution.transfers)
    assert out.status == "success"
    report(capsys, 4, "double rejection revises the mediator and round 2 proposes a new transfer set")


def test_criterion_5_negotiation_paths(capsys):
    good = run_scenario("two_donor")
    assert good.status == "success"
    neg = good.transcript.rounds[0].negotiation
    assert neg is not None and neg.accepted and neg.rejecting_agent == "beta"
    assert set(good.solution.transfers) == {GiveAction("mu", "alpha", "tool2")}

    bad = run_scenario("single_donor")
    assert bad.status == "failure"
    neg = bad.transcript.rounds[0].negotiation
    assert neg is not None and not neg.accepted
    recorded = dict(neg.explanations)
    assert set(recorded) == {"alpha", "beta"} and recorded["beta"] != ()
    report(capsys, 5, "one rejection repairs via the second donor and fails without it")


def test_criterion_6_oracle_equivalence(capsys):
    started = time.time()
    cases = 0
    for seed in range(250):
        rng = random.Random(seed)
        gamma, goals = make_case(rng)
        diffs = oracle_diff(gamma, goals, MEDIATOR)
        assert diffs == [], f"seed {seed}: {diffs}"
        cases += 1
    elapsed = time.time() - started
    assert cases >= 200
    assert elapsed < 60.0
    report(capsys, 6, f"planner matches the brute-force enumerator on {cases} cases ({elapsed:.1f}s)")


def test_criterion_7_property_suites_and_fuzz(capsys):
    # the generated-case suites (>= 100 examples each) live in
    # test_properties.py; this criterion additionally runs the parser fuzz
    rng = random.Random(20260823)
    alphabet = b"abXY[]().,:;=~#0123 \n\"'-_" + bytes(range(0, 256, 37))
    seed_text = (SCENARIOS / "home_improvement.med").read_bytes()
    started = time.time()
    total = 1_000_000
    for i in range(total):
        if i % 10 == 0:
            # mutate a valid scenario: flip one byte and truncate randomly
            pos = rng.randrange(len(seed_text))
            blob = bytearray(seed_text[: rng.randint(1, len(seed_text))])
            if pos < len(blob):
                blob[pos] = rng.randrange(256)
            blob = bytes(blob)
        else:
            blob = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse_scenario(blob)
        except (ParseError, ValidationError):
            pass
    elapsed = time.time() - started
    report(capsys, 7, f"parser survived {total} fuzz inputs without a crash ({elapsed:.1f}s)")


def test_criterion_8_round_trips(capsys):
    fixtures = sorted(SCENARIOS.glob("*.med"))
    assert fixtures
    for path in fixtures:
        first = parse_scenario(path.read_bytes())
        assert parse_scenario(serialize_scenario(first)) == first, path.name
    checked = 0
    for seed in range(100):
        scenario = make_scenario(random.Random(seed))
        try:
            out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
        except (RealismViolation, IncoherentInput):
            continue
        assert from_dict(to_dict(out.transcript)) == out.transcript
        data = serialize_transcript(out.transcript, "json")
        assert serialize_transcript(from_dict(to_dict(out.transcript)), "json") == data
        assert parse_transcript(data) == out.transcript
        checked += 1
    assert checked >= 50
    report(
        capsys,
        8,
        f"scenario round-trip holds on {len(fixtures)} fixtures, transcript JSON on {checked} runs",
    )
