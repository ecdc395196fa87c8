from __future__ import annotations

import json
from dataclasses import replace

import pytest

from mediatrix import oracle
from mediatrix.cli import main
from mediatrix.logic import MediatorPlan
from mediatrix.mediator import Solution, create_solution

from conftest import SCENARIOS

HOME = str(SCENARIOS / "home_improvement.med")
ABLATED = str(SCENARIOS / "home_improvement_no_m2.med")


class TestRun:
    def test_success_exit_zero_json(self, capsys):
        code = main(["run", HOME, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "success"
        assert doc["schema_version"] == 1

    def test_failure_exit_two(self, capsys):
        assert main(["run", ABLATED]) == 2
        assert "failure" in capsys.readouterr().out

    def test_missing_file_exit_one(self, capsys):
        assert main(["run", "missing.med"]) == 1
        assert "cannot read scenario" in capsys.readouterr().err

    def test_malformed_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.med"
        bad.write_bytes(b"scenario ;;; nonsense")
        assert main(["run", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "transcript.json"
        assert main(["run", HOME, "--format", "json", "--out", str(target)]) == 0
        assert json.loads(target.read_bytes())["outcome"] == "success"
        assert capsys.readouterr().out == ""

    def test_quiet_suppresses_stdout(self, capsys):
        assert main(["run", HOME, "--verbosity", "quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_deterministic_stdout(self, capsys):
        main(["run", HOME, "--format", "json"])
        first = capsys.readouterr().out
        main(["run", HOME, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_trace_is_superset_of_normal(self, capsys):
        main(["run", HOME])
        normal = capsys.readouterr()
        main(["run", HOME, "--verbosity", "trace"])
        traced = capsys.readouterr()
        assert normal.out == traced.out
        assert set(normal.err.splitlines()) <= set(traced.err.splitlines())

    def test_max_rounds_override(self, capsys):
        # one round is not enough for the case study
        assert main(["run", HOME, "--max-rounds", "1", "--verbosity", "quiet"]) == 2

    @pytest.mark.parametrize("stall, rounds", [(None, 3), ("2", 4), ("3", 5)])
    def test_stall_override_sets_the_rounds_without_news_before_failure(self, stall, rounds, capsys):
        # the ablated case never finds a solution, and stops disclosing after round 2
        flag = [] if stall is None else ["--stall", stall]
        assert main(["run", ABLATED, "--format", "json", *flag]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert (doc["reason"], len(doc["rounds"])) == ("no new knowledge and no solution", rounds)

    def test_invalid_override_exit_one(self, capsys):
        assert main(["run", HOME, "--max-rounds", "0"]) == 1
        assert main(["run", HOME, "--stall", "0"]) == 1
        assert "--stall must be a positive integer" in capsys.readouterr().err

    def test_a_disclosed_goal_supersedes_the_case_goal(self, tmp_path, capsys):
        # each agent reaches its goal alone, but the mediator's case says `a` wants to stay
        scenario = tmp_path / "case_goal.med"
        scenario.write_text(
            "agent a; agent b; mediator m;\n"
            "general G.1 ownership; general G.2 reduction;\n"
            "general G.6 parsimony; general G.7 unique_choice;\n"
            "[a.1] int a: can(a, go).\n"
            "[a.2] bel a: can(X, go) :- have(X, r).\n"
            "[a.3] bel a: have(a, r).\n"
            "[b.1] int b: can(b, go).\n"
            "[b.2] bel b: can(X, go) :- have(X, s).\n"
            "[b.3] bel b: have(b, s).\n"
            "[m.1] bel m: int a: can(a, stay).\n"
            "resource a r = 0;\nresource b s = 0;\n"
        )
        assert main(["check", str(scenario)]) == 0
        assert capsys.readouterr().out.count("): reachable without mediation") == 2
        assert main(["run", str(scenario), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["outcome"], len(doc["rounds"])) == ("success", 2)
        assert doc["rounds"][-1]["solution"]["transfers"] == []

    def test_proof_depth_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MEDIATRIX_PROOF_DEPTH", "2")
        # too shallow to derive any transfer intention: mediation stalls
        assert main(["run", HOME, "--verbosity", "quiet"]) == 2
        monkeypatch.setenv("MEDIATRIX_PROOF_DEPTH", "not-a-number")
        assert main(["run", HOME, "--verbosity", "quiet"]) == 1
        monkeypatch.setenv("MEDIATRIX_PROOF_DEPTH", "0")
        assert main(["run", HOME, "--verbosity", "quiet"]) == 1
        assert "MEDIATRIX_PROOF_DEPTH must be positive" in capsys.readouterr().err


class TestCheck:
    def test_diagnoses_unreachable_goals(self, capsys):
        assert main(["check", HOME]) == 0
        out = capsys.readouterr().out
        assert "alpha goal A.1" in out and "unreachable" in out

    def test_reachable_goal_reported(self, tmp_path, capsys):
        scenario = tmp_path / "easy.med"
        scenario.write_text(
            "scenario easy;\nagent a;\nagent b;\nmediator m;\n"
            "[a.1] int a: can(a, rest).\n"
            "[a.2] bel a: can(X, rest) :- have(X, couch).\n"
            "[b.1] int b: can(b, rest).\n"
            "resource a couch = 0;\n"
        )
        assert main(["check", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "a goal a.1 (can(a, rest)): reachable" in out

    def test_goal_variables_named_like_fresh_ones_stay_apart(self, tmp_path, capsys):
        scenario = tmp_path / "capture.med"
        scenario.write_text(
            "scenario capture;\nagent a;\nagent b;\nmediator m;\n"
            "[a.1] int a: p(Y_1, X_1).\n"
            "[a.2] int a: p(V, U).\n"
            "[a.3] bel a: q(a, b).\n"
            "[a.4] bel a: p(X, Y) :- q(X, Y).\n"
            "[b.1] int b: can(b, rest).\n"
        )
        assert main(["check", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "a goal a.1 (p(Y_1, X_1)): reachable" in out
        assert "a goal a.2 (p(V, U)): reachable" in out

    def test_bound_hit_is_unknown(self, monkeypatch, capsys):
        monkeypatch.setenv("MEDIATRIX_PROOF_DEPTH", "1")
        assert main(["check", HOME]) == 0
        out = capsys.readouterr().out
        assert "alpha goal A.1 (can(alpha, hang_picture)): unknown (depth bound 1 hit)" in out
        assert "unreachable" not in out


def _one_transfer_short(gamma, goals, mediator, depth):
    solution = create_solution(gamma, goals, mediator, depth=depth)
    return replace(solution, transfers=solution.transfers[1:])


INVENTED = Solution((), (MediatorPlan("alpha", "A.9", (), ()), MediatorPlan("beta", "B.9", (), ())), ())


class TestOracle:
    def test_agreement_on_fixtures(self, capsys):
        for name in ("home_improvement", "both_reject", "single_donor"):
            code = main(["oracle", str(SCENARIOS / f"{name}.med")])
            assert code == 0, name
            assert "agree" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, planner, diff",
        [
            (
                "home_improvement",
                lambda gamma, goals, mediator, depth: None,
                "planner found no solution but 1 candidate(s) exist, e.g. plans (('alpha', 'O.5'), ('beta', 'M.2'))",
            ),
            (
                "home_improvement_no_m2",
                lambda gamma, goals, mediator, depth: INVENTED,
                "planner returned (('alpha', 'A.9'), ('beta', 'B.9')) but the enumerator finds no candidate",
            ),
            (
                "home_improvement",
                _one_transfer_short,
                "planner returned (('alpha', 'O.5'), ('beta', 'M.2')) with transfers "
                "['give(alpha, beta, screw)', 'give(mu, beta, screwdriver)'], not among the enumerator's candidates",
            ),
        ],
        ids=["missed", "invented", "stray"],
    )
    def test_a_disagreement_exits_two_with_its_diff(self, monkeypatch, capsys, name, planner, diff):
        monkeypatch.setattr(oracle, "create_solution", planner)
        assert main(["oracle", str(SCENARIOS / f"{name}.med")]) == 2
        assert capsys.readouterr().out == f"diff: {diff}\n"


class TestUsage:
    def test_no_arguments_exit_one(self, capsys):
        assert main([]) == 1

    def test_unknown_mode_exit_one(self, capsys):
        assert main(["frobnicate", HOME]) == 1

    @pytest.mark.parametrize("mode", ["check", "oracle"])
    @pytest.mark.parametrize("flag", [["--format", "json"], ["--max-rounds", "1"], ["--stall", "3"]])
    def test_run_only_flags_are_usage_errors_elsewhere(self, mode, flag, capsys):
        assert main([mode, HOME, *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
