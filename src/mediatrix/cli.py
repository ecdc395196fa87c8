"""Command-line entry point.

    mediatrix run <file> [--format text|json] [--max-rounds N] [--stall N]
                  [--out PATH] [--verbosity quiet|normal|trace]
    mediatrix check|oracle <file> [--out PATH] [--verbosity quiet|normal|trace]

Exit codes: 0 for a successful mediation (or a passing check / clean
oracle run), 2 for a failed mediation or oracle diffs, 1 for usage,
parse or validation errors. MEDIATRIX_PROOF_DEPTH overrides the proof
search depth bound.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

from .logic import DepthExceeded, LogicError, prove
from .mediator import MediationError, mediate
from .oracle import certify
from .scenario import ParseError, Scenario, ValidationError, parse_scenario
from .transcript import serialize_transcript

PROOF_DEPTH_ENV = "MEDIATRIX_PROOF_DEPTH"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="mediatrix", description="argumentation-based mediation simulator")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
        ("run", "run the mediation and emit a transcript"),
        ("check", "validate the scenario and diagnose goal reachability"),
        ("oracle", "diff the planner against the brute-force enumerator"),
    ):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("file", help="scenario file (.med)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--verbosity", choices=("quiet", "normal", "trace"), default="normal")
        if mode == "run":
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("--max-rounds", type=int, default=None)
            p.add_argument("--stall", type=int, default=None)
    return parser


def _load(path: str, trace) -> Scenario:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read scenario {path!r}: {exc.strerror}"))
    trace(f"read {len(data)} bytes from {path}")
    scenario = parse_scenario(data)
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def _fail(message: str) -> int:
    print(f"mediatrix: {message}", file=sys.stderr)
    return 1


def _emit(data: bytes, out: Optional[str], quiet: bool) -> None:
    if out is not None:
        with open(out, "wb") as f:
            f.write(data)
    elif not quiet:
        sys.stdout.write(data.decode("utf-8"))


def _configured(scenario: Scenario, args) -> Scenario:
    config = replace(scenario.config)
    max_rounds, stall = getattr(args, "max_rounds", None), getattr(args, "stall", None)
    if max_rounds is not None:
        if max_rounds <= 0:
            raise ValidationError("--max-rounds must be a positive integer")
        config.max_rounds = max_rounds
    if stall is not None:
        if stall <= 0:
            raise ValidationError("--stall must be a positive integer")
        config.stall_threshold = stall
    env_depth = os.environ.get(PROOF_DEPTH_ENV)
    if env_depth is not None:
        try:
            depth = int(env_depth)
        except ValueError:
            raise ValidationError(f"{PROOF_DEPTH_ENV} must be an integer, got {env_depth!r}")
        if depth <= 0:
            raise ValidationError(f"{PROOF_DEPTH_ENV} must be positive")
        config.proof_depth = depth
    return replace(scenario, config=config)


def _run(scenario: Scenario, args, trace) -> int:
    outcome = mediate(
        list(scenario.agents), scenario.mediator, scenario.config, scenario.name
    )
    trace(f"mediation finished after {outcome.rounds} round(s): {outcome.status}")
    _emit(
        serialize_transcript(outcome.transcript, args.format),
        args.out,
        args.verbosity == "quiet",
    )
    return 0 if outcome.status == "success" else 2


def _check(scenario: Scenario, args, trace) -> int:
    lines = [f"scenario {scenario.name}: valid"]
    depth = scenario.config.proof_depth
    for agent in scenario.agents:
        own = agent.unit("B").extended(agent.have_facts(), agent.general)
        for label, goal in agent.goals():
            try:
                provable = prove(own, goal, depth) is not None
                verdict = f"{'reachable' if provable else 'unreachable'} without mediation"
            except DepthExceeded:
                verdict = f"unknown (depth bound {depth} hit)"
            lines.append(f"{agent.id} goal {label} ({goal}): {verdict}")
    output = "\n".join(lines) + "\n"
    _emit(output.encode("utf-8"), args.out, args.verbosity == "quiet")
    return 0


def _oracle(scenario: Scenario, args, trace) -> int:
    diffs = certify(scenario, scenario.config.proof_depth)
    if diffs:
        body = "\n".join(f"diff: {d}" for d in diffs) + "\n"
        _emit(body.encode("utf-8"), args.out, args.verbosity == "quiet")
        return 2
    _emit(b"oracle: planner and enumerator agree\n", args.out, args.verbosity == "quiet")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def trace(message: str) -> None:
        if args.verbosity == "trace":
            print(f"trace: {message}", file=sys.stderr)

    try:
        scenario = _configured(_load(args.file, trace), args)
        trace(
            f"parsed scenario {scenario.name!r}: agents "
            f"{', '.join(a.id for a in scenario.agents)}, mediator {scenario.mediator.id}"
        )
        handler = {"run": _run, "check": _check, "oracle": _oracle}[args.mode]
        return handler(scenario, args, trace)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        return _fail(f"parse error in {args.file}: {exc}")
    except ValidationError as exc:
        return _fail(f"invalid scenario {args.file}: {exc}")
    except (LogicError, MediationError) as exc:
        return _fail(f"mediation error: {exc}")
    except OSError as exc:
        return _fail(f"i/o error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
