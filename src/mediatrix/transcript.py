"""Machine-readable mediation transcripts.

Records are plain data (strings and numbers only) so that the JSON form
round-trips exactly. The text form is a human-readable round narrative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MessageRecord:
    kind: str
    sender: str
    receiver: str
    payload: str


@dataclass(frozen=True)
class ArgumentRecord:
    conclusion: str
    support: tuple[str, ...]


@dataclass(frozen=True)
class SolutionRecord:
    arguments: tuple[ArgumentRecord, ...]
    transfers: tuple[str, ...]
    plans: tuple[tuple[str, str], ...]  # (agent, rule label), sorted by agent


@dataclass(frozen=True)
class DecisionRecord:
    conclusion: str
    verdict: str
    explanation: tuple[str, ...]


@dataclass(frozen=True)
class ProposalRecord:
    agent: str
    accepted: bool
    decisions: tuple[DecisionRecord, ...]


@dataclass(frozen=True)
class NegotiationRecord:
    rejecting_agent: str
    repaired: Optional[SolutionRecord]
    accepted: bool
    explanations: tuple[tuple[str, tuple[str, ...]], ...]  # (agent, labels)


@dataclass(frozen=True)
class Round:
    number: int
    disclosures: tuple[tuple[str, tuple[str, ...]], ...]  # (agent, rendered items)
    revision_delta: tuple[str, ...]  # labels added to the mediator theory
    new_knowledge: bool
    solution: Optional[SolutionRecord]
    proposals: tuple[ProposalRecord, ...]
    negotiation: Optional[NegotiationRecord]
    messages: tuple[MessageRecord, ...]


@dataclass(frozen=True)
class Transcript:
    scenario_name: str
    outcome: str  # success | failure
    reason: str
    rounds: tuple[Round, ...]
    final_ownership: tuple[tuple[str, tuple[str, ...]], ...]  # (agent, sorted resources)


def _plain(obj):
    """Records as JSON data: a record becomes a dict in field order, a tuple a list."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    return obj


def to_dict(t: Transcript) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_plain(t)}


def from_dict(d: dict) -> Transcript:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported transcript schema: {d.get('schema_version')!r}")

    def sol(s) -> Optional[SolutionRecord]:
        if s is None:
            return None
        return SolutionRecord(
            tuple(ArgumentRecord(a["conclusion"], tuple(a["support"])) for a in s["arguments"]),
            tuple(s["transfers"]),
            tuple((a, r) for a, r in s["plans"]),
        )

    rounds = []
    for r in d["rounds"]:
        neg = r["negotiation"]
        rounds.append(
            Round(
                number=r["number"],
                disclosures=tuple((a, tuple(items)) for a, items in r["disclosures"]),
                revision_delta=tuple(r["revision_delta"]),
                new_knowledge=r["new_knowledge"],
                solution=sol(r["solution"]),
                proposals=tuple(
                    ProposalRecord(
                        p["agent"],
                        p["accepted"],
                        tuple(
                            DecisionRecord(x["conclusion"], x["verdict"], tuple(x["explanation"]))
                            for x in p["decisions"]
                        ),
                    )
                    for p in r["proposals"]
                ),
                negotiation=None
                if neg is None
                else NegotiationRecord(
                    neg["rejecting_agent"],
                    sol(neg["repaired"]),
                    neg["accepted"],
                    tuple((a, tuple(ls)) for a, ls in neg["explanations"]),
                ),
                messages=tuple(MessageRecord(**m) for m in r["messages"]),
            )
        )
    return Transcript(
        scenario_name=d["scenario_name"],
        outcome=d["outcome"],
        reason=d["reason"],
        rounds=tuple(rounds),
        final_ownership=tuple((a, tuple(rs)) for a, rs in d["final_ownership"]),
    )


def render_text(t: Transcript) -> str:
    lines = [f"scenario: {t.scenario_name}"]
    for r in t.rounds:
        lines.append(f"round {r.number}:")
        for agent, items in r.disclosures:
            for item in items:
                lines.append(f"  {agent} discloses {item}")
        if r.revision_delta:
            lines.append(f"  mediator learns [{', '.join(r.revision_delta)}]")
        if r.solution is None:
            lines.append("  no solution")
        else:
            lines.append("  solution:")
            for a in r.solution.arguments:
                lines.append(f"    argument {a.conclusion} from {{{', '.join(a.support)}}}")
        for p in r.proposals:
            word = "accepts" if p.accepted else "rejects"
            lines.append(f"  {p.agent} {word} the proposal")
            for dec in p.decisions:
                if dec.verdict == "reject":
                    lines.append(
                        f"    counter to {dec.conclusion} from {{{', '.join(dec.explanation)}}}"
                    )
        if r.negotiation is not None:
            n = r.negotiation
            outcome = "succeeded" if n.accepted else "failed"
            lines.append(f"  negotiation with {n.rejecting_agent} {outcome}")
            if n.repaired is not None:
                for a in n.repaired.arguments:
                    lines.append(f"    repaired argument {a.conclusion} from {{{', '.join(a.support)}}}")
        for m in r.messages:
            lines.append(f"  {m.kind}: {m.sender} -> {m.receiver}: {m.payload}")
    lines.append(f"outcome: {t.outcome} ({t.reason})")
    for agent, resources in t.final_ownership:
        lines.append(f"  {agent} holds {{{', '.join(resources)}}}")
    return "\n".join(lines) + "\n"


def serialize_transcript(t: Transcript, format: str = "json") -> bytes:
    """Stable serialization; json carries a schema version field."""
    if format == "json":
        return (json.dumps(to_dict(t), indent=2, sort_keys=False) + "\n").encode("utf-8")
    if format == "text":
        return render_text(t).encode("utf-8")
    raise ValueError(f"unknown transcript format {format!r}")


def parse_transcript(data: bytes) -> Transcript:
    return from_dict(json.loads(data.decode("utf-8")))
