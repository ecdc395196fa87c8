"""Machine-readable mediation transcripts.

Records are plain data (strings and numbers only) so that the JSON form
round-trips exactly. The text form is a human-readable round narrative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Union, get_args, get_origin, get_type_hints

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


def _write(value, out: list[str], pad: str, opening: str = "{") -> None:
    """Append `value` to `out` as `json.dumps` writes it with `indent=2` at indent `pad`.

    A tuple is a list; a record is an object of its fields in declaration
    order, which `opening` "," appends to an object already opened.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, tuple):
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            if isinstance(item, str):  # most items: written here, not by a call
                out.append(sep + encode_basestring_ascii(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]" if value else "[]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):  # before int: a bool is an int
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        inner = pad + "  "
        sep = opening + "\n" + inner
        for f in fields(value):
            out.append(f"{sep}{encode_basestring_ascii(f.name)}: ")
            _write(getattr(value, f.name), out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")


# the JSON name of each type the reader meets
_JSON = {
    dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean", type(None): "null"
}


def _expect(kind: type, data, path: str) -> None:
    if type(data) is not kind:  # exact, so a boolean is no integer
        raise ValueError(f"{path}: expected {_JSON[kind]}, got {_JSON.get(type(data), type(data).__name__)}")


def _read(kind, data, path: str = "transcript"):
    """Rebuild a value of type `kind` from its JSON data, led by the records' type hints.

    Data that does not fit, a field missing or unknown among them, raises ValueError
    naming its path, as in `transcript.rounds[0].number`.
    """
    if is_dataclass(kind):
        _expect(dict, data, path)
        hints = get_type_hints(kind)
        missing = next((name for name in hints if name not in data), None)
        if missing is not None:
            raise ValueError(f"{path}.{missing}: missing")
        unknown = next((name for name in data if name not in hints), None)
        if unknown is not None:
            raise ValueError(f"{path}.{unknown}: unknown field")
        return kind(**{name: _read(hint, data[name], f"{path}.{name}") for name, hint in hints.items()})
    args = get_args(kind)
    if get_origin(kind) is tuple:
        _expect(list, data, path)
        if args[-1] is Ellipsis:  # tuple[X, ...]
            args = (args[0],) * len(data)
        elif len(args) != len(data):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(data)}")
        return tuple(_read(a, item, f"{path}[{i}]") for i, (a, item) in enumerate(zip(args, data)))
    if get_origin(kind) is Union:  # Optional[record]
        return None if data is None else _read(args[0], data, path)
    _expect(kind, data, path)
    return data


def to_dict(t: Transcript) -> dict:
    return json.loads(serialize_transcript(t, "json"))


def from_dict(d: dict) -> Transcript:
    """The transcript the data describes; ValueError names what does not fit the schema."""
    _expect(dict, d, "transcript")
    version = d.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # exact, since true and 1.0 equal 1
        raise ValueError(f"unsupported transcript schema: {version!r}")
    return _read(Transcript, {k: v for k, v in d.items() if k != "schema_version"})


def _text(t: Transcript) -> str:
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
        out = ['{\n  "schema_version": %d' % SCHEMA_VERSION]
        _write(t, out, "", opening=",")
        return ("".join(out) + "\n").encode("ascii")
    if format == "text":
        return _text(t).encode("utf-8")
    raise ValueError(f"unknown transcript format {format!r}")


def parse_transcript(data: bytes) -> Transcript:
    return from_dict(json.loads(data.decode("utf-8")))
