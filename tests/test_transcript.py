from __future__ import annotations

import json
import re

import pytest

from mediatrix.mediator import mediate
from mediatrix.transcript import from_dict, parse_transcript, serialize_transcript, to_dict

from conftest import load_scenario


def home_improvement_transcript():
    s = load_scenario("home_improvement")
    return mediate(list(s.agents), s.mediator, s.config, s.name).transcript


def test_json_writer_never_builds_the_pure_python_encoder(monkeypatch):
    """`json.dumps` with `indent` falls back to `_make_iterencode`; the writer must not use it."""
    calls = []
    original = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    t = home_improvement_transcript()
    data = serialize_transcript(t, "json")
    assert calls == []
    assert parse_transcript(data) == t


@pytest.mark.parametrize("version", [None, 2, "1", True, 1.0], ids=["missing", "2", "string", "boolean", "float"])
def test_reader_rejects_other_schema_versions(version):
    d = json.loads(serialize_transcript(home_improvement_transcript(), "json"))
    if version is None:
        del d["schema_version"]
    else:
        d["schema_version"] = version
    with pytest.raises(ValueError, match=f"^unsupported transcript schema: {version!r}$"):
        from_dict(d)


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError, match="unknown transcript format 'xml'"):
        serialize_transcript(home_improvement_transcript(), "xml")


# each kind of malformed data, made from a good transcript's, and the message that names where it is
MALFORMED = {
    "not_an_object": (lambda d: [], "transcript: expected object, got array"),
    "missing_field": (
        lambda d: {**d, "rounds": [{k: v for k, v in d["rounds"][0].items() if k != "number"}]},
        "transcript.rounds[0].number: missing",
    ),
    "wrong_container": (lambda d: {**d, "rounds": 5}, "transcript.rounds: expected array, got integer"),
    "wrong_scalar": (lambda d: {**d, "outcome": 5}, "transcript.outcome: expected string, got integer"),
    "wrong_length": (
        lambda d: {**d, "final_ownership": [["a"]]},
        "transcript.final_ownership[0]: expected 2 items, got 1",
    ),
    "string_for_a_list": (
        lambda d: {**d, "final_ownership": [["a", "nail"]]},
        "transcript.final_ownership[0][1]: expected array, got string",
    ),
    "unknown_field": (lambda d: {**d, "bogus": 1}, "transcript.bogus: unknown field"),
    "unknown_nested_field": (
        lambda d: {**d, "rounds": [{**d["rounds"][0], "bogus": 1}]},
        "transcript.rounds[0].bogus: unknown field",
    ),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_transcript_raises_value_error_naming_the_field(kind):
    malform, message = MALFORMED[kind]
    data = json.dumps(malform(to_dict(home_improvement_transcript()))).encode()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_transcript(data)


COUNTER = "    counter to int alpha: give(beta, alpha, tool1) from {B.2, B.3, I:B.1, G.2, G.6}"


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "two_donor",
            [
                COUNTER,
                "  negotiation with beta succeeded",
                "    repaired argument int alpha: give(mu, alpha, tool2) from {G.1, G.2, M.2, M.6, M.7}",
            ],
        ),
        ("single_donor", [COUNTER, "  negotiation with beta failed"]),
    ],
)
def test_text_transcript_states_each_counter_and_negotiation(name, expected):
    s = load_scenario(name)
    text = serialize_transcript(mediate(list(s.agents), s.mediator, s.config, s.name).transcript, "text")
    lines = text.decode().splitlines()
    assert [l for l in lines if l.lstrip().startswith(("counter to", "negotiation", "repaired"))] == expected
