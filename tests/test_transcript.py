from __future__ import annotations

import json

import pytest

from mediatrix.mediator import mediate
from mediatrix.transcript import from_dict, parse_transcript, serialize_transcript

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


@pytest.mark.parametrize("version", [None, 2, "1"], ids=["missing", "2", "string"])
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
