"""Every artifact appears complete or not at all: a writer that fails,
raises or is interrupted mid-file leaves the earlier file byte for byte and
no temp sibling behind.  Every JSON document read back is UTF-8, holds
exactly its schema's keys, and gives each the JSON type its field takes."""

from dataclasses import dataclass, field

import pytest

from ecgkit.artifacts import json_fields, json_schema, parse_json, write_json
from ecgkit.errors import ConfigError, FormatError
from ecgkit.beats import write_beats_csv
from ecgkit.checkpoint import save_checkpoint
from ecgkit.models import ModelDescriptor, build

from helpers import toy_two_class


class Interrupting:
    """A beat source whose row is cut off as a kill would cut it: the CSV
    writer raises when it turns the source into text, after the rows
    before it."""

    def __str__(self):
        raise KeyboardInterrupt


def rewrite_beats_failing_midway(path):
    dataset = toy_two_class(n_per_class=4, length=16)
    dataset.source[5] = Interrupting()
    with pytest.raises(KeyboardInterrupt):
        write_beats_csv(path, dataset)


def rewrite_checkpoint_failing_midway(path):
    model = build(ModelDescriptor(arch="cnn", input_len=64), seed=3)
    state = model.state_arrays()
    model.state_arrays = lambda: {**state, "zz": "not an array"}
    with pytest.raises(ValueError):
        save_checkpoint(path, model)


@pytest.mark.parametrize("name, first, rewrite", [
    ("beats.csv", lambda p: write_beats_csv(p, toy_two_class(length=16)),
     rewrite_beats_failing_midway),
    ("model.ckpt",
     lambda p: save_checkpoint(
         p, build(ModelDescriptor(arch="cnn", input_len=64), seed=1)),
     rewrite_checkpoint_failing_midway),
])
def test_failed_rewrite_keeps_earlier_file(tmp_path, name, first, rewrite):
    path = tmp_path / name
    first(path)
    before = path.read_bytes()
    rewrite(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_failed_first_write_leaves_nothing(tmp_path):
    rewrite_beats_failing_midway(tmp_path / "beats.csv")
    assert list(tmp_path.iterdir()) == []


def test_symlink_target_is_replaced_not_written_through(tmp_path):
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text("kept\n")
    link = tmp_path / "m.json"
    link.symlink_to(elsewhere)
    write_json(link, {"b": 1, "a": 2})
    assert not link.is_symlink()
    assert link.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert elsewhere.read_text() == "kept\n"


@dataclass
class Sample:
    name: str
    count: int = 1
    rate: float = 0.5
    note: str = None
    plan: tuple = None
    files: list[str] = field(default_factory=list)


SAMPLE_SCHEMA = json_schema(Sample, skip=("note",))


def check(payload, required=("name",)):
    return json_fields(payload, SAMPLE_SCHEMA, "sample", None, ConfigError,
                       required)


def test_schema_follows_the_annotations():
    null = type(None)
    assert SAMPLE_SCHEMA == {"name": (str,), "count": (int,),
                             "rate": (float, int), "plan": (list, null),
                             "files": (list[str],)}


def test_checked_fields_come_back_with_floats_as_float():
    fields = check({"name": "a", "count": 3, "rate": 2, "plan": None,
                    "files": ["x"]})
    assert fields == {"name": "a", "count": 3, "rate": 2.0, "plan": None,
                      "files": ["x"]}
    assert isinstance(fields["rate"], float)


@pytest.mark.parametrize("payload, message", [
    ([], "sample must be a JSON object, got \\[\\]"),
    ({"name": "a", "note": "n"}, "unknown sample key 'note'"),
    ({"count": 2}, "missing sample key 'name'"),
    ({"name": "a", "count": True}, "'count' expects int, got True"),
    ({"name": "a", "rate": False}, "'rate' expects float/int"),
    ({"name": "a", "count": 2.0}, "'count' expects int"),
    ({"name": "a", "count": None}, "'count' expects int, got None"),
    ({"name": "a", "plan": "88"}, "'plan' expects list/null"),
    ({"name": "a", "files": ["x", 1]}, "'files' expects list\\[str\\]"),
    ({"name": "a", "rate": float("nan")}, "'rate' must be a finite number"),
    ({"name": "a", "rate": -float("inf")}, "'rate' must be a finite"),
    ({"name": "a", "rate": 10 ** 400}, "'rate' must be a finite number"),
])
def test_refusals_name_the_key(payload, message):
    with pytest.raises(ConfigError, match=message):
        check(payload)


def test_section_names_the_key_within_it():
    with pytest.raises(FormatError,
                       match="unknown doc key 'x' in section 'cnn'"):
        json_fields({"x": 1}, SAMPLE_SCHEMA, "doc", "cnn", FormatError, ())
    with pytest.raises(FormatError, match="doc key 'cnn.count' expects int"):
        json_fields({"count": "1"}, SAMPLE_SCHEMA, "doc", "cnn", FormatError,
                    ())


@pytest.mark.parametrize("data", [b"{nope", b"", b'{"a": "\xe9"}',
                                  b"\xef\xbb\xbf{}", b"[" * 100000])
def test_parse_refuses_bytes_that_are_not_utf8_json(data):
    with pytest.raises(FormatError, match="doc x.json is not valid JSON"):
        parse_json(data, "doc x.json", FormatError)


def test_parse_reads_utf8_whatever_the_locale():
    assert parse_json('{"a": "é"}'.encode("utf-8"), "doc", FormatError) == \
        {"a": "é"}
