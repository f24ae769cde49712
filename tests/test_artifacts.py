"""Every artifact appears complete or not at all: a writer that fails,
raises or is interrupted mid-file leaves the earlier file byte for byte and
no temp sibling behind."""

import pytest

from ecgkit.artifacts import write_json
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
