import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgkit.beats import write_beats_csv
from ecgkit.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ecgkit.cli import run
from ecgkit.errors import EcgkitError, FormatError
from ecgkit.models import ModelDescriptor, build

from helpers import toy_two_class


def small_model(arch="cnn", seed=4):
    kwargs = {"input_len": 64, "channel_plan": (8, 8)}
    if arch in ("cnn_lstm", "cnn_lstm_attn"):
        kwargs.update(lstm_hidden=8, attention_dim=8)
    if arch == "resnet1d":
        kwargs["blocks_per_stage"] = 1
    return build(ModelDescriptor(arch, **kwargs), seed)


@pytest.mark.parametrize("arch", ["cnn", "cnn_lstm", "cnn_lstm_attn",
                                  "resnet1d"])
def test_round_trip_logits_bitwise_identical(arch, tmp_path):
    model = small_model(arch)
    # shift the running stats away from init so buffers are exercised too
    for _, buffer in model.named_buffers():
        buffer += np.random.default_rng(0).random(buffer.shape) \
            .astype(np.float32)
    path = save_checkpoint(tmp_path / f"{arch}.ckpt", model)
    restored = load_checkpoint(path)
    X = np.random.default_rng(1).random((6, 64), dtype=np.float32)
    np.testing.assert_array_equal(restored.logits_array(X),
                                  model.logits_array(X))


def test_restored_state_bitwise_identical(tmp_path):
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    restored = load_checkpoint(path)
    original = model.state_arrays()
    for name, array in restored.state_arrays().items():
        np.testing.assert_array_equal(array, original[name])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTECG1" + b"\x00" * 32)
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert exc.value.offset == 0


def test_truncation_reports_offset(tmp_path):
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    raw = path.read_bytes()
    for cut in (3, 9, len(raw) // 2, len(raw) - 5):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(clipped)
        assert "truncated" in str(exc.value)
        assert 0 <= exc.value.offset <= cut


def test_corrupt_descriptor_rejected(tmp_path):
    import struct
    path = tmp_path / "bad.ckpt"
    blob = b"{not json"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def with_descriptor(raw, block):
    """Checkpoint bytes raw with its descriptor block replaced by block."""
    json_len = struct.unpack("<I", raw[7:11])[0]
    return MAGIC + struct.pack("<I", len(block)) + block \
        + raw[11 + json_len:]


def test_descriptor_round_trips(tmp_path):
    descriptor = ModelDescriptor("cnn_lstm_attn", input_len=93,
                                 channel_plan=(8, 8), lstm_hidden=8,
                                 attention_dim=8)
    path = save_checkpoint(tmp_path / "m.ckpt", build(descriptor, 0))
    assert load_checkpoint(path).descriptor == descriptor


@pytest.mark.parametrize("edit, named", [
    ({"width": 7}, "width"),
    ({"arch": None}, "arch"),  # None drops the key
    ({"input_len": True}, "input_len"),
    ({"lstm_dropout": float("nan")}, "lstm_dropout"),
    ({"lstm_dropout": float("inf")}, "lstm_dropout"),
    ({"channel_plan": "88"}, "channel_plan"),
])
def test_descriptor_keys_and_types_are_checked(tmp_path, saved, edit,
                                               named):
    import json
    block = json.loads(saved[11:11 + struct.unpack("<I", saved[7:11])[0]])
    block.update(edit)
    block = {key: value for key, value in block.items() if value is not None}
    with pytest.raises(FormatError, match=named) as exc:
        load_bytes(tmp_path, with_descriptor(saved, json.dumps(block)
                                             .encode()))
    assert exc.value.offset == 11


@pytest.mark.parametrize("block", [b'\xff{"arch": "cnn"}', b'["cnn"]'])
def test_descriptor_not_a_utf8_json_object_rejected(tmp_path, saved, block):
    with pytest.raises(FormatError, match="descriptor") as exc:
        load_bytes(tmp_path, with_descriptor(saved, block))
    assert exc.value.offset == 11


def test_descriptor_shape_mismatch_rejected(tmp_path):
    # claim a different channel plan in the descriptor than the records hold
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    raw = bytearray(path.read_bytes())
    import json
    import struct
    json_len = struct.unpack("<I", raw[7:11])[0]
    payload = json.loads(raw[11:11 + json_len].decode())
    payload["channel_plan"] = [16, 16]
    new_blob = json.dumps(payload, sort_keys=True).encode()
    patched = MAGIC + struct.pack("<I", len(new_blob)) + new_blob \
        + bytes(raw[11 + json_len:])
    bad = tmp_path / "patched.ckpt"
    bad.write_bytes(patched)
    with pytest.raises(FormatError) as exc:
        load_checkpoint(bad)
    assert "shape" in str(exc.value)


def test_unknown_record_name_rejected(tmp_path):
    import struct
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    raw = bytearray(path.read_bytes())
    # the first record name follows the u32 record count after the header
    json_len = struct.unpack("<I", raw[7:11])[0]
    name_pos = 11 + json_len + 4 + 2
    raw[name_pos] ^= 0xFF
    bad = tmp_path / "renamed.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_magic_is_stable(tmp_path):
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    assert path.read_bytes()[:7] == b"ECGKIT1"


def split_records(raw):
    """(head, records) of checkpoint bytes: head runs through the record
    count, and each record is its bytes from name length to data."""
    json_len = struct.unpack("<I", raw[7:11])[0]
    pos = 11 + json_len
    (count,) = struct.unpack("<I", raw[pos:pos + 4])
    head, pos = raw[:pos + 4], pos + 4
    records = []
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack("<H", raw[pos:pos + 2])
        pos += 2 + name_len
        ndim = raw[pos]
        dims = struct.unpack(f"<{ndim}I", raw[pos + 1:pos + 1 + 4 * ndim])
        pos += 1 + 4 * ndim + 4 * int(np.prod(dims))
        records.append(raw[start:pos])
    assert pos == len(raw)
    return head, records


@pytest.fixture
def saved(tmp_path):
    return save_checkpoint(tmp_path / "m.ckpt", small_model()).read_bytes()


def load_bytes(tmp_path, raw):
    path = tmp_path / "patched.ckpt"
    path.write_bytes(raw)
    return load_checkpoint(path)


def test_trailing_bytes_rejected_at_their_offset(tmp_path, saved):
    with pytest.raises(FormatError, match="after its last record") as exc:
        load_bytes(tmp_path, saved + b"\x00")
    assert exc.value.offset == len(saved)


def test_trailing_bytes_exit_4_through_evaluate(tmp_path, saved, capsys):
    checkpoint = tmp_path / "trailing.ckpt"
    checkpoint.write_bytes(saved + b"ECGKIT1")
    beats = write_beats_csv(tmp_path / "beats.csv",
                            toy_two_class(n_per_class=4, length=64))
    code = run(["evaluate", "--checkpoint", str(checkpoint),
                "--test", str(beats), "--split", "val",
                "--out", str(tmp_path / "report")])
    assert code == 4
    assert capsys.readouterr().err == (
        f"ecgkit: FormatError: offset {len(saved)}: checkpoint has bytes "
        f"after its last record\n")


def test_record_count_other_than_descriptor_rejected(tmp_path, saved):
    head, records = split_records(saved)
    (count,) = struct.unpack("<I", head[-4:])
    patched = head[:-4] + struct.pack("<I", count + 1) + b"".join(records)
    with pytest.raises(FormatError,
                       match=f"holds {count + 1} arrays, descriptor "
                             f"implies {count}") as exc:
        load_bytes(tmp_path, patched)
    assert exc.value.offset == len(head)


def test_duplicated_record_leaves_an_array_missing(tmp_path, saved):
    head, records = split_records(saved)
    patched = head + records[0] + b"".join(records[:1] + records[2:])
    with pytest.raises(FormatError, match="checkpoint missing arrays") as exc:
        load_bytes(tmp_path, patched)
    name = records[1][2:2 + struct.unpack("<H", records[1][:2])[0]]
    assert repr(name.decode()) in str(exc.value)
    assert exc.value.offset == len(patched)


def test_record_name_not_utf8_rejected(tmp_path, saved):
    head, records = split_records(saved)
    (name_len,) = struct.unpack("<H", records[0][:2])
    bad = records[0][:2] + b"\xff" * name_len + records[0][2 + name_len:]
    with pytest.raises(FormatError, match="not valid UTF-8") as exc:
        load_bytes(tmp_path, head + bad + b"".join(records[1:]))
    assert exc.value.offset == len(head) + 2


@pytest.fixture(scope="module")
def resnet_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "resnet1d.ckpt"
    return save_checkpoint(path, small_model("resnet1d")).read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_fuzz") / "fuzzed.ckpt"


# one flipped byte at most: more flips in the descriptor's digits could
# describe a model of gigabytes
@given(flip=st.one_of(st.none(), st.tuples(st.integers(0, 399),
                                           st.integers(1, 255))),
       cut=st.one_of(st.none(), st.integers(0, 400)))
def test_corrupted_head_raises_only_ecgkit_errors(resnet_bytes, fuzz_path,
                                                 flip, cut):
    raw = bytearray(resnet_bytes)
    if flip is not None:
        raw[flip[0]] ^= flip[1]
    if cut is not None:
        raw = raw[:cut]
    fuzz_path.write_bytes(bytes(raw))
    try:
        load_checkpoint(fuzz_path)
    except EcgkitError:
        pass
