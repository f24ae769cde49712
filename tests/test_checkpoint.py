import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

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

# the header follows the magic and its u32 length
HEADER_AT = len(MAGIC) + 4


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


def ecgkit1_bytes(model):
    """model in the retired ECGKIT1 layout: the descriptor block, a record
    count, then each array's name, rank, dims and data."""
    state = model.state_arrays()
    block = json.dumps(model.descriptor.to_dict(), sort_keys=True).encode()
    parts = [b"ECGKIT1", struct.pack("<I", len(block)), block,
             struct.pack("<I", len(state))]
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype="<f4")
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape),
                  array.tobytes()]
    return b"".join(parts)


def test_ecgkit1_file_rejected_at_offset_0(tmp_path):
    with pytest.raises(FormatError, match="not a model checkpoint") as exc:
        load_bytes(tmp_path, ecgkit1_bytes(small_model()))
    assert exc.value.offset == 0


def test_truncation_reports_offset(tmp_path):
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    raw = path.read_bytes()
    # in the magic, the header length, the header, an array's data and the
    # checksum
    for cut in (3, 9, 40, len(raw) // 2, len(raw) - 5, len(raw) - 2):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(clipped)
        assert "truncated" in str(exc.value)
        assert exc.value.offset == cut


def test_header_not_json_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    blob = b"{not json"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(FormatError, match="not valid JSON") as exc:
        load_checkpoint(path)
    assert exc.value.offset == HEADER_AT


def header_of(raw):
    """The JSON header of checkpoint bytes raw, parsed."""
    (length,) = struct.unpack("<I", raw[len(MAGIC):HEADER_AT])
    return json.loads(raw[HEADER_AT:HEADER_AT + length])


def with_header(raw, header):
    """Checkpoint bytes raw with its header replaced by header, a dict
    (written with sorted keys, as save_checkpoint writes it) or bytes."""
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True).encode()
    (length,) = struct.unpack("<I", raw[len(MAGIC):HEADER_AT])
    return MAGIC + struct.pack("<I", len(header)) + header \
        + raw[HEADER_AT + length:]


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
    header = header_of(saved)
    header["descriptor"].update(edit)
    header["descriptor"] = {key: value for key, value
                            in header["descriptor"].items()
                            if value is not None}
    with pytest.raises(FormatError, match=named) as exc:
        load_bytes(tmp_path, with_header(saved, header))
    assert exc.value.offset == HEADER_AT


@pytest.mark.parametrize("header", [
    b'\xff{"arrays": [], "descriptor": {"arch": "cnn"}}',
    b'["cnn"]',
    {"arrays": [], "descriptor": ["cnn"]},
    {"arrays": {}, "descriptor": {"arch": "cnn"}},
    {"descriptor": {"arch": "cnn"}},
    {"arrays": [], "descriptor": {"arch": "cnn"}, "crc": 0},
])
def test_header_not_a_utf8_json_object_of_its_keys_rejected(tmp_path, saved,
                                                            header):
    with pytest.raises(FormatError, match="checkpoint header") as exc:
        load_bytes(tmp_path, with_header(saved, header))
    assert exc.value.offset == HEADER_AT


def test_descriptor_repeated_key_rejected(tmp_path, saved):
    head = json.dumps(header_of(saved), sort_keys=True).encode()
    head = head.replace(b'"descriptor": {', b'"descriptor": {"arch": "cnn", ')
    with pytest.raises(FormatError, match="repeats key 'arch'") as exc:
        load_bytes(tmp_path, with_header(saved, head))
    assert exc.value.offset == HEADER_AT


def edit_arrays(header, how):
    """header with its [[name, shape], ...] list edited as how says."""
    arrays = header["arrays"]
    if how == "renamed":
        arrays[0][0] += "x"
    elif how == "reordered":
        arrays[0], arrays[1] = arrays[1], arrays[0]
    elif how == "reshaped":
        arrays[-1][1] = arrays[-1][1][::-1] + [1]
    elif how == "short":
        del arrays[2]
    elif how == "long":
        arrays.append(["zz", [1]])
    elif how == "descriptor":
        # a descriptor of another channel plan over this file's arrays
        header["descriptor"]["channel_plan"] = [16, 16]
    return header


@pytest.mark.parametrize("how", ["renamed", "reordered", "reshaped",
                                 "descriptor"])
def test_header_arrays_must_be_the_descriptors(tmp_path, saved, how):
    header = edit_arrays(header_of(saved), how)
    with pytest.raises(FormatError, match="arrays list") as exc:
        load_bytes(tmp_path, with_header(saved, header))
    assert exc.value.offset == HEADER_AT


@pytest.mark.parametrize("name", ["block0.conv1.w", "block0.bn1.mean"])
def test_declare_pass_refuses_an_unlisted_parameter_or_buffer(tmp_path, saved,
                                                              name):
    header = header_of(saved)
    entry = next(entry for entry in header["arrays"] if entry[0] == name)
    entry[0] += "x"
    with pytest.raises(FormatError, match=f"no {name} of shape") as exc:
        load_bytes(tmp_path, with_header(saved, header))
    assert exc.value.offset == HEADER_AT


# a list that accounts for fewer or more bytes than the file holds is
# refused by its size before any model is built: the file then runs past
# the checksum the list places, or ends before it
@pytest.mark.parametrize("how", ["short", "long"])
def test_header_arrays_must_account_for_the_file_size(tmp_path, saved, how):
    header = edit_arrays(header_of(saved), how)
    raw = with_header(saved, header)
    listed_end = HEADER_AT + len(json.dumps(header, sort_keys=True)) + 4 \
        + 4 * sum(int(np.prod(shape)) for _, shape in header["arrays"])
    with pytest.raises(FormatError) as exc:
        load_bytes(tmp_path, raw)
    if how == "short":
        assert "after its checksum" in str(exc.value)
        assert exc.value.offset == listed_end
    else:
        assert "truncated" in str(exc.value)
        assert exc.value.offset == len(raw) < listed_end


@pytest.mark.parametrize("entry", [["a"], ["a", 4], [1, [4]], ["a", [-1]],
                                   ["a", [2.0]], ["a", [True]], "a"])
def test_header_arrays_entries_are_names_and_shapes(tmp_path, saved, entry):
    header = header_of(saved)
    header["arrays"].append(entry)
    with pytest.raises(FormatError, match=r"not \[\[name, shape\]") as exc:
        load_bytes(tmp_path, with_header(saved, header))
    assert exc.value.offset == HEADER_AT


def crafted_resnet1d(tmp_path):
    """The shipped-size resnet1d checkpoint at seed 5 with a descriptor
    whose channel plan declares 4.47 GiB in one conv weight, over the
    file's own arrays list and data, its checksum recomputed."""
    raw = save_checkpoint(tmp_path / "r.ckpt",
                          build(ModelDescriptor("resnet1d"), seed=5)) \
        .read_bytes()
    header = header_of(raw)
    header["descriptor"]["channel_plan"] = [20000, 20000, 20000]
    body = with_header(raw, header)[:-4]
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the child sets its own RLIMIT_AS")
def test_descriptor_larger_than_the_file_exits_4_in_bounded_memory(
        tmp_path):
    # the child caps its own address space at 2.5 GB: a loader that builds
    # the described model first dies there of MemoryError (exit 1, a
    # traceback), and in this process it would touch gigabytes
    checkpoint = crafted_resnet1d(tmp_path)
    beats = write_beats_csv(tmp_path / "beats.csv",
                            toy_two_class(n_per_class=4, length=187))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000,) * 2)\n"
             "from ecgkit import cli\n"
             "sys.exit(cli.run(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", child, "evaluate", "--checkpoint",
         str(checkpoint), "--test", str(beats), "--split", "val",
         "--out", str(tmp_path / "report")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith(
        f"ecgkit: FormatError: offset {HEADER_AT}: bad checkpoint header: "
        "its arrays list has no stem.conv.w of shape [20000, 1, 7]")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "report").exists()


def test_magic_is_stable(tmp_path):
    model = small_model()
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    assert path.read_bytes()[:7] == b"ECGKIT2"


def test_layout_is_header_then_data_then_crc(saved):
    model = small_model()
    state = model.state_arrays()
    header = header_of(saved)
    assert header == {"arrays": [[name, list(state[name].shape)]
                                 for name in sorted(state)],
                      "descriptor": model.descriptor.to_dict()}
    data = b"".join(np.asarray(state[name], dtype="<f4").tobytes()
                    for name in sorted(state))
    body = saved[:-4]
    assert body.endswith(data)
    assert len(body) == HEADER_AT + len(json.dumps(header).encode()) \
        + len(data)
    assert struct.unpack("<I", saved[-4:])[0] == zlib.crc32(body)


def test_resnet1d_file_bytes_are_pinned(tmp_path):
    # exact bytes (NumPy 2.4.6): the shipped-size resnet1d at seed 5, whose
    # state TestInitBytes pins; this pins the layout around it
    path = save_checkpoint(tmp_path / "r.ckpt",
                           build(ModelDescriptor("resnet1d"), seed=5))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "fcca82287199a394b23fa5c78f2212a72b4bf98082dbe34b7d96a897b38e1373"


@pytest.fixture
def saved(tmp_path):
    return save_checkpoint(tmp_path / "m.ckpt", small_model()).read_bytes()


def load_bytes(tmp_path, raw):
    path = tmp_path / "patched.ckpt"
    path.write_bytes(raw)
    return load_checkpoint(path)


def data_spans(raw):
    """(name, start, end) of every array's data in checkpoint bytes raw."""
    (length,) = struct.unpack("<I", raw[len(MAGIC):HEADER_AT])
    start = HEADER_AT + length
    for name, shape in header_of(raw)["arrays"]:
        end = start + 4 * int(np.prod(shape))
        yield name, start, end
        start = end


def test_flipped_byte_in_any_array_fails_the_checksum(tmp_path, saved):
    spans = list(data_spans(saved))
    assert spans[-1][2] == len(saved) - 4
    for name, start, end in spans + [("checksum", len(saved) - 4,
                                      len(saved))]:
        for at in (start, (start + end) // 2, end - 1):
            raw = bytearray(saved)
            raw[at] ^= 0x01
            with pytest.raises(FormatError, match="checksum") as exc:
                load_bytes(tmp_path, bytes(raw))
            assert exc.value.offset == len(saved) - 4, name


def test_flipped_data_byte_exit_4_through_evaluate(tmp_path, saved, capsys):
    _, start, _ = next(data_spans(saved))
    raw = bytearray(saved)
    raw[start] ^= 0x01
    checkpoint = tmp_path / "flipped.ckpt"
    checkpoint.write_bytes(bytes(raw))
    beats = write_beats_csv(tmp_path / "beats.csv",
                            toy_two_class(n_per_class=4, length=64))
    out = tmp_path / "report"
    code = run(["evaluate", "--checkpoint", str(checkpoint),
                "--test", str(beats), "--split", "val", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"ecgkit: FormatError: offset {len(saved) - 4}: "
                          "checkpoint checksum ")
    assert not out.exists()


def test_trailing_bytes_rejected_at_their_offset(tmp_path, saved):
    with pytest.raises(FormatError, match="after its checksum") as exc:
        load_bytes(tmp_path, saved + b"\x00")
    assert exc.value.offset == len(saved)


def test_trailing_bytes_exit_4_through_evaluate(tmp_path, saved, capsys):
    checkpoint = tmp_path / "trailing.ckpt"
    checkpoint.write_bytes(saved + b"ECGKIT2")
    beats = write_beats_csv(tmp_path / "beats.csv",
                            toy_two_class(n_per_class=4, length=64))
    code = run(["evaluate", "--checkpoint", str(checkpoint),
                "--test", str(beats), "--split", "val",
                "--out", str(tmp_path / "report")])
    assert code == 4
    assert capsys.readouterr().err == (
        f"ecgkit: FormatError: offset {len(saved)}: checkpoint has bytes "
        f"after its checksum\n")


@pytest.fixture(scope="module")
def resnet_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "resnet1d.ckpt"
    return save_checkpoint(path, small_model("resnet1d")).read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_fuzz") / "fuzzed.ckpt"


# one flipped byte at most: more flips in the descriptor's digits could
# describe a model of gigabytes
@given(data=st.data())
def test_corrupted_file_raises_only_ecgkit_errors(resnet_bytes, fuzz_path,
                                                 data):
    raw = bytearray(resnet_bytes)
    # half the places fall in the magic, the header length or the header
    head = HEADER_AT + struct.unpack("<I", raw[len(MAGIC):HEADER_AT])[0]
    place = st.one_of(st.integers(0, head), st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        raw[data.draw(place)] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):
        raw = raw[:data.draw(place)]
    fuzz_path.write_bytes(bytes(raw))
    try:
        load_checkpoint(fuzz_path)
    except EcgkitError:
        pass
