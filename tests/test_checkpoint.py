import numpy as np
import pytest

from ecgkit.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ecgkit.errors import FormatError
from ecgkit.models import ModelDescriptor, build


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
