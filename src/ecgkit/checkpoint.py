"""Binary model container.

Layout: the magic string "ECGKIT1", a little-endian u32 length plus JSON
bytes describing the architecture, a u32 record count, then one record
per state array in sorted name order. Each record is a u16 name length,
the UTF-8 name, a u8 rank, the dims as u32 values, and the row-major
little-endian float32 data, and nothing after the last record. The
descriptor block alone determines every parameter shape, so metadata
queries never touch the tensor records.
"""

import json
import struct

import numpy as np

from .artifacts import atomic_open, json_fields, json_schema, parse_json
from .errors import ConfigError, FormatError, IoError
from .models import ModelDescriptor, build

MAGIC = b"ECGKIT1"
_DESCRIPTOR_SCHEMA = json_schema(ModelDescriptor, ())


def _read_exact(handle, count, what):
    start = handle.tell()
    data = handle.read(count)
    if len(data) != count:
        raise FormatError(f"checkpoint truncated while reading {what}: "
                          f"wanted {count} bytes, got {len(data)}",
                          offset=start + len(data))
    return data


def _read_struct(handle, fmt, what):
    size = struct.calcsize(fmt)
    return struct.unpack(fmt, _read_exact(handle, size, what))


def save_checkpoint(path, model):
    """Serialize descriptor plus every parameter and running statistic."""
    state = model.state_arrays()
    with atomic_open(path, "wb") as handle:
        handle.write(MAGIC)
        descriptor_json = json.dumps(model.descriptor.to_dict(),
                                     sort_keys=True).encode("utf-8")
        handle.write(struct.pack("<I", len(descriptor_json)))
        handle.write(descriptor_json)
        handle.write(struct.pack("<I", len(state)))
        for name in sorted(state):
            array = np.ascontiguousarray(state[name], dtype="<f4")
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<B", array.ndim))
            for dim in array.shape:
                handle.write(struct.pack("<I", dim))
            handle.write(array.tobytes())
    return path


def _read_descriptor(handle):
    magic = _read_exact(handle, len(MAGIC), "magic")
    if magic != MAGIC:
        raise FormatError(f"not a model checkpoint: magic {magic!r} != "
                          f"{MAGIC!r}", offset=0)
    (json_len,) = _read_struct(handle, "<I", "descriptor length")
    block_start = handle.tell()
    raw = _read_exact(handle, json_len, "descriptor block")
    try:
        payload = parse_json(raw, "descriptor", FormatError)
        return ModelDescriptor(**json_fields(
            payload, _DESCRIPTOR_SCHEMA, "descriptor", None, FormatError,
            ("arch",)))
    except (FormatError, ConfigError) as exc:
        raise FormatError(f"bad descriptor block: {exc}",
                          offset=block_start) from None


def load_checkpoint(path):
    """Rebuild the saved model; forward outputs match the original bitwise."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot open checkpoint {path}: {exc}") from None
    with handle:
        descriptor = _read_descriptor(handle)
        model = build(descriptor, seed=None)  # every value is read below
        expected = model.state_arrays()

        (n_records,) = _read_struct(handle, "<I", "record count")
        if n_records != len(expected):
            raise FormatError(f"checkpoint holds {n_records} arrays, "
                              f"descriptor implies {len(expected)}",
                              offset=handle.tell())
        arrays = {}
        for _ in range(n_records):
            (name_len,) = _read_struct(handle, "<H", "record name length")
            name_start = handle.tell()
            try:
                name = _read_exact(handle, name_len,
                                   "record name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"record name is not valid UTF-8: {exc}",
                                  offset=name_start) from None
            if name not in expected:
                raise FormatError(f"unexpected array {name!r} for this "
                                  "architecture", offset=handle.tell())
            (ndim,) = _read_struct(handle, "<B", f"rank of {name}")
            shape = tuple(
                _read_struct(handle, "<I", f"dim of {name}")[0]
                for _ in range(ndim))
            if shape != expected[name].shape:
                raise FormatError(f"array {name!r} has shape {shape}, "
                                  f"descriptor implies "
                                  f"{expected[name].shape}",
                                  offset=handle.tell())
            n_bytes = 4 * int(np.prod(shape))
            raw = _read_exact(handle, n_bytes, f"data of {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        missing = set(expected) - set(arrays)
        if missing:
            raise FormatError(f"checkpoint missing arrays: {sorted(missing)}",
                              offset=handle.tell())
        end = handle.tell()
        if handle.read(1):
            raise FormatError("checkpoint has bytes after its last record",
                              offset=end)
    model.load_state_arrays(arrays)
    return model
