"""Binary model container.

Layout: the magic string "ECGKIT2", a little-endian u32 length, a JSON
header {"arrays": [[name, shape], ...], "descriptor": {...}} with sorted
keys, then the row-major little-endian float32 data of every state array
in sorted name order with nothing between them, and last a u32 CRC-32
(zlib.crc32) of every byte before it.  The descriptor alone determines
every array's name and shape; the header's arrays list must be the one it
implies, so a file is never read into the wrong arrays.
"""

import json
import struct
import zlib

import numpy as np

from .artifacts import atomic_open, json_fields, json_schema, parse_json
from .errors import ConfigError, FormatError, IoError
from .models import ModelDescriptor, build

MAGIC = b"ECGKIT2"
_HEADER_AT = len(MAGIC) + 4
_HEADER_SCHEMA = {"arrays": (list,), "descriptor": (dict,)}
_DESCRIPTOR_SCHEMA = json_schema(ModelDescriptor, ())


def _array_list(state):
    """[[name, shape], ...] of a state dict, in sorted name order."""
    return [[name, list(np.shape(state[name]))] for name in sorted(state)]


def _read_exact(handle, count, what):
    start = handle.tell()
    data = handle.read(count)
    if len(data) != count:
        raise FormatError(f"checkpoint truncated while reading {what}: "
                          f"wanted {count} bytes, got {len(data)}",
                          offset=start + len(data))
    return data


def save_checkpoint(path, model):
    """Serialize descriptor plus every parameter and running statistic."""
    state = model.state_arrays()
    header = json.dumps({"arrays": _array_list(state),
                         "descriptor": model.descriptor.to_dict()},
                        sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as handle:
        crc = 0
        for chunk in [MAGIC, struct.pack("<I", len(header)), header]:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        for name in sorted(state):
            data = np.ascontiguousarray(state[name], dtype="<f4").tobytes()
            handle.write(data)
            crc = zlib.crc32(data, crc)
        handle.write(struct.pack("<I", crc))
    return path


def _read_header(handle):
    """(model the header describes, filled with zeros, bytes read)."""
    magic = _read_exact(handle, len(MAGIC), "magic")
    if magic != MAGIC:
        raise FormatError(f"not a model checkpoint: magic {magic!r} != "
                          f"{MAGIC!r}", offset=0)
    length = _read_exact(handle, 4, "header length")
    raw = _read_exact(handle, struct.unpack("<I", length)[0], "header")
    try:
        header = json_fields(parse_json(raw, "checkpoint header", FormatError),
                             _HEADER_SCHEMA, "checkpoint header", None,
                             FormatError, tuple(_HEADER_SCHEMA))
        descriptor = ModelDescriptor(**json_fields(
            header["descriptor"], _DESCRIPTOR_SCHEMA, "checkpoint header",
            "descriptor", FormatError, ("arch",)))
        model = build(descriptor, seed=None)  # every value is read below
        if header["arrays"] != _array_list(model.state_arrays()):
            raise FormatError("its arrays list is not the sorted names and "
                              "shapes the descriptor implies")
    except (FormatError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint header: {exc}",
                          offset=_HEADER_AT) from None
    return model, magic + length + raw


def load_checkpoint(path):
    """Rebuild the saved model; forward outputs match the original bitwise."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot open checkpoint {path}: {exc}") from None
    with handle:
        model, head = _read_header(handle)
        crc = zlib.crc32(head)
        arrays = {}
        for name, zeros in sorted(model.state_arrays().items()):
            raw = _read_exact(handle, 4 * zeros.size, f"data of {name}")
            crc = zlib.crc32(raw, crc)
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(zeros.shape)
        end = handle.tell()
        (stored,) = struct.unpack("<I", _read_exact(handle, 4, "checksum"))
        if stored != crc:
            raise FormatError(f"checkpoint checksum {stored:#010x} does not "
                              f"match its contents ({crc:#010x})", offset=end)
        if handle.read(1):
            raise FormatError("checkpoint has bytes after its checksum",
                              offset=end + 4)
    model.load_state_arrays(arrays)
    return model
