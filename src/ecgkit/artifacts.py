"""The one way a file reaches disk: every artifact the pipeline writes
appears complete or not at all.  And the one way a JSON document is read
back: decoded as UTF-8, parsed, and checked key by key against a schema.

A writer fills a temp sibling ``.<name>.<random>`` and renames it onto the
target once it has written everything, so a failed or killed run leaves the
previous file as it was.  A target that is a symlink is replaced by the new
file, not written through.
"""

import contextlib
import json
import math
import os
import typing
from dataclasses import fields
from pathlib import Path

from .errors import IoError


@contextlib.contextmanager
def atomic_open(path, mode):
    """A handle for writing path in mode "w" or "wb", made from missing
    parent directories up.  The file takes path's place when the body
    returns; a body that raises leaves path untouched and no temp file.
    OSError comes out as IoError naming path.  Text is written with
    newline="", so its bytes are the same on every platform.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # plain open(): the file mode follows the umask
        with open(temp, mode, newline=None if "b" in mode else "") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from None
        raise


def write_json(path, payload):
    """payload as indented JSON with sorted keys and a final newline."""
    with atomic_open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# JSON types a value may take, by the annotation of its dataclass field
_JSON_TYPES = {int: (int,), float: (float, int), str: (str,),
               tuple: (list,), list[str]: (list[str],)}
# how a message names a JSON type that is not a class
_NAMES = {type(None): "null", list[str]: "list[str]"}


def json_schema(cls, skip):
    """{field: JSON types its value may take} over the fields of dataclass
    cls but those in skip; a field whose default is None also takes null."""
    hints = typing.get_type_hints(cls)
    return {f.name: _JSON_TYPES[hints[f.name]]
            + ((type(None),) if f.default is None else ())
            for f in fields(cls) if f.name not in skip}


def parse_json(data, where, error):
    """The JSON value the bytes data hold, decoded as UTF-8 (RFC 8259);
    error names where when they are not UTF-8 or not JSON, and names the
    key when an object repeats one."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{where} repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None


def _is(value, kind):
    """value has JSON type kind; a bool is never a number."""
    if kind == list[str]:
        return isinstance(value, list) and all(isinstance(v, str)
                                               for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def json_fields(payload, schema, where, section, error, required):
    """The entries of payload, a JSON object, checked against schema.

    schema maps every key the object may hold to the JSON types its value
    takes (see json_schema); every key in required must be present.  A
    value whose types include float comes back a float, and must be
    finite.  error names where, the section (None at the document's root)
    and the key.
    """
    if not isinstance(payload, dict):
        raise error(f"{where} must be a JSON object, got {payload!r}")
    at = "" if section is None else f" in section {section!r}"
    for key in payload:
        if key not in schema:
            raise error(f"unknown {where} key {key!r}{at}")
    for key in required:
        if key not in payload:
            raise error(f"missing {where} key {key!r}{at}")
    checked = {}
    for key, value in payload.items():
        kinds = schema[key]
        name = key if section is None else f"{section}.{key}"
        if not any(_is(value, kind) for kind in kinds):
            names = "/".join(_NAMES.get(kind) or kind.__name__
                             for kind in kinds)
            raise error(f"{where} key {name!r} expects {names}, "
                        f"got {value!r}")
        if float in kinds and value is not None:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise error(f"{where} key {name!r} must be a finite number, "
                            f"got {value!r}")
        checked[key] = value
    return checked
