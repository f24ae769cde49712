"""The one way a file reaches disk: every artifact the pipeline writes
appears complete or not at all.

A writer fills a temp sibling ``.<name>.<random>`` and renames it onto the
target once it has written everything, so a failed or killed run leaves the
previous file as it was.  A target that is a symlink is replaced by the new
file, not written through.
"""

import contextlib
import json
import os
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
