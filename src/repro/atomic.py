"""The one atomic file writer of the flow cache, checkpointer and job store.

A file is published by writing a tmp sibling and renaming it over the
target, so a reader (or a restart after SIGKILL) sees the old content
or the new, never a partial write. The tmp name is unique per process
and per call, so concurrent writers of one path never truncate each
other's tmp file; a failed write removes its tmp file. There is no
fsync: the guarantee holds across a process kill, not a power loss.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path

# itertools.count is GIL-atomic, so threads never draw the same id.
_tmp_ids = itertools.count()


def atomic_write(path: Path, data: bytes, torn: bool = False) -> None:
    """Publish ``data`` at ``path`` via a writer-unique tmp + rename.

    ``torn=True`` models a write that dies mid-flight: half of ``data``
    reaches the tmp file, which is left behind unpublished, and
    :class:`OSError` is raised. The published file is never touched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_ids)}.tmp")
    if torn:
        tmp.write_bytes(data[: max(1, len(data) // 2)])
        raise OSError(f"injected torn write of {path}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
