"""Whole-file replacement for the files a run leaves behind."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: Path | str, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Write through a temp file in `path`'s directory and rename it over
    `path` once the block exits cleanly, so a reader (or a killed writer)
    sees the old file or the new one, never a torn one. If the block
    raises, the temp file is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
