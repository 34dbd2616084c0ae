"""Output files that appear whole or not at all.

A run's outputs (checkpoints, prediction and report tables, summaries) are
written to a temporary file in the target's own directory and then moved
over the target in one ``os.replace``. A writer that fails part-way leaves
the previous file untouched and no temporary file behind.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file opened with ``mode`` ("w" or "wb") that replaces
    ``path`` when the block exits cleanly and is removed if it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
