"""The one text-table layer: how the pipeline reads and writes its tables.

Inputs are UTF-8 text. A table has a header row, and a row wider or narrower
than the header is an error naming the file and row. Every output is written
to a temporary file beside its target and moved over it in one
``os.replace``, so it appears whole or not at all; CSV outputs are quoted so
that every row parses back to the values written.
"""

from __future__ import annotations

import csv
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence


@contextmanager
def text_input(path, error: type[Exception]):
    """Yield ``path`` opened as UTF-8 text; a decoding failure inside the
    block is raised as ``error`` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def csv_rows(path, fh, error: type[Exception]):
    """``(line, fields)`` for each record of ``fh``, where ``line`` is the
    physical line the record starts on (a quoted field may hold newlines);
    a record csv rejects (an over-long field) raises ``error`` naming it."""
    reader = csv.reader(fh)
    line = 1
    try:
        for fields in reader:
            yield line, fields
            line = reader.line_num + 1
    except csv.Error as exc:
        raise error(f"{path}, line {line}: unreadable CSV row ({exc})") from None


def _checked_rows(path, error: type[Exception], width: int, rows):
    for line, fields in rows:
        if not fields:  # a blank line holds no row
            continue
        if len(fields) != width:
            raise error(f"{path}: row {line} has {len(fields)} fields, expected {width}")
        yield line, fields


@contextmanager
def read_table(path, error: type[Exception], required: Sequence[str] = ()):
    """Yield ``(header, rows)``; ``rows`` gives ``(line, fields)`` for each
    non-blank row after the header, ``line`` being the physical line the
    row starts on. A missing ``required`` column, or a row that is
    unreadable or narrower or wider than the header, raises ``error``
    naming the file and row."""
    with text_input(path, error) as fh:
        rows = csv_rows(path, fh, error)
        _, header = next(rows, (1, []))
        missing = [c for c in required if c not in header]
        if missing:
            raise error(f"{path}: header is missing columns {missing}")
        yield header, _checked_rows(path, error, len(header), rows)


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


def write_rows(path, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` (a header first, where the table has one) as a
    comma-separated table that appears whole or not at all."""
    with atomic_write(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
