"""The one text-table layer: how the pipeline reads and writes its tables.

Inputs are UTF-8 text, with or without a byte-order mark, decoded by
``text_input`` alone. A table has a header row, and a row wider or narrower
than the header is an error naming the file and row. This is the only module
that opens text or parses CSV, so decoding, quoting, the field-size limit and
blank lines follow one set of rules. A numeric table keyed by its first
column is parsed by numpy's C reader, a block of rows at a time, where every
data line is plain; any other table goes to the row reader, which takes
every decision and raises every error. A headerless numeric table of a fixed
width, such as a drug's graph files, is read by ``read_headerless`` under
the same rules: one ``np.loadtxt`` call where every line of the file is
plain, else the row reader. ``_parse`` holds the one ``np.loadtxt`` call.

A plain line is one that ``np.loadtxt`` reads exactly as the row reader
does. It is not blank and not whitespace only, holds no ``"``, no carriage
return and none of the ASCII controls that only ``loadtxt`` strips, and has
no field over ``csv.field_size_limit()``. One function, ``_plain_lines``,
states this rule for both readers. A value ``loadtxt`` rejects but ``float``
reads (``1_0``, non-ASCII digits), or a row of another width, makes
``loadtxt`` fail, and the table goes to the row reader as well.

``read_blocks`` yields a keyed table's header, then its rows in blocks of
about ``BLOCK_BYTES``, one ``np.loadtxt`` call each, so that a count matrix
need not be held whole. Each block decides the integer rule for itself: a
block whose first line's values hold only ASCII digits, ``+``, spaces and
commas is read as int32, skipping strtod. A ``-`` in any of its values, a
value that is not an integer (``1.5``, ``1e3``) or one of 2**31 or more
sends the block to the float64 read, exact for counts up to 2**53. A ``-``
does so because int32 reads ``-0`` as ``0`` where strtod gives ``-0.0``.
numpy releases that read a value int32 rejects through a float, with only a
DeprecationWarning, are held to the same rule: the warning is raised as an
error there. Every int32 value is exact in float64, so widened, the blocks
hold the float64 read's values. ``read_matrix`` copies the blocks into one
float64 matrix; headerless tables are always read as float64. A table that
is not plain raises ``NotPlain`` in ``read_blocks``, to be read by the row
reader.

Every output is written to a temporary file beside its target and moved over
it in one ``os.replace``, so it appears whole or not at all; CSV outputs are
quoted so that every row parses back to the values written.
"""

from __future__ import annotations

import csv
import itertools
import os
import uuid
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@contextmanager
def text_input(path, error: type[Exception]):
    """Yield ``path`` opened as UTF-8 text, a leading byte-order mark
    skipped; a decoding failure inside the block is raised as ``error``
    naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    naming the file and row. A table given ``required`` columns is read by
    column name, so a column its header repeats raises ``error`` naming
    the file and the column."""
    with text_input(path, error) as fh:
        rows = csv_rows(path, fh, error)
        _, header = next(rows, (1, []))
        missing = [c for c in required if c not in header]
        if missing:
            raise error(f"{path}: header is missing columns {missing}")
        if required and len(set(header)) != len(header):
            repeated = next(c for i, c in enumerate(header) if c in header[:i])
            raise error(f"{path}: header repeats column {repeated!r}")
        yield header, _checked_rows(path, error, len(header), rows)


def read_matrix(path, error: type[Exception], key: str):
    """Read a numeric table whose first header column is ``key`` into
    ``(ids, columns, matrix, lines)``: the row ids in file order, the other
    header columns, a float64 matrix with one row per id, and the physical
    line each row starts on.

    A plain table is read by :func:`read_blocks`, each block copied into
    one matrix sized by its row bound; an int32 block widens exactly. Any
    other table is read again from the start by the row reader: one with a
    line holding ``"``, a field over ``csv.field_size_limit()``, a repeated
    id, a row of another width, a value ``loadtxt`` rejects (``1_0`` or
    non-ASCII digits, which ``float`` reads) or no data rows. The row
    reader is the only one that raises ``error``, naming the file, row and
    column, so both give the same bytes and the same messages. A table with
    no data rows gives an empty matrix.
    """
    ids: dict[str, None] = {}
    lines: list[int] = []
    try:
        with read_blocks(path, key, ids, lines) as (columns, rows, blocks):
            matrix = np.empty((rows, len(columns)))
            for start, block in blocks:
                matrix[start:start + len(block)] = block
                del block  # not held while the next block is parsed
    except NotPlain:
        return _read_rows(path, error, key)
    return list(ids), columns, matrix[:len(ids)], lines  # rows left for blank lines


def read_headerless(path, error: type[Exception], width: int):
    """``(matrix, lines)`` of a headerless numeric table of ``width``
    columns: float64, a row per non-blank row, and the physical line each
    starts on. A row error raises ``error`` naming the file and row.

    A non-empty UTF-8 file whose every line is plain is parsed by one
    ``np.loadtxt`` call, its rows on lines ``1..n``. Any other file, or one
    ``loadtxt`` rejects or reads to another shape, is read again by the row
    reader, the only one that raises ``error``."""
    plain = _plain_headerless(path, width)
    return plain if plain is not None else _headerless_rows(path, error, width)


def _plain_headerless(path, width: int):
    """``read_headerless``'s result through ``np.loadtxt``, or None where
    the file is not plain."""
    try:
        with text_input(path, NotPlain) as fh:
            lines = _plain_lines(fh.read(), csv.field_size_limit())
        if lines is None:
            return None
        matrix = _parse(lines, integer=False)
    except (NotPlain, ValueError):
        return None
    if matrix.shape != (len(lines), width):
        return None
    return matrix, list(range(1, len(lines) + 1))


def _headerless_rows(path, error: type[Exception], width: int):
    """``read_headerless``'s result, one csv row at a time."""
    with text_input(path, error) as fh:
        rows = list(_checked_rows(path, error, width, csv_rows(path, fh, error)))
    lines = [line for line, _ in rows]
    matrix = _floats(path, error, [fields for _, fields in rows], lines, 1)
    return matrix.reshape(len(rows), width), lines


def _floats(path, error: type[Exception], rows, lines, first_column: int):
    """``rows``, lists of fields, as one float64 array; a field ``float``
    rejects raises ``error`` naming its row's line in ``lines`` and its
    column, counted from ``first_column``."""
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        for line, row in zip(lines, rows):
            for col, raw in enumerate(row, first_column):
                try:
                    float(raw)
                except ValueError:
                    raise error(f"{path}: row {line} column {col} "
                                f"is not numeric: {raw!r}") from None
        raise


class NotPlain(Exception):
    """A table left to the row reader: a data line that is not plain, or
    text that is not UTF-8."""


# about the bytes of one read_blocks block, its first line's text and float64
# values times its rows; also the bytes its line count reads at a time
BLOCK_BYTES = 1 << 20


class _NotInteger(Exception):
    """A block left to the float64 read: a value holding ``-``, one that is
    not an integer, or one of 2**31 or more."""


# a block whose first line's values hold only these is read as int32
_INTEGER_CHARS = frozenset("0123456789+ ,")


def _unsigned(lines):
    """``lines``, raising :class:`_NotInteger` at one holding ``-``."""
    for line in lines:
        if "-" in line:
            raise _NotInteger
        yield line


def _parse(lines, integer: bool) -> np.ndarray:
    """Plain ``lines`` of values parsed by one ``np.loadtxt`` call: into an
    int32 matrix with ``integer``, where a ``-``, a value that is not an
    integer or one of 2**31 or more raises :class:`_NotInteger`; else into
    a float64 one."""
    if not integer:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    with warnings.catch_warnings():
        # where numpy reads a value int32 rejects through a float and warns
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(_unsigned(lines), delimiter=",", comments=None,
                              dtype=np.int32, ndmin=2)
        except (ValueError, DeprecationWarning):
            raise _NotInteger from None


# ASCII controls that loadtxt strips around a number as whitespace and
# float() rejects
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
# characters no plain line holds: csv's quote, and a carriage return, where
# csv ends a record
_NOT_PLAIN = '"\r' + _LOADTXT_ONLY_SPACES


def _plain_lines(text: str, limit: int) -> list[str] | None:
    """The lines of ``text``, split at ``"\n"`` without the last one's end,
    where there is one and every one is plain: not blank and not whitespace
    only, holding no character of ``_NOT_PLAIN`` and no field over
    ``limit``; None otherwise."""
    lines = text.split("\n")
    if lines[-1] == "":  # the last line's end
        lines.pop()
    if (not lines or not all(lines) or any(map(str.isspace, lines))
            or any(c in text for c in _NOT_PLAIN)
            or len(text) > limit and any(len(line) > limit
                                         and max(map(len, line.split(","))) > limit
                                         for line in lines)):
        return None
    return lines


def _plain_values(fh, header_lines: int, ids: dict[str, None], lines: list[int]):
    """The values part of each data line of ``fh``, which follows
    ``header_lines`` lines of header, recording each row's id and line; a
    line that is not plain raises :class:`NotPlain`."""
    limit = csv.field_size_limit()
    for line, text in enumerate(fh, header_lines + 1):
        text = text.rstrip("\r\n")
        if not text:  # a blank line holds no row
            continue
        row_id, _, values = text.partition(",")
        if not values or _plain_lines(text, limit) is None:
            raise NotPlain
        ids[row_id] = None
        lines.append(line)
        yield values


def _line_count(path) -> int:
    """The lines of ``path`` as its ``\\n`` bytes count them, a last line
    without one included; read a block of bytes at a time."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(BLOCK_BYTES):
            count += block.count(b"\n")
            last = block[-1:]
    return count + (last != b"\n")


@contextmanager
def read_blocks(path, key: str, ids: dict[str, None], lines: list[int]):
    """Yield ``(columns, rows, blocks)`` for a numeric table whose first
    header column is ``key``: the other header columns, read before any
    value; an upper bound on its data rows, from a count of its line ends;
    and an iterator of ``(start, block)``, where ``block`` holds the rows
    from row ``start`` on, in file order. Each block, a fixed number of
    rows whose text and float64 values come to about ``BLOCK_BYTES``, is
    parsed by one ``np.loadtxt`` call, int32 or float64 by the integer rule,
    which each block decides for itself. As a block is read, ``ids`` and
    ``lines`` gain its rows' ids and physical lines.

    A table left to the row reader raises :class:`NotPlain`, at its header
    or at the first block that shows it: a line that is not plain, a
    repeated id, a row of another width, a value ``loadtxt`` rejects, no
    data rows, or more rows than ``\\n`` line ends (a carriage-return line
    end). ``read_matrix``'s row reader then gives its values or its
    error."""
    count = _line_count(path)
    with text_input(path, NotPlain) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error:
            raise NotPlain from None
        if header[:1] != [key]:
            raise NotPlain
        # a header over a quoted carriage return spans more lines than "\n"s
        rows = max(count - reader.line_num, 0)
        yield header[1:], rows, _blocks(fh, reader.line_num, len(header) - 1, rows, ids, lines)


def _blocks(fh, header_lines: int, width: int, rows: int, ids: dict[str, None],
            lines: list[int]):
    """``read_blocks``' blocks of the data lines of ``fh``."""
    values = _plain_values(fh, header_lines, ids, lines)
    first = next(values, None)
    if first is None:  # loadtxt warns on a table with no rows
        raise NotPlain
    size = max(1, BLOCK_BYTES // (len(first) + 8 * width))
    values = itertools.chain([first], values)
    start = 0
    while text := list(itertools.islice(values, size)):
        try:
            try:
                block = _parse(text, _INTEGER_CHARS.issuperset(text[0]))
            except _NotInteger:
                block = _parse(text, integer=False)
        except ValueError:
            raise NotPlain from None
        del text  # not held while the caller copies the block
        end = start + len(block)
        if block.shape[1] != width or len(ids) != end or end > rows:
            raise NotPlain
        yield start, block
        del block  # not held while the next block is parsed
        start = end


def _read_rows(path, error: type[Exception], key: str):
    """``read_matrix``'s result, one csv row at a time."""
    ids: dict[str, None] = {}
    lines = []
    rows = []
    with read_table(path, error) as (header, table):
        if header[:1] != [key]:
            raise error(f"{path}: first header column must be {key!r}")
        for lineno, row in table:
            if row[0] in ids:
                raise error(f"{path}: duplicate {key} {row[0]!r} at row {lineno}")
            ids[row[0]] = None
            lines.append(lineno)
            rows.append(_floats(path, error, [row[1:]], [lineno], 2)[0])
    matrix = np.stack(rows) if rows else np.empty((0, len(header) - 1))
    return list(ids), header[1:], matrix, lines


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
