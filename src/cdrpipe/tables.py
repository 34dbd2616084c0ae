"""The one text-table layer: how the pipeline reads and writes its tables.

Inputs are UTF-8 text, with or without a byte-order mark, decoded by
``text_input`` alone. A table has a header row, and a row wider or narrower
than the header is an error naming the file and row. This is the only module
that opens text or parses CSV, so decoding, quoting, the field-size limit and
blank lines follow one set of rules. A numeric table keyed by its first
column is parsed by numpy's C reader where every data line is plain; any
other table goes to the row reader, which takes every decision and raises
every error. A headerless numeric table of a fixed width, such as a drug's
graph files, is read by ``read_headerless`` under the same rules: one
``np.loadtxt`` call where every line of the file is plain, else the row
reader.

A plain line is one that ``np.loadtxt`` reads exactly as the row reader
does. It is not blank and not whitespace only, holds no ``"``, no carriage
return and none of the ASCII controls that only ``loadtxt`` strips, and has
no field over ``csv.field_size_limit()``. One function, ``_plain_lines``,
states this rule for both readers. A value ``loadtxt`` rejects but ``float``
reads (``1_0``, non-ASCII digits), or a row of another width, makes
``loadtxt`` fail, and the table goes to the row reader as well.

An integer table keyed by its first column, such as a count matrix, skips
strtod: where the first data line's values hold only ASCII digits, ``+``,
spaces and commas, ``_parse`` reads the table as int32 and hands it on as
int32, half the bytes of float64. Every int32 value is exact in float64. A
count matrix is widened only by ``omics.expression_feature_set``, row by
row into the aligned matrix; an integer embedding table becomes float64 in
``omics.CellFeatureSet``. A ``-`` in any value, a value that is not an
integer (``1.5``, ``1e3``) or one of 2**31 or more sends the table to the
float64 read that every other plain table takes, which reads counts
exactly up to 2**53. A ``-`` does so because int32 reads
``-0`` as ``0`` where strtod gives ``-0.0``. numpy releases that read a
value int32 rejects through a float, with only a DeprecationWarning, are
held to the same rule: the warning is raised as an error there. Headerless
tables, a drug's small graph files, are always read as float64.

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
    header columns, a matrix with one row per id, and the physical line
    each row starts on. The matrix is int32 where the integer rule (see the
    module docstring) reads the table so, float64 otherwise.

    The header is read through csv. When every data line is plain, the
    data are parsed by ``np.loadtxt``, numpy's C reader. Any other
    table is read again from the start by the row reader: one with a line
    holding ``"``, a field over ``csv.field_size_limit()``, a repeated id, a
    row of another width, a value ``loadtxt`` rejects (``1_0`` or non-ASCII
    digits, which ``float`` reads) or no data rows. The row reader is the
    only one that raises ``error``, naming the file, row and column, so both
    give the same bytes and the same messages. A table with no data rows
    gives an empty matrix.
    """
    plain = _read_plain(path, key)
    return plain if plain is not None else _read_rows(path, error, key)


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
        with text_input(path, _NotPlain) as fh:
            lines = _plain_lines(fh.read(), csv.field_size_limit())
        if lines is None:
            return None
        matrix = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (_NotPlain, ValueError):
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


class _NotPlain(Exception):
    """A table left to the row reader: a data line that is not plain, or
    text that is not UTF-8."""


class _NotInteger(Exception):
    """A table left to the float64 read: a value holding ``-``, one that is
    not an integer, or one of 2**31 or more."""


# a table whose first data line's values hold only these is read as int32
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
    line that is not plain raises :class:`_NotPlain`."""
    limit = csv.field_size_limit()
    for line, text in enumerate(fh, header_lines + 1):
        text = text.rstrip("\r\n")
        if not text:  # a blank line holds no row
            continue
        row_id, _, values = text.partition(",")
        if not values or _plain_lines(text, limit) is None:
            raise _NotPlain
        ids[row_id] = None
        lines.append(line)
        yield values


def _read_plain(path, key: str, integer: bool = True):
    """``read_matrix``'s result through ``np.loadtxt``, or None where the
    table is not plain; without ``integer`` it is read as float64 whatever
    its first data line holds."""
    ids: dict[str, None] = {}
    lines: list[int] = []
    try:
        with text_input(path, _NotPlain) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:1] != [key]:
                return None
            values = _plain_values(fh, reader.line_num, ids, lines)
            first = next(values, None)
            if first is None:  # loadtxt warns on a table with no rows
                return None
            matrix = _parse(itertools.chain([first], values),
                            integer and _INTEGER_CHARS.issuperset(first))
    except _NotInteger:
        return _read_plain(path, key, integer=False)
    except (_NotPlain, ValueError, csv.Error):
        return None
    if matrix.shape != (len(ids), len(header) - 1):  # a repeated id or another width
        return None
    return list(ids), header[1:], matrix, lines


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
