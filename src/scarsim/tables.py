"""The text format of every output file: RFC 4180 CSV tables with CRLF line
endings, and JSON documents with sorted keys, a two-space indent and a
trailing newline."""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import ConfigError, is_number


def _cell(value) -> str:
    """One CSV cell: a number as 17-significant-digit text (parsed doubles
    round-trip exactly), a bool as JSON writes it, None as nothing, and other
    values as text, quoted when it holds a comma, a double quote, CR or LF."""
    if type(value) is float:  # numeric tables are built from .tolist() floats
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return json.dumps(value)
    if is_number(value):
        return format(float(value), ".17g")
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, rows) -> str:
    """A CSV table; a row of one empty cell is written as ``""``, since a
    blank line is read as no row."""
    lines = [",".join(map(_cell, row)) or '""' for row in (header, *rows)]
    return "\r\n".join(lines) + "\r\n"


def json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_csv(text: str, what: str, columns=()) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a stored CSV table, cells as text, blank lines
    skipped.  Bad quoting, an empty table, a header without one of
    ``columns`` and a row shorter or longer than the header raise
    :class:`ConfigError`; these messages name ``what``, the kind of file,
    and a bad row's message its line number and both cell counts."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        # line_num is the line on which the row just read ends
        table = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ConfigError(f"malformed {what} file: {exc}") from exc
    if not table:
        raise ConfigError(f"empty {what} file")
    header, rows = table[0][1], table[1:]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(f"{what} file lacks required columns: {missing}")
    for line, row in rows:
        if len(row) != len(header):
            raise ConfigError(f"{what} file: line {line} has {len(row)} cell(s) "
                              f"but the header has {len(header)}")
    return header, [row for _, row in rows]


def number_cell(text: str, what: str, column: str) -> float:
    """A numeric cell of a stored table.  Text that is no number or a
    non-finite number is a :class:`ConfigError` naming ``what``, the kind of
    file, and the column."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{what} file: column {column} holds {text!r}, "
                          "not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what} file: column {column} holds {text!r}, "
                          "not a finite number")
    return value
