"""The one CSV format of every table the pipeline reads and writes.

A table is declared once, by its row dataclass: the field names are the
header, each field's type parses its cells, and ``column(spec)`` gives the
format spec that writes them. Row types keep real annotations (no ``from
__future__ import annotations``), because the field type is the parser. Files
are UTF-8, written by the ``csv`` module with ``"\\n"`` line endings; a cell is
written as ``format(value, spec)`` and read back as ``type(cell)``, and a float
cell must be finite. A file that breaks these rules raises
``MalformedTableError`` naming the path (and the 1-based line and column).
"""

import csv
import dataclasses
import math
from contextlib import nullcontext

from .errors import DataError, MalformedTableError


def column(spec: str):
    """A row field written with ``format(value, spec)``."""
    return dataclasses.field(metadata={"format": spec})


def write_table(dest, row_type, rows) -> None:
    """Write the header and one line per row to a path or to an open text
    stream such as ``sys.stdout``."""
    fields = [(f.name, f.metadata.get("format", "")) for f in dataclasses.fields(row_type)]
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([name for name, _ in fields])
        writer.writerows([format(getattr(row, name), spec) for name, spec in fields] for row in rows)


def read_table(path, row_type) -> list:
    """Parse every non-blank line after the header into a ``row_type``."""
    fields = dataclasses.fields(row_type)
    names = [f.name for f in fields]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != names:
                raise MalformedTableError(f"{path}:1: bad header {header}, expected {names}")
            return [row_type(*_parse_row(path, reader.line_num, fields, row)) for row in reader if row]
        except csv.Error as e:
            raise MalformedTableError(f"{path}:{reader.line_num}: {e}") from e
        except UnicodeDecodeError as e:
            raise MalformedTableError(f"{path}: not UTF-8 text ({e})") from e


def by_clip_path(rows, table: str) -> dict:
    """Rows keyed by ``clip_path``, in order; a table that lists a clip twice
    raises DataError naming the table and the clip."""
    out = {}
    for row in rows:
        if row.clip_path in out:
            raise DataError(f"{table} repeats clip path {row.clip_path}")
        out[row.clip_path] = row
    return out


def _parse_row(path, line: int, fields, row: list[str]) -> list:
    if len(row) < len(fields):
        raise MalformedTableError(f"{path}:{line}: missing column {fields[len(row)].name!r}")
    if len(row) > len(fields):
        raise MalformedTableError(f"{path}:{line}: extra cell after column {fields[-1].name!r}")
    values = []
    for f, cell in zip(fields, row):
        try:
            values.append(f.type(cell))
        except ValueError as e:
            raise MalformedTableError(
                f"{path}:{line}: column {f.name!r}: {cell!r} is not {f.type.__name__}"
            ) from e
        if f.type is float and not math.isfinite(values[-1]):
            raise MalformedTableError(f"{path}:{line}: column {f.name!r}: {cell!r} is not finite")
    return values
