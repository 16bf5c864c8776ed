"""The one CSV format of every table the pipeline reads and writes.

A table is declared once as ``(name, type, format_spec)`` columns. Files are
UTF-8, written by the ``csv`` module with ``"\\n"`` line endings, and start
with exactly the column names; a cell is written as ``format(value, spec)``
and read back as ``type(cell)``, and a float cell must be finite. A file that
breaks these rules raises ``MalformedTableError`` naming the path (and the
1-based line and column).
"""

import csv
import math
from contextlib import nullcontext

from .errors import DataError, MalformedTableError


def write_table(dest, columns, rows) -> None:
    """Write the header and one line per row (a sequence of column values) to
    a path or to an open text stream such as ``sys.stdout``."""
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([name for name, _, _ in columns])
        writer.writerows([format(v, spec) for v, (_, _, spec) in zip(row, columns)] for row in rows)


def read_table(path, columns) -> list[tuple]:
    """Parse every non-blank line after the header into a tuple of typed values."""
    names = [name for name, _, _ in columns]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != names:
                raise MalformedTableError(f"{path}:1: bad header {header}, expected {names}")
            return [_parse_row(path, reader.line_num, columns, row) for row in reader if row]
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


def _parse_row(path, line: int, columns, row: list[str]) -> tuple:
    if len(row) < len(columns):
        raise MalformedTableError(f"{path}:{line}: missing column {columns[len(row)][0]!r}")
    if len(row) > len(columns):
        raise MalformedTableError(f"{path}:{line}: extra cell after column {columns[-1][0]!r}")
    values = []
    for (name, kind, _), cell in zip(columns, row):
        try:
            values.append(kind(cell))
        except ValueError as e:
            raise MalformedTableError(
                f"{path}:{line}: column {name!r}: {cell!r} is not {kind.__name__}"
            ) from e
        if kind is float and not math.isfinite(values[-1]):
            raise MalformedTableError(f"{path}:{line}: column {name!r}: {cell!r} is not finite")
    return tuple(values)
