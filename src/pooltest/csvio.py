"""The one table format: floats in 6 significant digits, CSV in and out."""

from __future__ import annotations

import csv
from pathlib import Path
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence


_SIX_DIGITS = "%.6g"

# Rows a columnar reader or writer holds as text at once, so that its peak
# memory does not grow with the file.
CHUNK_ROWS = 256


def fmt(value: float) -> str:
    """A float with 6 significant digits, as every file and result line holds it."""
    return _SIX_DIGITS % value


def write_cells(path: str | Path, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of str cells, each line ended by CRLF as the csv
    module ends it. No cell may hold a comma, a quote or a line break: none is quoted."""
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(row) + "\r\n" for row in rows)


def write_table(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows; float cells go through fmt, other cells through str."""
    write_cells(path, header, ([fmt(cell) if isinstance(cell, float) else str(cell) for cell in row] for row in rows))


def read_columns(path: str | Path, header: list[str], parsers: Sequence[Callable]) -> Iterator[tuple[tuple[int, ...], list[list]]]:
    """For each run of up to CHUNK_ROWS rows under a header of exactly these
    names, the rows' line numbers and their cells column by column, each
    column parsed by its parser in one map.

    Header cells are stripped and blank rows skipped. A missing or other
    header, a row of another width, or a cell its parser rejects raises
    ValueError naming the path, and the line of a bad row: in a run, the first
    of another width, else the first such cell's, with its parser's message.
    So does a file that is not text in the locale's encoding.
    """
    with Path(path).open(newline="") as handle:
        try:
            reader = csv.reader(handle)
            found = next(reader, None)
            if found is None:
                raise ValueError(f"{path}: empty file, expected header {','.join(header)}")
            if [cell.strip() for cell in found] != header:
                raise ValueError(f"{path}: unexpected header {found!r}, expected {','.join(header)}")
            rows = ((lineno, row) for lineno, row in enumerate(reader, start=2) if "".join(row).strip())
            while chunk := list(islice(rows, CHUNK_ROWS)):
                for lineno, row in chunk:
                    if len(row) != len(header):
                        raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                lines, cells = zip(*chunk)
                try:
                    columns = [list(map(parse, column)) for parse, column in zip(parsers, zip(*cells))]
                except ValueError:
                    # Only a run with a bad cell is walked again, row by row, to name it.
                    for lineno, row in chunk:
                        for parse, cell in zip(parsers, row):
                            try:
                                parse(cell)
                            except ValueError as exc:
                                raise ValueError(f"{path}:{lineno}: {exc}") from None
                    raise
                yield lines, columns
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
