"""The one table format: floats in 6 significant digits, CSV in and out."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Sequence


def fmt(value: float) -> str:
    """A float with 6 significant digits, as every file and result line holds it."""
    return f"{value:.6g}"


def write_table(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows; float cells go through fmt, other cells through str."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([fmt(cell) if isinstance(cell, float) else cell for cell in row] for row in rows)


def read_table(path: str | Path, header: list[str], parse: Callable[[list[str]], object]) -> list:
    """parse(row) for each row under a header of exactly these names.

    Header cells are stripped and blank rows skipped. A missing or other
    header, a row of another width, or a ValueError from parse raises
    ValueError naming the path, and the line of a bad row.
    """
    items = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise ValueError(f"{path}: empty file, expected header {','.join(header)}")
        if [cell.strip() for cell in found] != header:
            raise ValueError(f"{path}: unexpected header {found!r}, expected {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                items.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return items
