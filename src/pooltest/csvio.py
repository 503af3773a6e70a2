"""The one table format: floats in 6 significant digits, CSV in and out."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


# Rows the sweep writer formats at once, as cells in numpy: each run's fixed
# cost of a few dozen array calls is spread over many rows, while its
# temporaries, about 650 bytes a row, stay bounded whatever the file's length.
WRITE_ROWS = 4096

# The bytes of a cell from fmt_cells: two uint64 words, which hold the widest
# fmt of a double, as in "-2.22507e-308", and the cell's comma.
_CELL_WIDTH = 16
_TEXT_WIDTH = 13


def fmt(value: float) -> str:
    """A float with 6 significant digits, as every file and result line holds it."""
    return "%.6g" % value


def _word(text: bytes) -> int:
    """Up to 8 bytes, NUL-padded, as the uint64 whose little-endian bytes they are."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# Decimal exponents x = 21 - scale for scale in range(39): 10 ** |5 - x| <= 1e22
# is exact in binary64, so scaling a value to 6 digits before the point rounds once.
_EXPONENTS = range(21, -18, -1)
_MULTIPLY = np.array([float(10 ** max(5 - x, 0)) for x in _EXPONENTS])
_DIVIDE = np.array([float(10 ** max(x - 5, 0)) for x in _EXPONENTS])


def _template(x: int, digits: int) -> str:
    """%g's text of a positive value of decimal exponent x with this many
    significant digits, each digit a '#': fixed form for x in -4..5, trailing
    zeros and a bare point dropped."""
    if not -4 <= x <= 5:
        return "#" + ("." + "#" * (digits - 1) if digits > 1 else "") + "e%+03d" % x
    if x < 0:
        return "0." + "0" * (-x - 1) + "#" * digits
    return "#" * (x + 1) + ("." + "#" * (digits - x - 1) if digits > x + 1 else "")


def _layout(text: str) -> tuple[int, ...]:
    """How fmt_cells builds a template's 16 bytes from the digit bytes: the
    masks of the digits kept and of those before the point, the bit shifts
    that place them in the low and the high word, and the words of every
    other byte."""
    first = text.index("#")
    after = text[first:]
    kept = after.count("#")
    before = after.index(".") if "." in after else kept
    other = text.replace("#", "\0").encode().ljust(_CELL_WIDTH - 1, b"\0") + b","
    return ((1 << 8 * kept) - 1, (1 << 8 * before) - 1, 8 * first, 64 - 8 * first if first else 56,
            _word(other[:8]), _word(other[8:]))


# One layout per scale, sign and significant digits; 0 digits, which only a
# value that fmt formats itself can give, takes the layout of 1.
_KEPT, _BEFORE, _SHIFT, _BACK, _LOW_WORD, _HIGH_WORD = np.array(
    [_layout("-" * negative + _template(x, max(digits, 1))) for x in _EXPONENTS for negative in (0, 1) for digits in range(8)],
    dtype=np.uint64,
).T.copy()
# Per 3-digit group, its digits as the mantissa's leading and its trailing
# bytes, and the mantissa's significant digits when its last nonzero is there.
_SIGNIFICANT = [len(("%03d" % group).rstrip("0")) for group in range(1000)]
_LEAD = np.array([_word(b"%03d" % group) for group in range(1000)], dtype=np.uint64)
_TRAIL = _LEAD << np.uint64(24)
_LEAD_DIGITS = np.array(_SIGNIFICANT)
_TRAIL_DIGITS = np.array([3 + digits if digits else 0 for digits in _SIGNIFICANT])


# The writer's cells: a uint8 matrix with one row per value, each row the
# value's text, then NUL pads, then the comma that follows it in a line.


def fmt_cells(values: np.ndarray) -> np.ndarray:
    """Cells of fmt of each value, byte for byte, 16 bytes each.

    A value with 1e-16 <= |v| < 1e21 is scaled by an exact power of ten to six
    digits before the point, in one rounding, and rounded by rint. Its six
    digits, trailing zeros dropped, are two table lookups as bytes of a uint64;
    shifting them apart at the point, and into place among its layout's other
    bytes, gives its cell as two words. fmt itself formats every other value:
    0, -0, inf, nan, any other magnitude, and any whose scaled mantissa falls
    outside [1e5, 999999.5), where log10 misjudged the exponent or the rounding
    carries into a seventh digit, or lies within 1e-6 of a rounding tie, where
    the one rounding could tip it.
    """
    values = np.asarray(values, dtype=float)
    magnitude = np.abs(values)
    scaled = (magnitude >= 1e-16) & (magnitude < 1e21)
    magnitude = np.where(scaled, magnitude, 1.0)
    scale = (21.0 - np.floor(np.log10(magnitude))).astype(np.intp)
    mantissa = magnitude * _MULTIPLY.take(scale)
    mantissa /= _DIVIDE.take(scale)
    rounded = np.rint(mantissa)
    scaled &= (mantissa >= 1e5) & (mantissa < 999999.5) & (np.abs(mantissa - rounded) < 0.5 - 1e-6)
    trail = rounded.astype(np.intp)
    # A value that fmt formats itself may have more than 6 digits here: lookups by lead clip.
    lead = trail // 1000
    trail -= 1000 * lead
    layout = 16 * scale + 8 * np.signbit(values) + np.maximum(_LEAD_DIGITS.take(lead, mode="clip"), _TRAIL_DIGITS.take(trail))
    digits = _LEAD.take(lead, mode="clip") | _TRAIL.take(trail)
    digits &= _KEPT.take(layout)
    placed = digits & _BEFORE.take(layout)
    digits ^= placed
    placed |= digits << np.uint64(8)
    words = np.empty((len(values), 2), dtype="<u8")
    np.bitwise_or(_LOW_WORD.take(layout), placed << _SHIFT.take(layout), out=words[:, 0])
    np.bitwise_or(_HIGH_WORD.take(layout), placed >> _BACK.take(layout), out=words[:, 1])
    cells = words.view(np.uint8)
    rest = np.flatnonzero(~scaled)
    if rest.size:
        texts = np.array([fmt(value) for value in values[rest].tolist()], dtype=f"S{_TEXT_WIDTH}")
        cells[rest, :_TEXT_WIDTH] = texts.view(np.uint8).reshape(-1, _TEXT_WIDTH)
    return cells


def text_cells(values: np.ndarray, to_text: Callable[[object], str]) -> np.ndarray:
    """Cells of to_text of each value, called once per distinct value."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    texts = [to_text(value).encode() for value in distinct.tolist()]
    width = max(map(len, texts), default=0)
    cells = np.array([text.ljust(width, b"\0") + b"," for text in texts], dtype=bytes)
    return cells.take(np.searchsorted(distinct, values)).view(np.uint8).reshape(len(values), width + 1)


def byte_cells(text: np.ndarray) -> np.ndarray:
    """Cells of ASCII text given as a NUL-padded matrix, one row per value."""
    cells = np.full((len(text), text.shape[1] + 1), ord(","), dtype=np.uint8)
    cells[:, :-1] = text
    return cells


def join_cells(cells: Sequence[np.ndarray]) -> bytes:
    """CSV lines of rows given as matrices of one or more cells a row: each
    row's cells in order, its last comma made the CR of a CRLF as the csv
    module ends a line, and every NUL dropped."""
    lines = np.concatenate([*cells, np.full((len(cells[0]), 1), ord("\n"), dtype=np.uint8)], axis=1)
    lines[:, -2] = ord("\r")
    return lines.tobytes().translate(None, b"\0")


def write_table(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows, each line ended by CRLF as the csv module ends
    it; float cells go through fmt, other cells through str. No cell may hold
    a comma, a quote or a line break: none is quoted."""
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(fmt(cell) if isinstance(cell, float) else str(cell) for cell in row) + "\r\n" for row in rows)


def read_columns(path: str | Path, header: list[str], parsers: Sequence[Callable]) -> tuple[list[int], list[list]]:
    """The line numbers of the rows under a header of exactly these names, and
    their cells column by column, each cell parsed by its column's parser.

    Header cells are stripped and blank rows skipped. A missing or other
    header, or the first row in the file of another width or with a cell its
    parser rejects, raises ValueError naming the path, and the row's line with
    its parser's message for its leftmost bad cell. So does a file that is
    not text in the locale's encoding, naming the line and the file offset of
    its first byte that does not decode.
    """
    lines: list[int] = []
    columns: list[list] = [[] for _ in header]
    with Path(path).open(newline="") as handle:
        try:
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
                    for column, parse, cell in zip(columns, parsers, row):
                        column.append(parse(cell))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                lines.append(lineno)
        except UnicodeDecodeError as exc:
            # The text layer counts offsets from its last read: decoding the
            # whole file finds the first bad byte's offset in the file.
            raw = Path(path).read_bytes()
            try:
                raw.decode(handle.encoding)
            except UnicodeDecodeError as whole:
                exc = whole
            line = raw[: exc.start].decode(handle.encoding).count("\n") + 1
            raise ValueError(f"{path}:{line}: {exc}") from None
    return lines, columns
