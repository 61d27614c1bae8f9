"""What a run writes: the comment block that heads every result file (the
version, the resolved config's echo and the validity margins), and the
CSV writer, which writes every cell as '%.12g' does, formatted in NumPy
(_write_csv has the argument). Nothing timestamps itself, so a config,
seed and version give the same bytes on every rerun."""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import __version__
from .model import DriveParams, SystemParams, validity_report

__all__ = ["write_trace_csv"]


def _header_lines(echo: str, params: SystemParams, drive: DriveParams) -> list[str]:
    """Comment block: version, the config's echo (its key = value lines),
    and the validity margins of the built model."""
    lines = [f"condisp {__version__}", *echo.rstrip("\n").split("\n")]
    report = validity_report(params, drive)
    lines.append(f"validity: eta = {report.eta:.12g}")
    for c in report.conditions:
        state = "satisfied" if c.satisfied else "VIOLATED"
        lines.append(f"validity: {c.name} {state} margin = {c.margin:.6g}")
    return lines


# Rows of a CSV formatted at once: at two columns a block's arrays hold
# 4,096 cells, 32 KiB each. Blocks of 4,096 rows wrote the gate's 20,000
# rows about a quarter slower, and raised the gate benchmark's peak RSS
# by 0.8 MiB; 1,024 rows ran level with 2,048.
_CSV_BLOCK = 2048
# Half-width of the band around a rounding tie in which a cell is left to
# Python: over 5 times the largest error of its scaled mantissa, 3 2^-14.
_TIE = 2.0 ** -10


@functools.cache
def _cell_tables():
    """The CSV cell formatter's lookup tables, built on its first call, by
    the kinds of operation the formatter runs anyway (each new kind pages
    in more of NumPy, which the benchmark's peak RSS counts). A cell of
    decimal exponent X has row r = X + 298, clipped to 0 to 607 (row 0
    holds zero, printed at X = 0), and code 13 r + sig, sig its
    significant digits:

    - quads[j]: the four zero-padded ASCII digits of j < 10^4, one word;
    - trailing[j]: the trailing zeros among those four digits (4 for 0);
    - quads[10^4] = quads[1000] and trailing[10^4] = -10, so that a
      mantissa rounded up to 10^12 prints as 10^11 one exponent up
      (its code moves on by 12 - (4 + 4 - 10) = 13 + 1);
    - up[r], down[r]: the double nearest the power of ten (exact up to
      10^22) by which rows 1 to 606 are multiplied (X <= 11) or divided;
    - layouts[code]: 13 (min(max(X, -5), 12) + 5) + sig, the same for
      every exponent printed in scientific notation (outside -4 to 11);
    - masks[layout, w]: the bytes of words 0 and 1 kept from the digits
      (w = 0, 1), of words 0 to 2 kept from the digits shifted a byte (w
      = 2 to 4), and the fixed characters in words 0 and 1 (w = 5, 6):
      the zeros before the digits and the '.';
    - ends[code]: the fixed characters in word 2, with the exponent 'e+dd'
      or 'e-ddd' in bytes 17 to 21 in scientific notation.
    """
    pairs = np.frombuffer(b"".join(b"%02d\0\0\0\0\0\0" % i for i in range(100)), "<u8")
    pair_zeros = np.array([2] + [i % 10 == 0 for i in range(1, 100)], np.intp)
    j = np.arange(10001.0)
    j[-1] = 1000
    hi = np.floor(j / 100)
    lo = (j - hi * 100).astype(np.intp)
    hi = hi.astype(np.intp)
    quads = pairs[hi] | (pairs[lo] << np.uint64(16))
    trailing = pair_zeros[lo] + np.where(lo == 0, pair_zeros[hi], 0)
    trailing[-1] = -10
    tens = np.array([float(10**k) for k in range(1, 309)])  # each correctly rounded
    up, down = np.ones(609), np.ones(609)
    up[1:309] = tens[::-1]
    down[310:607] = tens[:297]
    x = np.arange(-5, 13)[:, None]
    sig = np.arange(13)
    sci = (x < -4) | (x > 11)
    dot = np.where(sci, 5, 5 + x)  # the stream position the '.' precedes
    start = np.where(sci, 4, 4 + np.minimum(x, 0))
    digits, whole = 4 - start + sig, dot - start
    end = start + np.where(digits > whole, digits + 1, whole)
    masks = np.zeros((8, 18, 13), np.uint64)
    for c in range(17):  # body byte c
        word, shift = divmod(8 * c, 64)
        kept = (start <= c) & (c < end) & (c != dot)
        digit = kept & (np.where(c > dot, c - 1, c) >= 4)  # its stream position
        for row, char, where in ((word, 255, digit & (c < dot)),
                                 (word + 2, 255, digit & (c > dot)),
                                 (word + 5, 48, kept & ~digit),
                                 (word + 5, 46, (c == dot) & (end > dot))):
            if where.any():
                masks[row] |= np.where(where, np.uint64(char << shift), 0)
    x = np.arange(-298, 311)
    x[0] = 0
    layouts = (np.where(x < -5, -5, np.minimum(x, 12))[:, None] * 13 + sig).ravel() + 65
    exponent = np.array([int.from_bytes(b"\0e%+03d" % v, "little") for v in x], np.uint64)
    ends = masks[7].ravel()[layouts].reshape(-1, 13)
    ends |= np.where((x < -4) | (x > 11), exponent, 0)[:, None]
    return (quads, trailing, up, down, layouts,
            np.ascontiguousarray(masks[:7].reshape(7, -1).T), ends.ravel())


def _python_cells(values) -> list[str]:
    """The per-cell fallback of the CSV formatter."""
    return ["%.12g" % v for v in values]


def _as_floats(column) -> np.ndarray:
    """A CSV column's cells as float64, the conversion % makes (also for
    ints beyond int64); a string cell raises ValueError, and None reads
    as nan."""
    if isinstance(column, range) and max(abs(column.start), abs(column.stop)) < 2**62:
        # np.asarray would iterate the range in Python
        return np.arange(column.start, column.stop, column.step).astype(np.float64)
    return np.asarray(column, dtype=np.float64)


def _format_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each float64 x[i] but its sign into out[i], three uint64
    words, as %.12g writes it, with every other byte 0; returns the mask
    of the cells it wrote, the rest being left to _python_cells
    (_write_csv says which and why). The 24 bytes of a cell: bytes 0 to
    16 the body, bytes 17 to 21 'e+dd' to 'e-ddd' in scientific notation;
    the caller puts its separator in byte 22 and the next cell's '-' in
    byte 23. The body shows the stream "0000" + the 12 mantissa digits
    with a '.' inserted before stream position 5 + X (fixed notation) or
    5 (scientific), from the zeros a fixed cell below 1 needs to the last
    significant digit or to the decimal point, whichever is further. Its
    digits are the mantissa's digit words where one mask keeps them and
    the same words shifted a byte where a second does; a third holds its
    zeros, '.' and exponent. All three are looked up by exponent and
    significant digits (_cell_tables). Call it under np.errstate: log10(0)
    and inf - inf may be formed.
    """
    quads, trailing, up, down, layouts, masks, ends = _cell_tables()
    a = np.abs(x)
    e = np.fmin(np.fmax(np.floor(np.log10(a)), -298.0), 309.0).astype(np.intp)
    e += 298
    y = a * up[e]
    y /= down[e]
    m = np.rint(y)
    fast = (y >= 1e11) | (y == 0)
    fast &= m <= 1e12
    fast &= np.abs(y - m) < 0.5 - _TIE
    np.fmin(m, 1e12, out=m)  # also takes nan and inf into the tables' range
    t = np.floor(m / 1e4)
    hi = np.floor(m / 1e8)
    lo = (m - t * 1e4).astype(np.intp)
    mid = (t - hi * 1e4).astype(np.intp)
    hi = hi.astype(np.intp)
    zeros = trailing[lo] + np.where(lo == 0, trailing[mid] + np.where(mid == 0, trailing[hi], 0), 0)
    code = e * 13 + 12 - zeros
    keep0, keep1, shift0, shift1, shift2, fix0, fix1 = masks.take(layouts.take(code), axis=0).T
    s0 = quads[hi] << np.uint64(32)  # the stream's words, its first four zeros left 0
    s1 = quads[lo] << np.uint64(32)
    s1 |= quads[mid]
    np.bitwise_and(s0, keep0, out=out[:, 0])
    shift0 &= s0 << np.uint64(8)
    out[:, 0] |= shift0 | fix0
    np.bitwise_and(s1, keep1, out=out[:, 1])
    shift1 &= (s1 << np.uint64(8)) | (s0 >> np.uint64(56))
    out[:, 1] |= shift1 | fix1
    shift2 &= s1 >> np.uint64(56)
    np.bitwise_or(shift2, ends.take(code), out=out[:, 2])
    return fast


def _csv_rows(columns: Sequence) -> list[bytes]:
    """The rows of the equal-length columns, each a range, a list or a 1-D
    array, cells separated by ',' and each row ending in '\\n', every cell
    as _write_csv describes, as one bytes object per _CSV_BLOCK rows
    (joining them would hold the file twice). Each cell's bytes are
    written with 0 in every unused position, and a block's rows are
    joined by deleting those zeros (bytes.translate).
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"CSV columns have unequal lengths {[len(c) for c in columns]}")
    floats = [_as_floats(c) for c in columns]
    k = len(columns)
    x = np.empty((min(n, _CSV_BLOCK), k))
    words = np.empty(1 + 3 * x.size, np.uint64)  # a word for the first '-', then the cells
    separators = np.full(k, ord(","), np.uint64)
    separators[-1] = ord("\n")
    separators <<= np.uint64(48)  # byte 22 of a cell
    blocks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, _CSV_BLOCK):
            rows = min(n - lo, _CSV_BLOCK)
            for j, column in enumerate(floats):
                x[:rows, j] = column[lo:lo + rows]
            values, size = x[:rows].reshape(-1), 3 * rows * k
            cells = words[1:1 + size].reshape(-1, 3)
            fast = _format_cells(values, cells)
            slow = np.flatnonzero(~fast).tolist()
            if slow:
                text = _python_cells(values[slow])
                cells.view(np.uint8)[slow, :22] = np.array(
                    [t.encode() for t in text], "S22").view(np.uint8).reshape(-1, 22)
            cells.reshape(rows, k, 3)[:, :, 2] |= separators
            words[0] = 0
            words[:size:3] |= np.where(fast & np.signbit(values), np.uint64(0x2D << 56), 0)
            blocks.append(words[:1 + size].tobytes().translate(None, b"\0"))
    return blocks


def _write_csv(path, comments: Sequence[str], header: str, columns: Sequence) -> None:
    """Comment lines (each behind '# '), a column header, then the rows of
    the equal-length columns, each a range, or a list or 1-D array of
    numbers, every cell as '%.12g' % v writes it (a range within +-1e12
    as '%d' % i, the same bytes). All bytes are formatted before the file
    is opened, so a write that fails while formatting leaves no file
    behind.

    The cells are formatted in NumPy (_csv_rows, _format_cells) from
    float64, the conversion % makes. A cell leaves that path for
    _python_cells, '%.12g' % v on its own, unless it is exact there, by
    this argument. For a = |x| and e = floor(log10 a) (clipped; log10 may
    be one off near a power of ten), y = a 10^(11 - e) is formed by one
    multiplication or division with the double nearest 10^k, k = |11 -
    e| <= 308 (so -297 <= e <= 308), exact for k <= 22 and otherwise
    within a relative 2^-53. The computed y' then carries at most two
    roundings, the power's and the product's: for y, y' < 1.05e12 < 2^40,
    |y' - y| < 1.0001 y 2^-53 + ulp(y')/2 < 2^-13 + 2^-14 = 3 2^-14. The
    cell stays if 10^11 <= y', m = rint(y') <= 10^12 and |y' - m| < 1/2
    - _TIE, _TIE = 2^-10. Then y lies more than 2^-10 - 3 2^-14 from a
    tie, so m is y rounded to an integer as % rounds it (half to even on
    the exact binary value, which differs only at a tie), and m at
    exponent e prints the cell, as follows:
    - 10^11 <= y < 10^12 - 1/2: e is a's exponent and m its 12 digits;
    - m = 10^12, because y rounds up past 12 digits, or because log10
      gave e one too small (y < 10^12 + 1/2 + 3 2^-14, so y/10 rounds to
      10^11 at e + 1): either way % prints 10^11 at e + 1, as the tables
      print m = 10^12;
    - y < 10^11 <= y', because log10 gave e one too large: y > 10^11 -
      3 2^-14, so 10 y rounds up to 10^12 at e - 1, which % prints as
      10^11 at e, and m = 10^11.
    With an exact power the band is a margin: rounding is monotonic and
    every half-integer below 2^40 is a double, so y' never crosses the
    tie y is nearest. A rounded power can move y' across it, by less
    than 3 2^-14 < _TIE. So a cell falls back if y' < 10^11, in the band
    around a tie, below 1e-297, or if it is inf or nan; zero takes the
    fast path. Every cell in fixed notation (exponent -4 to 11) outside
    the band takes it. A string cell raises ValueError before the file is
    opened.
    """
    head = "".join([f"# {line}\n" for line in comments] + [header + "\n"]).encode("utf-8")
    rows = _csv_rows(columns)
    with open(path, "wb") as f:
        f.write(head)
        f.writelines(rows)


def write_trace_csv(trace, path, comments: Sequence[str] = ()) -> None:
    """Write a FidelityTrace as `t_over_Tr,fidelity` rows, 12 significant digits.

    Comment lines (without the leading '#') go above the header.
    """
    _write_csv(path, comments, "t_over_Tr,fidelity", (trace.t_over_period, trace.fidelities))
