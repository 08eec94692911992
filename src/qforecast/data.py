"""Hourly weather data pipeline.

An hourly series is a ``(rows, 7)`` float matrix, one column per entry of
:data:`FEATURES`, with NaN marking a missing cell.  The pipeline ingests the
hourly CSV schema (``date,time,temperature,dew_point_temp,rel_humidity,
wind_speed,visibility,pressure,precipitation``) into that matrix, imputes
missing cells with train-split medians, applies robust (median/IQR) scaling
followed by Z-score standardization -- both fitted on the training split
only -- and windows the standardized matrix into supervised next-hour
sequences, which are read-only views of it.  A seeded synthetic generator
provides desk-scale fixtures.

A paper-length series holds the matrix and bounded temporaries only.
:func:`prepare_dataset` imputes its argument in place, standardizes it with
:func:`scale_in_place`, :data:`SCALE_BLOCK_ROWS` rows at a time, and returns
train/test views of it.  :func:`scale_in_place` is the one scaling routine;
a caller that keeps its raw cells scales a copy.
:func:`fit_scaler` takes the quartiles one column at a time and the
stage-one mean and std by row-block sums in numpy's own row order, so its
statistics equal the whole-matrix ``mean(axis=0)`` / ``std(axis=0)`` bit for
bit.

Ingestion has two readers.  The bulk reader runs first: it checks blocks of
whole lines (:data:`BULK_BLOCK_BYTES`) with numpy array operations and reads
their plain-decimal cells (``-?digits[.digits]``, at most 15 digits) by
integer arithmetic, and it refuses any file outside the common form of a
line (see :func:`ingest_csv`).  The per-line checker is the fallback and the
definition of a valid line: a refused file is read again by it, so every
error names the line the per-line checker names.  The bulk reader counts
the body's lines first and copies each checked block into one preallocated
matrix.  The medians and quartiles are numpy's (:func:`_median`,
:func:`_quartiles`), without the ``numpy.ma`` import that ``np.median`` and
``np.percentile`` make.

The dataset cache and both checkpoint kinds are npz files that one reader
and one writer handle (:func:`read_npz`, :func:`write_npz`).  Reading checks
every member, streaming it once through ``zipfile`` so its CRC-32 is
verified, and then returns each array as a view of one copy-on-write
(``mmap.ACCESS_COPY``) map of the file: a command pulls in only the pages it
touches, and the arrays stay writable without changing the file.  Writing
goes to a sibling temporary file that then replaces the target, so a file
another array still maps is never rewritten in place.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import mmap
import os
import struct
import warnings
import zipfile
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib import format as npy_format

from .errors import CheckpointVersionError, ConfigurationError, DataError

FEATURES = (
    "temperature",
    "dew_point",
    "rel_humidity",
    "wind_speed",
    "visibility",
    "pressure",
    "precipitation",
)
TEMPERATURE = 0  # column index of the forecast target

CSV_COLUMNS = (
    "date",
    "time",
    "temperature",
    "dew_point_temp",
    "rel_humidity",
    "wind_speed",
    "visibility",
    "pressure",
    "precipitation",
)

VAL_FRACTION = 0.1  # trailing share of the training rows held out for validation
CACHE_VERSION = 1


def _parse_hour(text: str, line_no: int) -> int:
    raw = text.strip()
    if ":" in raw:
        raw = raw.split(":", 1)[0]
    try:
        hour = int(raw)
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad time value {text!r}") from exc
    if not 0 <= hour <= 23:
        raise DataError(f"line {line_no}: hour {hour} outside [0, 23]")
    return hour


def _parse_cell(text: str, column: str, line_no: int) -> float:
    raw = text.strip()
    if raw == "":
        return math.nan
    try:
        value = float(raw)
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad {column} value {text!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: non-finite {column} value {text!r}")
    return value


def ingest_csv(path) -> np.ndarray:
    """Parse the hourly CSV into a chronological ``(rows, 7)`` float matrix.

    Empty cells become NaN; a literal non-finite cell is an error.  Rows must
    be hourly-contiguous: a non-monotonic or gapped timestamp sequence raises
    :class:`~qforecast.errors.DataError` with the offending line number.
    A missing or unreadable file is a DataError too.  The file is UTF-8, and
    a leading byte-order mark is skipped.

    The bulk reader (:func:`_ingest_bulk`) runs first, with numpy, over
    blocks of whole lines of about :data:`BULK_BLOCK_BYTES`; CRLF line
    endings read as LF.  It takes only the common form of a line and
    refuses the whole file otherwise: any byte outside ``[0-9,.:-]`` and
    the newline (so exponents, ``+``, ``nan``, ``inf``, spaces, quotes and a
    lone CR), a cell count other than nine, a date other than
    ``YYYY-MM-DD`` from year 1, an hour other than two digits up to 23
    (alone or before ``:``), a value cell other than empty or
    ``-?digits[.digits]`` with one to 15 digits (see
    :func:`_decimal_cells`), a line longer than the csv field limit, or any
    step between timestamps other than one hour.  A refused file is read
    again by the per-line checker, which alone defines a valid line and
    names the first bad one; on every file the bulk reader takes, both give
    the same matrix, bit for bit.
    """
    try:
        matrix = _ingest_bulk(path)
        if matrix is None:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                matrix = _parse_rows(csv.reader(fh), path)
        return matrix
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc


# the bulk reader takes whole lines in blocks of about this size; a block's
# temporaries are a few dozen bytes per cell, so this bounds them near 1 MiB
BULK_BLOCK_BYTES = 1 << 16
_BOM = b"\xef\xbb\xbf"
_HEADER_LINE = (",".join(CSV_COLUMNS) + "\n").encode()
# a line's fixed head "YYYY-MM-DD,HH,", with "0" standing for each digit; an
# "HH:MM" time has ":" for the last byte.  Minus the head, a digit gives 0-9
# and a matching literal 0, so each offset must be at most _HEAD_MAX.
_HEAD = np.frombuffer(b"0000-00-00,00,", dtype=np.uint8)
_HEAD_MAX = np.where(_HEAD == ord("0"), 9, 0)
# the separators of a line: a comma after each of its first eight cells, then the newline
_SEPARATORS = np.frombuffer(b",,,,,,,,\n", dtype=np.uint8)
_PAD = b"\0" * 16  # before a block, so each cell's last 16 bytes lie inside it
_MAX_DIGITS = 15  # a mantissa below 2**53, so mantissa / 10**k is correctly rounded
_POW10 = np.array([10**k for k in range(_MAX_DIGITS + 1)], dtype=np.uint64)


def _lanes(byte: int) -> int:
    """``byte`` in each of the eight bytes of a 64-bit word."""
    return byte * 0x0101010101010101


# the top k bytes of a word, for k = 0..8
_TOP = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)


def _ingest_bulk(path) -> np.ndarray | None:
    """The file's matrix, read block by block with numpy array operations, or
    None where any line falls outside the common form (see :func:`ingest_csv`).

    A first pass counts the body's lines, so each checked block is copied
    straight into its rows of the one matrix returned."""
    with open(path, "rb") as fh:
        if fh.readline().removeprefix(_BOM).replace(b"\r\n", b"\n") != _HEADER_LINE:
            return None
        body = fh.tell()
        rows = sum(text.count(b"\n") for text in _line_blocks(fh))
        if rows == 0:
            return None
        fh.seek(body)
        matrix = np.empty((rows, len(FEATURES)))
        filled, last = 0, None
        try:
            for text in _line_blocks(fh):
                block, stamps = _bulk_block(text)
                steps = np.diff(stamps, prepend=stamps[0] - 1 if last is None else last)
                if (steps != 1).any():
                    return None
                matrix[filled : filled + len(block)] = block
                filled += len(block)
                last = stamps[-1]
        except ValueError:
            return None
    return matrix


def _line_blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, each ending in a newline."""
    tail = b""
    while chunk := fh.read(BULK_BLOCK_BYTES):
        lines, newline, tail = (tail + chunk).rpartition(b"\n")
        if newline:
            yield lines + newline
    if tail:
        yield tail + b"\n"


def _bulk_block(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """One block's ``(lines, 7)`` cells and hour stamps; a block is whole
    lines, each ending in a newline.  ValueError refuses the block."""
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n")
    text = _PAD + text
    buf = np.frombuffer(text, dtype=np.uint8)
    body = buf[len(_PAD):]
    if (((body < ord(",")) & (body != ord("\n"))) | (body > ord(":")) | (body == ord("/"))).any():
        raise ValueError("byte outside [0-9,.:-] and the newline")
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if seps.size % _SEPARATORS.size:
        raise ValueError("cell count")
    seps = seps.reshape(-1, _SEPARATORS.size)
    if (buf[seps] != _SEPARATORS).any():
        raise ValueError("cell count")
    ends = seps[:, -1]
    starts = np.concatenate(([len(_PAD)], ends[:-1] + 1))
    lengths = ends - starts
    if lengths.min() < _HEAD.size or lengths.max() > csv.field_size_limit():
        raise ValueError("line too short or too long")
    head = buf[starts[:, None] + np.arange(_HEAD.size)]
    head[head[:, -1] == ord(":"), -1] = ord(",")
    offsets = head - _HEAD  # uint8: a byte below its head byte wraps above 9
    if (offsets > _HEAD_MAX).any():
        raise ValueError("line head")
    year, hour = offsets[:, :4] @ [1000, 100, 10, 1], offsets[:, 11:13] @ [10, 1]
    if year.min() < 1 or hour.max() > 23:
        raise ValueError("year or hour out of range")
    days = np.ascontiguousarray(head[:, :10]).view("S10")[:, 0].astype("datetime64[D]")
    return _decimal_cells(text, seps[:, 1:-1] + 1, seps[:, 2:]), days.astype(np.int64) * 24 + hour


def _decimal_cells(text: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The value of each cell ``text[start:end]``, bit for bit what ``float()``
    reads, and NaN for an empty cell.  ValueError refuses any cell other than
    ``-?digits[.digits]`` (either digit run may be empty, not both) with at
    most :data:`_MAX_DIGITS` digits; every cell lies 16 bytes or more into
    ``text``, and its bytes are ``[0-9,.:-]``.

    Past its sign, a cell's last 16 bytes are read as two 64-bit words, eight
    digits each (Lemire, "Number Parsing at a Gigabyte per Second", 2021):
    the bytes before the cell are zeroed, the dot reads as a 0 digit, and
    three multiply-shift-mask steps combine the digits.  With the dot at
    place p, the digits' integer is (V // 10^(p+1)) 10^p + V mod 10^p,
    below 2^53, so dividing it by 10^p rounds once, exactly as ``float()``
    does (Clinger, PLDI 1990).
    """
    words = np.ndarray((len(text) - 7,), dtype="<u8", buffer=text, strides=(1,))
    negative = np.frombuffer(text, dtype=np.uint8)[starts] == ord("-")
    size = ends - starts - negative  # bytes past the sign
    low, dots, bad = _digit_word(words[ends - 8], np.minimum(size, 8))
    mantissa = _eight_digits(low)
    places = (dots * 0x0706050403020100) >> 56  # digits after the dot
    n_dots = _byte_sum(dots)
    if size.max() > 8:
        high, high_dots, high_bad = _digit_word(words[ends - 16], np.clip(size - 8, 0, 8))
        mantissa += _eight_digits(high) * 10**8
        places += (high_dots * 0x0F0E0D0C0B0A0908) >> 56
        n_dots += _byte_sum(high_dots)
        bad |= high_bad
    n_digits = size - n_dots
    if (bad.any() or (n_dots > 1).any()
            or ((ends > starts) & ((n_digits < 1) | (n_digits > _MAX_DIGITS))).any()):
        raise ValueError("cell outside -?digits[.digits] with at most 15 digits")
    np.multiply(mantissa, 10, out=mantissa, where=n_dots == 0)  # as if a dot ended the cell
    scale = _POW10[places]
    whole, fraction = np.divmod(mantissa, scale)
    values = (whole // 10 * scale + fraction).astype(float)
    values /= scale
    np.negative(values, out=values, where=negative)
    values[ends == starts] = np.nan
    return values


def _digit_word(word: np.ndarray, size: np.ndarray) -> tuple:
    """Words whose top ``size`` bytes are a cell's: (the digits, one a byte,
    with the dot as 0; a 1 in the dot's byte; nonzero where another byte is
    not a digit)."""
    word = (word ^ _lanes(ord("0"))) & _TOP[size]  # "0"-"9" read 0-9, "." 0x1E, "-" 0x1D, ":" 0x0A
    dots = (word & ~(word << 4) & _lanes(0x10)) >> 4  # of those, only "." has bit 4 and not bit 0
    word ^= dots * 0x1E
    return word, dots, ((word + _lanes(0x76)) | word) & _lanes(0x80)  # bit 7 where a byte exceeds 9


def _byte_sum(word: np.ndarray) -> np.ndarray:
    """The sum of each word's eight bytes, each 0 or 1: the multiply gathers
    them in the top byte, and eight cannot carry out of it."""
    return ((word * _lanes(1)) >> 56).astype(np.int64)


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The integer of a word's eight digit bytes, its lowest byte the leading digit."""
    word = word * 10 + (word >> 8)  # each even byte: a two-digit pair
    return ((word & 0x000000FF000000FF) * (100 + (1000000 << 32))
            + ((word >> 16) & 0x000000FF000000FF) * (1 + (10000 << 32))) >> 32


def _parse_rows(reader, path) -> np.ndarray:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise DataError(f"{path}: header {header!r} does not match expected schema")
    cells: list[float] = []
    prev_ts = None
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(CSV_COLUMNS):
            raise DataError(f"line {line_no}: expected {len(CSV_COLUMNS)} cells, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"line {line_no}: bad date {row[0]!r}") from exc
        ts = dt.datetime(date.year, date.month, date.day, _parse_hour(row[1], line_no))
        cells.extend(_parse_cell(text, name, line_no) for text, name in zip(row[2:], FEATURES))
        if prev_ts is not None:
            if ts <= prev_ts:
                raise DataError(f"line {line_no}: timestamps not strictly increasing")
            if ts - prev_ts != dt.timedelta(hours=1):
                raise DataError(f"line {line_no}: gap larger than one hour before {ts}")
        prev_ts = ts
    return np.array(cells).reshape(-1, len(FEATURES))


def write_csv(matrix: np.ndarray, path) -> None:
    """Write a series in the ingestion schema, hour i stamped ``SYNTH_START + i``
    hours (NaN -> empty cell)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, row in enumerate(matrix.tolist()):
            ts = SYNTH_START + dt.timedelta(hours=i)
            cells = ["" if math.isnan(v) else format(v, ".6f") for v in row]
            writer.writerow([ts.date().isoformat(), f"{ts.hour:02d}"] + cells)


def split_point(n_rows: int, train_fraction: float) -> int:
    """Number of training rows: floor(train_fraction * n_rows)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    return int(math.floor(train_fraction * n_rows))


def fit_medians(train_matrix: np.ndarray) -> np.ndarray:
    """Per-feature medians of the present training cells."""
    medians = np.empty(train_matrix.shape[1])
    for j in range(train_matrix.shape[1]):
        col = train_matrix[:, j]
        present = col[~np.isnan(col)]
        if present.size == 0:
            raise ConfigurationError(f"feature {FEATURES[j]!r} has no present values to impute from")
        medians[j] = _median(present)
    return medians


def _median(values: np.ndarray):
    """``np.median(values)`` of a 1-D float array without NaN, bit for bit:
    numpy's partition, its NaN check's last index included, and the mean of
    the middle one or two values.  ``values`` is reordered in place."""
    half = len(values) // 2
    middle = [half - 1, half] if len(values) % 2 == 0 else [half]
    values.partition([*middle, -1])
    return np.mean(values[middle[0] : half + 1])


def _quartiles(values: np.ndarray) -> list:
    """``np.percentile(values, [25, 50, 75])`` of a 1-D float array without
    NaN, bit for bit: the same partition and numpy's linear rule, where the
    last index stands in above n - 1 (so at n = 1, gamma is 1).  ``values``
    is reordered in place."""
    n = len(values)
    virtual = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    below = [-1 if v >= n - 1 else math.floor(v) for v in virtual]
    above = [-1 if v >= n - 1 else i + 1 for v, i in zip(virtual, below)]
    values.partition(sorted({0, -1, *below, *above}))
    quartiles = []
    for v, i, j in zip(virtual, below, above):
        low, high, gamma = values[i], values[j], v - i
        step = high - low
        quartiles.append(high - step * (1 - gamma) if gamma >= 0.5 else low + step * gamma)
    return quartiles


@dataclass
class ScalerState:
    """Robust (median/IQR) then Z-score statistics, fitted on training rows only.

    ``robust_skip`` marks features whose IQR collapsed to zero (passed
    through stage one unscaled); ``z_skip`` marks features constant after
    stage one (passed through stage two as well).
    """

    median: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    robust_skip: np.ndarray  # bool mask
    z_skip: np.ndarray  # bool mask
    n_fit_rows: int

    @property
    def iqr(self) -> np.ndarray:
        return self.q3 - self.q1


SCALE_BLOCK_ROWS = 4096  # rows per block of the scaler's sums and of in-place scaling


def fit_scaler(train_matrix: np.ndarray) -> ScalerState:
    """Fit both stages on ``train_matrix``, which is left as it is.

    The quartiles are taken one column at a time.  The stage-one mean and
    std are sums over row blocks (:func:`_column_sums`), bit for bit the
    ``mean(axis=0)`` and ``std(axis=0)`` of the whole stage-one matrix, which
    is never built."""
    quartiles = np.empty((3, train_matrix.shape[1]))
    for j in range(train_matrix.shape[1]):
        col = np.array(train_matrix[:, j])  # a contiguous copy for the partition to reorder
        if np.isnan(col).any():
            raise ConfigurationError("impute before fitting the scaler")
        quartiles[:, j] = _quartiles(col)
    q1, median, q3 = quartiles
    iqr = q3 - q1
    robust_skip = iqr == 0.0
    if robust_skip.any():
        names = [FEATURES[j] for j in np.where(robust_skip)[0]]
        warnings.warn(f"zero IQR for {names}; passing through unscaled", stacklevel=2)
    stage1 = _center_scale(median, iqr, robust_skip)
    mean = _column_sums(train_matrix, [stage1], square=False) / len(train_matrix)
    deviation = [stage1, (mean, 1.0)]  # stage one minus its mean
    std = np.sqrt(_column_sums(train_matrix, deviation, square=True) / len(train_matrix))
    return ScalerState(
        median=median, q1=q1, q3=q3, mean=mean, std=std,
        robust_skip=robust_skip, z_skip=std == 0.0, n_fit_rows=len(train_matrix),
    )


def _center_scale(center, scale, skip) -> tuple[np.ndarray, np.ndarray]:
    """One stage's (center, scale); a skipped feature gets (0, 1), so
    (x - 0) / 1 passes it through exactly."""
    return np.where(skip, 0.0, center), np.where(skip, 1.0, scale)


def _apply(block: np.ndarray, stages, out: np.ndarray) -> np.ndarray:
    """(x - center) / scale for each stage in turn, written to ``out``."""
    for center, scale in stages:
        np.subtract(block, center, out=out)
        out /= scale
        block = out
    return out


def _column_sums(matrix: np.ndarray, stages, square: bool) -> np.ndarray:
    """Per-column sums of ``matrix`` after ``stages`` (and squared), in
    ``np.sum(axis=0)``'s own row-by-row order: each row block is summed
    behind the running total, held in row 0 of one reused scratch array."""
    scratch = np.empty((min(SCALE_BLOCK_ROWS, len(matrix)) + 1, matrix.shape[1]))
    total = np.zeros(matrix.shape[1])  # numpy's reduction starts from +0.0 too
    for lo in range(0, len(matrix), SCALE_BLOCK_ROWS):
        block = matrix[lo : lo + SCALE_BLOCK_ROWS]
        rows = scratch[1 : 1 + len(block)]
        _apply(block, stages, out=rows)
        if square:
            np.multiply(rows, rows, out=rows)
        scratch[0] = total
        np.sum(scratch[: 1 + len(block)], axis=0, out=total)
    return total


def scale_in_place(matrix: np.ndarray, scaler: ScalerState) -> np.ndarray:
    """Apply both stages, robust then Z-score, to ``matrix`` in place, row
    block by row block; returns which columns hold only finite cells."""
    stages = [_center_scale(scaler.median, scaler.iqr, scaler.robust_skip),
              _center_scale(scaler.mean, scaler.std, scaler.z_skip)]
    finite = np.ones(matrix.shape[1], dtype=bool)
    for lo in range(0, len(matrix), SCALE_BLOCK_ROWS):
        block = matrix[lo : lo + SCALE_BLOCK_ROWS]
        _apply(block, stages, out=block)
        finite &= np.isfinite(block).all(axis=0)
    return finite


def destandardize_temperature(values: np.ndarray, scaler: ScalerState) -> np.ndarray:
    """The inverse of :func:`scale_in_place` for the temperature column alone."""
    j = TEMPERATURE
    stage1 = values if scaler.z_skip[j] else values * scaler.std[j] + scaler.mean[j]
    return stage1 if scaler.robust_skip[j] else stage1 * scaler.iqr[j] + scaler.median[j]


@dataclass
class WindowedDataset:
    """Supervised windows: each target is the hour right after its window."""

    inputs: np.ndarray  # (n, sequence_length, n_features)
    targets: np.ndarray  # (n,) standardized next-hour temperature
    first_target_row: int  # row of the first target in the source matrix; one row per window

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, part: slice) -> WindowedDataset:
        """The windows of ``part``, a slice with step one."""
        start = part.indices(len(self))[0]
        return WindowedDataset(self.inputs[part], self.targets[part],
                               self.first_target_row + start)


def make_windows(matrix: np.ndarray, sequence_length: int) -> WindowedDataset:
    """Slide a length-m window over consecutive rows.

    Window i covers rows [i, i+m) and targets the temperature at row i+m,
    giving ``rows - m`` windows.  Inputs and targets are read-only views of
    ``matrix``: nothing is copied.
    """
    if sequence_length < 1:
        raise ConfigurationError(f"sequence_length must be >= 1, got {sequence_length}")
    rows = len(matrix)
    if rows - sequence_length < 1:
        raise ConfigurationError(
            f"need more than {sequence_length} rows to window, got {rows}"
        )
    # (rows - m, n_features, m + 1): window i's rows i..i+m along the last axis
    spans = np.lib.stride_tricks.sliding_window_view(matrix, sequence_length + 1, axis=0)
    return WindowedDataset(
        inputs=spans[:, :, :sequence_length].transpose(0, 2, 1),
        targets=spans[:, TEMPERATURE, sequence_length],
        first_target_row=sequence_length,
    )


@dataclass
class Dataset:
    """Standardized train/test matrices plus the scaler that produced them."""

    train_matrix: np.ndarray
    test_matrix: np.ndarray
    scaler: ScalerState
    n_rows: int

    def train_val_windows(self, sequence_length: int):
        """Windows over the training matrix, split by target row.

        The last ``VAL_FRACTION`` of training rows form the validation
        segment: windows whose target falls there become validation windows
        (their inputs may reach back into earlier rows, which only uses the
        past).  Targets rise by one row per window, so one slice splits them.
        """
        rows = len(self.train_matrix)
        val_start = rows - int(math.floor(VAL_FRACTION * rows))
        if val_start <= sequence_length:
            raise ConfigurationError("training split too small for this window length")
        windows = make_windows(self.train_matrix, sequence_length)
        first_val = val_start - sequence_length  # window whose target is row val_start
        return windows[:first_val], windows[first_val:]

    def test_windows(self, sequence_length: int) -> WindowedDataset:
        return make_windows(self.test_matrix, sequence_length)


def prepare_dataset(matrix: np.ndarray, train_fraction: float) -> Dataset:
    """Chronological split, train-fitted imputation and two-stage scaling of
    a ``(rows, 7)`` float series.

    The series is imputed and standardized in place: its train and test
    matrices are views of ``matrix``, so pass a copy to keep the raw cells.
    Beside it, only single columns and row blocks are allocated.  A feature
    whose fitted statistics or standardized cells overflow to a non-finite
    value is a :class:`DataError`, and leaves ``matrix`` partly scaled."""
    rows = len(matrix)
    if rows == 0:
        raise ConfigurationError("no rows to prepare")
    n_train = split_point(rows, train_fraction)
    if n_train < 2 or n_train >= rows:
        raise ConfigurationError(f"split produces degenerate train/test sizes ({n_train})")
    medians = fit_medians(matrix[:n_train])
    np.copyto(matrix, medians, where=np.isnan(matrix))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        scaler = fit_scaler(matrix[:n_train])
        stats = np.vstack([scaler.median, scaler.q1, scaler.q3, scaler.iqr, scaler.mean, scaler.std])
        finite = scale_in_place(matrix, scaler)
    overflowed = ~(np.isfinite(stats).all(axis=0) & finite)
    if overflowed.any():
        names = [FEATURES[j] for j in np.flatnonzero(overflowed)]
        raise DataError(f"scaling overflows for {names}: a fitted statistic or a "
                        "standardized cell is not finite")
    return Dataset(
        train_matrix=matrix[:n_train],
        test_matrix=matrix[n_train:],
        scaler=scaler,
        n_rows=rows,
    )


def save_dataset(path, dataset: Dataset) -> None:
    """Versioned binary cache with the scaler embedded."""
    write_npz(path, dict(
        version=np.array(CACHE_VERSION),
        train_matrix=dataset.train_matrix,
        test_matrix=dataset.test_matrix,
        n_rows=np.array(dataset.n_rows),
        **{f.name: getattr(dataset.scaler, f.name) for f in fields(ScalerState)},
    ))


def write_npz(path, arrays: dict) -> None:
    """Write ``arrays`` as ``np.savez`` does, byte for byte, without its copy,
    and atomically.

    ``np.savez`` hands each contiguous array to ``nditer`` as one chunk and
    writes ``chunk.tobytes()``, a copy of the whole array.  Here each member
    is its ``.npy`` header and then the array's own buffer; only an array
    that is neither C- nor Fortran-contiguous is copied, into C order.

    The archive is written to a sibling temporary file, which then replaces
    ``path`` (``os.replace``).  So a write that fails leaves the previous
    file as it was and no temporary file, and arrays that :func:`read_npz`
    mapped from the previous file keep their pages: truncating a mapped file
    in place would make reading them a bus error.
    """
    path = os.fspath(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with zipfile.ZipFile(temporary, "w", compression=zipfile.ZIP_STORED,
                             allowZip64=True) as archive:
            for name, value in arrays.items():
                value = np.asanyarray(value)
                header = npy_format.header_data_from_array_1_0(value)
                data = value.T if header["fortran_order"] else np.ascontiguousarray(value)
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    npy_format.write_array_header_1_0(member, header)
                    member.write(data.reshape(-1).view(np.uint8))
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


class NpzArrays(dict):
    """Every array of one npz file; looking up an absent one raises DataError."""

    def __init__(self, path, arrays: dict):
        super().__init__(arrays)
        self.path = path

    def __missing__(self, key):
        raise DataError(f"{self.path}: no {key!r} array")

    def integer(self, key) -> int:
        value = self[key]
        if value.shape != () or value.dtype.kind not in "iu":
            raise DataError(f"{self.path}: {key} is not an integer")
        return int(value)


CRC_READ_BYTES = 1 << 16  # each read of a member's CRC pass
_NPY_HEADER_READERS = {(1, 0): npy_format.read_array_header_1_0,
                       (2, 0): npy_format.read_array_header_2_0}


def read_npz(path, what: str, version: int) -> NpzArrays:
    """Read a versioned npz file (dataset cache or checkpoint) as views of
    one copy-on-write map of the file.

    Each member must be a stored ``.npy`` with a version 1.0 or 2.0 header,
    no object dtype (pickles are refused, as ``allow_pickle=False`` does),
    and exactly the data bytes its shape and dtype call for.  It is read to
    its end through ``zipfile`` in :data:`CRC_READ_BYTES` reads, so its
    CRC-32 is checked without touching the map.  Then every array is a view
    of one ``mmap.ACCESS_COPY`` map: only the pages a caller touches are
    loaded, and writing to an array copies its page and never reaches the
    file.  The arrays need not be aligned: the zip member layout that
    ``np.savez`` writes places each data block where it falls.

    A truncated or corrupt container, a bad member or a missing array
    raises :class:`~qforecast.errors.DataError`; a version other than
    ``version`` raises :class:`~qforecast.errors.CheckpointVersionError`.
    """
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            arrays = NpzArrays(path, {info.filename[:-len(".npy")]:
                                      _mapped_member(archive, info, mapping)
                                      for info in archive.infolist()})
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: unreadable {what}: {exc}") from exc
    found = arrays.integer("version")
    if found != version:
        raise CheckpointVersionError(f"{what} version {found} unsupported (expected {version})")
    return arrays


def _mapped_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, mapping: mmap.mmap):
    """One checked ``.npy`` member of ``archive`` as a view of ``mapping``."""
    name = info.filename
    if info.compress_type != zipfile.ZIP_STORED or not name.endswith(".npy"):
        raise ValueError(f"{name} is not a stored .npy member")
    with archive.open(info) as member:
        npy_version = npy_format.read_magic(member)
        if npy_version not in _NPY_HEADER_READERS:
            raise ValueError(f"{name}: unsupported .npy version {npy_version}")
        shape, fortran_order, dtype = _NPY_HEADER_READERS[npy_version](member)
        if dtype.hasobject:
            raise ValueError(f"{name}: object arrays cannot be loaded without pickle")
        header_bytes = member.tell()
        data_bytes = math.prod(shape) * dtype.itemsize
        if info.file_size - header_bytes != data_bytes:
            raise ValueError(f"{name}: {info.file_size - header_bytes} data bytes, "
                             f"its header describes {data_bytes}")
        while member.read(CRC_READ_BYTES):  # zipfile checks the CRC-32 at the end
            pass
    # the data follows the member's local header, which zipfile checked on
    # opening it: 30 bytes, then the name and the extra field, whose lengths
    # sit at byte 26.  The zip64 extra field write_npz forces there makes that
    # header longer than the central directory entry.
    name_length, extra_length = struct.unpack_from("<HH", mapping, info.header_offset + 26)
    offset = info.header_offset + 30 + name_length + extra_length + header_bytes
    return np.ndarray(shape, dtype, buffer=mapping, offset=offset,
                      order="F" if fortran_order else "C")


def load_dataset(path) -> Dataset:
    data = read_npz(path, "dataset cache", CACHE_VERSION)
    scaler = ScalerState(**{f.name: data.integer(f.name) if f.name == "n_fit_rows" else data[f.name]
                            for f in fields(ScalerState)})
    return Dataset(
        train_matrix=data["train_matrix"],
        test_matrix=data["test_matrix"],
        scaler=scaler,
        n_rows=data.integer("n_rows"),
    )


# ---------------------------------------------------------------------------
# Synthetic fixture generator
# ---------------------------------------------------------------------------

HOURS_PER_YEAR = 8766.0
SYNTH_START = dt.datetime(2015, 1, 1, 0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned about
def synth_series(
    n_hours: int,
    seed: int,
    *,
    noise_sigma: float,
    daily_amplitude: float = 8.0,
    annual_amplitude: float = 6.0,
    base_temperature: float = 8.0,
    missing_fraction: float = 0.0,
) -> np.ndarray:
    """Seeded synthetic hourly weather as a ``(n_hours, 7)`` matrix: a daily
    sinusoid on top of a slow annual sinusoid plus Gaussian noise, with the
    remaining features derived as noisy correlates of temperature, and a
    ``missing_fraction`` share of cells set to NaN.  Bit-identical for a
    fixed seed.  Hour i stands for ``SYNTH_START`` + i hours.
    """
    if n_hours < 48:
        raise ConfigurationError(f"n_hours must be >= 48, got {n_hours}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ConfigurationError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    t = np.arange(n_hours, dtype=float)
    daily = np.sin(2 * np.pi * t / 24.0)
    annual = np.sin(2 * np.pi * t / HOURS_PER_YEAR)
    temp = (
        base_temperature
        + daily_amplitude * daily
        + annual_amplitude * annual
        + noise_sigma * rng.normal(size=n_hours)
    )
    dew = temp - 4.0 + 0.6 * np.sin(2 * np.pi * t / 24.0 + 1.0) + 0.5 * noise_sigma * rng.normal(size=n_hours)
    humidity = np.clip(72.0 - 1.4 * (temp - base_temperature) + 2.0 * noise_sigma * rng.normal(size=n_hours), 5.0, 100.0)
    wind = np.clip(12.0 + 4.0 * np.sin(2 * np.pi * t / 24.0 + 2.0) + 3.0 * noise_sigma * rng.normal(size=n_hours), 0.0, None)
    visibility = np.clip(24.0 + 6.0 * annual - 0.05 * humidity + 2.0 * noise_sigma * rng.normal(size=n_hours), 0.1, None)
    pressure = 101.0 + 0.6 * np.sin(2 * np.pi * t / 307.0) + 0.2 * noise_sigma * rng.normal(size=n_hours)
    rain_mask = rng.random(n_hours) < 0.08
    precipitation = np.where(rain_mask, rng.gamma(2.0, 0.8, size=n_hours), 0.0)

    matrix = np.column_stack([temp, dew, humidity, wind, visibility, pressure, precipitation])
    # checked before the mask: an overflow's inf - inf would pass as a missing cell
    if not np.isfinite(matrix).all():
        raise ConfigurationError(f"noise_sigma {noise_sigma} overflows the synthetic series")
    if missing_fraction > 0.0:
        matrix[rng.random(matrix.shape) < missing_fraction] = np.nan
    return matrix
