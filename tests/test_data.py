import csv
import datetime as dt
import importlib.util
import io
import mmap
import tracemalloc
import warnings
import zipfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qforecast import data as data_module
from qforecast.data import (
    CSV_COLUMNS,
    FEATURES,
    SCALE_BLOCK_ROWS,
    SYNTH_START,
    ScalerState,
    fit_medians,
    fit_scaler,
    ingest_csv,
    load_dataset,
    make_windows,
    prepare_dataset,
    read_npz,
    save_dataset,
    scale_in_place,
    split_point,
    synth_series,
    write_csv,
    write_npz,
    _parse_rows,
)
from numpy.lib import format as npy_format

from qforecast.errors import ConfigurationError, DataError

from oracles import inverse_transform, scaler_oracle, standardize_oracle

GOLDEN = """date,time,temperature,dew_point_temp,rel_humidity,wind_speed,visibility,pressure,precipitation
2016-01-01,00,-3.5,-7.1,77,12,24.1,101.2,0.0
2016-01-01,01,-3.9,-7.4,78,11,24.1,101.3,0.0
2016-01-01,02,-4.2,-7.8,80,9,23.0,101.3,0.2
"""


def scaled_copy(matrix, scaler):
    """Both scaling stages on a copy of ``matrix``."""
    out = np.array(matrix, dtype=float)
    scale_in_place(out, scaler)
    return out


def write_text(tmp_path, text, name="fixture.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def test_golden_fixture_parses_exactly(tmp_path):
    matrix = ingest_csv(write_text(tmp_path, GOLDEN))
    assert matrix.shape == (3, len(FEATURES)) and matrix.dtype == np.float64
    # columns in FEATURES order: temperature, dew point, humidity, wind,
    # visibility, pressure, precipitation
    assert matrix[0].tolist() == [-3.5, -7.1, 77.0, 12.0, 24.1, 101.2, 0.0]
    assert matrix[1].tolist() == [-3.9, -7.4, 78.0, 11.0, 24.1, 101.3, 0.0]
    assert matrix[2, FEATURES.index("precipitation")] == 0.2


def test_blank_cell_is_missing(tmp_path):
    text = GOLDEN.replace("2016-01-01,01,-3.9", "2016-01-01,01,").replace(",0.2", ",  ")
    matrix = ingest_csv(write_text(tmp_path, text))
    assert np.isnan(matrix[1, 0]) and np.isnan(matrix[2, 6])  # empty and blank cells
    assert matrix[1, 1] == -7.4
    assert np.isnan(matrix).sum() == 2


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
def test_literal_non_finite_cell_is_data_error(tmp_path, cell):
    # NaN marks a missing cell, so only an empty cell may produce one
    text = GOLDEN.replace("-7.4", cell)
    with pytest.raises(DataError, match=f"line 3: non-finite dew_point value '{cell}'"):
        ingest_csv(write_text(tmp_path, text))


def test_malformed_row_reports_line_number(tmp_path):
    text = GOLDEN.replace("-4.2", "oops")
    with pytest.raises(DataError, match="line 4"):
        ingest_csv(write_text(tmp_path, text))


def test_gap_and_disorder_are_errors(tmp_path):
    gap = GOLDEN.replace("2016-01-01,02", "2016-01-01,05")
    with pytest.raises(DataError, match="gap"):
        ingest_csv(write_text(tmp_path, gap))
    disorder = GOLDEN.replace("2016-01-01,02", "2016-01-01,00")
    with pytest.raises(DataError, match="increasing"):
        ingest_csv(write_text(tmp_path, disorder))


def test_header_mismatch(tmp_path):
    with pytest.raises(DataError, match="header"):
        ingest_csv(write_text(tmp_path, "a,b,c\n1,2,3\n"))


def test_csv_round_trip(tmp_path):
    series = synth_series(72, seed=3, missing_fraction=0.1)
    path = tmp_path / "round.csv"
    write_csv(series, path)
    back = ingest_csv(path)
    assert back.shape == series.shape
    missing = np.isnan(series)
    assert missing.any()
    np.testing.assert_array_equal(np.isnan(back), missing)
    assert np.all(np.abs(back[~missing] - series[~missing]) < 5e-7)  # six decimals in the file
    # row i is stamped SYNTH_START + i hours
    lines = path.read_text().splitlines()
    for i in (0, 23, 24, 71):
        ts = SYNTH_START + dt.timedelta(hours=i)
        assert lines[1 + i].startswith(f"{ts:%Y-%m-%d},{ts:%H},")
    assert lines[25].startswith("2015-01-02,00,")


def per_line(path):
    """The per-line checker's matrix for a file, or its DataError message."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parse_rows(csv.reader(fh), path)
    except DataError as exc:
        return str(exc)


def assert_ingests_as_per_line(path):
    expected = per_line(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == expected
    else:
        got = ingest_csv(path)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bit for bit, NaN cells included


CELLS = st.one_of(
    st.just(""),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.2f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", ".5", "5.", "+1.5", "1E3", "2e-400"]),
)
BAD_CELLS = ["", " ", " 1.5", "1.5 ", "nan", "NaN", "inf", "-inf", "1e400", '"1.5"', "1_000"]
BAD_DATES = ["0000-01-01", "+016-01-01", "2015-02-29"]


@st.composite
def csv_bodies(draw):
    """A valid hourly body as rows of cells, then at most one mutation, as text."""
    start = draw(st.datetimes(dt.datetime(1, 1, 1), dt.datetime(9999, 12, 30)))
    start = start.replace(minute=0, second=0, microsecond=0)
    rows = []
    for i in range(draw(st.integers(1, 12))):
        ts = start + dt.timedelta(hours=i)
        time = draw(st.sampled_from([f"{ts.hour:02d}", f"{ts.hour:02d}:00", f"{ts.hour:02d}:30"]))
        rows.append([ts.date().isoformat(), time] + draw(st.lists(CELLS, min_size=7, max_size=7)))
    row = draw(st.integers(0, len(rows) - 1))
    newline, final = "\n", "\n"
    mutation = draw(st.sampled_from([
        None, "cell", "extra", "missing", "crlf", "cr", "no_final", "hour", "date",
        "duplicate", "gap", "bom"]))
    if mutation == "cell":
        rows[row][draw(st.integers(2, 8))] = draw(st.sampled_from(BAD_CELLS))
    elif mutation == "extra":
        rows[row].append(draw(CELLS))
    elif mutation == "missing":
        del rows[row][draw(st.integers(0, 8))]
    elif mutation == "crlf":
        newline = final = "\r\n"
    elif mutation == "cr":
        newline = final = "\r"
    elif mutation == "no_final":
        final = ""
    elif mutation == "hour":
        rows[row][1] = "24"
    elif mutation == "date":  # every row of that day, so the hours still run on
        day, bad = rows[row][0], draw(st.sampled_from(BAD_DATES))
        for cells in rows:
            cells[0] = bad if cells[0] == day else cells[0]
    elif mutation == "duplicate":
        rows.insert(row, list(rows[row]))
    elif mutation == "gap" and len(rows) > 2:
        del rows[1]
    lines = [",".join(CSV_COLUMNS)] + [",".join(cells) for cells in rows]
    return ("\ufeff" if mutation == "bom" else "") + newline.join(lines) + final


@settings(max_examples=400, derandomize=True, deadline=None)
@given(csv_bodies(), st.sampled_from([data_module.BULK_BLOCK_BYTES, 1, 50]))
@example(GOLDEN.replace("-7.4", "1e400"), data_module.BULK_BLOCK_BYTES)  # a finite cell overflows
@example(GOLDEN.replace("2016-01-01", "0000-01-01"), data_module.BULK_BLOCK_BYTES)  # numpy reads year 0
@example(GOLDEN.rstrip("\n"), data_module.BULK_BLOCK_BYTES)  # no trailing newline
@example(GOLDEN.replace("\n", "\r\n"), data_module.BULK_BLOCK_BYTES)  # CRLF line endings
@example(GOLDEN[: GOLDEN.index("2016-01-01,01")], data_module.BULK_BLOCK_BYTES)  # one data row
@example(GOLDEN, len(GOLDEN.split("\n", 1)[1]))  # a body exactly one block long
@example(GOLDEN.replace(",0.2", ", 0.2"), 50)  # refused in the last of several blocks
def test_bulk_reader_never_widens_what_is_accepted(tmp_path_factory, text, block_bytes):
    # every file gives the per-line checker's exact matrix or its exact error,
    # also where blocks end inside a line or split the file into many blocks
    path = tmp_path_factory.mktemp("bulk") / "weather.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(data_module, "BULK_BLOCK_BYTES", block_bytes):
        assert_ingests_as_per_line(path)


def test_bulk_reader_matches_per_line_on_paper_length_csv(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / "paper.csv"
    inputs.write_weather_csv(path, 96432, seed=5)
    matrix = ingest_csv(path)
    assert matrix.shape == (96432, len(FEATURES)) and np.isnan(matrix).any()
    assert matrix.tobytes() == per_line(path).tobytes()


def test_byte_order_mark_is_skipped(tmp_path):
    plain = ingest_csv(write_text(tmp_path, GOLDEN))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + GOLDEN.encode())
    assert ingest_csv(path).tobytes() == plain.tobytes()
    path.write_bytes(b"\xef\xbb\xbf" + GOLDEN.replace("-7.4", " ").encode())  # per-line path
    assert np.isnan(ingest_csv(path)[1, 1])


def test_overlong_cell_is_data_error(tmp_path):
    # longer than the csv module's field limit: refused in bulk, reported per line
    text = GOLDEN.replace("-7.4", "0." + "0" * 140000 + "1")
    with pytest.raises(DataError, match="field larger than field limit"):
        ingest_csv(write_text(tmp_path, text))


def rows_csv(tmp_path, cells, name="cells.csv"):
    """A file with one row per cell, the cell in every feature column."""
    lines = [",".join(CSV_COLUMNS)] + [f"2016-01-01,{hour:02d}," + ",".join([cell] * 7)
                                       for hour, cell in enumerate(cells)]
    return write_text(tmp_path, "\n".join(lines) + "\n", name)


EXACT_CELLS = ["-0.00", ".5", "5.", "-.5", "007.50", "12345678", "-87654321",
               "123456789012345", "-98765.4321098765", "0.000001", ""]


def test_plain_decimal_cells_read_as_float_does(tmp_path):
    # integer arithmetic and one division by 10^k give float()'s double, the
    # sign of -0.00 included; an empty cell is NaN
    path = rows_csv(tmp_path, EXACT_CELLS)
    bulk = data_module._ingest_bulk(path)
    assert bulk is not None  # read in bulk, not by the per-line checker
    expected = np.array([[float(cell) if cell else np.nan] * 7 for cell in EXACT_CELLS])
    assert bulk.tobytes() == expected.tobytes()
    assert_ingests_as_per_line(path)


@pytest.mark.parametrize("cell", ["1e5", "+1.5", "1234567890123456", "-1234567890.123456",
                                  "1.2.3", "--1", "1-", "5:0", "-", ".", "-."])
def test_cells_outside_the_plain_decimal_form_leave_the_bulk_reader(tmp_path, cell):
    # an exponent, a plus sign, a 16th digit or a malformed cell sends the file
    # to the per-line checker, which reads it or names the bad line
    path = rows_csv(tmp_path, ["1.5", cell, "2.5"])
    assert data_module._ingest_bulk(path) is None
    assert_ingests_as_per_line(path)


def test_synth_written_paper_length_csv_is_read_in_bulk(tmp_path):
    # write_csv's ".6f" cells run to 16 bytes, and all stay on the bulk path
    path = tmp_path / "synth.csv"
    write_csv(synth_series(96432, seed=8, missing_fraction=0.01), path)
    expected = per_line(path)
    with mock.patch.object(data_module, "_parse_rows", side_effect=AssertionError("per line")):
        matrix = ingest_csv(path)
    assert matrix.tobytes() == expected.tobytes()


ORDER_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
                         st.floats(-1e300, 1e300), st.integers(-3, 3).map(float))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(ORDER_VALUES, min_size=1, max_size=40))
@example([-0.0])  # n = 1: numpy's top-bound case, gamma 1
@example([0.0, -0.0])
@example([-0.0, -0.0, -0.0])
@example([2.0, 2.0, 2.0, 2.0, 1.0])
def test_order_statistics_match_numpy_bit_for_bit(values):
    column = np.array(values)
    assert (np.float64(data_module._median(column.copy())).tobytes()
            == np.median(column).tobytes())
    assert (np.array(data_module._quartiles(column.copy())).tobytes()
            == np.percentile(column, [25, 50, 75]).tobytes())


# ---------------------------------------------------------------------------
# Split arithmetic
# ---------------------------------------------------------------------------


def test_split_counts():
    assert split_point(96432) == 83895
    assert 96432 - split_point(96432) == 12537
    assert split_point(100) == 87


def test_chronological_split_order():
    series = synth_series(200, seed=1)
    dataset = prepare_dataset(series.copy())
    n_train = split_point(len(series))
    # the first n_train rows, in order, are the training split; the rest the test split
    np.testing.assert_allclose(inverse_transform(dataset.train_matrix, dataset.scaler),
                               series[:n_train], atol=1e-9)
    np.testing.assert_allclose(inverse_transform(dataset.test_matrix, dataset.scaler),
                               series[n_train:], atol=1e-9)


# ---------------------------------------------------------------------------
# Imputation
# ---------------------------------------------------------------------------


def test_masked_cells_all_become_train_medians():
    matrix = synth_series(400, seed=9, missing_fraction=0.05)
    n_train = split_point(len(matrix))
    medians = fit_medians(matrix[:n_train])
    mask = np.isnan(matrix)
    dataset = prepare_dataset(matrix.copy())
    # scaling works cell by cell, so a filled cell holds its median's scaled value
    filled = np.concatenate([dataset.train_matrix, dataset.test_matrix])
    scaled_medians = scaled_copy(medians[None], dataset.scaler)[0]
    assert mask.any()
    for j in range(matrix.shape[1]):
        assert np.all(filled[mask[:, j], j] == scaled_medians[j])


def test_entirely_missing_feature_is_configuration_error():
    matrix = np.array([[1.0, np.nan], [2.0, np.nan]])
    with pytest.raises(ConfigurationError):
        fit_medians(matrix)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_robust_scale_hand_example():
    data = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    scaler = fit_scaler(data)
    assert scaler.median[0] == 3.0 and scaler.q1[0] == 2.0 and scaler.q3[0] == 4.0
    # stage one maps the rows to -1, -0.5, 0, 0.5 and 48.5, whose mean is 9.5
    assert scaler.mean[0] == 9.5
    scaled = scaled_copy(data, scaler)
    assert scaled[2, 0] == -9.5 / scaler.std[0]
    assert scaled[4, 0] == (48.5 - 9.5) / scaler.std[0]


def test_zscore_train_statistics():
    rng = np.random.default_rng(0)
    train = rng.normal(3.0, 5.0, size=(500, len(FEATURES)))
    scaler = fit_scaler(train)
    standardized = scaled_copy(train, scaler)
    np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(standardized.std(axis=0), 1.0, atol=1e-10)


def test_round_trip_within_tolerance():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(300, len(FEATURES))) * rng.uniform(0.5, 40, size=len(FEATURES))
    scaler = fit_scaler(train)
    back = inverse_transform(scaled_copy(train, scaler), scaler)
    np.testing.assert_allclose(back, train, atol=1e-9)


def test_constant_feature_passes_through():
    train = np.column_stack([np.arange(20.0), np.full(20, 7.0)])
    with pytest.warns(UserWarning, match="IQR"):
        scaler = fit_scaler(train)
    assert scaler.robust_skip[1] and scaler.z_skip[1]
    out = scaled_copy(train, scaler)
    np.testing.assert_array_equal(out[:, 1], train[:, 1])
    back = inverse_transform(out, scaler)
    np.testing.assert_allclose(back, train, atol=1e-9)


def oracle_columns(rows, seed):
    """A training matrix whose columns span the scaler's cases."""
    rng = np.random.default_rng(seed)
    train = rng.normal(3.0, 5.0, size=(rows, len(FEATURES)))
    train[:, 1] += 1e6  # a large offset, where sums lose the most to rounding
    train[: rows // 2, 2] = -0.0
    train[:, 5] = -0.0  # zero IQR, constant after stage one, and summed to +0.0
    train[:, 6] = np.where(rng.random(rows) < 0.1, rng.gamma(2.0, 0.8, rows), 0.0)  # zero IQR
    return train


@pytest.mark.parametrize("rows", [1, 2, SCALE_BLOCK_ROWS, SCALE_BLOCK_ROWS + 1,
                                  3 * SCALE_BLOCK_ROWS + 5])
def test_blocked_scaler_matches_whole_matrix_oracle(rows):
    train = oracle_columns(rows, seed=rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scaler = fit_scaler(train)
    expected = scaler_oracle(train)
    if rows > 2:
        assert scaler.robust_skip.tolist() == [False] * 5 + [True, True]
        assert scaler.z_skip.tolist() == [False] * 5 + [True, False]
    for name, value in expected.items():
        assert getattr(scaler, name).tobytes() == value.tobytes(), name  # bit for bit
    assert scaled_copy(train, scaler).tobytes() == standardize_oracle(train, expected).tobytes()


def test_prepare_dataset_matches_whole_matrix_oracle():
    matrix = oracle_columns(5 * SCALE_BLOCK_ROWS + 3, seed=12)
    matrix[np.random.default_rng(13).random(matrix.shape) < 0.02] = np.nan
    n_train = split_point(len(matrix))
    filled = matrix.copy()
    for j, median in enumerate(fit_medians(matrix[:n_train])):
        filled[np.isnan(filled[:, j]), j] = median
    expected = scaler_oracle(filled[:n_train])
    standardized = standardize_oracle(filled, expected)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = prepare_dataset(matrix)
    # in place: the returned splits are views of the argument
    assert np.shares_memory(dataset.train_matrix, matrix)
    assert np.shares_memory(dataset.test_matrix, matrix)
    assert matrix.tobytes() == standardized.tobytes()
    for name, value in expected.items():
        assert getattr(dataset.scaler, name).tobytes() == value.tobytes(), name


def test_prepare_dataset_peaks_below_half_the_matrix():
    # the paper-length series: only columns and row blocks are allocated beside it
    matrix = synth_series(96432, seed=11, missing_fraction=0.01)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prepare_dataset(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 2


def test_no_test_statistics_leak():
    matrix = synth_series(300, seed=2)
    dataset = prepare_dataset(matrix.copy())
    n_train = split_point(len(matrix))
    assert dataset.scaler.n_fit_rows == n_train
    # refitting on the training rows alone reproduces the stored statistics
    # (the series has no missing cell, so there is nothing to impute)
    refit = fit_scaler(matrix[:n_train])
    np.testing.assert_array_equal(refit.median, dataset.scaler.median)
    np.testing.assert_array_equal(refit.mean, dataset.scaler.mean)
    # fitting on all rows would give different statistics
    full_fit = fit_scaler(matrix)
    assert not np.allclose(full_fit.mean, dataset.scaler.mean)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


def source_rows(part):
    """Row index of each target of ``part`` in its source matrix."""
    return np.arange(part.first_target_row, part.first_target_row + len(part))


def test_window_counting_and_alignment():
    matrix = np.arange(10.0)[:, None] * np.ones((1, len(FEATURES)))
    windows = make_windows(matrix, 3)
    assert len(windows) == 7
    assert windows.targets[0] == matrix[3, 0]
    assert source_rows(windows)[0] == 3


def test_window_boundary_error():
    matrix = np.zeros((5, len(FEATURES)))
    with pytest.raises(ConfigurationError):
        make_windows(matrix, 5)
    make_windows(matrix, 4)  # one window is fine


def test_ramp_windows_are_arithmetic():
    ramp = np.arange(30.0)[:, None] * np.ones((1, len(FEATURES)))
    windows = make_windows(ramp, 4)
    diffs = np.diff(windows.inputs[:, :, 0], axis=1)
    assert np.all(diffs == 1.0)


def test_windows_reconstruct_series():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(40, len(FEATURES)))
    m = 5
    windows = make_windows(matrix, m)
    for i in range(len(windows)):
        np.testing.assert_array_equal(windows.inputs[i], matrix[i : i + m])
        assert windows.targets[i] == matrix[i + m, 0]
    rebuilt = np.concatenate([matrix[:m, 0], windows.targets])
    np.testing.assert_array_equal(rebuilt, matrix[:, 0])


def test_train_val_partition():
    dataset = prepare_dataset(synth_series(500, seed=6))
    train_part, val_part = dataset.train_val_windows(3)
    rows = len(dataset.train_matrix)
    val_rows = int(np.floor(0.1 * rows))
    assert np.all(source_rows(val_part) >= rows - val_rows)
    assert np.all(source_rows(train_part) < rows - val_rows)
    assert len(train_part) + len(val_part) == rows - 3


@pytest.mark.parametrize("m", [1, 3, 5])
def test_train_val_slice_matches_target_row_partition(m):
    dataset = prepare_dataset(synth_series(500, seed=6))
    train_part, val_part = dataset.train_val_windows(m)
    # the partition by target row, built with boolean masks over copied windows
    rows = len(dataset.train_matrix)
    val_start = rows - int(np.floor(0.1 * rows))
    idx = np.arange(rows - m)[:, None] + np.arange(m)[None, :]
    inputs, target_rows = dataset.train_matrix[idx], np.arange(m, rows)
    targets = dataset.train_matrix[target_rows, 0]
    is_val = target_rows >= val_start
    for part, mask in ((train_part, ~is_val), (val_part, is_val)):
        np.testing.assert_array_equal(part.inputs, inputs[mask])
        np.testing.assert_array_equal(part.targets, targets[mask])
        np.testing.assert_array_equal(source_rows(part), target_rows[mask])


def test_windows_are_read_only_views():
    dataset = prepare_dataset(synth_series(300, seed=4))
    train_part, val_part = dataset.train_val_windows(3)
    parts = [(make_windows(dataset.train_matrix, 3), dataset.train_matrix),
             (train_part, dataset.train_matrix), (val_part, dataset.train_matrix),
             (dataset.test_windows(3), dataset.test_matrix)]
    for part, matrix in parts:
        for array in (part.inputs, part.targets):
            assert np.shares_memory(array, matrix)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synth_deterministic():
    a = synth_series(120, seed=77)
    b = synth_series(120, seed=77)
    assert a.shape == (120, len(FEATURES))
    np.testing.assert_array_equal(a, b)
    c = synth_series(120, seed=78)
    assert not np.array_equal(a, c)


def test_synth_noiseless_daily_period():
    temp = synth_series(96, seed=0, noise_sigma=0.0, annual_amplitude=0.0)[:, 0]
    np.testing.assert_allclose(temp[24:48], temp[:24], atol=1e-9)
    np.testing.assert_allclose(temp[48:72], temp[:24], atol=1e-9)


def test_synth_lag24_autocorrelation():
    temp = synth_series(2000, seed=13, noise_sigma=0.1)[:, 0]
    centered = temp - temp.mean()
    r = (centered[:-24] @ centered[24:]) / (centered @ centered)
    assert r > 0.9


def test_synth_minimum_length():
    with pytest.raises(ConfigurationError):
        synth_series(24, seed=0)


# ---------------------------------------------------------------------------
# Cache round trip
# ---------------------------------------------------------------------------


def test_npz_writer_matches_savez_byte_for_byte(tmp_path):
    # every kind of array the dataset cache and both checkpoints store, plus
    # the layouts that are not C order
    matrix = np.random.default_rng(3).normal(size=(40, 7))
    arrays = {
        "version": np.array(1),
        "n_rows": np.array(96432, dtype=np.int64),
        "train_matrix": matrix,
        "empty": np.empty((0, 7)),
        "robust_skip": np.array([True, False, True]),
        "config_json": np.array('{"n_qubits": 2}'),
        "kind": np.array("qlstm"),
        "strided": matrix[::3, 1::2],
        "fortran": np.asfortranarray(matrix[:5]),
        "scalar": np.float64(0.25),
    }
    write_npz(tmp_path / "ours.npz", arrays)
    np.savez(tmp_path / "numpy.npz", **arrays)
    assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "numpy.npz").read_bytes()


def test_dataset_cache_round_trip(tmp_path):
    dataset = prepare_dataset(synth_series(200, seed=5))
    path = tmp_path / "cache.npz"
    save_dataset(path, dataset)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.train_matrix, dataset.train_matrix)
    np.testing.assert_array_equal(back.test_matrix, dataset.test_matrix)
    for field in fields(ScalerState):
        ours, theirs = getattr(back.scaler, field.name), getattr(dataset.scaler, field.name)
        assert type(ours) is type(theirs), field.name
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype, field.name
        np.testing.assert_array_equal(ours, theirs)
    assert back.n_rows == dataset.n_rows
    # the cache's member order, the scaler's fields last in their declared order
    scaler_members = ["median", "q1", "q3", "mean", "std", "robust_skip", "z_skip", "n_fit_rows"]
    assert [field.name for field in fields(ScalerState)] == scaler_members
    with zipfile.ZipFile(path) as archive:
        assert archive.namelist() == [f"{name}.npy" for name in (
            "version", "train_matrix", "test_matrix", "n_rows", *scaler_members)]


def test_saving_a_loaded_cache_onto_its_file_rewrites_it_byte_for_byte(tmp_path):
    path = tmp_path / "cache.npz"
    save_dataset(path, prepare_dataset(synth_series(200, seed=5)))
    written = path.read_bytes()
    save_dataset(path, load_dataset(path))  # its arrays map the file it replaces
    assert path.read_bytes() == written
    assert list(tmp_path.iterdir()) == [path]


def test_loaded_arrays_are_writable_views_of_one_file_map(tmp_path):
    # a return to a copying reader would give arrays that own their data
    path = tmp_path / "cache.npz"
    save_dataset(path, prepare_dataset(synth_series(200, seed=5)))
    written = path.read_bytes()
    back = load_dataset(path)
    arrays = [back.train_matrix, back.test_matrix,
              *(getattr(back.scaler, f.name) for f in fields(ScalerState) if f.name != "n_fit_rows")]
    for array in arrays:
        assert not array.flags.owndata and isinstance(array.base, mmap.mmap)
    assert len({id(array.base) for array in arrays}) == 1
    back.train_matrix[:, 0] += 1.0  # copy on write: the file keeps its bytes
    assert path.read_bytes() == written


def test_failed_npz_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "cache.npz"
    write_npz(path, {"version": np.array(1), "cells": np.arange(3.0)})
    written = path.read_bytes()
    with pytest.raises(TypeError):  # an object array has no bytes to write
        write_npz(path, {"version": np.array(2), "cells": np.array([None], dtype=object)})
    assert path.read_bytes() == written
    assert list(tmp_path.iterdir()) == [path]


def npz_with_member(path, name: str, payload: bytes) -> None:
    """An npz holding a version array and one raw member."""
    with zipfile.ZipFile(path, "w") as archive:
        buffer = io.BytesIO()
        npy_format.write_array(buffer, np.array(1))
        archive.writestr("version.npy", buffer.getvalue())
        archive.writestr(name, payload)


def short_npy() -> bytes:
    buffer = io.BytesIO()
    npy_format.write_array_header_1_0(buffer, {"descr": "<f8", "fortran_order": False,
                                               "shape": (3,)})
    return buffer.getvalue() + np.zeros(2).tobytes()


@pytest.mark.parametrize("write, named", [
    (lambda path: np.savez(path, version=np.array(1), cells=np.array([None], dtype=object)),
     "object arrays"),
    (lambda path: np.savez_compressed(path, version=np.array(1)), "not a stored .npy"),
    (lambda path: npz_with_member(path, "notes.txt", b"text"), "not a stored .npy"),
    (lambda path: npz_with_member(path, "cells.npy", short_npy()),
     "16 data bytes, its header describes 24"),
    (lambda path: npz_with_member(path, "cells.npy", b"\x93NUMPY\x03\x00" + bytes(8)),
     "unsupported .npy version"),
], ids=["object-dtype", "compressed", "not-npy", "short-data", "npy-version-3"])
def test_npz_reader_refuses_a_member_it_cannot_map(tmp_path, write, named):
    path = tmp_path / "x.npz"
    write(path)
    with pytest.raises(DataError, match=named):
        read_npz(path, "checkpoint", 1)
