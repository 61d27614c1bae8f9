"""The CSV writer's NumPy cell formatter against Python's %.

Every CLI CSV goes through condisp.output._write_csv, the one module
that holds what a run writes. It formats the cells in NumPy and leaves
only those it cannot prove exact to a per-cell '%.12g'
(output._python_cells). These tests pin every cell to
'%.12g' % v, or '%d' % i for a range, and whole files to the writer's
earlier one-% form (oracle_helpers.percent_csv); they keep the fallback
rare on real outputs, and check that a write that fails while formatting
leaves no file behind.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers
from condisp import cli, output
from condisp.cli import main
from condisp.output import _csv_rows, _write_csv

_SIGN = st.sampled_from([-1.0, 1.0])
_SIDE = st.sampled_from([-np.inf, 0.0, np.inf])  # 0: the value itself


def _near(v: float, side: float) -> float:
    return v if side == 0.0 else float(np.nextafter(v, side))


def _tie(d: int, k: int) -> float:
    """The double nearest the 12-digit decimal d followed by a 5, times
    10^k, which 12-digit rounding sees as a tie."""
    return float(f"{d}5e{k}")


# ties, or either of their neighbouring doubles, mostly at the exponents
# whose power of ten the NumPy path holds exactly (1e-11 to 1e34)
_TIES = st.builds(lambda d, k, sign, side: sign * _near(_tie(d, k), side),
                  st.integers(10**11, 10**12 - 1),
                  st.one_of(st.integers(-23, 21), st.integers(-335, 295)), _SIGN, _SIDE)
_POWERS = st.builds(lambda e, sign, side: sign * _near(float(f"1e{e}"), side),
                    st.integers(-310, 308), _SIGN, _SIDE)
_FLOATS = st.one_of(st.floats(allow_subnormal=True), _TIES, _POWERS,
                    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
_MIXED = st.one_of(_FLOATS, st.booleans(), st.integers(-2**70, 2**70),
                   st.integers(-2**63, 2**63 - 1).map(np.int64),
                   st.floats(width=32).map(np.float32))


def _range(lo: int, hi: int, reverse: bool, n: int) -> range:
    step = max(1, (hi - lo) // max(n - 1, 1))
    r = range(lo, lo + step * n, step)
    return r[::-1] if reverse else r


@functools.cache  # built once per row count, as hypothesis validates each
def _columns(n: int):
    """1 to 3 columns of n cells: float arrays, lists of mixed cells, or
    ranges that cross 0 and may reach +-(10^12 - 1)."""
    return st.lists(st.one_of(
        st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(_MIXED, min_size=n, max_size=n),
        st.builds(_range, st.integers(1 - 10**12, 0), st.integers(0, 10**12 - 1),
                  st.booleans(), st.just(n))), min_size=1, max_size=3)


def _cells(columns) -> list[list[str]]:
    return [[("%d" if isinstance(c, range) else "%.12g") % v for c, v in zip(columns, row)]
            for row in zip(*columns)]


def _rows(columns) -> list[list[str]]:
    text = b"".join(_csv_rows(columns)).decode()
    assert text == "" or text.endswith("\n")
    return [line.split(",") for line in text.split("\n")[:-1]]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_cells_match_percent_format(data, out_dir):
    n = data.draw(st.integers(0, 6), label="rows")
    columns = data.draw(_columns(n), label="columns")
    assert _rows(columns) == _cells(columns)
    _write_csv(out_dir / "w.csv", ["a = 1"], "h", columns)
    assert (out_dir / "w.csv").read_bytes() == oracle_helpers.percent_csv(["a = 1"], "h", columns)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-310, 309)])
    column = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    column = np.concatenate([column, -column])
    assert _rows([column]) == _cells([column])


def test_ties_and_their_neighbours():
    rng = np.random.default_rng(3)
    ties = np.array([_tie(d, k) for d, k in zip(rng.integers(10**11, 10**12, 3000).tolist(),
                                                rng.integers(-23, 22, 3000).tolist())])
    column = np.concatenate([ties, np.nextafter(ties, 0), -np.nextafter(ties, np.inf)])
    assert _rows([column]) == _cells([column])


def test_ties_scaled_by_rounded_powers():
    """Ties at the exponents whose power of ten is not a double (below
    -11 and above 33), where the scaled mantissa carries two roundings."""
    rng = np.random.default_rng(5)
    k = np.concatenate([rng.integers(-309, -23, 1500), rng.integers(22, 297, 1500)])
    ties = np.array([_tie(d, k) for d, k in zip(rng.integers(10**11, 10**12, 3000).tolist(),
                                                k.tolist())])
    column = np.concatenate([ties, np.nextafter(ties, 0), -np.nextafter(ties, np.inf)])
    assert _rows([column]) == _cells([column])


@pytest.mark.parametrize("block", [1, 3, 7])
def test_block_size_does_not_change_the_bytes(monkeypatch, block):
    columns = [range(-4, 13), np.linspace(-1e-6, 1e13, 17), [0.5] * 8 + [np.nan, 2**70] + [-1] * 7]
    whole = b"".join(_csv_rows(columns))
    monkeypatch.setattr(output, "_CSV_BLOCK", block)
    assert b"".join(_csv_rows(columns)) == whole


def test_unequal_columns_are_refused(tmp_path):
    with pytest.raises(ValueError, match="unequal lengths"):
        _write_csv(tmp_path / "w.csv", [], "a,b", [range(3), [1.0, 2.0]])
    assert not (tmp_path / "w.csv").exists()


def _written(tmp_path, monkeypatch, args) -> list:
    """The columns of every file main(args) writes."""
    written = []

    def spy(path, comments, header, columns, real=_write_csv):
        real(path, comments, header, columns)
        written.append(columns)

    monkeypatch.setattr(output, "_write_csv", spy)
    monkeypatch.setattr(cli, "_write_csv", spy)
    assert main(args + ["--out", str(tmp_path)]) == 0
    return written


def _fallbacks(monkeypatch, columns) -> int:
    """Cells of the columns that _csv_rows leaves to Python."""
    count = [0]

    def spy(values, real=output._python_cells):
        count[0] += len(values)
        return real(values)

    monkeypatch.setattr(output, "_python_cells", spy)
    _csv_rows(columns)
    return count[0]


@pytest.mark.parametrize("args, which", [
    (["gate-fidelity", "--fock-dim", "8", "--trials", "500", "--per-trial"], [1]),
    (["validate-effective", "--fock-dim", "8", "--periods", "0.5"], [0, 1]),
    (["cat-state", "--steps", "6", "--fock-dim", "128"], [0, 1, 2]),
], ids=["gate fidelities", "trace", "cat"])
def test_fast_path_takes_nearly_every_cell(tmp_path, monkeypatch, args, which):
    """At most 1 % of a real output's cells go to Python, so a formatter
    that sent every cell there fails here and not only in the benchmark."""
    [columns] = _written(tmp_path, monkeypatch, args)
    columns = [columns[j] for j in which]
    cells = sum(len(c) for c in columns)
    assert cells >= 250
    assert _fallbacks(monkeypatch, columns) <= 0.01 * cells


def _fail_second_block(monkeypatch, name):
    real = getattr(output, name)
    calls = []

    def fail(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("the second block")
        return real(*args)

    monkeypatch.setattr(output, name, fail)


@pytest.mark.parametrize("name", ["_format_cells", "_python_cells"])
@pytest.mark.parametrize("existing", [False, True], ids=["new file", "existing file"])
def test_failed_write_leaves_nothing_behind(tmp_path, monkeypatch, name, existing):
    """Formatting that fails in the second block creates no file and
    leaves a file already at the path as it was."""
    path = tmp_path / "w.csv"
    if existing:
        path.write_bytes(b"kept\n")
    _fail_second_block(monkeypatch, name)
    monkeypatch.setattr(output, "_CSV_BLOCK", 4)
    with pytest.raises(MemoryError, match="second block"):  # every block falls back
        _write_csv(path, ["c"], "a,b", (range(10), [np.nan] * 10))
    if existing:
        assert path.read_bytes() == b"kept\n"
    else:
        assert not path.exists()


def test_a_column_of_strings_is_refused(tmp_path):
    """The writer formats numbers only: a string cell raises before the
    file is opened."""
    with pytest.raises(ValueError, match="could not convert string to float"):
        _write_csv(tmp_path / "w.csv", [], "a,b", [range(2), [1.0, "x"]])
    assert not (tmp_path / "w.csv").exists()
