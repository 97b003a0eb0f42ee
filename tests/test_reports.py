import inspect
import json
import math

import numpy as np
import pytest
from conftest import random_series
from hypothesis import given, settings
from hypothesis import strategies as st

from specpredict import make_grid
from specpredict.cli import _timeseries_csv
from specpredict.reports import (
    _BLOCK_ROWS,
    ColumnBlocks,
    _float_rows,
    format_value,
    write_csv,
    write_json,
    write_svg_lineplot,
)

HEADER = (
    b'# {"generator": "numpy.random.Philox(SeedSequence(entropy=seed, '
    b'spawn_key=(stream,)))", "run": 1}\n'
)


class TestFormatValue:
    def test_floats_are_seventeen_significant_digits(self):
        text = format_value(math.pi)
        assert text == f"{math.pi:.16e}"
        assert float(text) == math.pi  # round-trip exact

    def test_specials(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"
        assert format_value(math.nan) == "nan"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(None) == ""
        assert format_value(42) == "42"

    def test_tiny_value_round_trips(self):
        v = 5e-324  # smallest subnormal
        assert float(format_value(v)) == v


def per_value_lines(values) -> bytes:
    """The reference: one '%.16e' per value."""
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in values.tolist()).encode()


def table(values: np.ndarray) -> ColumnBlocks:
    """The rows of a 2-D float array as a :class:`ColumnBlocks` table."""
    return ColumnBlocks(len(values), lambda start, stop: tuple(values[start:stop].T))


def _edge_values():
    powers = 10.0 ** np.arange(-307, 308)
    values = [
        5e-324, 1e-323, 2.5e-320, 1.2345678901234567e-310, 2.225073858507201e-308,
        2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf,
        math.nan, -math.nan, 9.99999999999999999e5, 1e-299, 1e23, 0.1, 0.5, 1.5, 2.5,
        *powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, math.inf),
        *(i * 2.0**40 for i in range(1, 1000)), *(i * 2.0**60 for i in range(1, 1000)),
        *(k / 64 for k in range(-3000, 3000)),
    ]
    return np.array(values + [-v for v in values])


class TestFloatFormatter:
    """The vectorized '%.16e' of float arrays against Python's, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300), columns=st.sampled_from([1, 2, 3]))
    def test_random_bit_patterns(self, bits, columns):
        values = np.array(bits, np.uint64).view(np.float64)
        values = np.concatenate([values, -values])
        values = np.resize(values, (-(-values.size // columns), columns))
        assert _float_rows(values) == per_value_lines(values)

    def test_edge_values(self):
        values = _edge_values().reshape(-1, 1)
        assert _float_rows(values) == per_value_lines(values)

    def test_random_normals_in_blocks(self, tmp_path):
        # several blocks and a ragged last one
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2 * _BLOCK_ROWS + 3, 2)) * 10.0 ** rng.integers(-30, 30, (1, 2))
        path = tmp_path / "blocks.csv"
        write_csv(str(path), ["a", "b"], table(values), {"run": 1})
        assert path.read_bytes() == HEADER + b"a,b\n" + per_value_lines(values)

    def test_float_array_golden_bytes(self, tmp_path):
        values = np.array([[1.5, math.nan], [-math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1e308]])
        path = tmp_path / "golden.csv"
        write_csv(str(path), ["a", "b"], table(values), {"run": 1})
        assert path.read_bytes() == HEADER + (
            b"a,b\n"
            b"1.5000000000000000e+00,nan\n"
            b"nan,inf\n"
            b"-inf,-0.0000000000000000e+00\n"
            b"4.9406564584124654e-324,1.0000000000000000e+308\n"
        )

    def test_float_array_column_count_checked(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            write_csv(str(tmp_path / "bad.csv"), ["a"], table(np.zeros((3, 2))), {"run": 1})


class TestColumnBlocks:
    """A float table formed a block at a time prints as the stacked table."""

    @pytest.mark.parametrize("size", [0, 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
    def test_blocks_print_as_the_stacked_table(self, tmp_path, size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal(size) * 1e-200
        b = rng.standard_normal(size) * 1e200
        asked = []

        def block(start, stop):
            asked.append((start, stop))
            return (np.arange(start, stop) * 0.5, a[start:stop], b[start:stop])

        rows = ColumnBlocks(size, block)
        path = tmp_path / "blocks.csv"
        write_csv(str(path), ["t", "a", "b"], rows, {"run": 1})
        stacked = np.column_stack((np.arange(size) * 0.5, a, b))
        lines = path.read_bytes()
        assert lines == HEADER + b"t,a,b\n" + per_value_lines(stacked)
        # len() is the data row count, which the benchmark's trace reads
        assert len(rows) == size == lines.count(b"\n") - 2
        assert all(stop - start <= _BLOCK_ROWS for start, stop in asked)

    def test_column_count_checked(self, tmp_path):
        rows = ColumnBlocks(3, lambda start, stop: (np.zeros(stop - start),) * 2)
        with pytest.raises(ValueError, match="columns"):
            write_csv(str(tmp_path / "bad.csv"), ["a"], rows, {"run": 1})


class TestWriters:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(str(path), ["a", "b"], [[1.0, True], [math.inf, None]], {"run": 1})
        raw = path.read_bytes().decode()
        lines = raw.split("\n")
        assert lines[0].startswith("# ")
        meta = json.loads(lines[0][2:])
        assert meta["run"] == 1 and "Philox" in meta["generator"]
        assert lines[1] == "a,b"
        assert lines[2] == f"{1.0:.16e},true"
        assert lines[3] == "inf,"
        assert "\r" not in raw  # LF endings only

    def test_csv_golden_bytes(self, tmp_path):
        # Python floats and numpy scalars share one column and print alike
        values = [
            1.5, np.float64(1.5), math.nan, -math.nan, np.float64(math.nan), math.inf, -math.inf,
            np.float64(-math.inf), -0.0, np.float64(-0.0), 5e-324, 1e308, True, 42, None, "a b",
        ]
        path = tmp_path / "golden.csv"
        write_csv(str(path), ["i", "v"], [[i, v] for i, v in enumerate(values)], {"run": 1})
        assert path.read_bytes() == (
            b'# {"generator": "numpy.random.Philox(SeedSequence(entropy=seed, '
            b'spawn_key=(stream,)))", "run": 1}\n'
            b"i,v\n"
            b"0,1.5000000000000000e+00\n"
            b"1,1.5000000000000000e+00\n"
            b"2,nan\n"
            b"3,nan\n"
            b"4,nan\n"
            b"5,inf\n"
            b"6,-inf\n"
            b"7,-inf\n"
            b"8,-0.0000000000000000e+00\n"
            b"9,-0.0000000000000000e+00\n"
            b"10,4.9406564584124654e-324\n"
            b"11,1.0000000000000000e+308\n"
            b"12,true\n"
            b"13,42\n"
            b"14,\n"
            b"15,a b\n"
        )

    @pytest.mark.parametrize("container", [list, tuple])
    def test_csv_rows_as_lists_or_tuples(self, tmp_path, container):
        rows = [("-1.0", 1.5, np.float64(-2.0)), ("t1", math.inf, -0.0), ("t2", 5e-324, math.nan)]
        path = tmp_path / "rows.csv"
        write_csv(str(path), ["t", "a", "b"], [container(row) for row in rows], {"run": 1})
        assert path.read_bytes() == HEADER + (
            b"t,a,b\n"
            b"-1.0,1.5000000000000000e+00,-2.0000000000000000e+00\n"
            b"t1,inf,-0.0000000000000000e+00\n"
            b"t2,4.9406564584124654e-324,nan\n"
        )

    @pytest.mark.parametrize("odd, text", [(True, "true"), (None, ""), (7, "7")])
    def test_csv_float_column_with_one_odd_value(self, tmp_path, odd, text):
        # rows that are not a float array go value by value through format_value
        path = tmp_path / "odd.csv"
        write_csv(str(path), ["v", "w"], [[0.25, 1.0], [odd, 2.0], [np.float64(3.0), 3.0]], {"run": 1})
        assert path.read_text().splitlines()[2:] == [
            "2.5000000000000000e-01,1.0000000000000000e+00",
            f"{text},2.0000000000000000e+00",
            "3.0000000000000000e+00,3.0000000000000000e+00",
        ]

    def test_csv_str_column_passes_through(self, tmp_path):
        path = tmp_path / "text.csv"
        write_csv(str(path), ["s"], [["1.5"], ["100%"], [""], ["a b"]], {"run": 1})
        assert path.read_bytes() == HEADER + b"s\n1.5\n100%\n\na b\n"

    def test_csv_zero_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["a", "b"], [], {"run": 1})
        assert path.read_bytes() == HEADER + b"a,b\n"

    def test_csv_signature_is_stable(self):
        # the benchmark's trace hook binds write_csv's arguments by name
        params = list(inspect.signature(write_csv).parameters)
        assert params == ["path", "columns", "rows", "metadata"]

    def test_timeseries_csv_matches_per_value_formatting(self, tmp_path, monkeypatch):
        x = random_series(make_grid(1024, 0.05), seed=3)
        path = tmp_path / "x.csv"
        tables = []
        monkeypatch.setattr("specpredict.cli.write_csv", lambda *a: tables.append(a[2]) or write_csv(*a))
        _timeseries_csv(str(path), x.grid, x.samples.real, {"run": 2})
        assert isinstance(tables[0], ColumnBlocks) and len(tables[0]) == x.grid.n
        rows = (f"{t:.16e},{v:.16e}" for t, v in zip(x.grid.times(), x.samples.real))
        header = (
            '# {"generator": "numpy.random.Philox(SeedSequence(entropy=seed, '
            'spawn_key=(stream,)))", "run": 2}'
        )
        expected = "\n".join([header, "t,x", *rows]) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_json_embeds_metadata(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"value": 3}, {"seed": 9})
        body = json.loads(path.read_text())
        assert body["value"] == 3
        assert body["metadata"]["seed"] == 9
        assert "Philox" in body["metadata"]["generator"]

    def test_svg_is_deterministic(self, tmp_path):
        args = ([1.0, 10.0, 100.0], {"err": [1e-2, 1e-4, 1e-8]})
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            write_svg_lineplot(str(path), *args, title="t", x_label="x", y_label="y")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")
