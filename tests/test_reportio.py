"""CSV matrix handling and deterministic report rendering."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim import reportio
from effdim.errors import CsvFormatError, NumericalError
from effdim.reportio import (
    format_float,
    parse_matrix_csv,
    read_matrix_csv,
    render_report,
    tagged,
    write_matrix_csv,
)


class TestFloatRendering:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(1000) * 10.0 ** rng.integers(-12, 12, size=1000):
            assert float(format_float(float(x))) == float(x)

    def test_simple_values(self):
        assert format_float(0.0) == "0"
        assert format_float(0.5) == "0.5"
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            format_float(float("nan"))
        with pytest.raises(NumericalError):
            format_float(float("inf"))


class TestMatrixCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        write_matrix_csv(tmp_path / "m.csv", m)
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "m.csv"), m)

    def test_header_detection(self):
        text = "x1,x2\n1.0,2.0\n3.0,4.0\n"
        np.testing.assert_array_equal(parse_matrix_csv(text), [[1.0, 2.0], [3.0, 4.0]])

    def test_no_header(self):
        np.testing.assert_array_equal(parse_matrix_csv("1,2\n3,4\n"), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_reported_with_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            parse_matrix_csv("1,2\n3,4\n5\n")

    def test_bad_cell_reported_with_position(self):
        with pytest.raises(CsvFormatError, match="line 2, column 2"):
            parse_matrix_csv("1,2\n3,oops\n")

    def test_ragged_row_after_blank_lines_names_file_line(self):
        with pytest.raises(CsvFormatError, match="^row at line 6 has 3 cells, expected 2$"):
            parse_matrix_csv("a,b\n\n1,2\n\n   \n1,2,3\n")

    def test_bad_cell_after_blank_lines_names_file_line(self):
        with pytest.raises(CsvFormatError, match="line 5, column 2$"):
            parse_matrix_csv("a,b\n\n\n1,2\n1,x\n")

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports open with a BOM; the first row is data
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf2,0\n0,1\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[2.0, 0.0], [0.0, 1.0]])

    def test_mixed_first_row_is_data(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("1.0,oops\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="^non-numeric cell 'oops' at line 1, column 2$"):
            read_matrix_csv(path)

    def test_empty_rejected(self):
        with pytest.raises(CsvFormatError):
            parse_matrix_csv("")
        with pytest.raises(CsvFormatError):
            parse_matrix_csv("only,header\n")


def _written(tmp_path, matrix) -> bytes:
    write_matrix_csv(tmp_path / "m.csv", matrix)
    return (tmp_path / "m.csv").read_bytes()


class TestMatrixCsvWriter:
    def test_rows_match_per_cell_rendering(self, tmp_path):
        rng = np.random.default_rng(4)
        extremes = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e17, 1 / 3]
        m = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 301, size=4000)
        m = np.concatenate([m, extremes * 4]).reshape(-1, 8)
        expected = "\n".join(",".join(format_float(x) for x in row) for row in m) + "\n"
        assert _written(tmp_path, m) == expected.encode()

    @pytest.mark.parametrize("matrix, first", [
        (np.array([[1.0, np.inf], [np.nan, 2.0]]), np.inf),
        (np.asfortranarray([[1.0, -np.inf], [np.nan, 2.0]]), -np.inf),
        (np.array([3.0, np.nan, np.inf]), np.nan),
    ])
    def test_first_non_finite_in_row_major_order_is_named(self, tmp_path, matrix, first):
        with pytest.raises(NumericalError) as expected:
            format_float(np.float64(first))
        with pytest.raises(NumericalError) as info:
            write_matrix_csv(tmp_path / "m.csv", matrix)
        assert str(info.value) == str(expected.value)

    def test_empty_shapes(self, tmp_path):
        assert _written(tmp_path, np.zeros((0, 3))) == b""
        assert _written(tmp_path, np.zeros((2, 0))) == b"\n\n"

    def test_non_finite_leaves_no_file(self, tmp_path):
        with pytest.raises(NumericalError):
            write_matrix_csv(tmp_path / "bad.csv", [[1.0, np.nan]])
        assert not (tmp_path / "bad.csv").exists()


def _walked(text):
    """The cell walk alone: the reference the C parse must reproduce."""
    return reportio._walk_cells(reportio._body_lines(text))


def _outcome(parse, text):
    try:
        m = parse(text)
    except CsvFormatError as exc:
        return type(exc), str(exc)
    return m.shape, m.tobytes()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_CELLS = st.one_of(
    _FLOATS.map(lambda x: "%.17g" % x),
    _FLOATS.map(lambda x: "%.6g" % x),
    st.sampled_from(["0", "-0", "+0.0", "nan", "-nan", "NaN", "inf", "-inf", "Infinity",
                     "1e400", "-1e-400", "1_0", "1__0", "\uff11\uff12", "\u0661", "",
                     "x1", "1 2", "0x10", '"1"', "1 # c", "\ufeff1"]),
)
_PADS = st.sampled_from(["", " ", "\t", "  \t", "\u00a0", "\u2003"])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    rows = []
    if draw(st.booleans()):
        rows.append(",".join(f"x{j}" for j in range(width)))
    for _ in range(draw(st.integers(0, 5))):
        cells = [draw(_PADS) + draw(_CELLS) + draw(_PADS) for _ in range(width)]
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "long", "trailing comma"]))
        if shape == "short":
            cells = cells[:-1]
        elif shape == "long":
            cells.append("1")
        elif shape == "trailing comma":
            cells.append("")
        rows.append(",".join(cells))
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(["", " ", "\t \t", "\u00a0"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(rows) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=_csv_texts())
def test_c_parse_equals_the_cell_walk(text):
    assert _outcome(parse_matrix_csv, text) == _outcome(_walked, text)


class TestIngestRoute:
    def test_tool_written_file_never_walks_cells(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((500, 50)) * 10.0 ** rng.integers(-300, 301, size=(500, 50))
        m[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
        path = tmp_path / "x.csv"
        write_matrix_csv(path, m)

        def walk(*args):
            raise AssertionError("a tool-written file reached the cell walk")

        monkeypatch.setattr(reportio, "_parse_cell", walk)
        assert read_matrix_csv(path).tobytes() == m.tobytes()

    def test_read_peak_memory_stays_near_the_matrix_size(self, tmp_path):
        m = np.random.default_rng(12).standard_normal((2000, 200))
        path = tmp_path / "x.csv"
        write_matrix_csv(path, m)
        tracemalloc.start()
        try:
            read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * m.nbytes


class TestRenderReport:
    def test_empty_containers(self):
        text = render_report({"d": {}, "l": [], "t": ()})
        assert text == '{\n  "d": {},\n  "l": [],\n  "t": []\n}\n'
        assert json.loads(text) == {"d": {}, "l": [], "t": []}

    def test_valid_json_and_key_order(self):
        report = {
            "schema": "x",
            "b_second": 2,
            "a_first": tagged(0.5, "closed-form"),
            "flag": True,
            "nothing": None,
            "seq": [1, 2.5, "s"],
        }
        text = render_report(report)
        parsed = json.loads(text)
        assert list(parsed.keys()) == ["schema", "b_second", "a_first", "flag", "nothing", "seq"]
        assert parsed["a_first"] == {"value": 0.5, "path": "closed-form"}
        assert text.endswith("\n")

    def test_byte_identical_rendering(self):
        report = {"results": {"v": tagged(1.0 / 7.0, "mc")}}
        assert render_report(report) == render_report(report)

    def test_float_precision_in_output(self):
        text = render_report({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_array_values(self):
        text = render_report({"s": tagged(np.array([1.5, 2.5]), "closed-form")})
        parsed = json.loads(text)
        assert parsed["s"]["value"] == [1.5, 2.5]

    def test_unknown_path_rejected(self):
        for value in (1.0, None):
            with pytest.raises(ValueError):
                tagged(value, "guesswork")

    def test_none_stays_none(self):
        assert tagged(None, "bound") is None

    def test_unrenderable_type_rejected(self):
        with pytest.raises(TypeError):
            render_report({"bad": object()})
