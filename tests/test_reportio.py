"""CSV matrix handling and deterministic report rendering."""

import json

import numpy as np
import pytest

from effdim.errors import CsvFormatError, NumericalError
from effdim.reportio import (
    format_float,
    matrix_to_csv,
    parse_matrix_csv,
    read_matrix_csv,
    render_report,
    tagged,
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
    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        again = parse_matrix_csv(matrix_to_csv(m))
        np.testing.assert_array_equal(again, m)

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


class TestRenderReport:
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
        with pytest.raises(ValueError):
            tagged(1.0, "guesswork")

    def test_unrenderable_type_rejected(self):
        with pytest.raises(TypeError):
            render_report({"bad": object()})
