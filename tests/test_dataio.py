import io
import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest

from latreg import (CsvFormatError, Dataset, Direction, EmptyDataError,
                    NonFiniteResultError, REPORT_SCHEMA, RotationResult, UNITY,
                    fit_all_rotations, measure_catalog, read_csv, read_lattice,
                    render, write_csv, write_report)

D1_CSV = "x,y\n1,2\n2,3\n3,5\n"


def parse(text, selection):
    return read_csv(io.StringIO(text), selection)


class TestReadCsv:
    def test_basic_parse(self):
        data = parse(D1_CSV, ("x", "y"))
        assert data.n == 3
        assert data.column("x").tolist() == [1.0, 2.0, 3.0]
        assert data.column("y").tolist() == [2.0, 3.0, 5.0]

    def test_selection_order_kept(self):
        data = parse(D1_CSV, ("y", "x"))
        assert data.names == ("y", "x")

    def test_unselected_columns_ignored(self):
        data = parse("x,junk,y\n1,apple,2\n", ("x", "y"))
        assert data.names == ("x", "y")

    def test_scientific_notation_and_signs(self):
        data = parse("x\n1e3\n-2.5E-2\n+0.5\n", ("x",))
        assert data.column("x").tolist() == [1000.0, -0.025, 0.5]

    def test_quoted_fields(self):
        data = parse('x,y\n"1","2"\n"2",3\n', ("x", "y"))
        assert data.n == 2

    def test_missing_header_name(self):
        with pytest.raises(CsvFormatError) as excinfo:
            parse("a,b\n1,2\n", ("x",))
        assert excinfo.value.column == "x"

    def test_non_numeric_cell_reports_row_and_column(self):
        with pytest.raises(CsvFormatError) as excinfo:
            parse("x,y\n1,apple\n", ("x", "y"))
        assert excinfo.value.row == 1
        assert excinfo.value.column == "y"
        assert "apple" in str(excinfo.value)

    def test_non_finite_cell_rejected(self):
        with pytest.raises(CsvFormatError):
            parse("x\nnan\n", ("x",))
        with pytest.raises(CsvFormatError):
            parse("x\ninf\n", ("x",))

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "\uff11"])
    def test_non_decimal_spellings_rejected(self, cell):
        # float() reads each of these as a number: 10.0, 12.0 and 1.0.
        with pytest.raises(CsvFormatError) as excinfo:
            parse(f"x,y\n1,2\n3,{cell}\n", ("x", "y"))
        assert excinfo.value.row == 2
        assert excinfo.value.column == "y"

    def test_surrounding_whitespace_accepted(self):
        data = parse("x,y\n 2,3 \n", ("x", "y"))
        assert data.column("x").tolist() == [2.0]
        assert data.column("y").tolist() == [3.0]

    def test_ragged_row(self):
        with pytest.raises(CsvFormatError) as excinfo:
            parse("x,y\n1,2\n3\n", ("x", "y"))
        assert excinfo.value.row == 2

    def test_empty_data_section(self):
        with pytest.raises(CsvFormatError):
            parse("x,y\n", ("x", "y"))

    def test_no_header(self):
        with pytest.raises(CsvFormatError):
            parse("", ("x",))

    @pytest.mark.parametrize("text", [
        "x,x,y\n1,2,3\n4,5,6\n",
        '"x",x,y\n"1",2,3\n4,5,6\n',
        "x,x,y\n1,apple,3\n",
    ], ids=["plain", "quoted", "bad-cell"])
    def test_selected_name_twice_in_header(self, text):
        # Refused before any data row is read, so the bad cell is not.
        with pytest.raises(CsvFormatError) as excinfo:
            parse(text, ("x", "y"))
        assert excinfo.value.column == "x"
        assert excinfo.value.row is None
        assert "'x'" in str(excinfo.value)

    def test_unselected_name_twice_in_header(self):
        data = parse("x,x,y\n1,2,3\n", ("y",))
        assert data.column("y").tolist() == [3.0]

    def test_path_input(self, tmp_path):
        target = tmp_path / "d1.csv"
        target.write_text(D1_CSV, encoding="utf-8")
        data = read_csv(target, ("x", "y"))
        assert data.n == 3


    def test_table_held_once(self, tmp_path):
        # The Dataset holds read_csv's own table: the peak of traced
        # memory stays well under two copies of the float data.
        rows = 200_000
        values = np.round(np.random.default_rng(3).normal(0, 100, (rows, 3)), 6)
        path = tmp_path / "big.csv"
        with open(path, "w") as out:
            out.write("x,y,z\n")
            np.savetxt(out, values, delimiter=",", fmt="%.6f")
        tracemalloc.start()
        try:
            data = read_csv(path, ["x", "y", "z"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.n == rows
        assert data.column("z").tolist() == values[:, 2].tolist()
        assert peak <= 1.7 * values.nbytes


class TestColumnNames:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            parse(D1_CSV, ("x", "x"))

    @pytest.mark.parametrize("names", [("x", "x"), ("x", "y", "x"),
                                       ("y", "x", "x")])
    def test_repeated_name_is_named(self, names):
        with pytest.raises(ValueError,
                           match="^column 'x' is selected more than once$"):
            parse(D1_CSV, names)

    def test_bare_string_refused(self):
        # "xy" would otherwise select the columns x and y.
        with pytest.raises(TypeError):
            parse("x,y,xy\n1,2,2\n", "xy")

    @pytest.mark.parametrize("read", [
        lambda source: read_csv(source, []),
        lambda source: read_lattice(source, [], [UNITY])],
        ids=["read_csv", "read_lattice"])
    def test_empty_selection_refused(self, tmp_path, read):
        # The error Dataset({}) gives, before the source is opened: a
        # missing path gives no FileNotFoundError.
        for source in (io.StringIO(D1_CSV), tmp_path / "absent.csv"):
            with pytest.raises(EmptyDataError,
                               match="^dataset has no columns$"):
                read(source)


class TestCsvRoundTrip:
    def test_values_preserved_exactly(self):
        rng = np.random.default_rng(8)
        original = Dataset({"a": rng.normal(0, 1e4, 37) * 10.0 ** rng.integers(-12, 12, 37),
                            "b": rng.uniform(-1, 1, 37)})
        text = write_csv(original).decode("utf-8")
        parsed = read_csv(io.StringIO(text), ("a", "b"))
        assert parsed.column("a").tolist() == original.column("a").tolist()
        assert parsed.column("b").tolist() == original.column("b").tolist()


@pytest.fixture
def d1_rotations(d1):
    return fit_all_rotations(
        d1, [UNITY, Direction("x"), Direction("y")])


class TestWriteReport:
    def test_json_layout(self, d1, d1_rotations):
        measures = measure_catalog(d1, ["x", "y"])
        payload = json.loads(write_report(d1_rotations, measures,
                                          format="json"))
        assert payload["measures"]["delta_xxyy"] == 3.0
        unity_row = [r for r in payload["rotations"] if r["response"] == "1"][0]
        assert unity_row["coefficients"] == pytest.approx(
            [-2.0 / 3.0, 2.0 / 3.0], rel=1e-15)
        assert unity_row["denominator"] == 3.0
        assert unity_row["flag"] == "well-posed"

    def test_json_round_trip_bit_exact(self, d1, d1_rotations):
        measures = measure_catalog(d1, ["x", "y"])
        blob = write_report(d1_rotations, measures, format="json")
        payload = json.loads(blob)
        for rotation, entry in zip(d1_rotations, payload["rotations"]):
            assert entry["coefficients"] == list(rotation.fit.coefficients)
            assert entry["denominator"] == rotation.fit.denominator
            assert entry["sse"] == rotation.fit.sse
        for key, value in measures.items():
            assert payload["measures"][key] == value

    def test_schema_validation(self, d1, d1_rotations):
        measures = measure_catalog(d1, ["x", "y"])
        payload = json.loads(write_report(d1_rotations, measures,
                                          format="json"))
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_failed_rotation_entry(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        rotations = fit_all_rotations(
            data, [UNITY, Direction("x"), Direction("y")])
        payload = json.loads(write_report(rotations, {}, format="json"))
        jsonschema.validate(payload, REPORT_SCHEMA)
        unity_row = [r for r in payload["rotations"] if r["response"] == "1"][0]
        assert unity_row["flag"] == "singular"
        assert "singular" in unity_row["error"]

    def test_text_carries_same_numbers(self, d1, d1_rotations):
        measures = measure_catalog(d1, ["x", "y"])
        text = write_report(d1_rotations, measures, format="text").decode("utf-8")
        for rotation in d1_rotations:
            for c in rotation.fit.coefficients:
                assert repr(float(c)) in text
            assert repr(float(rotation.fit.sse)) in text
        assert "delta_xxyy = 3.0" in text

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            write_report([], {}, format="json")

    def test_unknown_format_rejected(self, d1_rotations):
        with pytest.raises(ValueError):
            write_report(d1_rotations, {}, format="yaml")


class TestRender:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_leaf_is_named(self, fmt, value):
        payload = {"simulation": {"seed": 1, "x": value}}
        with pytest.raises(NonFiniteResultError) as excinfo:
            render(payload, fmt)
        assert str(excinfo.value) == (f"report value simulation[x] is "
                                      f"{value!r}, not a finite number")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="^unknown report format 'yaml'$"):
            render({"simulation": {"x": 1.0}}, "yaml")
