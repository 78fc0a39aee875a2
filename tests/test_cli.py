import io
import json
import subprocess
import sys

import jsonschema
import pytest

import latreg.cli
import latreg.estimators
import latreg.lattice
from latreg import REPORT_SCHEMA
from latreg.cli import main

D1_CSV = "x,y\n1,2\n2,3\n3,5\n"
D2_CSV = "x,y,z\n1,2,1\n2,3,2\n3,5,2\n"


@pytest.fixture
def d1_path(tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text(D1_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def d2_path(tmp_path):
    path = tmp_path / "d2.csv"
    path.write_text(D2_CSV, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasures:
    def test_text_fixture_values(self, capsys, d1_path):
        code, out, _ = run(capsys, "measures", "--input", d1_path,
                           "--columns", "x,y")
        assert code == 0
        for line in ("delta_11xx = 6.0", "delta_11yy = 14.0",
                     "delta_11xy = 9.0", "delta_1yxx = 2.0",
                     "delta_1xyy = -2.0", "delta_xxyy = 3.0"):
            assert line in out

    def test_json_matches_text(self, capsys, d1_path):
        _, text_out, _ = run(capsys, "measures", "--input", d1_path,
                             "--columns", "x,y")
        _, json_out, _ = run(capsys, "measures", "--input", d1_path,
                             "--columns", "x,y", "--format", "json")
        payload = json.loads(json_out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        for name, value in payload["measures"].items():
            assert f"{name} = {repr(float(value))}" in text_out

    def test_three_columns_emit_form1(self, capsys, d2_path):
        code, out, _ = run(capsys, "measures", "--input", d2_path,
                           "--columns", "x,y,z", "--format", "json")
        assert code == 0
        assert json.loads(out)["measures"]["delta_xxyyzz"] == 1.0

    def test_constant_columns(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("x,y\n2,7\n2,7\n", encoding="utf-8")
        code, out, _ = run(capsys, "measures", "--input", str(path),
                           "--columns", "x,y", "--format", "json")
        assert code == 0
        measures = json.loads(out)["measures"]
        for key in ("delta_11xx", "delta_11yy", "delta_11xy", "delta_xxyy"):
            assert measures[key] == 0.0

    def test_bad_column_count(self, capsys, d1_path):
        code, _, err = run(capsys, "measures", "--input", d1_path,
                           "--columns", "x")
        assert code == 2
        assert "columns" in err

    def test_missing_column_is_data_error(self, capsys, d1_path):
        code, _, err = run(capsys, "measures", "--input", d1_path,
                           "--columns", "x,w")
        assert code == 3
        assert "w" in err


class TestFit:
    def test_implicit_model(self, capsys, d1_path):
        code, out, _ = run(capsys, "fit", "--input", d1_path,
                           "--model", "1 = x + y", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        row = payload["rotations"][0]
        assert row["response"] == "1"
        assert row["coefficients"] == pytest.approx([-2.0 / 3.0, 2.0 / 3.0],
                                                    rel=1e-12)
        assert payload["measures"]["delta_xxyy"] == 3.0

    def test_explicit_model(self, capsys, d1_path):
        code, out, _ = run(capsys, "fit", "--input", d1_path,
                           "--model", "y = 1 + x", "--format", "json")
        assert code == 0
        row = json.loads(out)["rotations"][0]
        assert row["coefficients"] == pytest.approx([1.0 / 3.0, 1.5], rel=1e-12)
        assert row["denominator"] == 6.0

    def test_interaction_model(self, capsys, d1_path):
        code, out, _ = run(capsys, "fit", "--input", d1_path,
                           "--model", "1 = x + y + x*y", "--format", "json")
        assert code == 0
        row = json.loads(out)["rotations"][0]
        assert row["coefficients"] == pytest.approx(
            [-1.0 / 7.0, 5.0 / 7.0, -1.0 / 7.0], rel=1e-12)

    def test_parse_error_carries_position(self, capsys, d1_path):
        code, _, err = run(capsys, "fit", "--input", d1_path,
                           "--model", "1 = x ? y")
        assert code == 2
        assert "position 6" in err
        assert "      ^" in err  # caret under the offending character

    def test_unknown_column_exit_code(self, capsys, d1_path):
        code, _, err = run(capsys, "fit", "--input", d1_path,
                           "--model", "1 = x + w")
        assert code == 3

    def test_singular_system_exit_code(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n", encoding="utf-8")
        code, _, err = run(capsys, "fit", "--input", str(path),
                           "--model", "1 = x + y")
        assert code == 4
        assert "singular" in err

    def test_duplicate_regressor_usage_error(self, capsys, d1_path):
        code, _, _ = run(capsys, "fit", "--input", d1_path,
                         "--model", "1 = x + x")
        assert code == 2

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(D1_CSV))
        code, out, _ = run(capsys, "fit", "--input", "-",
                           "--model", "y = 1 + x", "--format", "json")
        assert code == 0
        assert json.loads(out)["rotations"][0]["denominator"] == 6.0


class TestRotate:
    def test_two_column_sweep(self, capsys, d1_path):
        code, out, _ = run(capsys, "rotate", "--input", d1_path,
                           "--columns", "x,y", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert [r["response"] for r in payload["rotations"]] == ["x", "y", "1"]
        by_response = {r["response"]: r for r in payload["rotations"]}
        assert by_response["y"]["coefficients"] == pytest.approx(
            [1.0 / 3.0, 1.5], rel=1e-12)
        assert by_response["x"]["coefficients"] == pytest.approx(
            [-1.0 / 7.0, 9.0 / 14.0], rel=1e-12)
        assert by_response["1"]["coefficients"] == pytest.approx(
            [-2.0 / 3.0, 2.0 / 3.0], rel=1e-12)

    def test_three_column_sweep(self, capsys, d2_path):
        code, out, _ = run(capsys, "rotate", "--input", d2_path,
                           "--columns", "x,y,z", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rotations"]) == 4
        unity_row = payload["rotations"][-1]
        assert unity_row["coefficients"] == pytest.approx([-2.0, 1.0, 1.0],
                                                          rel=1e-12)

    def test_collinear_pair_flagged(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n", encoding="utf-8")
        code, out, _ = run(capsys, "rotate", "--input", str(path),
                           "--columns", "x,y", "--format", "json")
        assert code == 0  # some rotations succeeded
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        by_response = {r["response"]: r for r in payload["rotations"]}
        assert by_response["1"]["flag"] == "singular"
        assert by_response["y"]["flag"] == "well-posed"


class TestOneLatticePerRequest:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts build_lattice calls through every module that binds it."""
        calls = []
        original = latreg.lattice.build_lattice

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (latreg.lattice, latreg.estimators, latreg.cli):
            monkeypatch.setattr(module, "build_lattice", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ("rotate", "--columns", "x,y"),
        ("rotate", "--columns", "x,y,z"),
        ("fit", "--model", "y = 1 + x"),
        ("fit", "--model", "1 = x + y"),
        ("fit", "--model", "1 = x + y + x*y"),
        ("fit", "--model", "1 = x + y + z"),
        ("measures", "--columns", "x,y,z"),
    ])
    def test_single_build(self, capsys, d2_path, builds, argv):
        code, _, _ = run(capsys, *argv, "--input", d2_path, "--format", "json")
        assert code == 0
        assert len(builds) == 1


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--seed", "7", "--n", "100", "--trials", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "simulate", "--seed", "7", "--n", "50",
                           "--trials", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["simulation"]["seed"] == 7

    def test_invalid_parameters_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--seed", "1", "--n", "1")
        assert code == 2
        code, _, _ = run(capsys, "simulate", "--seed", "1", "--sigma", "0")
        assert code == 2
        code, _, _ = run(capsys, "simulate", "--seed", "1", "--trials", "0")
        assert code == 2

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])
        assert excinfo.value.code == 2


class TestMeans:
    def test_fixture_values(self, capsys, d1_path):
        code, out, _ = run(capsys, "means", "--input", d1_path,
                           "--columns", "x,y", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        means = payload["means"]
        assert means["standard"]["x"] == 2.0
        assert means["self_weighting"]["y"] == pytest.approx(3.8, rel=1e-15)
        assert means["randomly_weighted"]["x"]["y"] == pytest.approx(2.3,
                                                                     rel=1e-15)

    def test_zero_weight_data_error(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("x\n1\n-1\n", encoding="utf-8")
        code, _, err = run(capsys, "means", "--input", str(path),
                           "--columns", "x")
        assert code == 3
        assert "zero" in err


class TestContract:
    def test_byte_identical_reruns(self, capsys, d1_path):
        for argv in (
            ("measures", "--input", d1_path, "--columns", "x,y"),
            ("measures", "--input", d1_path, "--columns", "x,y",
             "--format", "json"),
            ("fit", "--input", d1_path, "--model", "1 = x + y",
             "--format", "json"),
            ("rotate", "--input", d1_path, "--columns", "x,y"),
            ("simulate", "--seed", "3", "--n", "50", "--trials", "2"),
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first.encode("utf-8") == second.encode("utf-8")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus-command"])
        assert excinfo.value.code == 2

    def test_console_entry_point(self, d1_path):
        result = subprocess.run(
            [sys.executable, "-m", "latreg", "rotate", "--input", d1_path,
             "--columns", "x,y", "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["rotations"]) == 3

    def test_subprocess_singular_exit(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "latreg", "fit", "--input", str(path),
             "--model", "1 = x + y"],
            capture_output=True, text=True)
        assert result.returncode == 4
