import io
import json
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

import latreg.cli
import latreg.dataio
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


class TestColumnRefusals:
    @pytest.mark.parametrize("command", ["rotate", "measures"])
    def test_column_named_like_unity_is_usage_error(self, capsys, tmp_path,
                                                    command):
        path = tmp_path / "one.csv"
        path.write_text("1,x\n1,2\n2,3\n4,5\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--input", str(path),
                             "--columns", "1,x")
        assert code == 2
        assert out == ""
        assert "'v_11'" in err

    @pytest.mark.parametrize("command", ["rotate", "measures", "means"])
    def test_selected_name_twice_in_header_is_data_error(self, capsys,
                                                         tmp_path, command):
        path = tmp_path / "dup.csv"
        path.write_text("x,x,y\n1,2,3\n4,5,6\n7,8,10\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--input", str(path),
                             "--columns", "x,y")
        assert code == 3
        assert out == ""
        assert err == "error: header names column 'x' more than once\n"

    @pytest.mark.parametrize("command", ["rotate", "measures", "means"])
    def test_column_selected_twice_is_usage_error(self, capsys, d1_path,
                                                  command):
        code, out, err = run(capsys, command, "--input", d1_path,
                             "--columns", "x,x")
        assert code == 2
        assert out == ""
        assert err == "error: column 'x' is selected more than once\n"


class TestNonFiniteResults:
    """Sums of products near 1e400 overflow; no report may print them."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("rotate", "--columns", "x,y"),
        ("fit", "--model", "y = 1 + x"),
        ("measures", "--columns", "x,y"),
        ("means", "--columns", "x,y"),
    ])
    def test_overflow_is_data_error(self, capsys, tmp_path, argv, fmt):
        # Every command reads a value outside the float range: V(x, x)
        # and V(y, y) near 1e401, and the self-weighting mean of y,
        # V(y, y) / V(1, y) with V(1, y) = 1e-200.
        path = tmp_path / "big.csv"
        path.write_text("x,y\n1e200,2e200\n2e200,-2e200\n3e200,1e-200\n",
                        encoding="utf-8")
        code, out, err = run(capsys, *argv, "--input", str(path),
                             "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert err.endswith(" is outside the float range\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, named", [
        (("rotate", "--columns", "x,y"), "vertex V(x, y)"),
        (("fit", "--model", "y = 1 + x"), "vertex V(y, y)"),
        (("measures", "--columns", "x,y"), "vertex V(x, y)"),
        pytest.param(("means", "--columns", "x,y"), "mean V(y, y) / V(1, y)",
                     id="argv3-mean of y"),
    ])
    def test_mixed_sign_overflow_is_data_error(self, capsys, tmp_path, argv,
                                               named, fmt):
        # Products of both signs.  The first value read outside the float
        # range is named: rotate and measures read V(x, x) = 1.1e301 and
        # then V(x, y) = 2e350; fit lists y first and reads V(y, y); means
        # reads V(y, y) / V(1, y), where V(1, y) = 1e-100 exactly.
        path = tmp_path / "mixed.csv"
        path.write_text("x,y\n1e150,1e200\n-1e150,-1e200\n3e150,1e-100\n",
                        encoding="utf-8")
        code, out, err = run(capsys, *argv, "--input", str(path),
                             "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == f"error: {named} is outside the float range\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_means_of_huge_values_are_exact(self, capsys, tmp_path, fmt):
        # V(x, x) and V(y, y) are near 1e401, but every mean is a ratio
        # inside the float range: the exact ratio, rounded once.
        path = tmp_path / "big.csv"
        path.write_text("x,y\n1e200,2e200\n2e200,3.5e200\n3e200,6e200\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "means", "--columns", "x,y",
                           "--input", str(path), "--format", "json")
        assert code == 0
        means = json.loads(out)["means"]
        x = [Fraction(v) for v in (1e200, 2e200, 3e200)]
        y = [Fraction(v) for v in (2e200, 3.5e200, 6e200)]
        assert means["standard"]["x"] == float(sum(x) / 3)
        assert means["self_weighting"]["x"] == float(
            sum(v * v for v in x) / sum(x))
        assert means["randomly_weighted"]["x"]["y"] == float(
            sum(u * v for u, v in zip(x, y)) / sum(y))

    @pytest.mark.parametrize("argv", [
        ("rotate", "--columns", "x,y"),
        ("fit", "--model", "y = 1 + x"),
        ("measures", "--columns", "x,y"),
        ("means", "--columns", "x,y"),
    ])
    def test_stderr_is_one_error_line(self, tmp_path, argv):
        # No numpy overflow warning may precede the error line.
        path = tmp_path / "mixed.csv"
        path.write_text("x,y\n1e150,1e200\n-1e150,-1e200\n3e150,1e-100\n",
                        encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "latreg", *argv, "--input", str(path)],
            capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert result.stderr.endswith("\n")

    def test_intermediate_overflow_is_data_error(self, capsys, tmp_path):
        # Finite values whose exact sum V(1, x) = 3e308 + 1 is out of range.
        path = tmp_path / "edge.csv"
        path.write_text("x,y\n1.5e308,1\n1.5e308,2\n1,3\n", encoding="utf-8")
        code, out, err = run(capsys, "rotate", "--columns", "x,y",
                             "--input", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: vertex V(1, x) is outside the float range")


REQUESTS = [
    ("rotate", "--columns", "x,y"),
    ("rotate", "--columns", "x,y,z"),
    ("fit", "--model", "y = 1 + x"),
    ("fit", "--model", "1 = x + y"),
    ("fit", "--model", "1 = x + y + x*y"),
    ("fit", "--model", "1 = x + y + z"),
    ("measures", "--columns", "x,y,z"),
    ("means", "--columns", "x,y,z"),
]


class TestOneLatticePerRequest:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the lattices folded from data rows, through
        build_lattice or read_lattice alike."""
        calls = []
        original = latreg.lattice._fold

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(latreg.lattice, "_fold", counting)
        return calls

    @pytest.fixture
    def reads(self, monkeypatch, builds):
        """(source, argument, inside) for every block of rows parsed from
        the CSV (argument: its first row) and every Dataset.column and
        Dataset.evaluate call, ``inside`` telling whether a fold was
        running."""
        log = []
        depth = [0]
        counting = latreg.lattice._fold

        def nested(*args, **kwargs):
            depth[0] += 1
            try:
                return counting(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(latreg.lattice, "_fold", nested)
        original_blocks = latreg.dataio._blocks

        def blocks(*args, **kwargs):
            for block, first in original_blocks(*args, **kwargs):
                log.append(("block", first, depth[0] > 0))
                yield block, first

        monkeypatch.setattr(latreg.dataio, "_blocks", blocks)
        for method in ("column", "evaluate"):
            original = getattr(latreg.lattice.Dataset, method)

            def spy(data, arg, original=original, method=method):
                log.append((method, arg, depth[0] > 0))
                return original(data, arg)

            monkeypatch.setattr(latreg.lattice.Dataset, method, spy)
        return log

    @pytest.mark.parametrize("argv", REQUESTS)
    def test_single_build(self, capsys, d2_path, builds, argv):
        code, _, _ = run(capsys, *argv, "--input", d2_path, "--format", "json")
        assert code == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", REQUESTS)
    def test_one_data_pass(self, capsys, d2_path, builds, reads, argv):
        # Each block of rows is parsed once, inside the one fold, and no
        # Dataset holds the rows; fits, catalog and means read only the
        # lattice.
        code, _, _ = run(capsys, *argv, "--input", d2_path, "--format", "json")
        assert code == 0
        assert len(builds) == 1
        assert reads and all(inside for _, _, inside in reads)
        assert {source for source, _, _ in reads} == {"block"}
        firsts = [first for _, first, _ in reads]
        assert len(firsts) == len(set(firsts))


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

    @pytest.mark.parametrize("option, value", [
        ("--sigma", "nan"), ("--sigma", "inf"), ("--mu", "inf"),
        ("--mu", "nan")])
    def test_non_finite_parameter_is_named(self, capsys, option, value):
        code, out, err = run(capsys, "simulate", "--seed", "1", "--trials",
                             "1", option, value)
        assert code == 2
        assert out == ""
        assert err == (f"error: {option[2:]} must be finite, "
                       f"got {float(value)!r}\n")

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])
        assert excinfo.value.code == 2

    def test_overflowing_draws_name_the_parameters(self, capsys):
        code, out, err = run(capsys, "simulate", "--seed", "1", "--trials",
                             "1", "--n", "10", "--mu", "1.7e308",
                             "--sigma", "1e308")
        assert code == 2
        assert out == ""
        assert err == ("error: draws from Normal(mu=1.7e+308, sigma=1e+308) "
                       "overflow the float range\n")

    @pytest.mark.parametrize("argv, mu", [
        (("--mu", "-1e3"), -1e3), (("--mu", "-1.5E-2"), -1.5e-2),
        (("--mu", "-5"), -5.0), (("--mu", "-.5"), -0.5),
        (("--mu=-1e3",), -1e3)])
    def test_negative_mu_is_a_value(self, capsys, argv, mu):
        code, out, _ = run(capsys, "simulate", "--seed", "1", "--n", "10",
                           "--trials", "1", "--format", "json", *argv)
        assert code == 0
        assert json.loads(out)["simulation"]["mu"] == mu

    def test_negative_infinity_is_named(self, capsys):
        code, out, err = run(capsys, "simulate", "--seed", "1", "--mu", "-inf")
        assert code == 2
        assert out == ""
        assert err == "error: mu must be finite, got -inf\n"


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

    def test_missing_input_file_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.csv")
        code, out, err = run(capsys, "rotate", "--input", missing,
                             "--columns", "x,y")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert missing in err

    def test_console_entry_point(self, d1_path):
        result = subprocess.run(
            [sys.executable, "-m", "latreg", "rotate", "--input", d1_path,
             "--columns", "x,y", "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["rotations"]) == 3

    def test_stdin_decoded_like_a_path(self, tmp_path):
        # A UTF-8 BOM and CRLF line ends, through stdin and through a path.
        raw = "\ufeffx,y\r\n1,2\r\n2,3\r\n3,5\r\n".encode("utf-8")
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        outputs = []
        for source, stdin in ((str(path), None), ("-", raw)):
            result = subprocess.run(
                [sys.executable, "-m", "latreg", "rotate", "--input", source,
                 "--columns", "x,y", "--format", "json"],
                input=stdin, capture_output=True)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_subprocess_singular_exit(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "latreg", "fit", "--input", str(path),
             "--model", "1 = x + y"],
            capture_output=True, text=True)
        assert result.returncode == 4


D1_MEASURES_TEXT = """\
measures:
  v_11 = 3.0
  v_1x = 6.0
  v_1y = 10.0
  v_xx = 14.0
  v_xy = 23.0
  v_yy = 38.0
  delta_11xx = 6.0
  delta_11yy = 14.0
  delta_11xy = 9.0
  delta_1yxx = 2.0
  delta_1xyy = -2.0
  delta_xxyy = 3.0
  sigma_11xx = 0.6666666666666666
  sigma_11yy = 1.5555555555555556
  sigma_11xy = 1.0
  sigma_1yxx = 0.2222222222222222
  sigma_1xyy = -0.2222222222222222
  sigma_xxyy = 0.3333333333333333
"""

D2_MEASURES_TEXT = """\
measures:
  v_11 = 3.0
  v_1x = 6.0
  v_1y = 10.0
  v_1z = 5.0
  v_xx = 14.0
  v_xy = 23.0
  v_xz = 11.0
  v_yy = 38.0
  v_yz = 18.0
  v_zz = 9.0
  delta_11xx = 6.0
  delta_11yy = 14.0
  delta_11zz = 2.0
  delta_11xy = 9.0
  delta_11xz = 3.0
  delta_11yz = 4.0
  delta_1yxx = 2.0
  delta_1xyy = -2.0
  delta_1zxx = 4.0
  delta_1xzz = -1.0
  delta_1zyy = 10.0
  delta_1yzz = 0.0
  delta_xxyy = 3.0
  delta_xxzz = 5.0
  delta_yyzz = 18.0
  delta_xxyyzz = 1.0
  sigma_11xx = 0.6666666666666666
  sigma_11yy = 1.5555555555555556
  sigma_11zz = 0.2222222222222222
  sigma_11xy = 1.0
  sigma_11xz = 0.3333333333333333
  sigma_11yz = 0.4444444444444444
  sigma_1yxx = 0.2222222222222222
  sigma_1xyy = -0.2222222222222222
  sigma_1zxx = 0.4444444444444444
  sigma_1xzz = -0.1111111111111111
  sigma_1zyy = 1.1111111111111112
  sigma_1yzz = 0.0
  sigma_xxyy = 0.3333333333333333
  sigma_xxzz = 0.5555555555555556
  sigma_yyzz = 2.0
"""

# The catalog of "y = 1 + x" lists its columns in model order, y first.
D1_YX_MEASURES_TEXT = """\
measures:
  v_11 = 3.0
  v_1y = 10.0
  v_1x = 6.0
  v_yy = 38.0
  v_yx = 23.0
  v_xx = 14.0
  delta_11yy = 14.0
  delta_11xx = 6.0
  delta_11yx = 9.0
  delta_1xyy = -2.0
  delta_1yxx = 2.0
  delta_yyxx = 3.0
  sigma_11yy = 1.5555555555555556
  sigma_11xx = 0.6666666666666666
  sigma_11yx = 1.0
  sigma_1xyy = -0.2222222222222222
  sigma_1yxx = 0.2222222222222222
  sigma_yyxx = 0.3333333333333333
"""

GOLDEN_TEXT = {
    "measures-d1": (("measures", "--columns", "x,y"), "d1", D1_MEASURES_TEXT),
    "measures-d2": (("measures", "--columns", "x,y,z"), "d2",
                    D2_MEASURES_TEXT),
    "means-d1": (("means", "--columns", "x,y"), "d1", """\
means:
  standard[x] = 2.0
  standard[y] = 3.3333333333333335
  self_weighting[x] = 2.3333333333333335
  self_weighting[y] = 3.8
  randomly_weighted[x][y] = 2.3
  randomly_weighted[y][x] = 3.8333333333333335
"""),
    "fit-explicit": (("fit", "--model", "y = 1 + x"), "d1", """\
rotations:
  response  coefficients             denominator  numerators  sse                  flag
  y         0.3333333333333333, 1.5  6.0          2.0, 9.0    0.16666666666666666  well-posed
""" + D1_YX_MEASURES_TEXT),
    "fit-implicit": (("fit", "--model", "1 = x + y"), "d1", """\
rotations:
  response  coefficients                             denominator  numerators  sse                 flag
  1         -0.6666666666666666, 0.6666666666666666  3.0          -2.0, 2.0   0.3333333333333333  well-posed
""" + D1_MEASURES_TEXT),
    "fit-interaction": (("fit", "--model", "1 = x + y + x*y"), "d1", """\
rotations:
  response  coefficients                                                    denominator  numerators        sse                    flag
  1         -0.14285714285714285, 0.7142857142857143, -0.14285714285714285  49.0         -7.0, 35.0, -7.0  6.471124613141112e-32  well-posed
""" + D1_MEASURES_TEXT),
    # x enters only as x*x, so there is no catalog and no measures block.
    "fit-no-catalog": (("fit", "--model", "y = 1 + x*x"), "d1", """\
rotations:
  response  coefficients                             denominator  numerators   sse                  flag
  y         1.5714285714285714, 0.37755102040816324  98.0         154.0, 37.0  0.01020408163265306  well-posed
"""),
    "rotate-d1": (("rotate", "--columns", "x,y"), "d1", """\
rotations:
  response  coefficients                              denominator  numerators  sse                  flag
  x         -0.14285714285714285, 0.6428571428571429  14.0         -2.0, 9.0   0.07142857142857142  well-posed
  y         0.3333333333333333, 1.5                   6.0          2.0, 9.0    0.16666666666666666  well-posed
  1         -0.6666666666666666, 0.6666666666666666   3.0          -2.0, 2.0   0.3333333333333333   well-posed
""" + D1_MEASURES_TEXT),
    "rotate-d2": (("rotate", "--columns", "x,y,z"), "d2", """\
rotations:
  response  coefficients    denominator  numerators      sse  flag
  x         -0.5, 0.5, 0.5  4.0          -2.0, 2.0, 2.0  0.0  well-posed
  y         1.0, 2.0, -1.0  1.0          1.0, 2.0, -1.0  0.0  well-posed
  z         1.0, 2.0, -1.0  1.0          1.0, 2.0, -1.0  0.0  well-posed
  1         -2.0, 1.0, 1.0  1.0          -2.0, 1.0, 1.0  0.0  well-posed
""" + D2_MEASURES_TEXT),
    "rotate-singular-row": (("rotate", "--columns", "x,y"), "dup", """\
rotations:
  response  coefficients                                                 denominator  numerators  sse  flag
  x         0.0, 1.0                                                     6.0          0.0, 6.0    0.0  well-posed
  y         0.0, 1.0                                                     6.0          0.0, 6.0    0.0  well-posed
  1         singular normal equations for '1 = x + y' (determinant 0.0)  -            -           -    singular
measures:
  v_11 = 3.0
  v_1x = 6.0
  v_1y = 6.0
  v_xx = 14.0
  v_xy = 14.0
  v_yy = 14.0
  delta_11xx = 6.0
  delta_11yy = 6.0
  delta_11xy = 6.0
  delta_1yxx = 0.0
  delta_1xyy = 0.0
  delta_xxyy = 0.0
  sigma_11xx = 0.6666666666666666
  sigma_11yy = 0.6666666666666666
  sigma_11xy = 0.6666666666666666
  sigma_1yxx = 0.0
  sigma_1xyy = 0.0
  sigma_xxyy = 0.0
"""),
    "simulate": (("simulate", "--seed", "7", "--n", "100", "--trials", "5"),
                 None, """\
simulation:
  seed = 7
  n = 100
  mu = 100.0
  sigma = 1.0
  trials = 5
  random_weight_dev_max = 0.05116728552449956
  random_weight_dev_mean = 0.031795607323346076
  self_weight_dev_max = 0.01058891765943315
  self_weight_dev_mean = 0.008947744858880924
"""),
}

INPUTS = {"d1": D1_CSV, "d2": D2_CSV, "dup": "x,y\n1,1\n2,2\n3,3\n"}


class TestTextGolden:
    """The text layout, byte for byte, on the desk fixtures."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_TEXT))
    def test_stdout(self, capsys, tmp_path, case):
        argv, source, expected = GOLDEN_TEXT[case]
        if source is not None:
            path = tmp_path / f"{source}.csv"
            path.write_text(INPUTS[source], encoding="utf-8")
            argv = (*argv, "--input", str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_empty_measures_kept_in_json(self, capsys, d1_path):
        code, out, _ = run(capsys, "fit", "--input", d1_path,
                           "--model", "y = 1 + x*x", "--format", "json")
        assert code == 0
        assert out.startswith('{\n  "measures": {},\n  "rotations": [\n')
