"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line for every criterion.
"""

import io
import json
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

from latreg import (Dataset, DeterminantKind, Direction, FormulaError,
                    REPORT_SCHEMA, SingularSystemError, UNITY, build_lattice,
                    det2, det3_general, fit, fit_all_rotations,
                    form_determinant, ModelSpec, parse_model,
                    simulate_convergence)
from latreg.cli import main

from conftest import X, Y, Z, random_dataset, replicate
from oracles import det_permutation_sum, gauss_solve, plain_dot

D1_CSV = "x,y\n1,2\n2,3\n3,5\n"
DUP_CSV = "x,y\n1,1\n2,2\n3,3\n"


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def d1():
    return Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0]})


def d2():
    return Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0],
                    "z": [1.0, 2.0, 2.0]})


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_measure_fixtures(capsys, tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text(D1_CSV, encoding="utf-8")
    started = time.perf_counter()
    code, out, _ = cli(capsys, "measures", "--input", str(path),
                       "--columns", "x,y", "--format", "json")
    elapsed = time.perf_counter() - started
    assert code == 0
    measures = json.loads(out)["measures"]
    expected = {"delta_11xx": 6.0, "delta_11yy": 14.0, "delta_11xy": 9.0,
                "delta_1yxx": 2.0, "delta_1xyy": -2.0, "delta_xxyy": 3.0}
    for key, value in expected.items():
        assert abs(measures[key] - value) <= 1e-12, key
    assert elapsed < 1.0
    announce(1, f"D1 determinant fixtures exact, runtime {elapsed:.3f}s")


def test_criterion_2_rotation_fixtures():
    data = d1()
    rotations = fit_all_rotations(data, [UNITY, X, Y])
    by_label = {r.response.label: r.fit for r in rotations}
    assert by_label["y"].coefficients == pytest.approx((1.0 / 3.0, 1.5),
                                                       rel=1e-12)
    assert by_label["x"].coefficients == pytest.approx(
        (-1.0 / 7.0, 9.0 / 14.0), rel=1e-12)
    assert by_label["1"].coefficients == pytest.approx(
        (-2.0 / 3.0, 2.0 / 3.0), rel=1e-12)

    lat = build_lattice(data, [UNITY, X, Y])
    d_1yxx = form_determinant(lat, DeterminantKind.internal_covariance(Y, X))
    d_11xx = form_determinant(lat, DeterminantKind.variance(X))
    d_1xyy = form_determinant(lat, DeterminantKind.internal_covariance(X, Y))
    d_xxyy = form_determinant(lat, DeterminantKind.base_variance(X, Y))
    assert by_label["y"].coefficients[0] == pytest.approx(d_1yxx / d_11xx,
                                                          rel=1e-12)
    assert by_label["1"].coefficients[0] == pytest.approx(d_1xyy / d_xxyy,
                                                          rel=1e-12)
    announce(2, "D1 rotation coefficients and estimator identities")


def test_criterion_3_exact_fits():
    result = fit(d2(), ModelSpec(response=UNITY, regressors=(X, Y, Z)))
    assert result.coefficients == pytest.approx((-2.0, 1.0, 1.0), rel=1e-12)
    assert result.sse <= 1e-18

    interaction = fit(d1(), ModelSpec(response=UNITY,
                                      regressors=(X, Y, X * Y)))
    assert interaction.coefficients == pytest.approx(
        (-1.0 / 7.0, 5.0 / 7.0, -1.0 / 7.0), rel=1e-12)
    assert interaction.sse <= 1e-18
    announce(3, "exact three-variable and interaction fits recovered")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    datasets = 0
    while datasets < 1000:
        n_columns = 2 if datasets % 2 == 0 else 3
        data = random_dataset(rng, n_columns=n_columns)
        directions = [UNITY] + [Direction(c) for c in data.names]
        columns = {"1": np.ones(data.n)}
        columns.update({c: data.column(c) for c in data.names})

        # keep only well-conditioned draws, judged by the oracle itself
        systems = []
        conditioned = True
        for response in directions:
            regs = [d for d in directions if d != response]
            gram = [[plain_dot(columns[a.label], columns[b.label])
                     for b in regs] for a in regs]
            rhs = [plain_dot(columns[a.label], columns[response.label])
                   for a in regs]
            det = det_permutation_sum(gram)
            scale = 1.0
            for row in gram:
                scale *= sum(v * v for v in row) ** 0.5
            if abs(det) <= 1e-6 * scale:
                conditioned = False
                break
            systems.append((response, gram, rhs))
        if not conditioned:
            continue
        datasets += 1

        rotations = fit_all_rotations(data, directions)
        expected = {resp.label: gauss_solve(gram, rhs)
                    for resp, gram, rhs in systems}
        for rotation in rotations:
            want = expected[rotation.response.label]
            assert rotation.fit.coefficients == pytest.approx(tuple(want),
                                                              rel=1e-9)
            checked += len(want)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(4, f"1000 datasets, {checked} coefficients vs elimination "
                f"oracle, runtime {elapsed:.2f}s")


def test_criterion_5_determinant_identities():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        data = random_dataset(rng, n_columns=2, n=int(rng.integers(2, 30)))
        lat = build_lattice(data, [UNITY, X, Y])

        d_11xy = det2(lat, UNITY, UNITY, X, Y)
        d_1yx1 = det2(lat, UNITY, Y, X, UNITY)
        assert d_1yx1 == pytest.approx(-d_11xy, rel=1e-12, abs=1e-12)

        forward = det2(lat, UNITY, X, Y, Y)
        backward = det2(lat, UNITY, Y, Y, X)
        assert forward == pytest.approx(-backward, rel=1e-12, abs=1e-12)

        d_11xx = det2(lat, UNITY, UNITY, X, X)
        d_11yy = det2(lat, UNITY, UNITY, Y, Y)
        d_xxyy = det2(lat, X, X, Y, Y)
        assert d_11xx >= 0.0
        assert d_11yy >= 0.0
        assert d_xxyy >= -1e-9 * lat.vertex(X, X) * lat.vertex(Y, Y)
        assert d_11xx * d_11yy >= d_11xy ** 2 - 1e-9 * abs(d_11xx * d_11yy)

        repeated = det3_general(lat, (UNITY, X, X), (UNITY, X, Y))
        rows = [[lat.vertex(r, c) for c in (UNITY, X, Y)]
                for r in (UNITY, X, X)]
        bound = 1.0
        for row in rows:
            bound *= sum(v * v for v in row) ** 0.5
        assert abs(repeated) <= 1e-10 * bound

        k = int(rng.integers(2, 5))
        latk = build_lattice(replicate(data, k), [UNITY, X, Y])
        assert det2(latk, UNITY, UNITY, X, Y) == pytest.approx(
            k * k * d_11xy, rel=1e-12, abs=1e-12)
        d3 = det3_general(lat, (UNITY, X, Y), (UNITY, X, Y))
        d3k = det3_general(latk, (UNITY, X, Y), (UNITY, X, Y))
        assert d3k == pytest.approx(k ** 3 * d3, rel=1e-12, abs=1e-9)
    announce(5, "determinant identity suite over 1000 random datasets")


def test_criterion_6_replication_invariance():
    rng = np.random.default_rng(123)
    cases = [d1(), d2()] + [random_dataset(rng, n_columns=2)
                            for _ in range(20)]
    for data in cases:
        directions = [UNITY] + [Direction(c) for c in data.names]
        base = fit_all_rotations(data, directions)
        for k in (2, 3, 5):
            repeated = fit_all_rotations(replicate(data, k), directions)
            for a, b in zip(base, repeated):
                assert b.fit.coefficients == pytest.approx(
                    a.fit.coefficients, rel=1e-12)
    announce(6, "rotation coefficients invariant under k-fold duplication")


def test_criterion_7_monte_carlo_convergence():
    stats = simulate_convergence(seed=1, n=1000, mu=100.0, sigma=1.0,
                                 trials=100)
    assert stats["random_weight_dev_max"] < 0.2
    assert stats["self_weight_dev_max"] < 0.2
    announce(7, "weighted means within 0.2 of the standard mean: "
                f"random {stats['random_weight_dev_max']:.4f}, "
                f"self {stats['self_weight_dev_max']:.4f}")


def test_criterion_8_degeneracy(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(DUP_CSV, encoding="utf-8")

    code, _, err = cli(capsys, "fit", "--input", str(path),
                       "--model", "1 = x + y")
    assert code == 4
    assert "singular" in err

    code, out, _ = cli(capsys, "fit", "--input", str(path),
                       "--model", "y = 1 + x", "--format", "json")
    assert code == 0
    row = json.loads(out)["rotations"][0]
    assert row["flag"] == "well-posed"
    assert row["coefficients"] == pytest.approx([0.0, 1.0], abs=1e-12)

    collinear = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0],
                         "z": [1.0, 1.0, 2.0]})  # z = y - x
    with pytest.raises(SingularSystemError):
        fit(collinear, ModelSpec(response=UNITY, regressors=(X, Y, Z)))
    announce(8, "singular systems detected, healthy rotations unaffected")


def test_criterion_9_cli_contract(capsys, tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text(D1_CSV, encoding="utf-8")
    commands = [
        ("measures", "--input", str(path), "--columns", "x,y"),
        ("measures", "--input", str(path), "--columns", "x,y",
         "--format", "json"),
        ("means", "--input", str(path), "--columns", "x,y",
         "--format", "json"),
        ("fit", "--input", str(path), "--model", "1 = x + y",
         "--format", "json"),
        ("rotate", "--input", str(path), "--columns", "x,y",
         "--format", "json"),
        ("simulate", "--seed", "3", "--n", "50", "--trials", "2",
         "--format", "json"),
    ]
    for argv in commands:
        code, first, _ = cli(capsys, *argv)
        assert code == 0
        _, second, _ = cli(capsys, *argv)
        assert first.encode("utf-8") == second.encode("utf-8")
        if "json" in argv:
            payload = json.loads(first)
            jsonschema.validate(payload, REPORT_SCHEMA)
            # round-trip: re-serializing the parsed payload changes nothing
            assert json.loads(json.dumps(payload)) == payload

    with pytest.raises(FormulaError) as excinfo:
        parse_model("1 = x ? y")
    assert excinfo.value.position == 6
    code, _, err = cli(capsys, "fit", "--input", str(path),
                       "--model", "1 = x ? y")
    assert code == 2
    assert "position 6" in err
    announce(9, "byte-identical reruns, schema-valid JSON, positioned "
                "parse errors")
