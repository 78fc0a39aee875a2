"""Self-test of the correctness gate: wrong answers must count as failed.

    python3 bench/selftest.py      (from the root of a checkout)

run.py calls :func:`run` before every benchmark run, so a gate that
stopped catching wrong answers stops the benchmark too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import gate
import oracle


def _report(coefficients, response: str = "y") -> bytes:
    payload = {"measures": {}, "rotations": [{
        "response": response, "coefficients": coefficients,
        "denominator": 1.0, "numerators": coefficients, "sse": 0.0,
        "flag": "well-posed"}]}
    return (json.dumps(payload, indent=2) + "\n").encode()


def run(schema) -> None:
    """Raise RuntimeError unless every wrong answer is failed and every
    right one passes."""
    cols = oracle.ExactColumns({"x": np.array([1.0, 2.0, 3.0, 4.0]),
                                "y": np.array([2.0, 3.0, 5.0, 4.5])})
    exact = oracle.solve(cols, ("y",), [(), ("x",)])
    right = [float(c) for c in exact]
    skewed = [right[0] * (1 + 1e-6), right[1]]
    expected = {"y": exact}
    mean = [cols.vertex((), ("x",)) / cols.n]

    def report(exit_code, stdout):
        return gate.check_report(exit_code, stdout, schema, expected)

    cases = [
        ("right report", report(0, _report(right)), True),
        ("coefficient off by 1e-6", report(0, _report(skewed)), False),
        ("nan coefficient", report(0, _report(right).replace(
            repr(right[0]).encode(), b"NaN")), False),
        ("overflowing coefficient", report(0, _report(right).replace(
            repr(right[0]).encode(), b"1e999")), False),
        ("schema-invalid report", report(0, b'{"rotations": 1}\n'), False),
        ("singular exit code", report(4, b""), False),
        ("wrong response", report(0, _report(right, response="x")), False),
        ("rerun differs", gate.check_rerun((0, b"a"), (0, b"b")) or
         gate.Verdict(True, 16.0), False),
        ("rerun matches", gate.check_rerun((0, b"a"), (0, b"a")) or
         gate.Verdict(True, 16.0), True),
        ("right mean", gate.check_lib({"value": [2.5]}, mean), True),
        ("wrong mean", gate.check_lib({"value": [2.5000001]}, mean), False),
        ("library error", gate.check_lib({"error": "ZeroWeightError"}, mean), False),
        ("wrong catalog entry", gate.check_lib({"value": {"v_1x": 10.5}}, cols), False),
        ("right catalog entry", gate.check_lib({"value": {"v_1x": 10.0}}, cols), True),
    ]
    wrong = [name for name, verdict, ok in cases if verdict.ok != ok]
    if wrong:
        raise RuntimeError(f"correctness gate self-test failed: {wrong}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    from latreg import REPORT_SCHEMA

    run(REPORT_SCHEMA)
    print("gate self-test passed")
