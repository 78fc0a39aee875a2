"""Every demo script runs to completion against the source tree, with
Python's development mode on and every warning an error, and the
README's library quick start gives the values it states."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start():
    # The README's library example runs, and each value written in a
    # comment, on its expression's line or the line below, is what that
    # expression gives.
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked, expression = [], None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        match = re.match(r"\s*(\(.*?\)|\S+)", comment)
        try:
            value = ast.literal_eval(match.group(1)) if match else None
        except (ValueError, SyntaxError):
            value = None
        if code.strip():
            expression = code.strip()
        if value is not None:
            assert eval(expression, namespace) == value, line
            checked.append(value)
    assert checked == [23.0, 6.0, (0.3333333333333333, 1.5),
                       (-0.6666666666666666, 0.6666666666666666), 3.0, 2.3]
