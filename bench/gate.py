"""Per-operation correctness gate.

An operation fails on an unexpected exit code, JSON that is invalid or
breaks ``latreg.REPORT_SCHEMA``, any nan or inf, a value more than
``TOLERANCE`` relative from the exact oracle, or a rerun whose output is
not byte-identical to the first run.  Each verdict also scores the
digits the worst value got right, min(16, -log10(relative error)), and
0 when the operation produced no finite result.

A verdict is *malformed* when the output breaks the CLI contract itself:
an exit code outside the documented 0/2/3/4, unparsable or
schema-invalid JSON, nan or inf, or a rerun that differs.  A documented
exit code or a wrong number is a failed operation but not malformed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import jsonschema

import oracle

#: The acceptance suite's relative tolerance against its oracle.
TOLERANCE = 1e-9
DOCUMENTED_EXITS = (0, 2, 3, 4)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float
    reason: str = ""
    malformed: bool = False


def _finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return True


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def compare(values: Sequence[float], exact: Sequence[Fraction]) -> Verdict:
    """Verdict for reported values against their exact counterparts."""
    if len(values) != len(exact):
        return Verdict(False, 0.0, f"{len(values)} values, expected {len(exact)}")
    worst = max((oracle.rel_error(v, e) for v, e in zip(values, exact)), default=0.0)
    if worst > TOLERANCE:
        return Verdict(False, oracle.digits(worst), f"relative error {worst:.3g}")
    return Verdict(True, oracle.digits(worst))


def merge(verdicts: Sequence[Verdict]) -> Verdict:
    """The worst of several verdicts on one operation."""
    bad = [v for v in verdicts if not v.ok]
    digits = min((v.digits for v in verdicts), default=0.0)
    if not bad:
        return Verdict(True, digits)
    return Verdict(False, digits, "; ".join(v.reason for v in bad),
                   any(v.malformed for v in bad))


def check_report(exit_code: int, stdout: bytes, schema: Mapping,
                 expected: Mapping[str, Sequence[Fraction]]) -> Verdict:
    """Gate one CLI JSON report.

    ``expected`` maps each response label the report must carry to its
    exact coefficients; every case here has exit code 0 as its answer.
    """
    if exit_code != 0:
        return Verdict(False, 0.0, f"exit code {exit_code}",
                       exit_code not in DOCUMENTED_EXITS)
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
        jsonschema.validate(payload, schema)
    except (ValueError, jsonschema.ValidationError) as err:
        return Verdict(False, 0.0, f"bad report: {str(err)[:200]}", True)
    if not _finite(payload):
        return Verdict(False, 0.0, "report holds nan or inf", True)
    entries = {r["response"]: r for r in payload.get("rotations", [])}
    verdicts = []
    for response, exact in expected.items():
        entry = entries.get(response)
        if entry is None or "coefficients" not in entry:
            verdicts.append(Verdict(False, 0.0, f"no fit for response {response}"))
        else:
            verdicts.append(compare(entry["coefficients"], exact))
    return merge(verdicts)


def check_rerun(first: tuple[int, bytes], again: tuple[int, bytes]) -> Verdict | None:
    """None when a rerun reproduced the first run byte for byte."""
    if first == again:
        return None
    return Verdict(False, 0.0, "rerun output differs", True)


def check_lib(output: Mapping, answers) -> Verdict:
    """Gate one library operation's extracted output (see child.py)."""
    if "error" in output:
        return Verdict(False, 0.0, output["error"][:200])
    value = output["value"]
    if isinstance(answers, oracle.ExactColumns):  # a measure catalog
        if not value:
            return Verdict(False, 0.0, "empty catalog")
        try:
            exact = [oracle.measure(answers, key) for key in value]
        except KeyError as err:
            return Verdict(False, 0.0, str(err))
        return compare(list(value.values()), exact)
    if isinstance(answers, dict):  # rotations by response label
        if set(value) != set(answers):
            return Verdict(False, 0.0, f"responses {sorted(value)}")
        return merge([compare(value[r], answers[r]) if value[r] is not None
                      else Verdict(False, 0.0, f"rotation {r} failed")
                      for r in answers])
    return compare(value, answers)
