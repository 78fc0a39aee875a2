"""latreg benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is that
checkout's ``src/latreg``, run as child processes (never an installed
copy).  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run.  The line before it records the environment, per-case verdicts and
reference floors.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import calib
import gate
import inputs
import selftest
from child import timing_metrics

BENCH = Path(__file__).resolve().parent
#: Workloads whose every operation must match the oracle for the run to
#: count as correct.  The grid measures known accuracy defects, so there
#: a wrong number is a failed operation, and only a malformed output
#: (see gate.py) makes the run incorrect.
ACCURACY_GATED = ("cli-rotate-1e6", "lib-small-fits")
SETUP_SAMPLES = 15
#: A CLI request is stopped this often for a calibration sample (see
#: launcher.py).
SLICE_S = 0.5
#: Every child is killed once the run has lasted this long.
DEADLINE_S = 170.0

#: Workload and metric names, and units, come from BENCHMARK.json at the
#: checkout root.
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Child:
    exit_code: int
    #: Spawn to exit, less the time the launcher kept the child stopped.
    wall_s: float
    #: wall_s scaled to the nominal host by the calibration samples taken
    #: around and during the child (see calib.py).
    scaled_s: float
    maxrss_mb: float
    stdout: bytes


class Runner:
    """Starts children one at a time against the checkout's src/, through
    launcher.py, so that each child's peak RSS is its own and the host's
    speed is sampled around and during each."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, LATREG_SRC=str(self.src),
                        PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""))
        self.work = BENCH / ".work"
        self.work.mkdir(exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.calibrations: list[float] = []
        self.launcher = subprocess.Popen(
            [sys.executable, "-E", "-s", "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, argv: list[str], sliced: bool = True) -> Child:
        """Run argv to completion: spawn-to-exit wall time, raw and
        host-normalised, and the child's own peak RSS, from wait4
        (RUSAGE_CHILDREN would report the largest child so far, hiding a
        drop).  A child that times itself is not ``sliced``."""
        out_path = self.work / f"stdout-{os.getpid()}"
        request = {"argv": argv, "env": self.env, "stdout": str(out_path),
                   "timeout": max(0.0, self.deadline - time.monotonic()),
                   "slice_s": SLICE_S if sliced else 0.0}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        stdout = out_path.read_bytes()
        out_path.unlink()
        samples, wall = reply["calibration_s"], reply["run_s"]
        self.calibrations += samples[1:]
        return Child(reply["exit_code"], wall, wall * calib.scale(samples),
                     reply["maxrss_kb"] / 1024.0, stdout)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def latreg(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "latreg", *args]

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(BENCH / "child.py"), *args]


def last_json(child: Child) -> dict:
    if child.exit_code != 0:
        raise RuntimeError(f"benchmark child exited with {child.exit_code}")
    return json.loads(child.stdout.decode().splitlines()[-1])


def setup_s(runner: Runner) -> float:
    """Median host-normalised time from a fresh interpreter to
    ``import latreg`` done."""
    walls = []
    for _ in range(SETUP_SAMPLES):
        child = runner.spawn([sys.executable, "-c", "import latreg"])
        if child.exit_code != 0:
            raise RuntimeError("import latreg failed")
        walls.append(child.scaled_s)
    return statistics.median(walls)


# -- CLI workloads --------------------------------------------------------

def cli_cases(workload: str, seed: int):
    """The requests of a CLI workload.

    Returns ``items``, one (argv, expected coefficients by response) per
    input; ``case_of``, the case each item belongs to; and the case
    names.  A rotate request is one case; a grid case has one item per
    replicate dataset.
    """
    if workload == "cli-rotate-1e6":
        entry, answers = inputs.rotate_input(seed)
        expected = {r: [Fraction(c) for c in cs]
                    for r, cs in answers["rotations"].items()}
        argv = ["rotate", "--input", str(entry / answers["csv"]),
                "--columns", ",".join(inputs.ROTATE_COLUMNS), "--format", "json"]
        return [(argv, expected)], [0], ["rotate"]
    entry, answers = inputs.grid_input(seed)
    items, case_of = [], []
    for i, case in enumerate(answers["cases"]):
        for rep in case["replicates"]:
            items.append((["fit", "--input", str(entry / rep["csv"]),
                           "--model", case["model"], "--format", "json"],
                          {case["response"]: [Fraction(c)
                                              for c in rep["coefficients"]]}))
            case_of.append(i)
    return items, case_of, [c["name"] for c in answers["cases"]]


def cli_sweeps(runner: Runner, items, reruns: list[int], seconds: float,
               min_sweeps: int, min_requests: int = 0):
    """Closed loop, one client, in whole sweeps: the first sweep runs
    every item, each later sweep reruns the items in ``reruns``.

    A new sweep starts only while it is expected to end within
    ``seconds``.  Returns (item index, child) per request.
    """
    records = []
    start = time.monotonic()
    sweeps, sweep_s = 0, 0.0
    while (sweeps < min_sweeps or len(records) < min_requests
           or time.monotonic() - start + sweep_s <= seconds):
        sweep_start = time.monotonic()
        for i in reruns if sweeps else range(len(items)):
            records.append((i, runner.spawn(runner.latreg(*items[i][0]))))
            if runner.expired():
                return records
        sweeps += 1
        sweep_s = time.monotonic() - sweep_start
    return records


def cli_verdicts(schema, items, case_of, records):
    """Gate each item's first run against the oracle; a case fails when
    any of its items does.  Every later run of an item must reproduce
    its first run byte for byte.  Returns per-request verdicts and the
    per-case verdicts."""
    first: dict[int, tuple[int, bytes]] = {}
    by_case: dict[int, list[gate.Verdict]] = {}
    for i, child in records:
        if i not in first:
            first[i] = (child.exit_code, child.stdout)
            by_case.setdefault(case_of[i], []).append(
                gate.check_report(*first[i], schema, items[i][1]))
    case_verdicts = {case: gate.merge(vs) for case, vs in by_case.items()}
    verdicts = [gate.check_rerun(first[i], (child.exit_code, child.stdout))
                or case_verdicts[case_of[i]] for i, child in records]
    return verdicts, case_verdicts


def run_cli(runner: Runner, schema, workload: str, seed: int, seconds: float,
            trace: bool):
    items, case_of, names = cli_cases(workload, seed)
    # Reruns, and the traced run, use each case's first item.
    firsts = [case_of.index(case) for case in range(len(names))]
    details: dict = {}
    if not trace:
        setup = setup_s(runner)
        # At least three requests, so that a median rejects one outlier.
        records = cli_sweeps(runner, items, firsts, seconds, min_sweeps=2,
                             min_requests=3)
        walls = [child.scaled_s for _, child in records]
        by_case: dict[int, list[float]] = {}
        for i, child in records:
            by_case.setdefault(case_of[i], []).append(child.scaled_s)
        metrics = {
            "setup_s": setup,
            "request_s_p50": statistics.median(walls),
            "peak_rss_mb": max(child.maxrss_mb for _, child in records),
            **timing_metrics(walls),
            # A run holds too few requests for a p99 of single requests;
            # the p99 over the cases' median times is the slow cases'.
            "op_us_p99": timing_metrics(
                [statistics.median(v) for v in by_case.values()])["op_us_p99"],
        }
        details["raw_request_s_p50"] = statistics.median(
            child.wall_s for _, child in records)
    else:
        items = [items[i] for i in firsts]
        case_of = list(range(len(names)))
        start = time.monotonic()
        records = cli_sweeps(runner, items, [], 0.0, min_sweeps=1)
        spec = runner.work / f"spec-{os.getpid()}.json"
        spec.write_text(json.dumps([argv for argv, _ in items]))
        budget = max(0.0, seconds - (time.monotonic() - start)) / 2
        try:
            plain, data = (last_json(runner.spawn(runner.child(
                "cli", str(spec), str(budget), flag), sliced=False)) for flag in ("0", "1"))
        finally:
            spec.unlink()
        untraced = [statistics.median(t) for t in plain["times"]]
        startup = statistics.median(
            child.wall_s - untraced[i] for i, child in records)

        def mean(times):
            return sum(map(sum, times)) / sum(map(len, times))

        inproc = mean(plain["times"])
        metrics = layer_metrics(data["trace"], startup,
                                overhead=mean(data["times"]) / inproc, inproc=inproc)
        if workload == "cli-rotate-1e6":
            details["reference"] = reference_floors(Path(items[0][0][2]))
    verdicts, case_verdicts = cli_verdicts(schema, items, case_of, records)
    details["cases"] = [
        {"case": names[c], "ok": v.ok, "digits": round(v.digits, 3), "reason": v.reason}
        for c, v in sorted(case_verdicts.items())]
    return verdicts, metrics, details


def reference_floors(csv_path: Path) -> dict:
    """numpy floors on the rotate input: labelled reference, never
    compared as regressions."""
    t = time.perf_counter()
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    loadtxt_s = time.perf_counter() - t
    design = np.column_stack([np.ones(len(table)), table[:, 0], table[:, 1]])
    t = time.perf_counter()
    np.linalg.lstsq(design, table[:, 2], rcond=None)
    lstsq_s = time.perf_counter() - t
    return {"ref.np_loadtxt_s": loadtxt_s, "ref.np_lstsq_s": lstsq_s}


# -- library workload -----------------------------------------------------

def run_lib(runner: Runner, seed: int, seconds: float, trace: bool):
    setup = None if trace else setup_s(runner)
    child = runner.spawn(runner.child("lib", str(seed), str(seconds), str(int(trace))),
                         sliced=False)
    data = last_json(child)
    pool = inputs.lib_pool(seed)
    op_verdicts = [gate.check_lib(out, inputs.lib_answers(op))
                   for out, op in zip(data["outputs"], pool)]
    # Every pass runs every op once, so each verdict repeats per pass.
    passes = len(data["pass_s"]) * (2 if trace else 1)
    verdicts = op_verdicts * passes
    if trace:
        metrics = layer_metrics(data["trace"], 0.0,
                                overhead=data["traced_s"] / data["untraced_s"],
                                inproc=data["untraced_s"] / (len(data["pass_s"]) * len(pool)))
    else:
        metrics = {
            "setup_s": setup,
            "request_s_p50": statistics.median(data["pass_s"]),
            "peak_rss_mb": child.maxrss_mb,
            **data["timing"],
        }
    failing = [{"op": i, "kind": op.kind, "n": len(op.columns["x"]), "reason": v.reason}
               for i, (op, v) in enumerate(zip(pool, op_verdicts)) if not v.ok]
    return verdicts, metrics, {
        "ops_in_mix": len(pool), "failing_ops": failing[:20],
        "raw_request_s_p50": statistics.median(data["raw_pass_s"]),
        "calibration_s_p50": statistics.median(data["calibration_s"])}


# -- metrics --------------------------------------------------------------

def layer_metrics(summary: dict, startup_s: float, overhead: float,
                  inproc: float) -> dict:
    """Per-request (CLI) or per-operation (library) layer metrics."""
    calls, self_s = summary["calls"], summary["self_s"]
    counters = summary["counters"]
    requests = max(1, summary["requests"])

    def per(value: float) -> float:
        return value / requests

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    attempts = counters.get("rotation.attempts", 0.0)
    metrics = {
        "dataio.read_csv.rows_per_s": rate(counters.get("read_csv.rows", 0.0),
                                           self_s.get("dataio.read_csv", 0.0)),
        "dataio.read_csv.maxrss_growth_mb": counters.get("read_csv.maxrss_growth_mb", 0.0),
        "lattice.vertex_madds": per(counters.get("lattice.vertex_madds", 0.0)),
        "lattice.vertex_rows_per_s": rate(counters.get("lattice.vertex_madds", 0.0),
                                          self_s.get("lattice.build_lattice", 0.0)),
        "estimators.residual_rows": per(counters.get("estimators.residual_rows", 0.0)),
        "estimators.rotation_ok_share": (counters.get("rotation.ok", 0.0) / attempts
                                         if attempts else 0.0),
        "cli.startup_s": startup_s,
        "trace.inproc_request_s": inproc,
        "trace.overhead_ratio": overhead,
    }
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = per(calls.get(span, 0))
        elif kind == "self_s" and name not in metrics:
            metrics[name] = per(self_s.get(span, 0.0))
    return metrics


def environment(workload: str) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("model name", "cache size"):
                info.setdefault(key.strip().replace(" ", "_"), value.strip())
    except OSError:
        pass
    info["float_working_set_mb"] = inputs.working_set_mb(workload)
    cache_kb = info.get("cache_size", "").split()
    if cache_kb[:1] and cache_kb[0].isdigit():
        # Inputs that fit in cache support no memory-bandwidth claim.
        info["working_set_fits_cache"] = info["float_working_set_mb"] * 1e6 < int(cache_kb[0]) * 1024
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latreg" / "__init__.py").is_file():
        sys.stderr.write("error: run from a latreg checkout; src/latreg is missing\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    from latreg import REPORT_SCHEMA

    selftest.run(REPORT_SCHEMA)
    trace = bool(args.trace)
    with Runner(root) as runner:
        if args.workload == "lib-small-fits":
            verdicts, metrics, details = run_lib(runner, args.seed, args.seconds, trace)
        else:
            verdicts, metrics, details = run_cli(runner, REPORT_SCHEMA, args.workload,
                                                 args.seed, args.seconds, trace)
            details["calibration_s_p50"] = statistics.median(runner.calibrations)
    if not trace:
        metrics["ok_share"] = sum(v.ok for v in verdicts) / len(verdicts)
        metrics["coef_digits_mean"] = statistics.fmean(v.digits for v in verdicts)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(not v.ok for v in verdicts)
    breaches = [v.reason for v in verdicts if v.malformed]
    correct = not breaches and (failed == 0 or args.workload not in ACCURACY_GATED)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(args.workload),
                      "malformed": breaches[:20], **details}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
