"""Child process of the benchmark: the only place latreg is imported to
be timed.

    python3 bench/child.py lib SEED SECONDS TRACE
    python3 bench/child.py cli SPEC_JSON SECONDS TRACE

``lib`` runs the seeded library mix in passes until SECONDS have gone,
sampling the calibration kernel between passes and scaling each pass's
times by it (see calib.py); with TRACE 1 it alternates untraced and
traced passes.  ``cli`` runs each argv of the spec through
``latreg.cli.main`` in-process, traced or not, in sweeps until SECONDS
have gone.  Either prints one JSON object as its last stdout line.  The
parent puts the checkout's ``src`` first on PYTHONPATH; the child
refuses any other latreg.
"""

from __future__ import annotations

import array
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import calib
import inputs
from tracer import Tracer


def timing_metrics(samples_s) -> dict:
    """Throughput over busy time, and per-operation latency percentiles."""
    us = np.asarray(samples_s, dtype=float) * 1e6
    return {
        "ops_per_s": len(us) / (us.sum() / 1e6),
        "op_us_p50": float(np.percentile(us, 50)),
        "op_us_p99": float(np.percentile(us, 99)),
    }


def _import_latreg():
    import latreg
    import latreg.cli  # noqa: F401  (every layer loaded before patching)

    src = Path(os.environ["LATREG_SRC"]).resolve()
    if src not in Path(latreg.__file__).resolve().parents:
        raise SystemExit(f"latreg imported from {latreg.__file__}, not {src}")
    return latreg


def _lib_ops(lt, pool):
    """(call, extract) per operation: ``call`` is what is timed, a fresh
    Dataset plus one library call; ``extract`` turns its result into
    plain floats outside the timed region."""
    dirs = [lt.UNITY] + [lt.Direction(c) for c in "xyz"]

    def coefs(fit_result):
        return [float(c) for c in fit_result.coefficients]

    ops = []
    for op in pool:
        cols = op.columns
        family, _, arg = op.kind.partition(":")
        if family == "fit":
            spec = lt.parse_model(arg)
            ops.append((lambda c=cols, s=spec: lt.fit(lt.Dataset(c), s), coefs))
        elif family == "rotations":
            ops.append((lambda c=cols: lt.fit_all_rotations(lt.Dataset(c), dirs),
                        lambda rs: {r.response.label: coefs(r.fit) if r.ok else None
                                    for r in rs}))
        elif family == "catalog":
            ops.append((lambda c=cols: lt.measure_catalog(lt.Dataset(c), ["x", "y", "z"]),
                        lambda cat: {k: float(v) for k, v in cat.items()}))
        else:
            call = {
                "standard": lambda c=cols: lt.standard_mean(lt.Dataset(c), "x"),
                "self_weighting": lambda c=cols: lt.self_weighting_mean(lt.Dataset(c), "x"),
                "weighted": lambda c=cols: lt.weighted_mean(lt.Dataset(c), "x", "w"),
            }[arg]
            ops.append((call, lambda v: [float(v)]))
    return ops


def _run_pass(ops, first, durations, tracer=None):
    """Run every op once; record durations and compare with the first
    pass.  Returns the pass's busy time."""
    clock = time.perf_counter
    busy = 0.0
    for i, (call, extract) in enumerate(ops):
        try:
            t = clock()
            result = call() if tracer is None else tracer.request(call)
            dt = clock() - t
            out = {"value": extract(result)}
        except Exception as err:  # a failed op is reported, not fatal
            dt = clock() - t
            out = {"error": f"{type(err).__name__}: {err}"}
        busy += dt
        durations.append(dt)
        text = repr(out)
        if first[i] is None:
            first[i] = (text, out)
        elif first[i][0] != text:
            first[i] = (first[i][0], {"error": "rerun differs: " + text[:200]})
    return busy


def run_lib(seed: int, seconds: float, trace: bool) -> dict:
    lt = _import_latreg()
    ops = _lib_ops(lt, inputs.lib_pool(seed))
    first: list = [None] * len(ops)
    # A flat array, so that the recording costs the same few bytes per
    # op however many ops a run completes (peak RSS is a metric).
    durations = array.array("d")
    passes: list[float] = []
    raw_passes: list[float] = []
    calibrator = calib.Calibrator()
    calibrations = [calibrator.sample(calib.SAMPLE_RUNS)]
    traced_s = 0.0
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        begin = len(durations)
        busy = _run_pass(ops, first, durations)
        calibrations.append(calibrator.sample(calib.SAMPLE_RUNS))
        factor = calib.scale(calibrations[-2:])
        durations[begin:] = array.array("d", (d * factor for d in durations[begin:]))
        raw_passes.append(busy)
        passes.append(busy * factor)
        if tracer is not None:
            tracer.install()
            try:
                traced_s += _run_pass(ops, first, array.array("d"), tracer)
            finally:
                tracer.uninstall()
    calibrator.close()
    out = {
        "outputs": [f[1] for f in first],
        "timing": timing_metrics(durations),
        "pass_s": passes,
        "raw_pass_s": raw_passes,
        "calibration_s": calibrations,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["traced_s"] = traced_s
        out["untraced_s"] = sum(raw_passes)
    return out


def run_cli(spec_path: str, seconds: float, traced: bool) -> dict:
    """Each argv of the spec through ``latreg.cli.main``, in sweeps, all
    traced or all untraced: each kind gets a fresh process, so neither
    inherits the other's warm or fragmented heap."""
    lt = _import_latreg()
    argvs = json.loads(Path(spec_path).read_text())
    tracer = Tracer()
    times = [[] for _ in argvs]
    if traced:
        tracer.install()
    start = time.perf_counter()
    sweeps = 0
    while sweeps < 1 or time.perf_counter() - start < seconds:
        for i, argv in enumerate(argvs):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t = time.perf_counter()
                try:
                    tracer.request(lt.cli.main, argv)
                except (SystemExit, Exception):
                    pass  # outputs are gated in the subprocess sweep
                times[i].append(time.perf_counter() - t)
        sweeps += 1
    tracer.uninstall()
    return {"trace": tracer.summary(), "times": times}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "lib":
        result = run_lib(int(argv[1]), float(argv[2]), argv[3] == "1")
    elif mode == "cli":
        result = run_cli(argv[1], float(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
