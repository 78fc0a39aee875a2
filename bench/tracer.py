"""Spans around the calls one latreg layer makes into another.

The tracer wraps public functions from outside the program: it rebinds
every name in the ``latreg`` modules that refers to a target function,
including the names ``cli`` and ``estimators`` import with
``from ... import``, and patches methods on their class.  A target that
no longer exists is skipped, so its metrics read 0 calls instead of
failing.  Spans stay in memory until :meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

#: (span name, module, attribute); ``Class.method`` patches a method.
TARGETS = (
    ("cli.main", "latreg.cli", "main"),
    ("dataio.read_csv", "latreg.dataio", "read_csv"),
    ("dataio.write_report", "latreg.dataio", "write_report"),
    ("lattice.build_lattice", "latreg.lattice", "build_lattice"),
    ("lattice.evaluate", "latreg.lattice", "Dataset.evaluate"),
    ("lattice.dataset_init", "latreg.lattice", "Dataset.__init__"),
    ("lattice.measure_catalog", "latreg.lattice", "measure_catalog"),
    ("estimators.fit", "latreg.estimators", "fit"),
    ("estimators.fit_all_rotations", "latreg.estimators", "fit_all_rotations"),
    ("formula.parse_model", "latreg.formula", "parse_model"),
    ("means.mean_operator", "latreg.means", "mean_operator"),
)

_START, _END, _PARENT = 1, 2, 3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records (name, start, end, parent, request) spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def request(self, fn, *args, **kwargs):
        """Call ``fn`` under a fresh request id; the spans it opens with
        no enclosing span are the request's roots."""
        self._request += 1
        return fn(*args, **kwargs)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- counters taken from arguments and results at the boundary -------

    def _read_csv(self, fn, *args, **kwargs):
        before = _maxrss_mb()
        data = fn(*args, **kwargs)
        growth = _maxrss_mb() - before
        self.counters["read_csv.maxrss_growth_mb"] = max(
            self.counters["read_csv.maxrss_growth_mb"], growth)
        self.counters["read_csv.rows"] += getattr(data, "n", 0)
        return data

    def _build_lattice(self, fn, data, directions, *args, **kwargs):
        lat = fn(data, directions, *args, **kwargs)
        k = len(getattr(lat, "directions", ()))
        self.counters["lattice.vertex_madds"] += k * (k + 1) // 2 * getattr(data, "n", 0)
        return lat

    def _fit(self, fn, *args, **kwargs):
        top = not self._inside("estimators.fit_all_rotations")
        if top:
            self.counters["rotation.attempts"] += 1
        result = fn(*args, **kwargs)
        residuals = getattr(result, "residuals", None)
        if residuals is not None:
            self.counters["estimators.residual_rows"] += len(residuals)
        if top:
            self.counters["rotation.ok"] += 1
        return result

    def _fit_all_rotations(self, fn, *args, **kwargs):
        results = fn(*args, **kwargs)
        self.counters["rotation.attempts"] += len(results)
        self.counters["rotation.ok"] += sum(bool(getattr(r, "ok", False))
                                            for r in results)
        return results

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        hook = {
            "dataio.read_csv": self._read_csv,
            "lattice.build_lattice": self._build_lattice,
            "estimators.fit": self._fit,
            "estimators.fit_all_rotations": self._fit_all_rotations,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return self.span(name, fn, *args, **kwargs)
            return self.span(name, hook, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "latreg" or key.startswith("latreg."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if callable(fn):
                    self._patch(owner, method, self._wrapper(name, fn))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapper = self._wrapper(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children, so self times of one request sum to its root span.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        roots = 0.0
        for i, rec in enumerate(self.spans):
            calls[rec[0]] += 1
            self_s[rec[0]] += rec[_END] - rec[_START] - child_time[i]
            if rec[_PARENT] is None:
                roots += rec[_END] - rec[_START]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "root_s": roots, "requests": self._request,
                "counters": dict(self.counters)}
