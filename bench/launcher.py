"""Starts benchmark children from a process that stays small, and
samples host speed while they run.

On Linux a child's peak RSS (``ru_maxrss`` from ``wait4``) includes the
high-water mark of the address space it was exec'd from, so children
spawned straight from the benchmark process would report its memory
(several hundred MB once an input is generated).  run.py starts this
launcher first; it reads one JSON request per stdin line,

    {"argv": [...], "env": {...}, "stdout": PATH, "timeout": SECONDS,
     "slice_s": SECONDS}

runs it with stdin and stderr on /dev/null, and answers one JSON line
with the exit code, the child's run time, its own peak RSS and the
calibration samples taken around and during it (see calib.py).  The
host's speed changes within seconds, so a sample before and after a
long child says little about the time in between: with ``slice_s`` > 0
the launcher stops the child every ``slice_s`` seconds, takes a sample
while it is stopped, and resumes it.  The run time excludes the stops.
A child still running after ``timeout`` is killed.
"""

import json
import os
import select
import signal
import sys
import time

import calib


def run(request: dict, calibrator: calib.Calibrator, before: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"],
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    clock = time.perf_counter
    argv = request["argv"]
    samples = [before]
    stopped_s = 0.0
    start = clock()
    deadline = start + request["timeout"]
    slice_s = request["slice_s"] or float("inf")
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        next_slice = start + slice_s
        # The pid is reaped only by wait4 below, so every signal sent
        # here reaches the child and never a reused pid.
        while not select.select([pidfd], [], [], max(0.0, min(next_slice, deadline) - clock()))[0]:
            if clock() >= deadline:
                os.kill(pid, signal.SIGKILL)
                break
            if clock() >= next_slice:
                stop = clock()
                os.kill(pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, pid, os.WEXITED | os.WSTOPPED | os.WNOWAIT)
                if state.si_code == os.CLD_STOPPED:
                    os.waitid(os.P_PID, pid, os.WSTOPPED)
                    samples.append(calibrator.sample(calib.SAMPLE_RUNS))
                    os.kill(pid, signal.SIGCONT)
                stopped_s += clock() - stop
                next_slice = clock() + slice_s
        _, status, usage = os.wait4(pid, 0)
        wall = clock() - start
    finally:
        os.close(pidfd)
    samples.append(calibrator.sample(calib.SAMPLE_RUNS))
    return {"exit_code": os.waitstatus_to_exitcode(status), "run_s": wall - stopped_s,
            "calibration_s": samples, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    calibrator = calib.Calibrator()
    try:
        last = calibrator.sample(calib.SAMPLE_RUNS)
        for line in sys.stdin:
            reply = run(json.loads(line), calibrator, last)
            last = reply["calibration_s"][-1]
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        calibrator.close()


if __name__ == "__main__":
    main()
