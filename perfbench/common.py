"""Paths, child-process environment and statistics shared by the benchmark scripts."""
from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def source_present() -> bool:
    return (SRC / "icosian" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every interpreter the benchmark starts: the package is
    imported from this checkout's sources, never from an installed copy."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(args: list[str], timeout_s: float,
              env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run an interpreter from the checkout and wait for it without polling.

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would show in every timed request; here the wait blocks, and
    a timer kills the child if it overruns."""
    p = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env or child_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout_s, p.kill)
    watchdog.start()
    try:
        out, err = p.communicate()
    finally:
        watchdog.cancel()
    return subprocess.CompletedProcess(p.args, p.returncode, out, err)


def median(xs) -> float:
    return statistics.median(xs)


def percentile(xs, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between order statistics."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


P90_MIN_REQUESTS = 100  # p90 only when ten samples lie beyond it

CALIBRATION_N = 300_000


def _calibration_loop() -> int:
    s = 0
    for i in range(CALIBRATION_N):
        s += i * i
    return s


def calibrate(reps: int = 10) -> float:
    """Mean wall time of `reps` runs of a fixed pure-Python loop.

    The loop is the benchmark's own code, so it measures the host's speed of
    the moment and nothing of the package: a request's time over the
    calibration times taken next to it moves much less when the whole host
    slows down than the request's time does."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _calibration_loop()
    return (time.perf_counter() - t0) / reps


def summarize(walls, cpus, refs, failed: int) -> dict:
    """Request statistics of one run; throughput counts request time only,
    not the benchmark's own answer checking.  `refs` holds the calibration
    time next to each request (see `calibrate`)."""
    n = len(walls)
    return {
        "requests": n,
        "failed": failed,
        # mean request time in calibration-loop units (see README.md, Noise)
        "req_cost_ref": statistics.fmean(w / r for w, r in zip(walls, refs)),
        "calibration_s": median(refs),
        "req_p50_s": median(walls),
        "req_cpu_p50_s": median(cpus),
        "throughput_rps": n / sum(walls),
        "req_p90_s": percentile(walls, 0.9) if n >= P90_MIN_REQUESTS else None,
    }


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def self_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def children_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest resident set of any waited child
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
