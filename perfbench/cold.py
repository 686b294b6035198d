"""Fresh-interpreter requests: the verify_full and cli_mix workloads.

Each request runs the ``icosian`` entry point in a new interpreter, exactly as
the console script does, and waits for it (a closed loop with one client).
Latency is the wall time from spawn to exit; CPU is the child's user+sys time
from ``getrusage``.
"""
from __future__ import annotations

import random
import sys
import time

import check
from common import calibrate, children_cpu_s, run_child

ENTRY = "import sys; from icosian.cli import main; sys.exit(main())"
REQUEST_TIMEOUT_S = 120

# `verify --only` takes the registry's id families as prefixes
FAMILIES = tuple(dict.fromkeys(cid.split(".")[0] for cid in check.CHECK_IDS))


def run_request(argv: list[str]) -> tuple[float, float, str | None]:
    """Run `icosian <argv>`; returns (wall_s, cpu_s, error or None)."""
    c0 = children_cpu_s()
    t0 = time.perf_counter()
    p = run_child(["-c", ENTRY, *argv], REQUEST_TIMEOUT_S)
    wall, cpu = time.perf_counter() - t0, children_cpu_s() - c0
    if argv[0] == "verify":
        prefix = argv[argv.index("--only") + 1] if "--only" in argv else None
        error = check.verify_error(p.stdout, p.returncode, prefix)
    else:
        error = check.view_error(argv, p.stdout, p.returncode)
    if error is not None and p.stderr:
        error += "\n" + p.stderr.strip()[-2000:]
    return wall, cpu, error


def import_time() -> float:
    """Wall time for a fresh interpreter to `import icosian.cli`."""
    t0 = time.perf_counter()
    p = run_child(["-c", "import icosian.cli"], REQUEST_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise RuntimeError(f"import icosian.cli failed: {p.stderr.strip()[-2000:]}")
    return wall


def verify_full_round(rng: random.Random) -> list[list[str]]:
    return [["verify", "--json"]]


def cli_mix_round(rng: random.Random) -> list[list[str]]:
    """One request of every kind, a filtered verify and each view, in a seeded
    order with seeded arguments."""
    labels = [rng.choice(check.LABELS) for _ in range(rng.randint(2, 4))]
    reqs = [
        ["verify", "--only", rng.choice(FAMILIES), "--json"],
        ["table", "--json"],
        ["branch", "--max-two-j", str(rng.randint(3, 15)), "--json"],
        ["decompose", *labels, "--json"],
        ["roots", "--full", "--json"],
        ["orbits", "--json"],
        ["algebra", "--json"],
        ["coincidence", "--json"],
    ]
    rng.shuffle(reqs)
    return reqs


ROUNDS = {"verify_full": verify_full_round, "cli_mix": cli_mix_round}


def serve(workload: str, seed: int, deadline: float):
    """Whole rounds of requests: at least one, and another while it is
    expected (from the last round's time) to end at most half a round after
    `deadline`, so the number of rounds is the run length over the round
    time, rounded to the nearest whole round.

    Returns the request rows and the set-up samples: a fresh `import
    icosian.cli` before each request, so they span the whole run.  Each row
    holds the mean of the calibration times taken just before and just after
    its request."""
    rng = random.Random(seed)
    rows, setups = [], []
    round_s = 0.0
    ref = calibrate()
    while not rows or time.perf_counter() + round_s / 2 <= deadline:
        t0 = time.perf_counter()
        for argv in ROUNDS[workload](rng):
            setups.append(import_time())
            wall, cpu, error = run_request(argv)
            after = calibrate()
            if error is not None:
                print(f"{workload} request `icosian {' '.join(argv)}` failed: {error}",
                      file=sys.stderr)
            rows.append((argv, wall, cpu, (ref + after) / 2, error))
            ref = after
        round_s = time.perf_counter() - t0
    return rows, setups
