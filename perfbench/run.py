"""The icosian benchmark: one command per workload, stdlib only.

    python3 perfbench/run.py --workload verify_full|cli_mix|warm_queries \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload is a closed loop with one client and one
request in flight.  Every answer is checked (check.py).  The output lists the
environment, why the workload exists and every metric with its unit; the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of the traced passes (trace.py).  Per-request rows and
every span are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter

import check
import cold
import warm
from common import (BENCH_DIR, OUT_DIR, P90_MIN_REQUESTS, ROOT, SRC, child_env,
                    children_peak_rss_mb, git_sha, median, run_child, source_present,
                    summarize)

COLD_SETUPS = 5  # fresh `import icosian.cli` runs before a cold run's first request
WARM_WORKERS = 3  # warm_queries processes per run, each with its own set-up
WORKER_TIMEOUT_S = 170

# BENCHMARK.json is the spec: workloads, metric names, units and run length
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed}


def run_cold(workload: str, seed: int, seconds: float):
    deadline = time.perf_counter() + seconds
    setups = [cold.import_time() for _ in range(COLD_SETUPS)]
    rows, more_setups = cold.serve(workload, seed, deadline)
    setups += more_setups
    _, walls, cpus, refs, errors = zip(*rows)
    stats = summarize(walls, cpus, refs, sum(1 for e in errors if e is not None))
    stats["setup_samples"] = setups
    detail = [{"argv": a, "wall_s": w, "cpu_s": c, "calibration_s": r, "error": e}
              for a, w, c, r, e in rows]
    return stats, detail


def _worker(script: str, *args: str, env: dict | None = None) -> dict:
    p = run_child([str(BENCH_DIR / script), *args], WORKER_TIMEOUT_S, env)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_warm(seed: int, seconds: float):
    """Fresh workers one after another, each building the state once (a
    set-up sample) and then serving its own seeded stream of queries until
    its share of the run is over.  Set-up samples and queries so span the
    run, and no single process's speed decides the figures."""
    t0 = time.monotonic()
    parts = [_worker("warm.py", "--seed", str(seed), "--stream", str(k),
                     "--until", repr(t0 + (k + 1) * seconds / WARM_WORKERS))
             for k in range(WARM_WORKERS)]
    walls, cpus, refs, kinds = ([x for p in parts for x in p[key]]
                                for key in ("walls", "cpus", "refs", "kinds"))
    stats = summarize(walls, cpus, refs, sum(p["failed"] for p in parts))
    stats["p50_by_kind_s"] = {k: median([w for w, kind in zip(walls, kinds) if kind == k])
                              for k in warm.KINDS}
    stats["setup_samples"] = [p["setup_s"] for p in parts]
    detail = [{"kind": k, "wall_s": w, "cpu_s": c, "calibration_s": r}
              for k, w, c, r in zip(kinds, walls, cpus, refs)]
    return stats, detail


# -- traced run ------------------------------------------------------------

def _self_times(spans: list[dict]) -> list[float]:
    """Duration minus the time covered by child spans (children run nested
    and one after another, so their durations add up)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _span_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer times of one spans pass."""
    total, own = Counter(), Counter()
    for s, self_s in zip(spans, _self_times(spans)):
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += self_s
    out = {
        "groupkit.closure_s": own["groupkit.closure"],
        "groupkit.table_s": total["groupkit.table"],
        "groupkit.conjugacy_s": total["groupkit.conjugacy"],
        "reflgroup.build_o1_s": total["reflgroup.build_o1"],
        "reflgroup.reflection_group_s": total["reflgroup.reflection_group"],
        "reflgroup.gamma_group_s": total["reflgroup.gamma_group"],
        "reflgroup.roots_s": total["reflgroup.roots"],
        "reflgroup.two_reflection_census_s": total["reflgroup.two_reflection_census"],
        "chars.char_table_self_s": own["chars.char_table"],
        "spans.algebra_closure_s": total["spans.algebra_closure"],
        "spans.reports_s": total["spans.reports"],
        "census.order4_s": total["census.order4"],
        "census.q8_s": total["census.q8"],
        "census.order3_s": total["census.order3"],
        "census.order5_s": total["census.order5"],
        "census.root_bookkeeping_s": total["census.root_bookkeeping"],
        "checks.run_s": total["checks.run"],
        "cli.emit_s": own["cli.main"],
    }
    for cid in check.CHECK_IDS:
        out[f"checks.{cid}.self_s"] = own[f"checks.{cid}"]
    return out


def _counted(passed: dict) -> dict[str, float]:
    """Per-layer counts of one counts pass."""
    c = Counter(passed["counts"])
    within = Counter()
    growth = 0
    for s in passed["spans"]:
        for key, n in s.get("counts", {}).items():
            within[s["name"], key] += n
        growth += s.get("growth", 0)
    products = within["spans.algebra_closure", "qmat2.mul"]
    return {
        "goldnum.mul_count": c["goldnum.mul"],
        "goldnum.addsub_count": c["goldnum.addsub"],
        "goldnum.inverse_count": c["goldnum.inverse"],
        "quat.mul_count": c["quat.mul"],
        "qmat2.mul_count": c["qmat2.mul"],
        "qmat2.hash_count": c["qmat2.hash"],
        "linalg.add_count": c["linalg.add"],
        "linalg.useful_ratio": c["linalg.useful"] / c["linalg.add"],
        "groupkit.closure_count": c["groupkit.closure_mul"],
        "groupkit.table_mul_count": within["groupkit.table", "qmat2.mul"],
        "chars.quat_mul_count": within["chars.char_table", "quat.mul"],
        "spans.closure_products": products,
        "spans.closure_useful_ratio": growth / products,
    }


def _count_signature(passed: dict):
    return passed["counts"], [(s["name"], s.get("counts"), s.get("growth"))
                              for s in passed["spans"]]


def run_trace(seed: int, seconds: float):
    """Plain, spans and counting passes, each in a fresh interpreter.

    At least one plain and one spans pass and two counting passes (whose
    counts must agree exactly); then more plain and spans passes while time
    remains.  Times are medians over the spans passes."""
    # a fixed hash seed keeps set and dict orders, and so the counts, repeatable
    env = dict(child_env(), PYTHONHASHSEED="0")
    passes = []
    t0 = time.perf_counter()
    plan = ["plain", "spans", "counts", "counts"]
    while plan:
        mode = plan.pop(0)
        passes.append(_worker("trace.py", "--mode", mode, "--seed", str(seed), env=env))
        if not plan and time.perf_counter() - t0 < seconds:
            plan = ["plain", "spans"]
    by_mode = {m: [p for p in passes if p["mode"] == m] for m in ("plain", "spans", "counts")}
    failed = [p for p in passes if p["errors"]]
    for p in failed:
        print(f"traced {p['mode']} pass: " + "; ".join(p["errors"]), file=sys.stderr)
    first, *others = by_mode["counts"]
    counts_repeat = all(_count_signature(o) == _count_signature(first) for o in others)
    if not counts_repeat:
        print("traced run: counts differ between two counting passes", file=sys.stderr)

    timed = [_span_times(p["spans"]) for p in by_mode["spans"]]
    metrics = {k: median([t[k] for t in timed]) for k in timed[0]}
    for key in by_mode["spans"][0]["micro"]:
        metrics[key] = median([p["micro"][key] for p in by_mode["spans"]])
    metrics["linalg.busy_s"] = median([p["linalg_busy_s"] for p in by_mode["spans"]])
    metrics["cli.import_s"] = median([p["import_s"] for p in passes])
    metrics.update(_counted(first))
    plain = median([p["total_s"] for p in by_mode["plain"]])
    metrics["trace.overhead_ratio"] = median([p["total_s"] for p in by_mode["spans"]]) / plain
    info = {"passes": dict(Counter(p["mode"] for p in passes)),
            "counts_repeat": counts_repeat,
            # each pass, and the comparison of the counting passes
            "attempted": len(passes) + 1,
            "failed": len(failed) + (not counts_repeat)}
    return metrics, info, passes


# -- entry point -----------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not source_present():
        print(f"no icosian sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    problems = check.self_test()
    if problems:
        print("answer checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    # one vCPU for this process and every child, so that the calibration
    # loop (common.calibrate) runs where the requests run
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile the package once, so no timed interpreter pays for it
    cold.import_time()

    if args.trace:
        metrics, info, detail = run_trace(args.seed, args.seconds)
        declared = SPEC["per_layer"]
    else:
        if args.workload == "warm_queries":
            info, detail = run_warm(args.seed, args.seconds)
        else:
            info, detail = run_cold(args.workload, args.seed, args.seconds)
        info["fail_ratio"] = info["failed"] / info["requests"]
        metrics = {
            "setup_s": median(info["setup_samples"]),
            "req_cost_ref": info["req_cost_ref"],
            "peak_rss_mb": children_peak_rss_mb(),
        }
        info["attempted"] = info["requests"]
        declared = SPEC["end_to_end"]

    env = environment(args.seed)
    print(f"workload {args.workload} (trace {args.trace}): {WORKLOADS[args.workload]}")
    print("  ".join(f"{k} {v}" for k, v in env.items()))
    ungated = ("throughput_rps", "req_p50_s", "req_cpu_p50_s", "req_p90_s", "fail_ratio")
    for k, v in info.items():
        if k not in ("attempted", *ungated, *metrics):
            print(f"{k}: {v}")
    for m in declared:
        print(f"{m['name']:40} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        # printed, not gated (see README.md): raw times move with the host's
        # slow phases, which req_cost_ref divides out; fail_ratio is 0 when all
        # is well, and p90 needs 100 requests, which only warm_queries makes
        print("not gated:")
        for k, unit in zip(ungated, ("1/s", "s", "s", "s", "ratio")):
            value = info[k]
            print(f"{k:40} " + (f"{value:.6g} {unit}" if value is not None else
                                f"n/a (fewer than {P90_MIN_REQUESTS} requests)"))

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"workload": args.workload, "why": WORKLOADS[args.workload], **env,
         "seconds": args.seconds, "metrics": metrics, **info, "detail": detail}))

    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
