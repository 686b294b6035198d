"""One pass over every layer, in dependency order, in a fresh interpreter.

    python3 perfbench/trace.py --mode plain|spans|counts --seed N

The pass builds the group, then its table, inverses and conjugacy, then the
character table, roots, the reflection and gamma groups, then the spans
reports and the census functions, and finally runs ``icosian verify --json``
through ``cli.main``.  A shared cached build is therefore charged to the layer
that owns it, never to whichever check happens to run first.

- ``plain``: nothing installed; the pass time is the baseline for the overhead.
- ``spans``: a span (name, start, end, parent) around each call into a module,
  around each ``FiniteGroup.closure``, ``spans.algebra_closure`` and registry
  check, plus the time spent in ``Echelon``; then the kernel microbenchmarks.
- ``counts``: the spans plus counting wrappers on ``Gold``, ``Quat``,
  ``QMat2`` and ``Echelon`` methods; every span records the counts it covers.

Everything is installed from this file, as class- and module-level wrappers,
and only in this process.  Spans stay in memory and are printed, with the
rest of the pass, as one JSON object when the pass ends.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import random
import statistics
import sys
import time
from collections import Counter

import check

perf_counter = time.perf_counter


class Tracer:
    """Spans kept in memory; with ``counts`` each span records the count deltas."""

    def __init__(self, enabled: bool, counts: Counter | None = None):
        self.enabled = enabled
        self.counts = counts
        self.linalg_busy_s = 0.0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        before = Counter(self.counts) if self.counts is not None else None
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            if before is not None:
                rec["counts"] = dict(self.counts - before)

    @contextlib.contextmanager
    def uncounted(self):
        """Work done here leaves the counters as they were."""
        saved = Counter(self.counts)
        try:
            yield
        finally:
            self.counts.clear()
            self.counts.update(saved)


def _count_calls(cls, attr: str, key: str, counts: Counter) -> None:
    orig = getattr(cls, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return orig(*args, **kwargs)
    setattr(cls, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    from icosian import checks, cli, spans
    from icosian.goldnum import Gold
    from icosian.groupkit import FiniteGroup
    from icosian.linalg import Echelon
    from icosian.qmat2 import QMat2
    from icosian.quat import Quat

    counts = tracer.counts
    if counts is not None:
        for attr in ("__mul__", "__rmul__"):
            _count_calls(Gold, attr, "goldnum.mul", counts)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            _count_calls(Gold, attr, "goldnum.addsub", counts)
        _count_calls(Gold, "inverse", "goldnum.inverse", counts)
        _count_calls(Quat, "__mul__", "quat.mul", counts)
        _count_calls(QMat2, "__mul__", "qmat2.mul", counts)
        _count_calls(QMat2, "__hash__", "qmat2.hash", counts)

    add, contains = Echelon.add, Echelon.contains

    def timed_add(self, vec):
        t0 = perf_counter()
        grew = add(self, vec)
        tracer.linalg_busy_s += perf_counter() - t0
        if counts is not None:
            counts["linalg.add"] += 1
            counts["linalg.useful"] += bool(grew)
        return grew

    def timed_contains(self, vec):
        t0 = perf_counter()
        try:
            return contains(self, vec)
        finally:
            tracer.linalg_busy_s += perf_counter() - t0
    Echelon.add, Echelon.contains = timed_add, timed_contains

    closure = FiniteGroup.closure.__func__
    closure_sig = inspect.signature(closure)

    def traced_closure(cls, *args, **kwargs):
        bound = closure_sig.bind(cls, *args, **kwargs)
        mul = bound.arguments["mul"]
        if counts is not None:
            def counted_mul(a, b):
                counts["groupkit.closure_mul"] += 1
                return mul(a, b)
            bound.arguments["mul"] = counted_mul
        with tracer.span("groupkit.closure"):
            group = closure(*bound.args, **bound.kwargs)
        group.mul = mul  # later table products are not closure products
        return group
    FiniteGroup.closure = classmethod(traced_closure)

    algebra_closure = spans.algebra_closure

    def traced_algebra_closure(mats):
        with tracer.span("spans.algebra_closure") as rec:
            result = algebra_closure(mats)
        if counts is not None:
            with tracer.uncounted():
                rec["growth"] = result[0] - spans.span_dim(list(mats))
        return result
    spans.algebra_closure = traced_algebra_closure

    def traced_check(fn):
        @functools.wraps(fn)
        def run():
            with tracer.span("checks.?") as rec:
                result = fn()
            rec["name"] = f"checks.{result.id}"
            return result
        return run
    checks.REGISTRY = tuple(traced_check(fn) for fn in checks.REGISTRY)

    run_checks = cli.run_checks

    def traced_run_checks(*args, **kwargs):
        with tracer.span("checks.run"):
            return run_checks(*args, **kwargs)
    cli.run_checks = traced_run_checks


def layer_pass(tracer: Tracer) -> tuple[str, int]:
    """Every layer in dependency order, then `icosian verify --json`."""
    from icosian import census, chars, cli, reflgroup, spans

    span = tracer.span
    with span("reflgroup.build_o1"):
        group = reflgroup.build_o1()
    with span("groupkit.table"):
        group.table
    with span("groupkit.inverse"):
        group.inverse
    with span("groupkit.conjugacy"):
        group.conjugacy
    with span("chars.char_table"):
        chars.char_table()
    with span("reflgroup.roots"):
        reflgroup.roots()
    with span("reflgroup.reflection_group"):
        reflgroup.reflection_group()
    with span("reflgroup.gamma_group"):
        reflgroup.gamma_group()
    with span("reflgroup.diagonal_subgroup"):
        reflgroup.diagonal_subgroup()
    with span("reflgroup.two_reflection_census"):
        reflgroup.two_reflection_census(group)
    with span("spans.reports"):
        spans.neutrino_algebra_report()
        spans.su2_u1_split_report()
        spans.reflection_algebra_report()
    with span("census.root_bookkeeping"):
        census.root_bookkeeping()
    with span("census.order4"):
        census.order4_census()
    with span("census.q8"):
        census.q8_subgroups()
    with span("census.order3"):
        census.order3_census()
    with span("census.order5"):
        census.order5_census()
    out = io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--json"])
    return out.getvalue(), rc


def _per_op(fn, ops: int, repeats: int) -> float:
    """Median seconds per operation of `fn` (which performs `ops` operations)."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / ops)
    return statistics.median(times)


def microbenchmarks(seed: int) -> tuple[dict[str, float], list[str]]:
    """Kernel and query timings with every cache warm; returns (values, errors).

    The kernel operands are fixed: the coefficients, quaternion entries and
    matrices of the 120 group elements, each paired with the element seven
    places on."""
    from icosian import coincidence, spans
    from icosian.quat import Quat
    from icosian.reflgroup import build_o1

    import warm

    group = build_o1()
    mats = list(group.elements)
    golds = [x for m in mats for x in spans.flatten(m)]
    quats = [Quat(*golds[i:i + 4]) for i in range(0, len(golds), 4)]

    def pairs(xs):
        return list(zip(xs, xs[7:] + xs[:7]))

    gold_pairs, quat_pairs, mat_pairs = pairs(golds), pairs(quats), pairs(mats)

    def mul_all(ps):
        return lambda: [a * b for a, b in ps]

    out = {
        "goldnum.mul_ns": _per_op(mul_all(gold_pairs), len(gold_pairs), 15) * 1e9,
        "quat.mul_us": _per_op(mul_all(quat_pairs), len(quat_pairs), 9) * 1e6,
        "qmat2.mul_us": _per_op(mul_all(mat_pairs), len(mat_pairs), 7) * 1e6,
        "coincidence.report_us": _per_op(
            lambda: [coincidence.report() for _ in range(200)], 200, 7) * 1e6,
    }

    session = warm.Session(*warm.build_state())
    rng = random.Random(seed)
    errors = []
    # an orbits query is a subgroup_indices call plus conjugation_orbits
    for metric, kind in (("chars.decompose_us", "decompose"),
                         ("groupkit.index_query_us", "orbits")):
        times = []
        for _ in range(300):
            run, verify = session.query(kind, rng)
            t0 = perf_counter()
            answer = run()
            times.append(perf_counter() - t0)
            error = verify(answer)
            if error:
                errors.append(error)
        out[metric] = statistics.median(times) * 1e6
    return out, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "spans", "counts"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    t0 = perf_counter()
    import icosian.cli  # noqa: F401  (timed: the import a fresh CLI pays)
    import_s = perf_counter() - t0

    tracer = Tracer(enabled=args.mode != "plain",
                    counts=Counter() if args.mode == "counts" else None)
    if tracer.enabled:
        instrument(tracer)
    t0 = perf_counter()
    report, rc = layer_pass(tracer)
    total_s = perf_counter() - t0

    errors = []
    error = check.verify_error(report, rc)
    if error:
        errors.append(f"verify: {error}")
    micro = {}
    if args.mode == "spans":
        micro, query_errors = microbenchmarks(args.seed)
        errors += query_errors
    print(json.dumps({
        "mode": args.mode,
        "import_s": import_s,
        "total_s": total_s,
        "spans": tracer.spans,
        "counts": dict(tracer.counts or {}),
        "linalg_busy_s": tracer.linalg_busy_s,
        "micro": micro,
        "errors": errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
