"""The warm_queries worker: a long-lived library session in one interpreter.

It builds the shared state once (group, Cayley table, inverses, conjugacy,
character table), then serves a seeded stream of library queries, one at a
time, until the deadline, and checks each answer against invariants that do
not reuse the code path under test.

    python3 perfbench/warm.py --seed N --stream K --until T

``--until`` is a ``time.monotonic()`` reading, a clock all processes share;
at least one round is served.  The stream of queries is drawn from the seed
and the stream number.  The last line of output is a JSON object with
``setup_s``, the failed count and the samples of each request: wall time,
CPU time, calibration time (see ``common.calibrate``) and kind.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from array import array

import check
from common import calibrate, self_cpu_s

# One round of the stream: one query of each kind the session offers, in a
# seeded order, so every seed runs the same mix and only the parameters vary.
KINDS = ("decompose", "hyperspin", "subgroup", "orbits", "span", "algebra")

ORBIT_FAMILIES = ((4,), (3, 6), (5, 10), (3, 4, 5, 6, 10))


def build_state():
    from icosian import spans
    from icosian.chars import char_table
    from icosian.reflgroup import build_o1

    group = build_o1()
    group.table
    group.inverse
    group.conjugacy
    return group, char_table(), spans


class Session:
    def __init__(self, group, ct, spans):
        from icosian.qmat2 import MINUS_IDENTITY

        self.group, self.ct, self.spans = group, ct, spans
        self.table = group.table
        self.inverse = group.inverse
        minus = group.index(MINUS_IDENTITY)
        orders = [group.element_order(i) for i in range(len(group))]
        self.families = [
            sorted({frozenset({i, self.table[i][minus]})
                    for i, o in enumerate(orders) if o in fam}, key=min)
            for fam in ORBIT_FAMILIES
        ]
        self.coords = [check.coords(m) for m in group.elements]
        self._subgroup_rank: dict[frozenset[int], int] = {}

    def subgroup_rank(self, gens) -> int:
        """Rank of the subgroup the elements generate, by the checker's own route."""
        sub = check.generated(self.table, gens)
        if sub not in self._subgroup_rank:
            self._subgroup_rank[sub] = check.rank(self.coords[i] for i in sorted(sub))
        return self._subgroup_rank[sub]

    # each query: (run it, check its answer) from the seeded parameters

    def query(self, kind: str, rng: random.Random):
        n = len(self.group)
        if kind == "decompose":
            labels = [rng.choice(check.LABELS) for _ in range(rng.randint(2, 4))]

            def run():
                chi = self.ct.by_label[labels[0]]
                for lab in labels[1:]:
                    chi = chi * self.ct.by_label[lab]
                return self.ct.decompose(chi)
            return run, lambda ans: check.decompose_error(labels, ans)
        if kind == "hyperspin":
            two_j = rng.randint(0, 24)
            return (lambda: self.ct.decompose(self.ct.hyperspin(two_j)),
                    lambda ans: check.hyperspin_error(two_j, ans))
        if kind == "subgroup":
            gens = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
            return (lambda: self.group.subgroup_indices(gens),
                    lambda ans: check.subgroup_error(self.table, gens, ans))
        if kind == "orbits":
            gens = [rng.randrange(n) for _ in range(rng.randint(1, 2))]
            items = rng.choice(self.families)

            def run():
                h = self.group.subgroup_indices(gens)
                return len(h), self.group.conjugation_orbits(h, items)
            return run, lambda ans: check.orbits_error(
                self.table, self.inverse, gens, ans[0], items, ans[1])
        if kind == "span":
            idx = [rng.randrange(n) for _ in range(rng.randint(2, 8))]
            mats = [self.group.elements[i] for i in idx]
            return (lambda: self.spans.span_dim(mats),
                    lambda ans: check.span_error(ans, [self.coords[i] for i in idx]))
        if kind == "algebra":
            # two or three elements: one element closes to a cyclic algebra in
            # a few ms, which would make this kind's cost bimodal
            idx = [rng.randrange(n) for _ in range(rng.randint(2, 3))]
            mats = [self.group.elements[i] for i in idx]
            return (lambda: self.spans.algebra_closure_dim(mats),
                    lambda ans: check.algebra_error(ans, self.subgroup_rank(idx)))
        raise ValueError(kind)


def rounds(rng: random.Random):
    kinds = list(KINDS)
    while True:
        rng.shuffle(kinds)
        yield kinds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--until", type=float, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    state = build_state()
    setup_s = time.perf_counter() - t0

    session = Session(*state)
    rng = random.Random(f"{args.seed}/{args.stream}")
    walls, cpus, refs = array("d"), array("d"), array("d")
    order = array("b")  # each request's index in KINDS
    failed = 0
    # one calibration run before the first round and one after each round;
    # each request is paired with the mean of the two around it
    ref = calibrate(1)
    for kinds_of_round in rounds(rng):
        if walls and time.monotonic() >= args.until:
            break
        first = len(walls)
        for kind in kinds_of_round:
            run, verify = session.query(kind, rng)
            w0, c0 = time.perf_counter(), self_cpu_s()
            try:
                answer = run()
            except Exception as e:  # a request that raises is a failed request
                error = f"{kind}: {e!r}"
            else:
                error = None
            walls.append(time.perf_counter() - w0)
            cpus.append(self_cpu_s() - c0)
            order.append(KINDS.index(kind))
            if error is None:
                try:
                    error = verify(answer)
                except Exception as e:  # an answer of the wrong shape
                    error = f"{kind}: unreadable answer {answer!r:.200}: {e!r}"
            if error is not None:
                failed += 1
                if failed <= 5:
                    print(f"warm_queries request failed: {error}", file=sys.stderr)
        after = calibrate(1)
        refs.extend([(ref + after) / 2] * (len(walls) - first))
        ref = after
    print(json.dumps({"setup_s": setup_s, "failed": failed, "walls": list(walls),
                      "cpus": list(cpus), "refs": list(refs),
                      "kinds": [KINDS[i] for i in order]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
