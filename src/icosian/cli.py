"""Command line interface: verification harness plus report views.

Each command imports the layers it reads inside its own function, so a
fresh interpreter loads only what the command runs: ``coincidence`` builds
no group, and the character views load no check registry, census, spans or
coincidence module.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.func(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icosian",
        description="Exact computations in the order-120 quaternionic"
                    " reflection group.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("verify", help="run every registered claim check")
    p.add_argument("--only", metavar="ID_PREFIX",
                   help="restrict to checks whose id starts with the prefix")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print the character table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("branch", help="print the spin branching table")
    p.add_argument("--max-two-j", type=non_negative_int, default=7,
                   help="largest doubled spin to branch (default 7)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("decompose",
                       help="decompose a tensor product of irreducibles")
    p.add_argument("labels", nargs="+",
                   help="character labels to multiply, e.g. 2b 4b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("roots", help="print the root class census")
    p.add_argument("--full", action="store_true", help="list all 120 roots")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("orbits", help="print the conjugation orbit censuses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("algebra", help="print the generated algebra reports")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("coincidence",
                       help="print the floating point coincidences")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coincidence)
    return parser


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _emit(args, data, text: str) -> None:
    """Print data as JSON under --json, else text; objects that are not
    JSON values serialise through their to_json()."""
    if args.json:
        print(json.dumps(data, indent=2, ensure_ascii=False,
                         default=lambda obj: obj.to_json()))
    else:
        print(text)


def run_checks(only: str | None = None):
    """``checks.run_checks``, with the registry imported on the first call;
    a module-level name, so a benchmark trace can wrap it."""
    from . import checks
    return checks.run_checks(only)


def cmd_verify(args) -> int:
    report = run_checks(only=args.only)
    if not report.results:
        print(f"no checks match prefix {args.only!r}", file=sys.stderr)
        return 2
    width = max(len(r.id) for r in report.results)
    lines = [f"{r.status:4}  {r.id:{width}}  expected {r.expected}"
             f" | actual {r.actual}" for r in report.results]
    lines.append(f"{report.passed} passed, {report.failed} failed")
    _emit(args, report, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_table(args) -> int:
    from .chars import char_table
    from .goldnum import flatten
    from .reflgroup import word_string
    ct = char_table()
    lines = []
    header = ["class order"] + [str(o) for o in ct.class_orders]
    lines.append("  ".join(f"{h:>10}" for h in header))
    header = ["class size"] + [str(s) for s in ct.class_sizes]
    lines.append("  ".join(f"{h:>10}" for h in header))
    header = ["rep word"] + [word_string(r) for r in ct.class_reps]
    lines.append("  ".join(f"{h:>10}" for h in header))
    lines.append("")
    for label, chi in ct.by_label.items():
        row = [label] + [str(v) for v in flatten(chi)]
        lines.append("  ".join(f"{c:>10}" for c in row))
    _emit(args, ct, "\n".join(lines))
    return 0


def _spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def cmd_branch(args) -> int:
    from .chars import char_table, format_decomposition
    ct = char_table()
    rows = ct.hyperspin_table(args.max_two_j)
    data = {
        "rows": [
            {"two_j": tj, "spin": _spin_label(tj),
             "decomposition": format_decomposition(m)}
            for tj, m in rows
        ]
    }
    text = "\n".join(
        f"spin {_spin_label(tj):>4}: {format_decomposition(m)}"
        for tj, m in rows
    )
    _emit(args, data, text)
    return 0


def cmd_decompose(args) -> int:
    from .chars import char_table, format_decomposition
    ct = char_table()
    bad = [lab for lab in args.labels if lab not in ct.by_label]
    if bad:
        print(f"unknown character label(s): {', '.join(bad)}", file=sys.stderr)
        return 2
    product = ct.by_label[args.labels[0]]
    for lab in args.labels[1:]:
        product = product * ct.by_label[lab]
    result = format_decomposition(ct.decompose(product))
    _emit(args, {"product": args.labels, "decomposition": result}, result)
    return 0


def cmd_roots(args) -> int:
    from . import census
    from .reflgroup import roots
    book = census.root_bookkeeping()
    classes = list(enumerate(zip(census.ROOT_LABELS, roots())))
    data = {
        "bookkeeping": book,
        "classes": [
            {
                "base_index": i,
                "label": label,
                "base_spinor": str(members[0]),
                "members": [str(r) for r in members]
                if args.full else len(members),
            }
            for i, (label, members) in classes
        ],
    }
    lines = [f"{book['classes']} classes x {book['class_size']} roots;"
             f" states by label: {book['states_by_label']}",
             f"scalar group order {book['scalar_group_order']}, rotation"
             f" image order {book['so3_image_order']}"
             f" (nonabelian: {book['so3_image_nonabelian']})", ""]
    for i, (label, members) in classes:
        lines.append(f"class {i} ({label}): base {members[0]}")
        if args.full:
            for r in members:
                lines.append(f"    {r}")
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_orbits(args) -> int:
    from . import census
    from .reflgroup import build_o1
    c4 = census.order4_census()
    claims = census.order4_claims()
    s = census.order4_structure()
    c3 = census.order3_census()
    c5 = census.order5_census()
    totals = build_o1().order_histogram()
    data = {
        "order4": c4,
        "order4_claims": claims,
        "order4_structure": s,
        "order3": c3,
        "order5": c5,
        "order_totals": totals,
    }
    lines = [f"element orders: {totals}", ""]
    lines.append(f"order 4: {len(c4.items)} sign-pairs, orbit sizes"
                 f" {c4.orbit_sizes}")
    for claim in claims:
        lines.append(f"  {'pass' if claim.ok else 'fail'}:"
                     f" {claim.name} -> {claim.actual}")
    lines.append(f"  quaternion subgroups: {s['q8_total']} total,"
                 f" {s['q8_normalized_by_g']} normalized by g")
    lines.append(f"  product matching of the remaining pairs:"
                 f" {s['product_matching']}")
    lines.append(f"order 3: {len(c3.items)} inverse-pairs, orbit sizes"
                 f" {c3.orbit_sizes}")
    lines.append(f"order 5/10: {c5['sign_classes_total']} sign-classes in"
                 f" {c5['cyclic_groups']} cyclic groups"
                 f" ({', '.join(c5['generators'])})")
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_algebra(args) -> int:
    from . import spans
    from .chars import gauge_bookkeeping
    reports = {
        "neutrino": spans.neutrino_algebra_report(),
        "su2_u1": spans.su2_u1_split_report(),
        "reflections": spans.reflection_algebra_report(),
        "gauge": gauge_bookkeeping(),
    }
    lines = []
    for section in ("neutrino", "su2_u1", "reflections"):
        lines.append(section + ":")
        for c in reports[section]:
            lines.append(f"  {'pass' if c.ok else 'fail'}: {c.name}")
    a, _ = reports["gauge"]
    lines.append("gauge bookkeeping:")
    lines.append(f"  {a['total']} -> {a['kept']} kept, {a['lost']} lost as"
                 f" {' + '.join(str(x) for x in a['lost_split'])}")
    _emit(args, reports, "\n".join(lines))
    return 0


def cmd_coincidence(args) -> int:
    from . import coincidence
    rep = coincidence.report()
    lines = [
        f"1 + 1/(2*365.24) = {rep['np']['printed']}"
        f" (mass ratio {rep['np']['mass_ratio']})",
        f"sin(23.44 deg)/(2*365.24) = {rep['ep']['printed']}"
        f" (mass ratio {rep['ep']['mass_ratio']})",
        f"exact-tilt inversion: sin = {rep['tilt']['sine']:.7f},"
        f" angle = {rep['tilt']['degrees']:.6f} deg = {rep['tilt']['dms']}",
    ]
    _emit(args, rep, "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
