"""Command line interface: verification harness plus report views."""
from __future__ import annotations

import argparse
import json
import sys

from . import census, coincidence, spans
from .chars import char_table, format_decomposition, gauge_bookkeeping
from .checks import run_checks
from .reflgroup import word_string


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


def _emit(args, data: dict, text: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2, ensure_ascii=False))
    else:
        print(text)


def cmd_verify(args) -> int:
    report = run_checks(only=args.only)
    if not report.results:
        print(f"no checks match prefix {args.only!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, ensure_ascii=False))
    else:
        width = max(len(r.id) for r in report.results)
        for r in report.results:
            print(f"{r.status:4}  {r.id:{width}}  expected {r.expected}"
                  f" | actual {r.actual}")
        print(f"{report.passed} passed, {report.failed} failed")
    return 0 if report.ok else 1


def cmd_table(args) -> int:
    ct = char_table()
    data = ct.to_json()
    lines = []
    header = ["class order"] + [str(o) for o in ct.class_orders]
    lines.append("  ".join(f"{h:>10}" for h in header))
    header = ["class size"] + [str(s) for s in ct.class_sizes]
    lines.append("  ".join(f"{h:>10}" for h in header))
    header = ["rep word"] + [word_string(r) for r in ct.class_reps]
    lines.append("  ".join(f"{h:>10}" for h in header))
    lines.append("")
    for chi in ct.irreducibles:
        row = [chi.label] + [str(v) for v in chi.values]
        lines.append("  ".join(f"{c:>10}" for c in row))
    _emit(args, data, "\n".join(lines))
    return 0


def _spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def cmd_branch(args) -> int:
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
    classes = census.root_census()
    book = census.root_bookkeeping()
    data = {
        "bookkeeping": book,
        "classes": [
            {
                "base_index": c.base_index,
                "label": c.label,
                "base_spinor": str(c.members[0].spinor),
                "members": [str(r.spinor) for r in c.members]
                if args.full else len(c.members),
            }
            for c in classes
        ],
    }
    lines = [f"{book['classes']} classes x {book['class_size']} roots;"
             f" states by label: {book['states_by_label']}",
             f"scalar group order {book['scalar_group_order']}, rotation"
             f" image order {book['so3_image_order']}"
             f" (nonabelian: {book['so3_image_nonabelian']})", ""]
    for c in classes:
        lines.append(f"class {c.base_index} ({c.label}): base"
                     f" {c.members[0].spinor}")
        if args.full:
            for r in c.members:
                lines.append(f"    {r.spinor}")
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_orbits(args) -> int:
    c4 = census.order4_census()
    claims = census.order4_claims()
    s = census.order4_structure()
    c3 = census.order3_census()
    c5 = census.order5_census()
    totals = census.order_totals()
    data = {
        "order4": c4.to_json(),
        "order4_claims": claims,
        "order4_structure": s,
        "order3": c3.to_json(),
        "order5": c5,
        "order_totals": totals,
    }
    lines = [f"element orders: {totals}", ""]
    lines.append(f"order 4: {len(c4.items)} sign-pairs, orbit sizes"
                 f" {c4.orbit_sizes}")
    for claim in claims:
        lines.append(f"  {'pass' if claim['pass'] else 'fail'}:"
                     f" {claim['name']} -> {claim['actual']}")
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
    reports = {
        "neutrino": spans.neutrino_algebra_report(),
        "su2_u1": spans.su2_u1_split_report(),
        "reflections": spans.reflection_algebra_report(),
        "gauge": [b.to_json() for b in gauge_bookkeeping()],
    }
    lines = []
    for section in ("neutrino", "su2_u1", "reflections"):
        lines.append(section + ":")
        for c in reports[section]:
            lines.append(f"  {'pass' if c['pass'] else 'fail'}: {c['name']}")
    a, _ = gauge_bookkeeping()
    lines.append("gauge bookkeeping:")
    lines.append(f"  {a.total} -> {a.kept} kept, {a.lost} lost as"
                 f" {' + '.join(str(x) for x in a.lost_split)}")
    _emit(args, reports, "\n".join(lines))
    return 0


def cmd_coincidence(args) -> int:
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
