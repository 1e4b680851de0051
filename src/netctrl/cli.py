"""Command-line front end.

Subcommands: zfs (forcing-set decisions), analyze (full controllability
report on one instance), verify (theorem sweeps), examples (worked-example
replication table).  Exit codes: 0 success, 1 an --expect assertion was
given and unmet, 2 input error, 3 theorem violation or example mismatch.

The NETCTRL_MAX_ORDER environment variable raises the cost guardrails
(the exhaustive minimum-forcing-set cap and the Lie closure order cap); it
is read by the one order guard, ``forcing.check_order``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import control, forcing, graphs, harness


def _int_arg(token: str) -> int:
    """An integer flag's value, read by ``graphs.parse_int``; argparse exits 2 naming a refused token."""
    try:
        return graphs.parse_int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctrl",
        description="Zero forcing and exact network controllability decisions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_zfs = sub.add_parser("zfs", help="decide zero forcing sets")
    p_zfs.add_argument("--graph", required=True, help="edge-list file")
    group = p_zfs.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", dest="set_spec", help="comma-separated 1-based vertices, e.g. 1,3")
    group.add_argument("--minimum", action="store_true", help="exhaustive zero forcing number")
    p_zfs.add_argument("--report", choices=("text", "json"), default="text")
    p_zfs.add_argument("--expect", choices=("zfs", "not-zfs"))
    p_zfs.add_argument("--out", help="write the report to this file instead of stdout")

    p_an = sub.add_parser("analyze", help="full controllability report for one instance")
    p_an.add_argument("--graph", required=True, help="edge-list file")
    p_an.add_argument("--set", dest="set_spec", required=True, help="comma-separated 1-based vertices")
    p_an.add_argument("--matrix", default="adjacency", help="adjacency, laplacian, or random:SEED")
    p_an.add_argument("--report", choices=("text", "json"), default="text")
    p_an.add_argument("--expect", choices=("controllable", "not-controllable"))
    p_an.add_argument("--out", help="write the report to this file instead of stdout")

    p_ver = sub.add_parser("verify", help="run the theorem sweeps")
    p_ver.add_argument("--max-order", type=_int_arg, required=True)
    p_ver.add_argument("--kinds", default="adjacency,laplacian",
                       help="comma-separated matrix kinds")
    p_ver.add_argument("--subsets", default="all",
                       help="all, singletons, zfs, or random:K:SEED")
    p_ver.add_argument("--seed", type=_int_arg, default=0,
                       help="seed for the sampled graphs at orders 6 and 7")
    p_ver.add_argument("--out", help="write the full JSON outcome to this file")

    p_ex = sub.add_parser("examples", help="replicate the worked examples")
    p_ex.add_argument("--report", choices=("text", "json"), default="text")
    p_ex.add_argument("--out", help="write the report to this file instead of stdout")

    return parser


def _load_graph(path: str) -> graphs.Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read graph file {path}: {exc}") from None
    return graphs.parse_graph(text)


def _parse_set(spec: str) -> tuple:
    try:
        return tuple(graphs.parse_int(tok) for tok in spec.split(","))
    except ValueError:
        raise ValueError(f"malformed vertex set {spec!r}; want e.g. 1,3") from None


def _fmt_set(members) -> str:
    return "{" + ", ".join(str(v) for v in members) + "}"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _run_zfs(args, out) -> int:
    g = _load_graph(args.graph)
    if args.minimum:
        if args.expect:
            raise ValueError("--expect needs --set, not --minimum")
        number, witness = forcing.min_zfs(g)
        if args.report == "json":
            text = json.dumps({
                "order": g.order,
                "zero_forcing_number": number,
                "witness": list(witness),
            }, indent=2)
        else:
            text = (
                f"order: {g.order}\n"
                f"zero forcing number = {number}; witness = {_fmt_set(witness)}"
            )
        print(text, file=out)
        return 0
    members = forcing.vertex_set(_parse_set(args.set_spec), g.order)
    black, chronicle = forcing.closure(g, members)
    ok = len(black) == g.order
    if args.report == "json":
        text = json.dumps({
            "set": list(members),
            "is_zfs": ok,
            "closure": list(black),
            "chronicle": [list(step) for step in chronicle],
        }, indent=2)
    else:
        verdict = "zero forcing set" if ok else "NOT a zero forcing set"
        steps = ", ".join(f"{f}->{t}" for f, t in chronicle) if chronicle else "(none)"
        text = (
            f"set = {_fmt_set(members)}\n"
            f"{verdict}; closure = {_fmt_set(black)}\n"
            f"chronicle: {steps}"
        )
    print(text, file=out)
    if args.expect == "zfs" and not ok:
        return 1
    if args.expect == "not-zfs" and ok:
        return 1
    return 0


def _render_report_text(report) -> str:
    hyp = report.hypotheses
    lines = [
        f"order: {report.n}",
        f"control set: {_fmt_set(report.control_set)}",
        f"walk rank: {report.walk_rank}",
        f"kalman controllable: {_yn(report.kalman_controllable)}",
        f"p span dim: {report.p_span_dim}",
        f"lie dim: {report.lie_dim}",
        f"lie controllable: {_yn(report.lie_controllable)}",
        f"zero forcing set: {_yn(report.zfs_status)}",
        f"hypotheses: connected {_yn(hyp['connected'])}, same sign {_yn(hyp['same_sign'])}",
        "consistency:",
    ]
    for c in report.consistency:
        lines.append(f"  {c['check']}: {c['status']} ({c['detail']})")
    return "\n".join(lines)


def _run_analyze(args, out) -> int:
    g = _load_graph(args.graph)
    # before the O(n^2) matrix build, so an over-cap order fails at once
    control.check_lie_order(g.order)
    a = control.build_matrix(g, args.matrix)
    report = control.analyze(a, _parse_set(args.set_spec))
    if args.report == "json":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        text = _render_report_text(report)
    print(text, file=out)
    if report.theorem_violations:
        print("THEOREM-VIOLATION: " + "; ".join(
            f"{c['check']}: {c['detail']}" for c in report.theorem_violations
        ), file=sys.stderr)
        return 3
    if args.expect == "controllable" and not report.lie_controllable:
        return 1
    if args.expect == "not-controllable" and report.lie_controllable:
        return 1
    return 0


def _run_verify(args, out) -> int:
    cfg = harness.SweepConfig(
        max_order=args.max_order,
        matrix_kinds=tuple(args.kinds.split(",")),
        subset_policy=args.subsets,
        seed=args.seed,
    )
    equivalence = harness.sweep_equivalence(cfg)
    implication = harness.sweep_zfs_implication(cfg)
    passed = equivalence.passed and implication.passed
    if out:
        payload = {
            "equivalence": equivalence.to_dict(),
            "zfs_implication": implication.to_dict(),
            "passed": passed,
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    for name, outcome in (("equivalence", equivalence), ("zfs_implication", implication)):
        print(
            f"{name}: {outcome.instances_checked} instances, "
            f"{len(outcome.violations)} violations"
        )
        for v in outcome.violations:
            print(f"  {v.check}: order {v.order}, kind {v.kind}, "
                  f"subset {_fmt_set(v.subset)}: {v.detail}")
    print("PASSED" if passed else "FAILED")
    return 0 if passed else 3


def _run_examples(args, out) -> int:
    rows = harness.replicate_examples()
    if args.report == "json":
        text = json.dumps(list(rows), indent=2)
    else:
        lines = ["id  match  description"]
        for row in rows:
            lines.append(f"{row['id']:<3} {_yn(row['match']):<5}  {row['description']}")
            if not row["match"]:
                lines.append(f"    expected: {json.dumps(row['expected'], sort_keys=True)}")
                lines.append(f"    computed: {json.dumps(row['computed'], sort_keys=True)}")
        ok = all(row["match"] for row in rows)
        lines.append("all examples match" if ok else "EXAMPLE MISMATCH")
        text = "\n".join(lines)
    print(text, file=out)
    return 0 if all(row["match"] for row in rows) else 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    runners = {
        "zfs": _run_zfs,
        "analyze": _run_analyze,
        "verify": _run_verify,
        "examples": _run_examples,
    }
    try:
        # samefile raises on a missing path; a missing graph fails on read
        paths = (args.out, getattr(args, "graph", None))
        if all(paths) and all(map(os.path.exists, paths)) and os.path.samefile(*paths):
            raise ValueError(f"--out {args.out} is the --graph file; it would be truncated before it is read")
        # opened (and truncated) before any work, as a shell redirect would,
        # so a path that cannot be written fails at once
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext() as out:
            return runners[args.subcommand](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
