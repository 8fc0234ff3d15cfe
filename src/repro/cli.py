"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door: run the paper's studies, print the
pattern catalog, score the baselines, or export the classifier corpus —
without writing a script.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-Sensitive Clinical Data Integration "
        "(GUAVA + MultiClass) — paper studies and reports",
    )
    commands = parser.add_subparsers(dest="command")

    study1 = commands.add_parser(
        "study1", help="run Study 1: the hypoxia-interventions funnel"
    )
    _world_arguments(study1)
    study1.set_defaults(handler=_cmd_study1)

    study2 = commands.add_parser(
        "study2", help="run Study 2: ex-smokers with hypoxia"
    )
    _world_arguments(study2)
    study2.add_argument(
        "--definition",
        choices=["1y", "10y", "ever", "all"],
        default="all",
        help="ex-smoker definition (default: all three)",
    )
    study2.set_defaults(handler=_cmd_study2)

    pr = commands.add_parser(
        "precision-recall",
        help="score GUAVA vs the context-blind baseline (Hypothesis 2)",
    )
    _world_arguments(pr)
    pr.set_defaults(handler=_cmd_precision_recall)

    patterns = commands.add_parser(
        "patterns", help="print the design-pattern catalog (Table 1)"
    )
    patterns.set_defaults(handler=_cmd_patterns)

    lint = commands.add_parser(
        "lint",
        help="lint the classifier corpus for coverage gaps",
    )
    _world_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    export = commands.add_parser(
        "export-classifiers",
        help="print the full classifier corpus in the mini-language",
    )
    export.set_defaults(handler=_cmd_export)

    trace = commands.add_parser(
        "trace",
        help="profile a representative query or workflow under tracing",
    )
    _world_arguments(trace)
    trace.add_argument(
        "target",
        choices=["query", "workflow"],
        help="what to profile: a GUAVA-translated entity query "
        "(explain_analyze) or a compiled study workflow run",
    )
    trace.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the trace JSON to PATH",
    )
    trace.add_argument(
        "--flame",
        action="store_true",
        help="print collapsed-stack flamegraph lines instead of the tree",
    )
    trace.set_defaults(handler=_cmd_trace)

    storage = commands.add_parser(
        "storage",
        help="durable-store operations: snapshot, recover, verify",
    )
    storage_actions = storage.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("snapshot", "open (= recover) a store and write a columnar checkpoint"),
        ("recover", "recover a store directory and report what replay did"),
        ("verify", "audit every durable artifact and fingerprint live state"),
    ):
        sub = storage_actions.add_parser(action, help=help_text)
        sub.add_argument("--dir", required=True, help="store directory")
        sub.add_argument(
            "--json",
            dest="json_path",
            default=None,
            metavar="PATH",
            help="also write the report as JSON to PATH",
        )
        sub.set_defaults(handler=_cmd_storage, action=action)

    gtree = commands.add_parser(
        "gtree", help="render a contributor's g-tree"
    )
    _world_arguments(gtree)
    gtree.add_argument(
        "source",
        choices=["cori", "endopro", "medscribe"],
        help="which contributor's tool to inspect",
    )
    gtree.add_argument("--form", default=None, help="form name (default: first)")
    gtree.set_defaults(handler=_cmd_gtree)

    return parser


def _world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--procedures", type=int, default=300, help="world size (default 300)"
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed (default 7)")


def _world(args):
    from repro.clinical import build_world

    return build_world(args.procedures, seed=args.seed)


_SOURCE_NAMES = {
    "cori": "cori_warehouse_feed",
    "endopro": "endopro_clinic",
    "medscribe": "medscribe_clinic",
}


def _cmd_study1(args) -> int:
    from repro.analysis import run_study1, study1_truth_funnel

    world = _world(args)
    funnel = run_study1(world)
    truth = study1_truth_funnel(world)
    print(f"{'stage':40} {'measured':>9} {'truth':>6}")
    for measured, actual in zip(funnel.as_rows(), truth.as_rows()):
        print(f"{measured['stage']:40} {measured['count']:>9} {actual['count']:>6}")
    return 0 if funnel.as_rows() == truth.as_rows() else 1


def _cmd_study2(args) -> int:
    from repro.analysis import run_study2, study2_truth

    world = _world(args)
    definitions = ["1y", "10y", "ever"] if args.definition == "all" else [args.definition]
    print(f"{'definition':12} {'ex-smokers':>10} {'hypoxia':>8} {'rate':>6} {'truth?':>7}")
    exit_code = 0
    for definition in definitions:
        measured = run_study2(world, definition)
        actual = study2_truth(world, definition)
        matches = (
            measured.ex_smokers == actual.ex_smokers
            and measured.ex_smokers_with_hypoxia == actual.ex_smokers_with_hypoxia
        )
        if not matches:
            exit_code = 1
        print(
            f"quit {definition:7} {measured.ex_smokers:>10} "
            f"{measured.ex_smokers_with_hypoxia:>8} {measured.rate:>6.3f} "
            f"{'yes' if matches else 'NO':>7}"
        )
    return exit_code


def _cmd_precision_recall(args) -> int:
    from repro.analysis import compare_smoking_extraction

    world = _world(args)
    print(f"{'method':18} {'status':8} {'precision':>9} {'recall':>7} {'f1':>6}")
    for comparison in compare_smoking_extraction(world):
        for row in comparison.as_rows():
            print(
                f"{row['method']:18} {row['status']:8} "
                f"{row['precision']:>9.3f} {row['recall']:>7.3f} {row['f1']:>6.3f}"
            )
    return 0


def _cmd_patterns(args) -> int:
    from repro.patterns import pattern_summary

    print(f"{'pattern':12} {'Table 1':8} description")
    for row in pattern_summary():
        print(f"{row['pattern']:12} {row['in_table_1']:8} {row['description']}")
        print(f"{'':21} read path: {row['read_path']}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.classifiers import vendor_classifiers_for
    from repro.multiclass import lint_all

    world = _world(args)
    for source in world.sources:
        vendor = vendor_classifiers_for(source)
        classifiers = vendor.base + [
            vendor.habits_cancer,
            vendor.habits_chemistry,
            vendor.ex_smoker_1y,
            vendor.ex_smoker_10y,
            vendor.ex_smoker_ever,
        ]
        tree = source.gtree(vendor.entity_classifier.form)
        print(f"{source.name}:")
        for report in lint_all(classifiers, tree):
            if report.gaps:
                print(f"  {report.summary()}")
                for gap in report.gaps[:5]:
                    print(f"    {gap.describe()}")
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.classifiers import (
        cori_classifiers,
        endopro_classifiers,
        medscribe_classifiers,
    )
    from repro.multiclass import Registry

    registry = Registry()
    for builder in (cori_classifiers, endopro_classifiers, medscribe_classifiers):
        vendor = builder()
        for classifier in vendor.base + [
            vendor.habits_cancer,
            vendor.habits_chemistry,
            vendor.ex_smoker_1y,
            vendor.ex_smoker_10y,
            vendor.ex_smoker_ever,
        ]:
            registry.add_classifier(classifier)
        registry.add_entity_classifier(vendor.entity_classifier)
    sys.stdout.write(registry.export_text())
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import Tracer, explain_analyze, tracing

    world = _world(args)
    if args.target == "query":
        from repro.analysis.classifiers import vendor_classifiers_for
        from repro.guava.query import GTreeQuery
        from repro.guava.translate import translate_query

        source = world.source(_SOURCE_NAMES["cori"])
        ec = vendor_classifiers_for(source).entity_classifier
        plan = translate_query(
            GTreeQuery(source.gtree(ec.form)).where(ec.condition), source.chain
        )
        tracer: Tracer = explain_analyze(plan, source.db).tracer
    else:
        from repro.analysis.studies import STUDY1_ELEMENTS, build_cohort_study
        from repro.etl import compile_study
        from repro.relational import Database

        workflow = compile_study(
            build_cohort_study("trace", world, STUDY1_ELEMENTS), Database("warehouse")
        )
        with tracing() as tracer:
            workflow.run()
    if args.flame:
        for root in tracer.roots:
            for line in root.flamegraph_lines():
                print(line)
    else:
        for root in tracer.roots:
            print(root.render())
    if args.json_path:
        parent = os.path.dirname(args.json_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_json())
        print(f"trace JSON written to {args.json_path}", file=sys.stderr)
    return 0


def _cmd_storage(args) -> int:
    import json

    from repro.errors import StorageError
    from repro.storage import DurableStore

    try:
        store = DurableStore(args.dir)
    except StorageError as exc:
        print(f"recovery failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        report = store.report.to_doc()
        if args.action == "snapshot":
            path = store.snapshot()
            document = {
                "recovery": report,
                "snapshot": str(path),
                "bytes": os.path.getsize(path),
            }
            print(f"snapshot written: {path} ({document['bytes']} bytes)")
        elif args.action == "recover":
            document = {"recovery": report}
            for key, value in report.items():
                print(f"{key:24} {value}")
        else:  # verify
            document = store.verify()
            wal_ok = document["wal"]["ok"]
            snaps_ok = all(s["ok"] for s in document["snapshots"])
            print(json.dumps(document, indent=2, default=str))
            if not (wal_ok and snaps_ok):
                return 1
        if args.json_path:
            parent = os.path.dirname(args.json_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, default=str)
        return 0
    finally:
        store.close()


def _cmd_gtree(args) -> int:
    world = _world(args)
    source = world.source(_SOURCE_NAMES[args.source])
    form = args.form or source.tool.forms[0].name
    tree = source.gtree(form)
    print(tree.render())
    print()
    for node in tree.data_nodes():
        print(node.context_summary())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
