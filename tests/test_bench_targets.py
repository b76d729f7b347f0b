"""The benchmark's view of the package: traced layers and ladder counts.

The benchmark tracer skips a traced function that no longer exists, so a
renamed layer would only show up as a missing metric; this catches it here.
The tracer sees the ``evaluate_scenario`` calls that ``cli`` makes through
its module binding, one per rung of the cutoff ladder, so a sweep that
bypassed that binding would report no ladder at all; the ladder test
catches that and counts each rung's points, and the per-workload test
checks that each workload emits every declared metric and calls no traced
function outside the sweep route.
"""

import ast
import csv
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from accelpair import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
SWEEP_ROUTE = {"cli.run_sweep", "cli.emit_csv", "cli.emit_plot", "entanglement.evaluate_scenario"}


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_package_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module_name, func_name = target.rsplit(".", 1)
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, func_name, None)), target


def test_traced_ladder_counts_match_the_cutoff_column(monkeypatch, tmp_path):
    spans = load_spans(monkeypatch)
    csv_path = tmp_path / "ladder.csv"
    # scalar-one rows go on to cutoff 120 from r ~ 0.925
    argv = ["sweep", "--scenario", "scalar-one", "--min", "0.91", "--max", "0.95", "--steps", "5"]
    points = Counter()
    with spans.Tracer() as tracer, monkeypatch.context() as patch:
        traced = cli.evaluate_scenario

        def counted(rung, plan=None):  # a rung: the points still moving, at one cutoff
            points[rung.cutoff] += rung.squeezes.size
            return traced(rung, plan)

        patch.setattr(cli, "evaluate_scenario", counted)
        assert cli.main([*argv, "--csv", str(csv_path)]) == 0
    expected = Counter()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cutoff = 30  # the default start: one evaluation per rung up to the row's cutoff
            expected[cutoff] += 1
            while cutoff < int(row["cutoff"]):
                cutoff = min(2 * cutoff, cli.CUTOFF_CAP)
                expected[cutoff] += 1
    assert expected[60] == 5 and 0 < expected[120] < 5
    assert points == expected
    metrics = spans.summarize(tracer.spans, 5, tracer.absent)
    assert metrics["entanglement.evaluate_scenario.calls"] == len(expected)  # one per rung


def workload_scenarios() -> dict[str, tuple[str, ...]]:
    """Each bench/run.py workload's scenarios, read from its WORKLOADS table."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]
    )
    return {
        ast.literal_eval(key): ast.literal_eval(call.args[0])
        for key, call in zip(table.keys, table.values)
    }


def test_each_workload_emits_every_declared_per_layer_metric(monkeypatch, tmp_path):
    spans = load_spans(monkeypatch)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}  # run.py adds it
    workloads = workload_scenarios()
    assert sorted(workloads) == sorted(w["name"] for w in declared["workloads"])
    for workload, scenarios in workloads.items():
        with spans.Tracer() as tracer:
            for scenario in scenarios:
                argv = ["sweep", "--scenario", scenario, "--steps", "3"]
                assert cli.main([*argv, "--csv", str(tmp_path / f"{scenario}.csv")]) == 0
        metrics = spans.summarize(tracer.spans, 3 * len(scenarios), tracer.absent)
        assert sorted(names - set(metrics)) == [], workload
        # the package computes LN one way: a sweep never enters the reference route
        entered = {t for t in set(spans.TARGETS) - SWEEP_ROUTE if metrics[f"{t}.calls"]}
        assert sorted(entered) == [], workload
