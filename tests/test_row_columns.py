"""The sweep's rows are built by column: each column against its per-value oracle.

Closed forms, CSV rows and SVG polylines are computed for a whole table at
once; these tests hold them to the per-value writers they replaced
(``tests/oracles.py``), byte for byte, and keep numpy's transcendentals out
of the modules that build the rows.
"""

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from accelpair import cli
from accelpair.cli import SweepConfig, emit_csv, run_sweep
from accelpair.entanglement import _closed_form_row, closed_forms, named_bipartitions
from accelpair.states import Scenario
from accelpair.svg import Curve, render_line_plot

from oracles import closed_form_per_value, csv_per_value, polylines_per_point

SRC = Path(__file__).resolve().parent.parent / "src" / "accelpair"

# On an AVX-512 host np.log2 differs from math.log2 in the last bit at 6,955 of
# 2,300,001 inputs in [1, 2], and np.cos(x)**2 from math.cos(x)**2 at 1,959
# (README "Performance notes"), so a printed LN would depend on the host's SIMD.
NUMPY_TRANSCENDENTALS = {
    "log", "log2", "log10", "exp", "exp2", "cos", "sin", "tan", "tanh", "cosh", "sinh", "power",
}  # fmt: skip


@pytest.mark.parametrize("module", ["entanglement.py", "cli.py", "svg.py"])
def test_row_layer_uses_no_numpy_transcendental(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in NUMPY_TRANSCENDENTALS
    ]
    assert used == []


@pytest.mark.parametrize("scenario", ["fermion-one", "fermion-both"])
def test_closed_form_columns_equal_math_log2_per_value(scenario):
    systems = list(named_bipartitions(Scenario(*scenario.split("-"), 0.0)))
    grid = [float(v) for v in np.linspace(0.0, math.pi / 2, 1001)]  # the default sweep grid
    grid += [0.0, math.pi / 2]
    columns = _closed_form_row(scenario, systems)(grid)
    assert len(columns) == len(systems)
    for system, column in zip(systems, columns):
        assert column == [closed_form_per_value(system, r) for r in grid], system
    for r in (0.0, math.pi / 2):  # the one-point case
        assert closed_forms(scenario, systems, r) == [closed_form_per_value(s, r) for s in systems]


CSV_TABLES = {
    "longer-than-a-chunk": dict(scenario="fermion-both", steps=cli._CSV_ROWS + 5),
    "mu2": dict(scenario="fermion-one", mu2_grid=True, grid_min=0.05, grid_max=3.0, steps=57),
    "not-converged": dict(scenario="scalar-one", grid_max=354.0, steps=3),
}


@pytest.mark.parametrize("config", CSV_TABLES.values(), ids=CSV_TABLES)
def test_csv_equals_the_per_value_writer(tmp_path, config):
    table = run_sweep(SweepConfig(**config))
    assert emit_csv(table, tmp_path / "table.csv").read_bytes() == csv_per_value(table)


def _random_curves(rng):
    curves = []
    for _ in range(rng.randint(1, 6)):
        n = rng.choice([2, 3, 17, 101, 1001])
        x0, width = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-6, 3)
        x = sorted(rng.uniform(x0, x0 + width) for _ in range(n))
        y = [rng.uniform(-0.5, 10.0 ** rng.uniform(-3, 1)) for _ in range(n)]
        curves.append(Curve("c", x, y, rng.choice(["solid", "dashed", "dotdash"])))
    return curves


rng = random.Random(29)
PLOTS = {f"random-{i}": _random_curves(rng) for i in range(20)}
PLOTS |= {
    "one-point": [Curve("c", [0.3], [0.2], "solid")],
    "x_hi-equals-x_lo": [Curve("c", [0.7] * 5, [0.1, 0.2, 0.3, 0.4, 0.5], "solid")],
    "all-zero-y": [Curve("c", [0.0, 0.5, 1.0], [0.0] * 3, "solid")] * 2,
    "max-y-above-1": [
        Curve("a", [0.0, 1.0, 2.0], [0.5, 1.0, 2.5], "dotdash"),
        Curve("b", [0.0, 1.0, 2.0], [3.75, 0.0, 1e-9], "dashed"),
    ],
}


@pytest.mark.parametrize("curves", PLOTS.values(), ids=PLOTS)
def test_polylines_equal_the_per_point_writer(curves):
    doc = render_line_plot(curves, x_label="r", y_label="LN", title="t")
    points = re.findall(r'<polyline points="([^"]*)"', doc)
    assert points == polylines_per_point(curves)
