"""The sweep's rows are built by column: each column against its per-value oracle.

A sweep is a table of columns: each rung of the cutoff ladder is one
evaluation of a :class:`~accelpair.states.Rung`, and the records of a point
(``Scenario``, ``SystemResult``, ``ScenarioResult``, ``SweepRow``) are made
only when asked for.  Closed forms, CSV rows and SVG polylines are computed
for a whole table at once; these tests hold them to the per-value writers
they replaced (``tests/oracles.py``), byte for byte, hold the rung's columns
to the one-point records, count the records a sweep makes, and keep numpy's
transcendentals out of the modules that build the rows.
"""

import ast
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import DomainError, cli, entanglement
from accelpair.cli import SweepConfig, emit_csv, main, run_sweep
from accelpair.entanglement import (
    ScenarioResult,
    SystemResult,
    _closed_form_row,
    closed_form_ln,
    evaluate_scenario,
    named_bipartitions,
)
from accelpair.states import Rung, Scenario
from accelpair.svg import render_line_plot

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
        assert [closed_form_ln(scenario, s, r) for s in systems] == [
            closed_form_per_value(s, r) for s in systems
        ]


CSV_TABLES = {
    "longer-than-a-chunk": dict(scenario="fermion-both", steps=cli._CSV_ROWS + 5),
    "mu2": dict(scenario="fermion-one", mu2_grid=True, grid_min=0.05, grid_max=3.0, steps=57),
    "not-converged": dict(scenario="scalar-one", grid_max=354.0, steps=3),
}


@pytest.mark.parametrize("config", CSV_TABLES.values(), ids=CSV_TABLES)
def test_csv_equals_the_per_value_writer(tmp_path, config):
    table = run_sweep(SweepConfig(**config))
    assert emit_csv(table, tmp_path / "table.csv").read_bytes() == csv_per_value(table)


def _random_plot(rng):
    n = rng.choice([2, 3, 17, 101, 1001])
    x0, width = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-6, 3)
    x = sorted(rng.uniform(x0, x0 + width) for _ in range(n))
    curves = []
    for _ in range(rng.randint(1, 6)):
        y = [rng.uniform(-0.5, 10.0 ** rng.uniform(-3, 1)) for _ in range(n)]
        curves.append(("c", y, rng.choice(["solid", "dashed", "dotdash"])))
    return x, curves


rng = random.Random(29)
PLOTS = {f"random-{i}": _random_plot(rng) for i in range(20)}
PLOTS |= {
    "one-point": ([0.3], [("c", [0.2], "solid")]),
    "x_hi-equals-x_lo": ([0.7] * 5, [("c", [0.1, 0.2, 0.3, 0.4, 0.5], "solid")]),
    "all-zero-y": ([0.0, 0.5, 1.0], [("c", [0.0] * 3, "solid")] * 2),
    "max-y-above-1": (
        [0.0, 1.0, 2.0],
        [("a", [0.5, 1.0, 2.5], "dotdash"), ("b", [3.75, 0.0, 1e-9], "dashed")],
    ),
}


@pytest.mark.parametrize("x, curves", PLOTS.values(), ids=PLOTS)
def test_polylines_equal_the_per_point_writer(x, curves):
    doc = render_line_plot(x, curves, x_label="r", y_label="LN", title="t")
    points = re.findall(r'<polyline points="([^"]*)"', doc)
    assert points == polylines_per_point(x, curves)


# --- a sweep builds no record per point ---------------------------------------------


def count_constructions(patch):
    """Count, while ``patch`` is active, each record constructed and each plan key taken."""
    counts = Counter()
    constructors = [(cls, "__init__") for cls in (Scenario, SystemResult, ScenarioResult)]
    for cls, method in constructors + [(cli.SweepRow, "__new__")]:  # SweepRow is a namedtuple
        original = vars(cls)[method]

        def counted(*args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        patch.setattr(cls, method, counted)
    plan_key = entanglement._plan_key

    def counted_key(sc):
        counts["_plan_key"] += 1
        return plan_key(sc)

    patch.setattr(entanglement, "_plan_key", counted_key)
    return counts


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_sweep_path_builds_no_per_point_records(monkeypatch, tmp_path, scenario):
    made = {}
    for steps in (41, 1001):
        argv = ["sweep", "--scenario", scenario, "--steps", str(steps)]
        argv += ["--csv", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg")]
        with monkeypatch.context() as patch:
            made[steps] = count_constructions(patch)
            assert main(argv) == 0
    assert made[41] == made[1001]
    # one Scenario per rung (the grid ends' in SweepConfig, then each of the ladder's),
    # to check its shared fields
    assert made[41]["SystemResult"] == made[41]["ScenarioResult"] == made[41]["SweepRow"] == 0
    assert 0 < made[41]["Scenario"] <= 10 and 0 < made[41]["_plan_key"] <= 10


# --- the rung's columns are the one-point records, bit for bit ----------------------


grid_points = st.tuples(
    st.one_of(
        st.sampled_from([0.0, 1e-200, 1e-3, math.pi / 2]),
        st.floats(0.0, math.pi / 2, allow_subnormal=False),
    ),
    st.floats(-10.0, 10.0),  # a phase, for fermions
)


@given(
    st.sampled_from([scenario.split("-") for scenario in cli.SCENARIOS]),
    st.sampled_from([4, 5, 30]),
    st.lists(grid_points, min_size=1, max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_rung_columns_equal_the_one_point_records(kind, cutoff, points):
    squeezes, phases = map(list, zip(*points))
    phases = phases if kind[0] == "fermion" else [0.0] * len(squeezes)
    columns = evaluate_scenario(Rung(*kind, squeezes, cutoff, phases))
    for i, (r, phase) in enumerate(zip(squeezes, phases)):
        res = evaluate_scenario(Scenario(*kind, r, phase=phase, cutoff=cutoff))
        assert repr(columns["deficit"][i].item()) == repr(res.deficit)
        assert columns["systems"] == tuple(res.systems)
        for j, system in enumerate(res.systems.values()):
            for field in SystemResult.__match_args__:  # repr tells -0.0 from 0.0
                assert repr(columns[field][i, j].item()) == repr(getattr(system, field)), field


@pytest.mark.parametrize(
    "fields, message",
    [
        (("scalar", "one", [0.1, 400.0, math.nan]), "squeeze r = 400.0 overflows cosh"),
        (("scalar", "one", [0.1, math.nan, 400.0]), "squeeze must be finite and >= 0, got nan"),
        (("scalar", "one", [math.nan, 0.1], 2), "squeeze must be finite and >= 0, got nan"),
        (("scalar", "one", [0.1, -1.0], 2), "scalar scenarios need cutoff >= 4, got 2"),
        (("fermion", "both", [0.1, 2.0]), "fermion squeeze must be <= pi/2, got 2.0"),
        (("fermion", "one", [0.1, 0.2], 30, [0.0, math.inf]), "phase must be finite"),
        (("boson", "one", [0.1]), "statistics must be 'scalar' or 'fermion'"),
        (("fermion", "one", []), "a rung needs at least one point"),
        # each column's shape is checked before any value: nan and -1 would come next
        (("fermion", "both", [math.nan, 0.2, 0.3], 30, [0.5]), "got squeezes (3,) and phases (1,)"),
        (("fermion", "both", [0.1, 0.2, math.nan], 30, [1, 2]), "squeezes (3,) and phases (2,)"),
        (("fermion", "both", [[0.1, -1.0], [0.2, 0.3]]), "got squeezes (2, 2) and phases (2, 2)"),
        (("fermion", "both", -1.0), "1-D squeezes and phases of their shape, got squeezes ()"),
    ],
)
def test_rung_raises_the_first_failing_points_error(fields, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        Rung(*fields)
