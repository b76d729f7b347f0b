import argparse
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from accelpair import (
    Coefficients,
    DomainError,
    Scenario,
    evaluate_scenario,
    mu2_from_field,
    verify_unitarity,
)
from accelpair import cli, entanglement
from accelpair.cli import CUTOFF_CAP, SweepConfig, emit_csv, emit_plot, main, run_sweep
from accelpair.entanglement import SystemResult, sweep_plan

from oracles import scalar_both_pp_negativity, scalar_one_sp_negativity

HALF_PI = math.pi / 2


def small_fermion_cfg(**kw):
    base = dict(scenario="fermion-one", grid_min=0.0, grid_max=HALF_PI, steps=9)
    base.update(kw)
    return SweepConfig(**base)


def _ln(row, system):
    return row.result.systems[system].log_negativity


# --- configuration ------------------------------------------------------------


def test_config_defaults_resolve_per_scenario():
    assert SweepConfig(scenario="fermion-both").grid_max == pytest.approx(HALF_PI)
    assert SweepConfig(scenario="scalar-one").grid_max == pytest.approx(1.2)


BAD_CONFIGS = [
    dict(scenario="vector-one"),
    dict(scenario="fermion-one", steps=1),
    dict(scenario="fermion-one", grid_min=-0.1),
    dict(scenario="fermion-one", grid_max=2.0),
    dict(scenario="fermion-one", grid_min=1.0, grid_max=0.5),
    dict(scenario="scalar-one", mu2_grid=True, grid_min=0.0, grid_max=2.0),
    dict(scenario="fermion-one", convergence_tol=0.0),
    dict(scenario="scalar-one", convergence_tol=math.nan),
    dict(scenario="scalar-one", convergence_tol=math.inf),
    dict(scenario="scalar-one", cutoff=3),
    dict(scenario="scalar-one", cutoff=CUTOFF_CAP + 1),
    dict(scenario="fermion-one", cutoff=4.5),
]


@pytest.mark.parametrize("kw", BAD_CONFIGS)
def test_config_rejects_bad_values(kw):
    with pytest.raises(DomainError):
        SweepConfig(**kw)


def _sweep_argv(**kw):
    """The ``sweep`` command line that sets each SweepConfig field in ``kw``."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices["sweep"]._actions}
    argv = ["sweep"]
    for name, value in kw.items():
        flag = actions[name].option_strings[0]
        argv += [flag] if actions[name].nargs == 0 else [flag, str(value)]
    return argv


@pytest.mark.parametrize("kw", BAD_CONFIGS)
def test_main_exits_1_on_each_rejected_config(tmp_path, capsys, kw):
    csv_path = tmp_path / "bad.csv"
    assert main(_sweep_argv(**kw, csv_path=csv_path)) == 1
    assert "error: " in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("steps", [2.5, 100_001])
def test_config_rejects_fractional_or_huge_steps(steps):
    with pytest.raises(DomainError, match="steps must"):
        SweepConfig(scenario="fermion-one", steps=steps)


def test_config_accepts_steps_up_to_the_cap():
    assert SweepConfig(scenario="fermion-one", steps=100_000).steps == 100_000


def test_main_rejects_huge_steps(tmp_path, capsys):
    csv_path = tmp_path / "huge.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--steps", "100000000000000000000"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: steps must lie in [2, 100000], got 100000000000000000000\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("scenario", ["fermion-one", "scalar-one"])
def test_main_mu2_grid_needs_explicit_max(tmp_path, capsys, scenario):
    csv_path = tmp_path / "mu2.csv"
    assert main(["sweep", "--scenario", scenario, "--mu2", "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: mu2 grids need an explicit grid maximum\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("grid_max", ["inf", "nan"])
@pytest.mark.parametrize("scenario", ["fermion-one", "scalar-both"])
def test_main_rejects_non_finite_mu2_as_non_finite(tmp_path, capsys, scenario, grid_max):
    csv_path = tmp_path / "mu2.csv"
    argv = ["sweep", "--scenario", scenario, "--mu2", "--min", "0.1", "--max", grid_max]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    statistics = scenario.split("-")[0]
    assert out == ""
    assert err == f"error: {statistics} coefficients require a finite mu2, got {grid_max}\n"
    assert not csv_path.exists()


class _Captured(Exception):
    pass


def _parsed_config(monkeypatch, argv):
    """The SweepConfig that ``main`` hands to run_sweep for ``argv``."""

    def capture(cfg):
        raise _Captured(cfg)

    monkeypatch.setattr(cli, "run_sweep", capture)
    with pytest.raises(_Captured) as info:
        main(argv)
    return info.value.args[0]


def test_main_parser_adds_no_defaults(monkeypatch, tmp_path):
    csv_path = str(tmp_path / "x.csv")
    cfg = _parsed_config(monkeypatch, ["sweep", "--scenario", "scalar-one", "--csv", csv_path])
    assert cfg == SweepConfig(scenario="scalar-one", csv_path=Path(csv_path))


def test_main_parses_with_the_one_parser_built_at_import(monkeypatch, tmp_path, capsys):
    def rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    csv_path = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--csv", str(csv_path)]
    assert main(["sweep", "--scenario", "nope", "--csv", str(csv_path)]) == 1
    assert capsys.readouterr().err.startswith("usage: accelpair sweep")
    # each call parses afresh: neither a rejected call nor a flag carries over
    steps = _parsed_config(monkeypatch, [*argv, "--steps", "3"])
    assert steps == SweepConfig(scenario="scalar-one", steps=3, csv_path=csv_path)
    assert _parsed_config(monkeypatch, argv) == SweepConfig(scenario="scalar-one", csv_path=csv_path)


def test_main_puts_every_flag_in_its_field(monkeypatch, tmp_path):
    fields = dict(
        scenario="fermion-both",
        grid_min=0.25,
        grid_max=1.5,
        steps=7,
        cutoff=12,
        convergence_tol=1e-6,
        csv_path=tmp_path / "a.csv",
        svg_path=tmp_path / "b.svg",
        mu2_grid=True,
    )
    argv = ["sweep", "--scenario", "fermion-both", "--min", "0.25", "--max", "1.5", "--steps", "7"]
    argv += ["--cutoff", "12", "--tol", "1e-6", "--csv", str(fields["csv_path"])]
    argv += ["--svg", str(fields["svg_path"]), "--mu2"]
    cfg = _parsed_config(monkeypatch, argv)
    got = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    assert got == fields
    assert all(type(got[name]) is type(value) for name, value in fields.items())


def test_mu2_grid_allows_fermion_beyond_half_pi():
    cfg = SweepConfig(scenario="fermion-one", mu2_grid=True, grid_min=0.05, grid_max=5.0, steps=3)
    table = run_sweep(cfg)
    for row in table.rows:
        squeeze = row.result.scenario.squeeze
        assert 0.0 <= squeeze <= HALF_PI
        assert squeeze == pytest.approx(math.asin(math.exp(-math.pi * row.param)))


# --- sweeps ---------------------------------------------------------------------


def test_fermion_one_sweep_endpoints():
    table = run_sweep(small_fermion_cfg())
    assert table.systems == ("full", "s,p", "s,a")
    first = table.rows[0]
    assert _ln(first, "s,p") == pytest.approx(1.0, abs=1e-12)
    assert _ln(first, "s,a") == pytest.approx(0.0, abs=1e-12)
    assert first.converged and first.result.deficit == 0.0  # exact: the CSV reports cutoff 0
    assert all(abs(_ln(r, "full") - 1.0) < 1e-10 for r in table.rows)


def test_fermion_both_sweep_complete_transfer_at_endpoint():
    table = run_sweep(small_fermion_cfg(scenario="fermion-both"))
    last = table.rows[-1]
    assert _ln(last, "a,a") == pytest.approx(1.0, abs=1e-10)
    assert _ln(last, "p,p") == pytest.approx(0.0, abs=1e-10)


def test_scalar_sweep_converges_and_zeroes_antiparticles():
    cfg = SweepConfig(scenario="scalar-one", grid_min=0.0, grid_max=0.6, steps=3, cutoff=8)
    table = run_sweep(cfg)
    for row in table.rows:
        assert row.converged
        assert row.result.scenario.cutoff <= CUTOFF_CAP
        assert _ln(row, "s,a") == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("steps", [101, 1001])
@pytest.mark.parametrize("scenario", ["fermion-one", "fermion-both", "scalar-one"])
def test_sweep_ln_is_math_log2_of_each_negativity(scenario, steps):
    # LN stays one math.log2 per value: on an AVX-512 host with numpy 2.4,
    # np.log2 differs from math.log2 in the last bit at 6,955 of 2,300,001
    # evenly spaced inputs in [1, 2], so a vectorized LN could move rows of
    # grids whose golden bytes happen not to include such an input.  On that
    # host the default 101-point grids hold none; the 1001-point grids hold 4, 31 and 2.
    for row in run_sweep(SweepConfig(scenario, steps=steps)).rows:
        for system in row.result.systems.values():
            assert system.log_negativity == math.log2(2.0 * system.negativity + 1.0)


# --- CSV -------------------------------------------------------------------------


def test_emit_csv_shape_and_determinism(tmp_path):
    table = run_sweep(small_fermion_cfg())
    path = tmp_path / "sweep.csv"
    emit_csv(table, path)
    data = path.read_bytes()
    assert data.count(b"\n") == 10 and b"\r" not in data
    emit_csv(table, path)
    assert path.read_bytes() == data  # byte-identical rerun

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    header = list(rows[0])
    assert header == [
        "r",
        "ln_full",
        "ln_sp",
        "ln_sa",
        "cf_full",
        "cf_sp",
        "cf_sa",
        "deficit",
        "cutoff",
        "converged",
    ]
    # values round-trip through an ordinary reader with '.' decimals
    for row in rows:
        assert float(row["ln_sp"]) <= 1.0 + 1e-12
        assert row["converged"] == "true"


def test_emit_csv_fermion_symmetry_columns(tmp_path):
    table = run_sweep(small_fermion_cfg(scenario="fermion-both"))
    path = emit_csv(table, tmp_path / "both.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            assert row["ln_pa"] == row["ln_ap"]


def test_emit_csv_mu2_grid_has_leading_column(tmp_path):
    cfg = SweepConfig(
        scenario="fermion-one", mu2_grid=True, grid_min=0.1, grid_max=1.0, steps=3
    )
    path = emit_csv(run_sweep(cfg), tmp_path / "mu2.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header[:2] == ["mu2", "r"]


# --- SVG -------------------------------------------------------------------------


def _polyline_points(svg_text):
    import re

    out = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg_text):
        pts = [tuple(map(float, pair.split(","))) for pair in m.group(1).split()]
        out.append(pts)
    return out


def test_emit_plot_structure(tmp_path):
    table = run_sweep(small_fermion_cfg(steps=5))
    path = emit_plot(table, tmp_path / "plot.svg")
    text = path.read_text(encoding="utf-8")
    emit_plot(table, tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == len(table.systems)
    assert "ρ_s,(p,a)" in text and "ρ_s,p" in text
    # the invariant full bipartition plots as a horizontal line
    full_pts = _polyline_points(text)[0]
    ys = {y for _, y in full_pts}
    assert len(ys) == 1
    # one-accelerated sweeps draw dashed bodies, the full line dot-dashed
    assert 'stroke-dasharray="9 3 2 3"' in text
    assert 'stroke-dasharray="7 4"' in text


def test_plot_particle_and_antiparticle_curves_cross_at_balance_point(tmp_path):
    # grid chosen so the middle point sits where cos^4 = sin^4
    table = run_sweep(small_fermion_cfg(scenario="fermion-both", steps=5))
    mid = table.rows[2]
    assert mid.result.scenario.squeeze == pytest.approx(math.pi / 4)
    assert _ln(mid, "p,p") == pytest.approx(_ln(mid, "a,a"), abs=1e-12)
    assert _ln(mid, "p,p") == pytest.approx(math.log2(1.25), abs=1e-10)
    path = emit_plot(table, tmp_path / "cross.svg")
    pts = _polyline_points(path.read_text(encoding="utf-8"))
    pp, aa = pts[1], pts[4]  # system order: full, p,p, p,a, a,p, a,a
    assert pp[2] == aa[2]  # identical pixel at the crossing grid point


def test_emit_plot_solid_for_both_accelerated(tmp_path):
    table = run_sweep(small_fermion_cfg(scenario="fermion-both", steps=3))
    text = emit_plot(table, tmp_path / "b.svg").read_text(encoding="utf-8")
    assert 'stroke-dasharray="7 4"' not in text


# --- convert ----------------------------------------------------------------------


def convert(m, E, statistics):
    """What ``accelpair convert`` prints: the coefficients and the unitarity residual."""
    mu2 = mu2_from_field(m, E)
    return Coefficients(statistics, mu2), verify_unitarity(mu2, statistics)


def test_convert_fermion_values():
    coeff, residual = convert(1.0, 0.5, "fermion")
    assert isinstance(coeff, Coefficients) and coeff.statistics == "fermion"
    assert coeff.mu2 == 1.0
    assert coeff.squeeze == pytest.approx(math.asin(math.exp(-math.pi)), abs=1e-14)
    assert residual < 1e-10


def test_convert_massless_limit():
    coeff, _ = convert(0.0, 1.0, "fermion")
    assert coeff.squeeze == pytest.approx(HALF_PI, abs=1e-14)
    assert coeff.beta_mag == 1.0


def test_convert_scalar():
    coeff, residual = convert(1.0, 1.0, "scalar")
    assert coeff.mu2 == 0.5
    assert coeff.squeeze == pytest.approx(math.asinh(math.exp(-math.pi / 2)), abs=1e-14)
    assert residual < 1e-10


def test_convert_rejects_unknown_statistics():
    with pytest.raises(DomainError):
        convert(1.0, 1.0, "ghost")


# --- entry point -------------------------------------------------------------------


def test_main_sweep_writes_outputs(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(
        [
            "sweep",
            "--scenario",
            "fermion-one",
            "--steps",
            "5",
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
        ]
    )
    assert code == 0
    assert csv_path.exists() and svg_path.exists()
    out = capsys.readouterr().out
    assert "out.csv" in out and "out.svg" in out


def test_main_without_svg_writes_only_csv(tmp_path):
    csv_path = tmp_path / "only.csv"
    assert main(["sweep", "--scenario", "fermion-one", "--steps", "3", "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    assert not (tmp_path / "only.svg").exists()


def test_main_exit_code_for_bad_grid(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "fermion-one",
            "--steps",
            "1",
            "--csv",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("svg", ["./same.csv", "sub/../same.csv", "link.csv"])
def test_main_rejects_csv_and_svg_naming_one_file(tmp_path, monkeypatch, capsys, svg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "same.csv")
    argv = ["sweep", "--scenario", "fermion-one", "--steps", "3", "--csv", "same.csv"]
    assert main(argv + ["--svg", svg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "same.csv").exists()


def test_main_exit_code_for_unparsable_arguments():
    assert main(["sweep", "--scenario", "not-a-scenario", "--csv", "x.csv"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "fermion-one", "--step", "3", "--csv", "x.csv"],
        ["sweep", "--scen", "fermion-one", "--steps", "3", "--csv", "x.csv"],
        ["sweep", "--scenario", "fermion-one", "--steps", "3", "--csv", "x.csv", "--sv", "x.svg"],
        ["convert", "--mass", "1", "--fie", "2", "--stat", "scalar"],
    ],
    ids=lambda argv: " ".join(argv[:4]),
)
def test_main_rejects_abbreviated_flags(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_main_exit_code_for_unwritable_output(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "fermion-one",
            "--steps",
            "3",
            "--csv",
            str(tmp_path / "missing-dir" / "x.csv"),
        ]
    )
    assert code == 2


def test_main_exit_code_for_non_convergence(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "scalar-one",
            "--min",
            "1.45",
            "--max",
            "1.5",
            "--steps",
            "2",
            "--cutoff",
            "64",
            "--tol",
            "1e-12",
            "--csv",
            str(tmp_path / "nc.csv"),
        ]
    )
    assert code == 3
    assert "converged=false" in capsys.readouterr().err
    with open(tmp_path / "nc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["converged"] == "false" for row in rows)
    assert all(int(row["cutoff"]) == CUTOFF_CAP for row in rows)


def test_main_does_not_converge_rows_whose_state_lost_its_norm(tmp_path, capsys):
    # at r = 177 and 354 the truncated state keeps ~1e-150 of its norm, so LN
    # is ~1e-15 at every cutoff and stops moving: that is no convergence
    csv_path = tmp_path / "lost.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--min", "0", "--max", "354", "--steps", "3"]
    assert main([*argv, "--csv", str(csv_path)]) == 3
    assert "converged=false" in capsys.readouterr().err
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["converged"] for row in rows] == ["true", "false", "false"]
    assert [int(row["cutoff"]) for row in rows] == [60, CUTOFF_CAP, CUTOFF_CAP]
    assert all(float(row["deficit"]) == pytest.approx(1.0) for row in rows[1:])


def test_main_converged_scalar_one_rows_match_infinite_cutoff_series(tmp_path):
    # a converged row must sit within --tol of the untruncated LN(s,p) (cutoff 30
    # at r = 1.2 is 9e-6 off).  From the default start the ladders end at cutoffs
    # 60, 120 and 128; from 127 every row has one rung, to 128, that is no doubling.
    csv_path = tmp_path / "series.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--min", "0", "--max", "1.6", "--steps", "17"]
    for start, cutoffs in [([], {60, 120, CUTOFF_CAP}), (["--cutoff", "127"], {CUTOFF_CAP})]:
        assert main([*argv, *start, "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 17 and all(row["converged"] == "true" for row in rows)
        assert {int(row["cutoff"]) for row in rows} == cutoffs
        for row in rows:
            series = math.log2(2.0 * scalar_one_sp_negativity(float(row["r"])) + 1.0)
            assert abs(float(row["ln_sp"]) - series) < 1e-8, (start, row["r"])


@pytest.fixture(scope="module")
def default_scalar_both():
    return run_sweep(SweepConfig(scenario="scalar-both"))


@pytest.fixture(scope="module")
def default_scalar_one():
    return run_sweep(SweepConfig(scenario="scalar-one"))


SCALAR_TABLES = ["default_scalar_one", "default_scalar_both"]


@pytest.mark.parametrize("table", SCALAR_TABLES)
def test_default_scalar_pairs_hold_less_negativity_than_full(request, table):
    # N(full) = 1/2 throughout, and at r = 0 the pairs hold all of it; for r > 0 part
    # of it is in no pair, a little more at every step (at least 1.4e-4 on both grids)
    table = request.getfixturevalue(table)
    assert table.all_converged and table.squeezes[0] == 0.0
    negativity = table.columns["negativity"]
    full, pairs = negativity[:, 0], negativity[:, 1:].sum(axis=1)
    assert abs(pairs[0] - full[0]) <= 1e-15
    assert (pairs[1:] < full[1:]).all()
    assert (np.diff(pairs) < 0.0).all()


@pytest.mark.parametrize("table", SCALAR_TABLES)
def test_default_scalar_antiparticle_columns_are_exactly_zero(request, table):
    table = request.getfixturevalue(table)
    anti = [i for i, name in enumerate(table.systems) if "a" in name.split(",")]
    assert len(anti) == {"one": 1, "both": 3}[table.config.accelerated]  # s,a; p,a, a,p, a,a
    for field in ("negativity", "log_negativity"):
        column = table.columns[field][:, anti]
        assert (column == 0.0).all() and not np.signbit(column).any(), field  # +0.0


def test_default_scalar_both_rows_match_cutoff_240(default_scalar_both):
    # the row set is fixed by rule, not by result: every row whose ladder
    # reached cutoff 120, and every 5th row of the default 101-point grid
    table = default_scalar_both
    cutoffs = [row.result.scenario.cutoff for row in table.rows]
    picked = [row for i, row in enumerate(table.rows) if cutoffs[i] == 120 or i % 5 == 0]
    assert cutoffs.count(120) == 22 and len(picked) == 38
    plan = sweep_plan(Scenario("scalar", "both", 0.0, cutoff=240))
    for row in picked:
        squeeze = row.result.scenario.squeeze
        ref = evaluate_scenario(Scenario("scalar", "both", squeeze, cutoff=240), plan)
        for name, sr in ref.systems.items():
            assert abs(_ln(row, name) - sr.log_negativity) < 1e-8, (squeeze, name)


def test_default_scalar_both_rows_match_the_untruncated_sector_series(default_scalar_both):
    # every converged row's LN(p,p) within --tol of the untruncated state's
    rows, tol = default_scalar_both.rows, default_scalar_both.config.convergence_tol
    assert len(rows) == 101 and all(row.converged for row in rows)
    for row in rows:
        series = math.log2(2.0 * scalar_both_pp_negativity(row.result.scenario.squeeze) + 1.0)
        assert abs(_ln(row, "p,p") - series) < tol, row.result.scenario


@pytest.mark.parametrize(
    "flags",
    [["--tol", "nan"], ["--tol", "inf"], ["--cutoff", "500"], ["--cutoff", "2"], ["--cutoff", "128"]],
)
def test_main_rejects_bad_tolerance_and_cutoff(tmp_path, capsys, flags):
    csv_path = tmp_path / "bad.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--steps", "3", *flags, "--csv", str(csv_path)]
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err
    assert not csv_path.exists()


def test_main_rejects_overflowing_scalar_squeeze(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--max", "400", "--steps", "2", "--csv", str(csv_path)]
    assert main(argv) == 1
    assert "error: squeeze r = 400.0 overflows cosh(r)^2" in capsys.readouterr().err
    assert not csv_path.exists()


def test_cutoff_range_ends_are_accepted():
    assert SweepConfig(scenario="scalar-one", cutoff=4).cutoff == 4
    assert SweepConfig(scenario="scalar-one", cutoff=CUTOFF_CAP - 1).cutoff == CUTOFF_CAP - 1
    with pytest.raises(DomainError):
        SweepConfig(scenario="scalar-one", cutoff=CUTOFF_CAP)  # the ladder could never double


def test_main_convert_reports(capsys):
    assert main(["convert", "--mass", "1", "--field", "0.5", "--statistics", "fermion"]) == 0
    out = capsys.readouterr().out
    assert "mu2               1" in out
    assert "r_f" in out
    assert "unitarity residual" in out


CONVERT_STDOUT = {
    "--mass 1 --field 0.5 --statistics fermion": """\
statistics        fermion
mu2               1
|alpha|           0.999065842309
|beta|            0.0432139182638
r_f               0.0432273794986
unitarity residual 5.440e-15
""",
    "--mass 1 --field 1 --statistics scalar": """\
statistics        scalar
mu2               0.5
|alpha|           1.02137844028
|beta|            0.207879576351
r                 0.206410748849
unitarity residual 0.000e+00
""",
    "--mass 0 --field 1 --statistics fermion": """\
statistics        fermion
mu2               0
|alpha|           0
|beta|            1
r_f               1.57079632679
unitarity residual 0.000e+00
""",
    "--mass 31 --field 1 --statistics scalar": """\
statistics        scalar
mu2               480.5
|alpha|           1
|beta|            0
r                 0
unitarity residual 0.000e+00
""",
    "--mass 10 --field 1 --statistics scalar": """\
statistics        scalar
mu2               50
|alpha|           1
|beta|            6.04202207832e-69
r                 6.04202207832e-69
unitarity residual 0.000e+00
""",
    "--mass 1e-154 --field 1 --statistics scalar": """\
statistics        scalar
mu2               5e-309
|alpha|           1.41421356237
|beta|            1
r                 0.88137358702
unitarity residual 5.329e-15
""",
    "--mass 1e-154 --field 1 --statistics fermion": """\
statistics        fermion
mu2               5e-309
|alpha|           0
|beta|            1
r_f               1.57079632679
unitarity residual 0.000e+00
""",
    "--mass 1 --field 3 --statistics fermion": """\
statistics        fermion
mu2               0.166666666667
|alpha|           0.805655132685
|beta|            0.592384847188
r_f               0.634015764698
unitarity residual 2.220e-16
""",
}


@pytest.mark.parametrize("args", list(CONVERT_STDOUT))
def test_main_convert_stdout_is_pinned(capsys, args):
    assert main(["convert", *args.split()]) == 0
    out, err = capsys.readouterr()
    assert out == CONVERT_STDOUT[args] and err == ""


def test_main_convert_rejects_massless_scalar(capsys):
    assert main(["convert", "--mass", "0", "--field", "1", "--statistics", "scalar"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: scalar coefficients require mu2 > 0, got 0.0\n"


@pytest.mark.parametrize("statistics", ["scalar", "fermion"])
@pytest.mark.parametrize("mass", ["31", "1e-154"])
def test_main_convert_residual_is_finite_at_extreme_mu2(capsys, mass, statistics):
    # mu2 = 480.5 and 5e-309: |Gamma| itself under- or overflows there
    assert main(["convert", "--mass", mass, "--field", "1", "--statistics", statistics]) == 0
    residual = capsys.readouterr().out.splitlines()[-1].split()[-1]
    assert float(residual) < 1e-10


@pytest.mark.parametrize("mass,field", [("1e200", "1e-200"), ("1", "1e-310"), ("1e-200", "1")])
def test_main_convert_rejects_overflowing_mu2(capsys, mass, field):
    # 1e-200: mu2 underflows to 0, which would report a massive particle as massless
    for statistics in ("scalar", "fermion"):
        argv = ["convert", "--mass", mass, "--field", field, "--statistics", statistics]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: mu2") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "mass, field, message",
    [
        ("nan", "1", "field parameters must be finite"),
        ("1", "inf", "field parameters must be finite"),
        ("-1", "1", "mass must be non-negative, got -1.0"),
        ("1", "0", "field strength must be positive, got 0.0"),  # before m^2 / (2 E)
        ("1", "-2", "field strength must be positive, got -2.0"),
    ],
)
def test_main_convert_rejects_bad_field_parameters(capsys, mass, field, message):
    assert main(["convert", "--mass", mass, "--field", field]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_main_help_exits_cleanly():
    assert main(["--help"]) == 0


# --- one evaluate_scenario call per rung, on the points still moving ------------------


def counting_evaluations(monkeypatch):
    calls = []

    def counted(rung, plan=None):
        calls.append(rung)
        return evaluate_scenario(rung, plan)

    monkeypatch.setattr(cli, "evaluate_scenario", counted)
    return calls


@pytest.mark.parametrize("scenario", ["fermion-one", "fermion-both"])
def test_fermion_sweep_is_one_evaluation(monkeypatch, tmp_path, scenario):
    calls = counting_evaluations(monkeypatch)
    argv = ["sweep", "--scenario", scenario, "--steps", "41"]
    assert main([*argv, "--csv", str(tmp_path / "f.csv")]) == 0
    assert len(calls) == 1 and calls[0].squeezes.size == 41


@pytest.mark.parametrize("scenario", ["scalar-one", "scalar-both"])
def test_scalar_sweep_is_one_evaluation_per_rung(monkeypatch, tmp_path, scenario):
    calls = counting_evaluations(monkeypatch)
    csv_path = tmp_path / "s.csv"
    argv = ["sweep", "--scenario", scenario, "--min", "0.3", "--max", "1.2", "--steps", "4"]
    assert main([*argv, "--cutoff", "20", "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        finals = [int(row["cutoff"]) for row in csv.DictReader(fh)]
    ladder = [20, 40, 80, CUTOFF_CAP]  # each row climbs until its final cutoff
    rungs = [2 + ladder[1:].index(final) for final in finals]
    assert max(rungs) > 2 and len(calls) == max(rungs)
    grid = [float(v) for v in np.linspace(0.3, 1.2, 4)]
    for k, (cutoff, call) in enumerate(zip(ladder, calls)):
        # rung k takes, in grid order, exactly the points whose ladder reaches it
        moving = [r for r, n in zip(grid, rungs) if n > k]
        assert (call.statistics, call.accelerated, call.cutoff) == (*scenario.split("-"), cutoff)
        assert call.squeezes.tolist() == moving and call.phases.tolist() == [0.0] * len(moving)
        assert call.squeezes.size == sum(final >= cutoff for final in finals)


def test_underflowing_grid_end_fails_before_any_evaluation(monkeypatch, tmp_path, capsys):
    # from r ~ 186.8 every amplitude of the truncated scalar-both state squares to 0
    calls = counting_evaluations(monkeypatch)
    csv_path = tmp_path / "under.csv"
    argv = ["sweep", "--scenario", "scalar-both", "--min", "0", "--max", "200"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: every amplitude of the scalar-both state at r = 200.0 underflows to 0\n"
    assert calls == [] and not csv_path.exists()


def table_of(cfg, rows):
    """The :class:`cli.SweepTable` holding ``rows``, column by column."""
    results = [row.result for row in rows]
    names = tuple(results[0].systems)
    columns = {"systems": names, "deficit": np.array([res.deficit for res in results])}
    for field in SystemResult.__match_args__:
        columns[field] = np.array([[getattr(res.systems[s], field) for s in names] for res in results])
    points = [(row.param, row.result.scenario.squeeze, row.result.scenario.cutoff) for row in rows]
    grid, squeezes, cutoffs = map(np.array, zip(*points))
    converged = np.array([row.converged for row in rows])
    return cli.SweepTable(cfg, grid, squeezes, cutoffs, converged, columns)


def per_point_rows(cfg):
    """The sweep's rows built from one single-scenario evaluation per grid point."""
    plan, rows = None, []
    for param in [float(v) for v in np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)]:
        sc = Scenario(cfg.statistics, cfg.accelerated, cfg.squeeze(param))
        plan = plan or sweep_plan(sc)
        rows.append(cli.SweepRow(param, evaluate_scenario(sc, plan), True))
    return rows


PER_POINT_SWEEPS = [
    (["--scenario", "fermion-one", "--steps", "1001"], dict(scenario="fermion-one", steps=1001)),
    (["--scenario", "fermion-both", "--steps", "1001"], dict(scenario="fermion-both", steps=1001)),
    (
        ["--scenario", "fermion-both", "--mu2", "--min", "0.05", "--max", "3", "--steps", "57"],
        dict(scenario="fermion-both", mu2_grid=True, grid_min=0.05, grid_max=3.0, steps=57),
    ),
]


@pytest.mark.parametrize("flags, config", PER_POINT_SWEEPS, ids=["one", "both", "both-mu2"])
def test_fermion_sweep_files_equal_per_point_files(tmp_path, flags, config):
    csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    assert main(["sweep", *flags, "--csv", str(csv_path), "--svg", str(svg_path)]) == 0
    cfg = SweepConfig(**config)
    rows = per_point_rows(cfg)
    table = table_of(cfg, rows)
    assert run_sweep(cfg).rows == rows == table.rows
    assert emit_csv(table, tmp_path / "points.csv").read_bytes() == csv_path.read_bytes()
    assert emit_plot(table, tmp_path / "points.svg").read_bytes() == svg_path.read_bytes()


# --- the rung-batched ladder against each point climbing its own --------------------


def per_point_ladder(cfg):
    """The sweep's rows from each grid point climbing its own cutoff ladder:
    one single-scenario evaluation per point per rung, as the rows' definition reads."""
    plans, rows = {}, []

    def at_cutoff(squeeze, n):
        sc = Scenario(cfg.statistics, cfg.accelerated, squeeze, cutoff=n)
        plans[n] = plans.get(n) or sweep_plan(sc)
        return evaluate_scenario(sc, plans[n])

    for param in [float(v) for v in np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)]:
        squeeze = cfg.squeeze(param)
        cutoff, res, converged = cfg.cutoff, at_cutoff(squeeze, cfg.cutoff), False
        while not converged and cutoff < CUTOFF_CAP:
            cutoff = min(2 * cutoff, CUTOFF_CAP)
            smaller, res = res, at_cutoff(squeeze, cutoff)
            ln, was = res.systems, smaller.systems
            delta = max(abs(ln[s].log_negativity - was[s].log_negativity) for s in ln)
            converged = delta < cfg.convergence_tol and res.deficit < cfg.convergence_tol
        rows.append(cli.SweepRow(param, res, converged))
    return rows


LADDER_GRIDS = {  # flags and exit code; the rows stop at different rungs
    "one-cap": (["--scenario", "scalar-one", "--max", "1.7"], 3),
    "both": (["--scenario", "scalar-both", "--steps", "13"], 0),
    "one-cutoff-4": (["--scenario", "scalar-one", "--cutoff", "4", "--steps", "21"], 0),
    "both-cutoff-4": (["--scenario", "scalar-both", "--cutoff", "4", "--steps", "7"], 0),
    "one-cutoff-127": (["--scenario", "scalar-one", "--cutoff", "127", "--steps", "11"], 0),
    "both-cutoff-127": (["--scenario", "scalar-both", "--cutoff", "127", "--steps", "5"], 0),
    "one-mu2": (
        ["--scenario", "scalar-one", "--mu2", "--min", "0.005", "--max", "3", "--steps", "23"]
        + ["--cutoff", "8"],
        0,
    ),
    "both-tol": (["--scenario", "scalar-both", "--tol", "1e-5", "--steps", "11"], 0),
}


@pytest.mark.parametrize("entries", [None, 300], ids=["bound", "small-bound"])
@pytest.mark.parametrize("flags, code", LADDER_GRIDS.values(), ids=list(LADDER_GRIDS))
def test_rung_ladder_equals_the_per_point_ladder(monkeypatch, tmp_path, flags, code, entries):
    if entries is not None:  # a rung's list then spans several passes
        monkeypatch.setattr(entanglement, "_ENTRIES", entries)
    tables = []

    def sweep(cfg):
        tables.append(run_sweep(cfg))
        return tables[-1]

    monkeypatch.setattr(cli, "run_sweep", sweep)
    assert main(["sweep", *flags, "--csv", str(tmp_path / "s.csv")]) == code
    (table,) = tables
    reference = per_point_ladder(table.config)
    assert table.rows == reference
    assert code == (0 if all(row.converged for row in reference) else 3)


@pytest.mark.parametrize("cutoff, failing, named", [(30, [2, 4], 2), (120, [1, 3, 4], 3)])
def test_error_inside_a_rung_is_the_per_point_ladders(
    monkeypatch, tmp_path, capsys, cutoff, failing, named
):
    # r = 0.85 stops at cutoff 60, so the rung at 120 never meets it
    cfg = SweepConfig("scalar-one", 0.8, 1.0, steps=5)
    grid = [float(v) for v in np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)]
    amplitudes = entanglement.scenario_amplitudes

    def failing_at(rung, part):  # the points of one pass
        for r in rung.squeezes[part].tolist():
            if rung.cutoff == cutoff and r in [grid[i] for i in failing]:
                raise DomainError(f"injected at r = {r}, cutoff {rung.cutoff}")
        return amplitudes(rung, part)

    monkeypatch.setattr(entanglement, "scenario_amplitudes", failing_at)
    with pytest.raises(DomainError, match=f"injected at r = {grid[named]}, ") as exc:
        per_point_ladder(cfg)
    csv_path = tmp_path / "s.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--min", "0.8", "--max", "1.0", "--steps", "5"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc.value}\n" and not csv_path.exists()
