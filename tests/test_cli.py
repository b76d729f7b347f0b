import argparse
import csv
import dataclasses
import math
from pathlib import Path

import pytest

from accelpair import (
    Coefficients,
    DomainError,
    FieldParams,
    Scenario,
    coefficients,
    evaluate_scenario,
    mu2_from_field,
    verify_unitarity,
)
from accelpair import cli
from accelpair.cli import CUTOFF_CAP, SweepConfig, emit_csv, emit_plot, main, run_sweep
from accelpair.entanglement import sweep_plan

from oracles import scalar_one_sp_negativity

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
    mu2 = mu2_from_field(FieldParams(m=m, E=E))
    return coefficients(mu2, statistics), verify_unitarity(mu2, statistics)


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
    # the grid's ladders end at cutoffs 60, 120 and 128; a converged row must
    # sit within --tol of the untruncated LN(s,p) (cutoff 30 at r = 1.2 is 9e-6 off)
    csv_path = tmp_path / "series.csv"
    argv = ["sweep", "--scenario", "scalar-one", "--min", "0", "--max", "1.6", "--steps", "17"]
    assert main([*argv, "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 17 and all(row["converged"] == "true" for row in rows)
    assert {int(row["cutoff"]) for row in rows} == {60, 120, CUTOFF_CAP}
    for row in rows:
        series = math.log2(2.0 * scalar_one_sp_negativity(float(row["r"])) + 1.0)
        assert abs(float(row["ln_sp"]) - series) < 1e-8, row["r"]


def test_default_scalar_both_rows_match_cutoff_240():
    # the row set is fixed by rule, not by result: every row whose ladder
    # reached cutoff 120, and every 5th row of the default 101-point grid
    table = run_sweep(SweepConfig(scenario="scalar-both"))
    cutoffs = [row.result.scenario.cutoff for row in table.rows]
    picked = [row for i, row in enumerate(table.rows) if cutoffs[i] == 120 or i % 5 == 0]
    assert cutoffs.count(120) == 22 and len(picked) == 38
    plan = sweep_plan(Scenario("scalar", "both", 0.0, cutoff=240))
    for row in picked:
        squeeze = row.result.scenario.squeeze
        ref = evaluate_scenario(Scenario("scalar", "both", squeeze, cutoff=240), plan)
        for name, sr in ref.systems.items():
            assert abs(_ln(row, name) - sr.log_negativity) < 1e-8, (squeeze, name)


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
}


@pytest.mark.parametrize("args", list(CONVERT_STDOUT))
def test_main_convert_stdout_is_pinned(capsys, args):
    assert main(["convert", *args.split()]) == 0
    out, err = capsys.readouterr()
    assert out == CONVERT_STDOUT[args] and err == ""


@pytest.mark.parametrize("statistics", ["scalar", "fermion"])
@pytest.mark.parametrize("mass", ["31", "1e-154"])
def test_main_convert_residual_is_finite_at_extreme_mu2(capsys, mass, statistics):
    # mu2 = 480.5 and 5e-309: |Gamma| itself under- or overflows there
    assert main(["convert", "--mass", mass, "--field", "1", "--statistics", statistics]) == 0
    residual = capsys.readouterr().out.splitlines()[-1].split()[-1]
    assert float(residual) < 1e-10


@pytest.mark.parametrize("mass,field", [("1e200", "1e-200"), ("1", "1e-310")])
def test_main_convert_rejects_overflowing_mu2(capsys, mass, field):
    assert main(["convert", "--mass", mass, "--field", field]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mu2")


def test_main_help_exits_cleanly():
    assert main(["--help"]) == 0
