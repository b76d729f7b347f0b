import csv
import math

import pytest

from accelpair import DomainError
from accelpair.cli import (
    CUTOFF_CAP,
    ConversionReport,
    SweepConfig,
    convert_mu2,
    emit_csv,
    emit_plot,
    main,
    run_sweep,
)

from oracles import scalar_one_sp_negativity

HALF_PI = math.pi / 2


def small_fermion_cfg(**kw):
    base = dict(scenario="fermion-one", grid_min=0.0, grid_max=HALF_PI, steps=9)
    base.update(kw)
    return SweepConfig(**base)


# --- configuration ------------------------------------------------------------


def test_config_defaults_resolve_per_scenario():
    assert SweepConfig(scenario="fermion-both").grid_max == pytest.approx(HALF_PI)
    assert SweepConfig(scenario="scalar-one").grid_max == pytest.approx(1.2)


@pytest.mark.parametrize(
    "kw",
    [
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
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(DomainError):
        SweepConfig(**kw)


def test_mu2_grid_allows_fermion_beyond_half_pi():
    cfg = SweepConfig(scenario="fermion-one", mu2_grid=True, grid_min=0.05, grid_max=5.0, steps=3)
    table = run_sweep(cfg)
    for row in table.rows:
        assert 0.0 <= row.squeeze <= HALF_PI
        assert row.squeeze == pytest.approx(math.asin(math.exp(-math.pi * row.param)))


# --- sweeps ---------------------------------------------------------------------


def test_fermion_one_sweep_endpoints():
    table = run_sweep(small_fermion_cfg())
    assert table.systems == ("full", "s,p", "s,a")
    first = table.rows[0]
    assert first.ln["s,p"] == pytest.approx(1.0, abs=1e-12)
    assert first.ln["s,a"] == pytest.approx(0.0, abs=1e-12)
    assert first.converged and first.cutoff == 0
    assert all(abs(r.ln["full"] - 1.0) < 1e-10 for r in table.rows)


def test_fermion_both_sweep_complete_transfer_at_endpoint():
    table = run_sweep(small_fermion_cfg(scenario="fermion-both"))
    last = table.rows[-1]
    assert last.ln["a,a"] == pytest.approx(1.0, abs=1e-10)
    assert last.ln["p,p"] == pytest.approx(0.0, abs=1e-10)


def test_scalar_sweep_converges_and_zeroes_antiparticles():
    cfg = SweepConfig(scenario="scalar-one", grid_min=0.0, grid_max=0.6, steps=3, cutoff=8)
    table = run_sweep(cfg)
    for row in table.rows:
        assert row.converged
        assert row.cutoff <= CUTOFF_CAP
        assert row.ln["s,a"] == pytest.approx(0.0, abs=1e-8)


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
    assert mid.squeeze == pytest.approx(math.pi / 4)
    assert mid.ln["p,p"] == pytest.approx(mid.ln["a,a"], abs=1e-12)
    assert mid.ln["p,p"] == pytest.approx(math.log2(1.25), abs=1e-10)
    path = emit_plot(table, tmp_path / "cross.svg")
    pts = _polyline_points(path.read_text(encoding="utf-8"))
    pp, aa = pts[1], pts[4]  # system order: full, p,p, p,a, a,p, a,a
    assert pp[2] == aa[2]  # identical pixel at the crossing grid point


def test_emit_plot_solid_for_both_accelerated(tmp_path):
    table = run_sweep(small_fermion_cfg(scenario="fermion-both", steps=3))
    text = emit_plot(table, tmp_path / "b.svg").read_text(encoding="utf-8")
    assert 'stroke-dasharray="7 4"' not in text


# --- convert ----------------------------------------------------------------------


def test_convert_mu2_fermion_values():
    report = convert_mu2(1.0, 0.5, "fermion")
    assert isinstance(report, ConversionReport)
    assert report.mu2 == 1.0
    assert report.squeeze == pytest.approx(math.asin(math.exp(-math.pi)), abs=1e-14)
    assert report.residual < 1e-10
    assert report.squeeze_name == "r_f"


def test_convert_mu2_massless_limit():
    report = convert_mu2(0.0, 1.0, "fermion")
    assert report.squeeze == pytest.approx(HALF_PI, abs=1e-14)
    assert report.beta_mag == 1.0


def test_convert_mu2_scalar():
    report = convert_mu2(1.0, 1.0, "scalar")
    assert report.mu2 == 0.5
    assert report.squeeze == pytest.approx(math.asinh(math.exp(-math.pi / 2)), abs=1e-14)
    assert report.residual < 1e-10


def test_convert_mu2_rejects_unknown_statistics():
    with pytest.raises(DomainError):
        convert_mu2(1.0, 1.0, "ghost")


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


def test_main_exit_code_for_unparsable_arguments():
    assert main(["sweep", "--scenario", "not-a-scenario", "--csv", "x.csv"]) == 1


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
