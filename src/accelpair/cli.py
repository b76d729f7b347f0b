"""Command-line front end: parameter sweeps, CSV emission, SVG figures.

``accelpair sweep`` evaluates the logarithmic negativity of every named
bipartition of a scenario over a grid of squeeze parameters (or, with
``--mu2``, of field parameters mu2 that are first converted to squeeze
values).  Scalar grid points iterate cutoff doubling until the LN values
stabilize with a truncation deficit below the same tolerance.  ``accelpair
convert`` reports the Bogoliubov data for one (m, E) pair.

Exit codes: 0 success, 1 domain/configuration error, 2 I/O error,
3 sweep completed but at least one grid point failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .bogoliubov import (
    FieldParams,
    fermion_coefficients,
    mu2_from_field,
    scalar_coefficients,
    verify_unitarity,
)
from .entanglement import (
    SweepPlan,
    closed_form_ln,
    evaluate_scenario,
    named_bipartitions,
    sweep_plan,
)
from .errors import DomainError, LayoutError
from .states import Scenario
from .svg import Curve, render_line_plot

__all__ = [
    "CUTOFF_CAP",
    "SCENARIOS",
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "run_sweep",
    "emit_csv",
    "emit_plot",
    "convert_mu2",
    "ConversionReport",
    "main",
]

# Cutoff doubling stops here to bound memory; rows that still move are
# flagged as non-converged instead of silently accepted.
CUTOFF_CAP = 128

SCENARIOS = ("fermion-one", "fermion-both", "scalar-one", "scalar-both")


@dataclass(frozen=True)
class SweepConfig:
    """Grid, convergence, and output settings for one sweep."""

    scenario: str
    grid_min: float = 0.0
    grid_max: float | None = None
    steps: int = 101
    cutoff: int = 30
    convergence_tol: float = 1e-8
    csv_path: Path | None = None
    svg_path: Path | None = None
    mu2_grid: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise DomainError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.steps < 2:
            raise DomainError(f"steps must be >= 2, got {self.steps}")
        if self.grid_max is None:
            object.__setattr__(
                self, "grid_max", math.pi / 2.0 if self.statistics == "fermion" else 1.2
            )
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max)):
            raise DomainError("grid bounds must be finite")
        if self.grid_min < 0.0:
            raise DomainError(f"grid minimum must be >= 0, got {self.grid_min}")
        if self.grid_max < self.grid_min:
            raise DomainError("grid maximum must not be below the minimum")
        if self.mu2_grid and self.statistics == "scalar" and self.grid_min <= 0.0:
            raise DomainError("scalar mu2 grids require mu2 > 0 everywhere")
        if not self.mu2_grid and self.statistics == "fermion" and self.grid_max > math.pi / 2.0:
            raise DomainError("fermion grids must stay within [0, pi/2]")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise DomainError(f"tolerance must be finite and positive, got {self.convergence_tol}")
        if not 4 <= self.cutoff < CUTOFF_CAP:  # the ladder must be able to double at least once
            raise DomainError(f"cutoff must lie in [4, {CUTOFF_CAP - 1}], got {self.cutoff}")

    @property
    def statistics(self) -> str:
        return self.scenario.split("-")[0]

    @property
    def accelerated(self) -> str:
        return self.scenario.split("-")[1]


@dataclass(frozen=True)
class SweepRow:
    """One grid point: squeeze value, LN per system, and diagnostics."""

    param: float  # grid value as given (r, r_f, or mu2 with --mu2)
    squeeze: float  # actual squeeze parameter used
    ln: dict[str, float]
    min_pt: dict[str, float]
    closed: dict[str, float] | None
    deficit: float
    cutoff: int  # converged bosonic cutoff; 0 for (exact) fermionic rows
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    config: SweepConfig
    systems: tuple[str, ...]
    rows: list[SweepRow] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)


def _squeeze_from_param(cfg: SweepConfig, param: float) -> float:
    if not cfg.mu2_grid:
        return param
    if cfg.statistics == "fermion":
        return fermion_coefficients(param).r_f
    return scalar_coefficients(param).r


def _evaluate_point(cfg: SweepConfig, param: float, plans: dict[int, SweepPlan]) -> SweepRow:
    """One grid point; scalar points climb the cutoff ladder until LN is stable.

    ``plans`` holds the sweep's plan of each cutoff, and gains those it lacks.
    """
    squeeze = _squeeze_from_param(cfg, param)

    def at_cutoff(n: int):
        sc = Scenario(cfg.statistics, cfg.accelerated, squeeze, cutoff=n)
        if n not in plans:
            plans[n] = sweep_plan(sc)
        return evaluate_scenario(sc, plans[n])

    cutoff = cfg.cutoff
    res = at_cutoff(cutoff)
    fermion = cfg.statistics == "fermion"  # exact states: no ladder
    converged = fermion
    while not converged:
        larger = min(2 * cutoff, CUTOFF_CAP)
        if larger == cutoff:
            break  # cap reached without passing the stability test
        res_larger = at_cutoff(larger)
        delta = max(
            abs(res_larger.systems[name].log_negativity - res.systems[name].log_negativity)
            for name in res.systems
        )
        cutoff, res = larger, res_larger
        # LN also stops moving once the truncation has lost the whole norm
        converged = delta < cfg.convergence_tol and res.deficit < cfg.convergence_tol
    ln = {name: sr.log_negativity for name, sr in res.systems.items()}
    min_pt = {name: sr.min_pt_eigenvalue for name, sr in res.systems.items()}
    if fermion:
        closed = {name: closed_form_ln(cfg.scenario, name, squeeze) for name in ln}
        return SweepRow(param, squeeze, ln, min_pt, closed, res.deficit, 0, True)
    return SweepRow(param, squeeze, ln, min_pt, None, res.deficit, cutoff, converged)


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate every grid point, in grid order."""
    grid = [float(v) for v in np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)]
    plans: dict[int, SweepPlan] = {}  # by cutoff, for this sweep only
    rows = [_evaluate_point(cfg, p, plans) for p in grid]
    probe = Scenario(cfg.statistics, cfg.accelerated, 0.0)
    systems = tuple(named_bipartitions(probe).keys())
    return SweepTable(cfg, systems, rows)


def _column_key(system: str) -> str:
    return system.replace(",", "").replace("(", "").replace(")", "")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_csv(table: SweepTable, path: Path) -> Path:
    """UTF-8, LF-terminated CSV with 12-significant-digit values."""
    header: list[str] = []
    if table.config.mu2_grid:
        header.append("mu2")
    header.append("r")
    header += [f"ln_{_column_key(s)}" for s in table.systems]
    if table.config.statistics == "fermion":
        header += [f"cf_{_column_key(s)}" for s in table.systems]
    header += ["deficit", "cutoff", "converged"]

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in table.rows:
            rec: list = []
            if table.config.mu2_grid:
                rec.append(row.param)
            rec.append(row.squeeze)
            rec += [row.ln[s] for s in table.systems]
            if row.closed is not None:
                rec += [row.closed[s] for s in table.systems]
            rec += [row.deficit, row.cutoff, row.converged]
            writer.writerow([_format_value(v) for v in rec])
    return path


_RHO_NAMES = {
    ("one", "full"): "ρ_s,(p,a)",
    ("both", "full"): "ρ_(p,a),(p,a)",
}


def _legend_label(accelerated: str, system: str) -> str:
    rho = _RHO_NAMES.get((accelerated, system), f"ρ_{system}")
    return f"LN({rho})"


def emit_plot(table: SweepTable, path: Path, style=None) -> Path:
    """Self-contained SVG of the sweep: one curve per bipartition.

    Line-style convention: dot-dashed for the invariant full bipartition,
    dashed when a single mode is accelerated, solid when both are.
    """
    xs = [row.squeeze for row in table.rows]
    body_dash = "dashed" if table.config.accelerated == "one" else "solid"
    curves = []
    for system in table.systems:
        curves.append(
            Curve(
                label=_legend_label(table.config.accelerated, system),
                x=xs,
                y=[row.ln[system] for row in table.rows],
                dash="dotdash" if system == "full" else body_dash,
            )
        )
    doc = render_line_plot(
        curves,
        x_label="r_f" if table.config.statistics == "fermion" else "r",
        y_label="logarithmic negativity",
        title=f"{table.config.scenario} sweep",
        style=style,
    )
    path = Path(path)
    path.write_text(doc, encoding="utf-8")
    return path


@dataclass(frozen=True)
class ConversionReport:
    """Bogoliubov data derived from one (m, E) pair."""

    statistics: str
    mu2: float
    alpha_mag: float
    beta_mag: float
    squeeze: float
    residual: float

    @property
    def squeeze_name(self) -> str:
        return "r_f" if self.statistics == "fermion" else "r"


def convert_mu2(m: float, E: float, statistics: str) -> ConversionReport:
    """mu2 plus coefficient magnitudes, squeeze parameter, and unitarity residual."""
    mu2 = mu2_from_field(FieldParams(m=m, E=E))
    if statistics == "fermion":
        coeff = fermion_coefficients(mu2)
        residual = verify_unitarity(mu2, "fermion")
        squeeze = coeff.r_f
    elif statistics == "scalar":
        coeff = scalar_coefficients(mu2)
        residual = verify_unitarity(mu2, "boson")
        squeeze = coeff.r
    else:
        raise DomainError(f"statistics must be 'scalar' or 'fermion', got {statistics!r}")
    return ConversionReport(
        statistics=statistics,
        mu2=mu2,
        alpha_mag=coeff.alpha_mag,
        beta_mag=coeff.beta_mag,
        squeeze=squeeze,
        residual=residual,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelpair",
        description="Entanglement redistribution for uniformly accelerated particle pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep LN of every bipartition over a squeeze grid")
    sweep.add_argument("--scenario", required=True, choices=SCENARIOS)
    sweep.add_argument("--min", type=float, default=0.0, help="grid minimum (default 0)")
    sweep.add_argument(
        "--max", type=float, default=None, help="grid maximum (default pi/2 fermion, 1.2 scalar)"
    )
    sweep.add_argument("--steps", type=int, default=101, help="grid points (default 101)")
    sweep.add_argument("--cutoff", type=int, default=30, help="initial bosonic cutoff (default 30)")
    sweep.add_argument(
        "--tol", type=float, default=1e-8, help="cutoff-doubling stability tolerance (default 1e-8)"
    )
    sweep.add_argument("--csv", required=True, metavar="PATH", help="output CSV path")
    sweep.add_argument("--svg", default=None, metavar="PATH", help="optional output SVG path")
    sweep.add_argument(
        "--mu2", action="store_true", help="interpret the grid as mu2 and convert to squeeze values"
    )

    conv = sub.add_parser("convert", help="report Bogoliubov data for one (m, E) pair")
    conv.add_argument("--mass", type=float, required=True)
    conv.add_argument("--field", type=float, required=True)
    conv.add_argument("--statistics", choices=("scalar", "fermion"), default="fermion")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    try:
        if args.command == "convert":
            report = convert_mu2(args.mass, args.field, args.statistics)
            print(f"statistics        {report.statistics}")
            print(f"mu2               {report.mu2:.12g}")
            print(f"|alpha|           {report.alpha_mag:.12g}")
            print(f"|beta|            {report.beta_mag:.12g}")
            print(f"{report.squeeze_name:<17} {report.squeeze:.12g}")
            print(f"unitarity residual {report.residual:.3e}")
            return 0

        cfg = SweepConfig(
            scenario=args.scenario,
            grid_min=args.min,
            grid_max=args.max,
            steps=args.steps,
            cutoff=args.cutoff,
            convergence_tol=args.tol,
            csv_path=Path(args.csv),
            svg_path=Path(args.svg) if args.svg else None,
            mu2_grid=args.mu2,
        )
        table = run_sweep(cfg)
        emit_csv(table, cfg.csv_path)
        print(f"wrote {cfg.csv_path} ({len(table.rows)} rows)")
        if cfg.svg_path is not None:
            emit_plot(table, cfg.svg_path)
            print(f"wrote {cfg.svg_path}")
        if not table.all_converged:
            bad = sum(1 for r in table.rows if not r.converged)
            print(
                f"warning: {bad} grid point(s) hit the cutoff cap {CUTOFF_CAP} before "
                f"stabilizing; rows are marked converged=false",
                file=sys.stderr,
            )
            return 3
        return 0
    except (DomainError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
