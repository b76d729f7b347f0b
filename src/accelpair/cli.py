"""Command-line front end: parameter sweeps, CSV emission, SVG figures.

``accelpair sweep`` evaluates the logarithmic negativity of every named
bipartition of a scenario over a grid of squeeze parameters (or, with
``--mu2``, of field parameters mu2 that are first converted to squeeze
values).  Scalar grid points iterate cutoff doubling until the LN values
stabilize with a truncation deficit below the same tolerance.  Each row keeps
the :class:`ScenarioResult` of its grid point.  The flags are the fields of
:class:`SweepConfig`, which alone states their defaults and the grid's domain.
``accelpair convert`` reports the Bogoliubov data for one (m, E) pair.

Exit codes: 0 success, 1 domain/configuration error, 2 I/O error,
3 sweep completed but at least one grid point failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bogoliubov import FieldParams, coefficients, mu2_from_field, verify_unitarity
from .entanglement import ScenarioResult, SweepPlan, closed_form_ln, evaluate_scenario, sweep_plan
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
    "main",
]

# Cutoff doubling stops here to bound memory; rows that still move are
# flagged as non-converged instead of silently accepted.
CUTOFF_CAP = 128

# 100x the largest grid the package runs (1001 points): at ~1 KB a row, ~100 MB
_STEPS_CAP = 100_000

SCENARIOS = ("fermion-one", "fermion-both", "scalar-one", "scalar-both")

_SQUEEZE_NAME = {"scalar": "r", "fermion": "r_f"}


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
        if not isinstance(self.steps, numbers.Integral):
            raise DomainError(f"steps must be an integer, got {self.steps!r}")
        if not 2 <= self.steps <= _STEPS_CAP:
            raise DomainError(f"steps must lie in [2, {_STEPS_CAP}], got {self.steps}")
        if self.grid_max is None:
            if self.mu2_grid:
                raise DomainError("mu2 grids need an explicit grid maximum")
            object.__setattr__(
                self, "grid_max", math.pi / 2.0 if self.statistics == "fermion" else 1.2
            )
        if self.grid_max < self.grid_min:
            raise DomainError("grid maximum must not be below the minimum")
        for end in (self.grid_min, self.grid_max):  # the squeeze is monotone in between
            Scenario(self.statistics, self.accelerated, self.squeeze(end))
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise DomainError(f"tolerance must be finite and positive, got {self.convergence_tol}")
        if not 4 <= self.cutoff < CUTOFF_CAP:  # the ladder must be able to double at least once
            raise DomainError(f"cutoff must lie in [4, {CUTOFF_CAP - 1}], got {self.cutoff}")
        if self.svg_path is not None and self.csv_path is not None:
            if Path(self.svg_path).resolve() == Path(self.csv_path).resolve():
                raise DomainError(f"the CSV and SVG outputs are the same file: {self.svg_path}")

    @property
    def statistics(self) -> str:
        return self.scenario.split("-")[0]

    @property
    def accelerated(self) -> str:
        return self.scenario.split("-")[1]

    def squeeze(self, param: float) -> float:
        """The squeeze of a grid value: the value itself, or r(mu2) on a mu2 grid."""
        return coefficients(param, self.statistics).squeeze if self.mu2_grid else param


@dataclass(frozen=True)
class SweepRow:
    """One grid point: its grid value and the evaluation that ended its ladder."""

    param: float  # grid value as given (r, r_f, or mu2 with --mu2)
    result: ScenarioResult  # its scenario holds the squeeze and the final cutoff
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    config: SweepConfig
    rows: list[SweepRow]

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(self.rows[0].result.systems)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)


def _evaluate_point(cfg: SweepConfig, param: float, plans: dict[int, SweepPlan]) -> SweepRow:
    """One grid point; scalar points climb the cutoff ladder until LN is stable.

    ``plans`` holds the sweep's plan of each cutoff, and gains those it lacks.
    """
    squeeze = cfg.squeeze(param)

    def at_cutoff(n: int):
        sc = Scenario(cfg.statistics, cfg.accelerated, squeeze, cutoff=n)
        if n not in plans:
            plans[n] = sweep_plan(sc)
        return evaluate_scenario(sc, plans[n])

    cutoff = cfg.cutoff
    res = at_cutoff(cutoff)
    converged = cfg.statistics == "fermion"  # exact states: no ladder
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
    return SweepRow(param, res, converged)


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate every grid point, in grid order."""
    grid = [float(v) for v in np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)]
    plans: dict[int, SweepPlan] = {}  # by cutoff, for this sweep only
    return SweepTable(cfg, [_evaluate_point(cfg, p, plans) for p in grid])


def _column_key(system: str) -> str:
    return system.replace(",", "")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_csv(table: SweepTable, path: Path) -> Path:
    """UTF-8, LF-terminated CSV with 12-significant-digit values; fermion rows
    are exact, so they add the closed-form ``cf_*`` columns and report cutoff 0."""
    cfg = table.config
    fermion = cfg.statistics == "fermion"
    header: list[str] = []
    if cfg.mu2_grid:
        header.append("mu2")
    header.append("r")
    header += [f"ln_{_column_key(s)}" for s in table.systems]
    if fermion:
        header += [f"cf_{_column_key(s)}" for s in table.systems]
    header += ["deficit", "cutoff", "converged"]

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in table.rows:
            res = row.result
            squeeze = res.scenario.squeeze
            rec: list = [row.param] if cfg.mu2_grid else []
            rec.append(squeeze)
            rec += [res.systems[s].log_negativity for s in table.systems]
            if fermion:
                rec += [closed_form_ln(cfg.scenario, s, squeeze) for s in table.systems]
            rec += [res.deficit, 0 if fermion else res.scenario.cutoff, row.converged]
            writer.writerow([_format_value(v) for v in rec])
    return path


_RHO_NAMES = {
    ("one", "full"): "ρ_s,(p,a)",
    ("both", "full"): "ρ_(p,a),(p,a)",
}


def _legend_label(accelerated: str, system: str) -> str:
    rho = _RHO_NAMES.get((accelerated, system), f"ρ_{system}")
    return f"LN({rho})"


def emit_plot(table: SweepTable, path: Path) -> Path:
    """Self-contained SVG of the sweep: one curve per bipartition.

    Line-style convention: dot-dashed for the invariant full bipartition,
    dashed when a single mode is accelerated, solid when both are.
    """
    xs = [row.result.scenario.squeeze for row in table.rows]
    body_dash = "dashed" if table.config.accelerated == "one" else "solid"
    curves = []
    for system in table.systems:
        curves.append(
            Curve(
                label=_legend_label(table.config.accelerated, system),
                x=xs,
                y=[row.result.systems[system].log_negativity for row in table.rows],
                dash="dotdash" if system == "full" else body_dash,
            )
        )
    doc = render_line_plot(
        curves,
        x_label=_SQUEEZE_NAME[table.config.statistics],
        y_label="logarithmic negativity",
        title=f"{table.config.scenario} sweep",
    )
    path = Path(path)
    path.write_text(doc, encoding="utf-8")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelpair",
        description="Entanglement redistribution for uniformly accelerated particle pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="sweep LN of every bipartition over a squeeze grid",
        allow_abbrev=False,
        argument_default=argparse.SUPPRESS,  # each dest is a SweepConfig field with its default
    )
    sweep.add_argument("--scenario", required=True, choices=SCENARIOS)
    for flag, dest, kind, text in (
        ("--min", "grid_min", float, "grid minimum (default 0)"),
        ("--max", "grid_max", float, "grid maximum (default pi/2 fermion, 1.2 scalar; mu2: none)"),
        ("--steps", "steps", int, "grid points (default 101)"),
        ("--cutoff", "cutoff", int, "initial bosonic cutoff (default 30)"),
        ("--tol", "convergence_tol", float, "cutoff-doubling stability tolerance (default 1e-8)"),
    ):
        sweep.add_argument(flag, dest=dest, type=kind, metavar=flag[2:].upper(), help=text)
    sweep.add_argument(
        "--csv", dest="csv_path", type=Path, required=True, metavar="PATH", help="output CSV path"
    )
    sweep.add_argument(
        "--svg", dest="svg_path", type=Path, metavar="PATH", help="optional output SVG path"
    )
    sweep.add_argument(
        "--mu2",
        dest="mu2_grid",
        action="store_true",
        help="interpret the grid as mu2 and convert to squeeze values",
    )

    conv = sub.add_parser(
        "convert", help="report Bogoliubov data for one (m, E) pair", allow_abbrev=False
    )
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
            mu2 = mu2_from_field(FieldParams(m=args.mass, E=args.field))
            coeff = coefficients(mu2, args.statistics)
            residual = verify_unitarity(mu2, args.statistics)
            print(f"statistics        {coeff.statistics}")
            print(f"mu2               {coeff.mu2:.12g}")
            print(f"|alpha|           {coeff.alpha_mag:.12g}")
            print(f"|beta|            {coeff.beta_mag:.12g}")
            print(f"{_SQUEEZE_NAME[coeff.statistics]:<17} {coeff.squeeze:.12g}")
            print(f"unitarity residual {residual:.3e}")
            return 0

        cfg = SweepConfig(**{k: v for k, v in vars(args).items() if k != "command"})
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
