"""Command-line front end: parameter sweeps, CSV emission, SVG figures.

``accelpair sweep`` evaluates the logarithmic negativity of every named
bipartition of a scenario over a grid of squeeze parameters (or, with
``--mu2``, of field parameters mu2 that are first converted to squeeze
values), one rung of the cutoff ladder at a time: a scalar point doubles its
cutoff until LN is stable and the truncation deficit below the same
tolerance; a fermion grid is exact.  The figures stay columns from the
amplitudes to the files.  The flags are the fields of :class:`SweepConfig`,
which alone states their defaults and the grid's domain.
``accelpair convert`` reports the Bogoliubov data for one (m, E) pair.

Exit codes: 0 success, 1 domain/configuration error, 2 I/O error,
3 sweep completed but at least one grid point failed to converge.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bogoliubov import Coefficients, mu2_from_field, verify_unitarity
from .entanglement import _closed_form_row, _results, evaluate_scenario
from .errors import DomainError, LayoutError
from .states import Rung, Scenario, scenario_amplitudes
from .svg import render_line_plot

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

# 100x the largest grid the package runs (1001 points): 10^5 fermion-both points peak at ~80 MB RSS
_STEPS_CAP = 100_000

SCENARIOS = ("fermion-one", "fermion-both", "scalar-one", "scalar-both")

_SQUEEZE_NAME = {"scalar": "r", "fermion": "r_f"}

_CSV_ROWS = 4096  # rows formatted and written per chunk: bounds what emit_csv holds
_SVG_CHARS = 1 << 16  # characters of the SVG document encoded and written per chunk


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
        if not isinstance(self.cutoff, numbers.Integral):
            raise DomainError(f"cutoff must be an integer, got {self.cutoff!r}")
        if not 4 <= self.cutoff < CUTOFF_CAP:  # the ladder needs one rung above its start
            raise DomainError(f"cutoff must lie in [4, {CUTOFF_CAP - 1}], got {self.cutoff}")
        if self.grid_max is None:
            if self.mu2_grid:
                raise DomainError("mu2 grids need an explicit grid maximum")
            object.__setattr__(
                self, "grid_max", math.pi / 2.0 if self.statistics == "fermion" else 1.2
            )
        if self.grid_max < self.grid_min:
            raise DomainError("grid maximum must not be below the minimum")
        ends = [self.squeeze(end) for end in (self.grid_min, self.grid_max)]  # monotone between
        # DomainError where an end is no valid Scenario, then where its every amplitude underflows
        scenario_amplitudes(Rung(self.statistics, self.accelerated, ends, self.cutoff))
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise DomainError(f"tolerance must be finite and positive, got {self.convergence_tol}")
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
        return Coefficients(self.statistics, param).squeeze if self.mu2_grid else param


# a grid point's value as given, the ScenarioResult that ended its ladder, and its flag
SweepRow = namedtuple("SweepRow", ["param", "result", "converged"])


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep by column, in grid order: each point's grid value (r, r_f, or mu2
    with --mu2), squeeze, final cutoff and flag, and the :func:`evaluate_scenario`
    ``columns`` of the rung that ended its ladder.  ``rows`` makes the records."""

    config: SweepConfig
    grid: np.ndarray
    squeezes: np.ndarray
    cutoffs: np.ndarray
    converged: np.ndarray
    columns: dict

    @property
    def systems(self) -> tuple[str, ...]:
        return self.columns["systems"]

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def rows(self) -> list[SweepRow]:
        points = zip(self.squeezes.tolist(), self.cutoffs.tolist())
        scenarios = [Scenario(*self.config.scenario.split("-"), r, cutoff=n) for r, n in points]
        results = _results(scenarios, self.columns)
        return list(map(SweepRow, self.grid.tolist(), results, self.converged.tolist()))


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the grid one rung of the cutoff ladder at a time: each rung is one
    :func:`evaluate_scenario` call, on a :class:`Rung` of the points whose LN still
    moves, in grid order.  A fermion grid is one rung, where every point converges."""
    grid = np.linspace(cfg.grid_min, cfg.grid_max, cfg.steps)
    squeezes = np.array([cfg.squeeze(v) for v in grid.tolist()]) if cfg.mu2_grid else grid
    converged, cutoffs = np.full(grid.size, cfg.statistics == "fermion"), np.empty(grid.size, int)
    moving, cutoff, columns = np.arange(grid.size), cfg.cutoff, None
    while moving.size:
        rung = evaluate_scenario(Rung(cfg.statistics, cfg.accelerated, squeezes[moving], cutoff))
        cutoffs[moving] = cutoff
        if columns is None:
            columns = rung
        else:  # how far the LN of each point moved, over its systems
            delta = np.abs(rung["log_negativity"] - columns["log_negativity"][moving]).max(axis=1)
            # LN also stops moving once the truncation has lost the whole norm
            converged[moving] = np.maximum(delta, rung["deficit"]) < cfg.convergence_tol
            for key in columns.keys() - {"systems"}:
                columns[key][moving] = rung[key]
        # a point can converge on the rung into the cap; one still moving there stays false
        moving = moving[~converged[moving]] if cutoff < CUTOFF_CAP else moving[:0]
        cutoff = min(2 * cutoff, CUTOFF_CAP)
    return SweepTable(cfg, grid, squeezes, cutoffs, converged, columns)


def emit_csv(table: SweepTable, path: Path) -> Path:
    """UTF-8, LF-terminated CSV with 12-significant-digit values; fermion rows
    are exact, so they add the closed-form ``cf_*`` columns and report cutoff 0."""
    cfg = table.config
    fermion, systems = cfg.statistics == "fermion", table.systems
    keys = [s.replace(",", "") for s in systems]
    header = (["mu2", "r"] if cfg.mu2_grid else ["r"]) + [f"ln_{k}" for k in keys]
    header += [f"cf_{k}" for k in keys] if fermion else []
    header += ["deficit", "cutoff", "converged"]
    forms = _closed_form_row(cfg.scenario, systems) if fermion else None
    line = ",".join(["%.12g"] * (len(header) - 2) + ["%d", "%s"]) + "\n"  # then cutoff, flag
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")  # no field holds a comma, quote or newline
        for at in range(0, table.grid.size, _CSV_ROWS):
            part = slice(at, at + _CSV_ROWS)
            squeezes = table.squeezes[part].tolist()
            cols = [table.grid[part].tolist(), squeezes] if cfg.mu2_grid else [squeezes]
            cols += table.columns["log_negativity"][part].T.tolist()
            cols += forms(squeezes) if fermion else []  # a fermion squeeze lies in [0, pi/2]
            cols.append(table.columns["deficit"][part].tolist())
            cols.append([0] * len(squeezes) if fermion else table.cutoffs[part].tolist())
            cols.append([("false", "true")[c] for c in table.converged[part].tolist()])
            fh.writelines(map(line.__mod__, zip(*cols)))
    return path


_RHO_NAMES = {("one", "full"): "ρ_s,(p,a)", ("both", "full"): "ρ_(p,a),(p,a)"}  # else ρ_<system>


def emit_plot(table: SweepTable, path: Path) -> Path:
    """Self-contained SVG of the sweep: one curve per bipartition.

    Line-style convention: dot-dashed for the invariant full bipartition,
    dashed when a single mode is accelerated, solid when both are.
    """
    cfg, ln = table.config, table.columns["log_negativity"]
    body_dash = "dashed" if cfg.accelerated == "one" else "solid"
    curves = []
    for i, system in enumerate(table.systems):
        label = f"LN({_RHO_NAMES.get((cfg.accelerated, system), f'ρ_{system}')})"
        dash = "dotdash" if system == "full" else body_dash
        curves.append((label, ln[:, i], dash))
    x_label, title = _SQUEEZE_NAME[cfg.statistics], f"{cfg.scenario} sweep"
    doc = render_line_plot(table.squeezes, curves, x_label, "logarithmic negativity", title)
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:  # encoded a chunk at a time
        fh.writelines(doc[at : at + _SVG_CHARS] for at in range(0, len(doc), _SVG_CHARS))
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


_PARSER = _build_parser()  # built once per process; parse_args leaves it as it is


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "convert":
            mu2 = mu2_from_field(args.mass, args.field)
            coeff = Coefficients(args.statistics, mu2)
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
        print(f"wrote {cfg.csv_path} ({table.grid.size} rows)")
        if cfg.svg_path is not None:
            emit_plot(table, cfg.svg_path)
            print(f"wrote {cfg.svg_path}")
        if not table.all_converged:
            bad = table.grid.size - int(np.count_nonzero(table.converged))
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
