"""Output gate: count the grid points of an ``accelpair sweep`` CSV that are wrong.

A sweep passes only if the CLI exited 0 and every row is right:

* the ``r`` column is the grid value the sweep was asked for;
* fermion rows: every ``ln_*`` equals its closed form ``cf_*`` to within
  1e-11 (the CSV prints 12 significant digits);
* scalar rows (acceptance criterion 3): ``converged=true``, ``ln_full``
  within 1e-6 of 1, the antiparticle columns exactly 0, and the
  particle-particle column never larger than on the row before.

A missing row, an extra row or an unreadable value fails its point; a non-zero
exit code or an unreadable file fails every point of the sweep.
"""

from __future__ import annotations

import csv
from pathlib import Path

FERMION_TOL = 1e-11
FULL_TOL = 1e-6
R_TOL = 1e-11

# Reduced systems of each scenario, as CSV column keys.
SYSTEMS = {
    "fermion-one": ("full", "sp", "sa"),
    "fermion-both": ("full", "pp", "pa", "ap", "aa"),
    "scalar-one": ("full", "sp", "sa"),
    "scalar-both": ("full", "pp", "pa", "ap", "aa"),
}
ZERO_COLUMNS = {"scalar-one": ("ln_sa",), "scalar-both": ("ln_pa", "ln_ap", "ln_aa")}
MONOTONE_COLUMNS = {"scalar-one": ("ln_sp",), "scalar-both": ("ln_pp",)}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row_ok(scenario: str, row: dict, prev: dict | None, r_expected: float) -> bool:
    try:
        if abs(float(row["r"]) - r_expected) > R_TOL * max(1.0, abs(r_expected)):
            return False
        if scenario.startswith("fermion"):
            return all(
                abs(float(row[f"ln_{s}"]) - float(row[f"cf_{s}"])) <= FERMION_TOL
                for s in SYSTEMS[scenario]
            )
        if row["converged"] != "true":
            return False
        if abs(float(row["ln_full"]) - 1.0) > FULL_TOL:
            return False
        if any(float(row[c]) != 0.0 for c in ZERO_COLUMNS[scenario]):
            return False
        return prev is None or all(
            float(row[c]) <= float(prev[c]) for c in MONOTONE_COLUMNS[scenario]
        )
    except (KeyError, TypeError, ValueError):
        return False


def count_failed(scenario: str, rows: list[dict], grid: list[float]) -> int:
    """Failing grid points among ``rows``, checked against the requested ``grid``."""
    failed = abs(len(rows) - len(grid))
    prev = None
    for row, r in zip(rows, grid):
        failed += not _row_ok(scenario, row, prev, r)
        prev = row
    return failed


def check_sweep(scenario: str, exit_code: int, csv_path: Path, svg_path: Path, grid) -> int:
    """Failing grid points of one CLI sweep; every point fails if the run did."""
    if exit_code != 0:
        return len(grid)
    try:
        rows = read_rows(csv_path)
        svg_ok = svg_path.read_text(encoding="utf-8").rstrip().endswith("</svg>")
    except (OSError, UnicodeDecodeError, csv.Error):
        return len(grid)
    if not svg_ok:
        return len(grid)
    return count_failed(scenario, rows, grid)
