"""Byte-for-byte regression of sweep output against committed golden files.

The CSV and SVG bytes of a sweep are part of the CLI contract: a refactor
or a faster solver must reproduce them exactly.  Each case is a small grid
of one scenario; the scalar grids end at r = 1.2, so their last point climbs
the cutoff ladder to 120.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from accelpair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "fermion-one": ["--steps", "11"],
    "fermion-both": ["--steps", "11"],
    "scalar-one": ["--steps", "5"],
    "scalar-both": ["--steps", "5"],
}


def _sweep(scenario: str, out_dir: Path) -> tuple[int, Path, Path]:
    csv_path = out_dir / f"{scenario}.csv"
    svg_path = out_dir / f"{scenario}.svg"
    argv = ["sweep", "--scenario", scenario, *CASES[scenario]]
    code = main([*argv, "--csv", str(csv_path), "--svg", str(svg_path)])
    return code, csv_path, svg_path


@pytest.mark.parametrize("scenario", sorted(CASES))
def test_sweep_output_matches_golden_bytes(scenario, tmp_path, capsys):
    code, csv_path, svg_path = _sweep(scenario, tmp_path)
    assert code == 0
    assert csv_path.read_bytes() == (GOLDEN / csv_path.name).read_bytes()
    assert svg_path.read_bytes() == (GOLDEN / svg_path.name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        if _sweep(name, GOLDEN)[0] != 0:
            sys.exit(f"{name}: sweep failed")
