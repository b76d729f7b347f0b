"""Byte-for-byte regression of sweep output against committed golden bytes.

The CSV and SVG bytes of a sweep, and its exit code, are part of the CLI
contract: a refactor or a faster solver must reproduce them exactly.  The
cases are small grids of each scenario, the four default 101-point sweeps,
the README's ``--mu2`` sweep, both 1001-point fermion sweeps and a scalar-one
sweep whose last point cannot converge below the cutoff cap (exit 3).  The
scalar grids end at r >= 1.2, so their last points climb the cutoff ladder to
120.  Cases in ``DIGESTS`` are pinned by the SHA-256 of their bytes, the
others by files in ``tests/golden/``.

Compare every case against its pinned bytes, without pytest, with

    PYTHONPATH=src python tests/test_golden.py

which prints the digests of the ``DIGESTS`` cases, names each case whose
bytes or exit code differ, and exits 1 if any does.  The files are never
regenerated to land a change; only when an output change is intended, add
``--write`` to overwrite the files of the cases whose bytes differ
(never those of a case whose exit code differs).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from accelpair.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

# case name: (sweep arguments, exit code)
CASES = {
    "fermion-one": (["--scenario", "fermion-one", "--steps", "11"], 0),
    "fermion-both": (["--scenario", "fermion-both", "--steps", "11"], 0),
    "scalar-one": (["--scenario", "scalar-one", "--steps", "5"], 0),
    "scalar-both": (["--scenario", "scalar-both", "--steps", "5"], 0),
    "default-fermion-one": (["--scenario", "fermion-one"], 0),
    "default-fermion-both": (["--scenario", "fermion-both"], 0),
    "default-scalar-one": (["--scenario", "scalar-one"], 0),
    "default-scalar-both": (["--scenario", "scalar-both"], 0),
    "readme-mu2": (
        ["--scenario", "fermion-both", "--mu2", "--min", "0.05", "--max", "2", "--steps", "40"],
        0,
    ),
    "scalar-one-cap": (["--scenario", "scalar-one", "--max", "354", "--steps", "3"], 3),
    "fermion-one-1001": (["--scenario", "fermion-one", "--steps", "1001"], 0),
    "fermion-both-1001": (["--scenario", "fermion-both", "--steps", "1001"], 0),
}

# case name: (SHA-256 of the CSV, SHA-256 of the SVG)
DIGESTS = {
    "fermion-one-1001": (
        "08fa183ec005d7b6046e7f48d62cc2d9fe8761cbaf039537ca4864688b6ef9fd",
        "9c2764414a46b5585ba405b214b757ce77f4db1fea9e9d670d40bddbd5cb6c8b",
    ),
    "fermion-both-1001": (
        "c44b44cd61187c7a4bd848b0ac19fc4c7d6e23b27eb3be91de98f499a9dbf146",
        "bbb2f043d2986616f3d8ae14717f72cea51d77bc7a84e1eb7ae94cf466f5ccc5",
    ),
}


def _sweep(name: str, out_dir: Path) -> tuple[int, Path, Path]:
    csv_path = out_dir / f"{name}.csv"
    svg_path = out_dir / f"{name}.svg"
    code = main(["sweep", *CASES[name][0], "--csv", str(csv_path), "--svg", str(svg_path)])
    return code, csv_path, svg_path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden_bytes(name, tmp_path, capsys):
    code, csv_path, svg_path = _sweep(name, tmp_path)
    assert code == CASES[name][1]
    if name in DIGESTS:
        assert (_sha256(csv_path), _sha256(svg_path)) == DIGESTS[name]
    else:
        assert csv_path.read_bytes() == (GOLDEN / csv_path.name).read_bytes()
        assert svg_path.read_bytes() == (GOLDEN / svg_path.name).read_bytes()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.name)
def test_golden_csv_needs_no_quoting(path):
    # emit_csv joins its fields with commas; csv.writer would write these bytes too
    data = path.read_bytes()
    out = io.StringIO()
    rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert out.getvalue().encode("utf-8") == data


def _fermion(name: str) -> bool:
    args = CASES[name][0]
    return args[args.index("--scenario") + 1].startswith("fermion")


@pytest.mark.parametrize("name", [name for name in CASES if _fermion(name)])
def test_fermion_ln_columns_print_their_closed_forms(name, tmp_path, capsys):
    # every fermion LN field holds the 12 significant digits of its closed form
    _, csv_path, _ = _sweep(name, tmp_path)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    systems = [key[3:] for key in rows[0] if key.startswith("cf_")]
    assert systems and all(f"ln_{system}" in rows[0] for system in systems)
    for row in rows:
        assert [row[f"ln_{x}"] for x in systems] == [row[f"cf_{x}"] for x in systems], row["r"]


def _dispatched_features() -> list[str]:
    """The CPU features numpy dispatches to that this host has, by numpy's names."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


NARROWED = """
import contextlib, io, json, sys
from pathlib import Path
from test_golden import CASES, _dispatched_features, _sweep
codes = {}
for name in CASES:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[name] = _sweep(name, Path(sys.argv[1]))[0]
print(json.dumps({"codes": codes, "features": _dispatched_features()}))
"""


def _rows_but_deficit(data: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    keep = [i for i, key in enumerate(rows[0]) if key != "deficit"]
    return [[row[i] for i in keep] for row in rows]


def test_outputs_hold_under_narrowed_simd_dispatch(tmp_path):
    # every case rerun in a child process with none of numpy's dispatched SIMD loops,
    # only its baseline ones: every SVG and fermion CSV keeps its bytes, and a scalar
    # CSV every column but the deficit, whose rounding the narrowed loops change
    features = _dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature on this host")
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", NARROWED, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["features"] == [] and _dispatched_features() == features
    for name, (_, code) in CASES.items():
        assert report["codes"][name] == code, name
        csv_path, svg_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
        if name in DIGESTS:
            assert (_sha256(csv_path), _sha256(svg_path)) == DIGESTS[name], name
            continue
        assert svg_path.read_bytes() == (GOLDEN / svg_path.name).read_bytes(), name
        got, want = csv_path.read_bytes(), (GOLDEN / csv_path.name).read_bytes()
        if _fermion(name):
            assert got == want, name
        else:
            assert _rows_but_deficit(got) == _rows_but_deficit(want), name


def _compare(write: bool) -> list[str]:
    """Run every case and print its digests or verdict; the names of the cases that differ."""
    differ = []
    for name, (_, expected) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, *outputs = _sweep(name, Path(tmp))
            digests = tuple(map(_sha256, outputs))
            if name in DIGESTS:
                print(f'    "{name}": ("{digests[0]}", "{digests[1]}"),')
                same = digests == DIGESTS[name]
            else:
                golden = [GOLDEN / out.name for out in outputs]
                same = all(g.is_file() and _sha256(g) == d for g, d in zip(golden, digests))
                if write and not same and code == expected:
                    GOLDEN.mkdir(exist_ok=True)
                    for out, g in zip(outputs, golden):
                        shutil.copyfile(out, g)
        if code != expected or not same:
            differ.append(name)
            print(f"{name}: differs (exit {code}, expected {expected}; bytes equal: {same})")
    return differ


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare sweep outputs with their pinned bytes.")
    parser.add_argument("--write", action="store_true", help="overwrite differing golden files")
    differ = _compare(parser.parse_args().write)
    print(f"{len(differ)} of {len(CASES)} cases differ: {', '.join(differ) or 'none'}")
    sys.exit(1 if differ else 0)
