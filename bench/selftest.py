"""Self-test of the benchmark's own checks, on small grids (a few seconds).

    python3 bench/selftest.py

* The gate passes clean sweeps of all four scenarios, and counts exactly one
  failed point for one flipped ``converged`` flag, for one LN moved by 1e-6,
  and for one missing row; a non-zero exit code fails every point.
  (``ln_full`` is only pinned to 1e-6 and ``ln_sp``/``ln_pp`` only to
  never increase, so the 1e-6 moves go to columns pinned exactly.)
* The traced ladder counts match the ``cutoff`` column of the untraced CSV:
  each row costs one evaluation per cutoff from 30 up to its final cutoff.
* Traced sweeps write the same CSV bytes as untraced ones.
* A traced function that does not exist is reported absent, not fatal.

Prints one PASS/FAIL line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from collections import Counter

import gate
import run
import spans

# (scenario, min, max, steps): the scalar grids straddle the r at which the
# ladder goes on to cutoff 120.
GRIDS = (
    ("fermion-one", 0.0, 1.5, 11),
    ("fermion-both", 0.0, 1.5, 11),
    ("scalar-one", 0.0, 1.2, 9),
    ("scalar-both", 0.3, 1.1, 3),
)
START_CUTOFF = 30


def ladder(final: int, cap: int) -> list[int]:
    """Cutoffs a row climbs: START_CUTOFF, doubled (capped) up to ``final``."""
    cutoffs = [START_CUTOFF]
    while cutoffs[-1] < min(final, cap):
        cutoffs.append(min(2 * cutoffs[-1], cap))
    return cutoffs


class SelfTest:
    def __init__(self, np, cli):
        self.np = np
        self.cli = cli
        self.failures = 0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")

    def sweep(self, scenario, lo, hi, steps, tag):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(run.sweep_argv(scenario, lo, hi, steps, tag))
        grid = [float(v) for v in self.np.linspace(lo, hi, steps)]
        return code, grid

    def gate_cases(self, scenario: str, grid: list[float]) -> None:
        csv_path, svg_path = run.outputs(scenario, "plain")
        rows = gate.read_rows(csv_path)
        self.check(f"gate passes clean {scenario}", gate.count_failed(scenario, rows, grid) == 0)
        self.check(
            f"gate fails every point of {scenario} on exit code 3",
            gate.check_sweep(scenario, 3, csv_path, svg_path, grid) == len(grid),
        )
        self.check(
            f"gate counts a missing {scenario} row",
            gate.count_failed(scenario, rows[:-1], grid) == 1,
        )
        if scenario.startswith("fermion"):
            mutations = [(f"ln_{s}", None) for s in gate.SYSTEMS[scenario]]
        else:
            mutations = [(c, None) for c in gate.ZERO_COLUMNS[scenario]]
            mutations.append(("converged", "false"))
        for column, value in mutations:
            mutated = [dict(r) for r in rows]
            target = mutated[len(rows) // 2]
            target[column] = value if value is not None else repr(float(target[column]) + 1e-6)
            mutated_path = csv_path.with_name(f"mutated-{scenario}.csv")
            with open(mutated_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(mutated)
            change = f"{column}={value}" if value is not None else f"{column} + 1e-6"
            failed = gate.check_sweep(scenario, 0, mutated_path, svg_path, grid)
            self.check(f"gate counts one failed {scenario} point for {change}", failed == 1)

    def ladder_case(self, scenario: str, tracer: spans.Tracer, grid: list[float]) -> None:
        plain_csv = run.outputs(scenario, "plain")[0]
        expected: Counter = Counter()
        for row in gate.read_rows(plain_csv):
            expected.update(ladder(int(row["cutoff"]), self.cli.CUTOFF_CAP))
        metrics = spans.summarize(tracer.spans, len(grid), tracer.absent)
        traced = {
            int(k.rsplit(".n", 1)[1]): v
            for k, v in metrics.items()
            if k.startswith("ladder.evals.n") and v
        }
        self.check(
            f"traced ladder counts match the {scenario} cutoff column",
            traced == dict(expected),
            f"traced {traced}, from CSV {dict(expected)}",
        )

    def run_all(self) -> None:
        for scenario, lo, hi, steps in GRIDS:
            code, grid = self.sweep(scenario, lo, hi, steps, "plain")
            self.check(f"{scenario} exits 0", code == 0, f"exit code {code}")
            tracer = spans.Tracer()
            tracer.point_ids = {v: i for i, v in enumerate(grid)}
            with tracer:
                self.sweep(scenario, lo, hi, steps, "traced")
            same = (
                run.outputs(scenario, "plain")[0].read_bytes()
                == run.outputs(scenario, "traced")[0].read_bytes()
            )
            self.check(f"traced {scenario} CSV is byte-identical", same)
            self.gate_cases(scenario, grid)
            if scenario.startswith("scalar"):
                self.ladder_case(scenario, tracer, grid)

        missing = "sparse.no_such_function"
        tracer = spans.Tracer(targets=spans.TARGETS + (missing,))
        with tracer:
            self.sweep("fermion-one", 0.0, 1.5, 3, "absent")
        metrics = spans.summarize(tracer.spans, 3, tracer.absent)
        self.check(
            "a missing traced function is reported absent",
            tracer.absent == [missing] and metrics.get("cli.run_sweep.calls") == 1,
        )


def main() -> int:
    try:
        np, _, cli = run.import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    test = SelfTest(np, cli)
    test.run_all()
    print(f"{test.failures} check(s) failed")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
