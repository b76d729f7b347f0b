"""Serial end-to-end benchmark of ``accelpair sweep``; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout: the package is imported from ``src/`` and
``accelpair.cli.main(["sweep", ...])`` is called in-process, one sweep worker
and one BLAS thread.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it wraps the package's public functions
(bench/spans.py) and reports the per-layer metrics.  Every CSV written is
checked by bench/gate.py.  The last stdout line is the JSON result.
Scratch files go to ``.bench_work/`` in the checkout.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

PINNED_THREADS = ("ACCELPAIR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    lo: float
    hi: float
    steps: int

    def grid_bounds(self, seed: int) -> tuple[float, float]:
        """Endpoints moved inward by up to a quarter grid step, from the seed.

        A quarter step keeps every point on the same side of the r at which
        the ladder goes on to cutoff 120 (r ~ 0.925 for scalar-one, ~ 0.940
        for scalar-both), so every seed does the same work.
        """
        rng = random.Random(seed)
        step = (self.hi - self.lo) / (self.steps - 1)
        return self.lo + rng.random() * step / 4, self.hi - rng.random() * step / 4


WORKLOADS = {
    "scalar-both-ladder": Workload(("scalar-both",), 0.0, 1.2, 7),
    "scalar-one-sweep": Workload(("scalar-one",), 0.0, 1.2, 101),
    "fermion-sweep": Workload(("fermion-one", "fermion-both"), 0.0, math.pi / 2, 1001),
}


def outputs(scenario: str, tag: str) -> tuple[Path, Path]:
    return WORK / f"{tag}-{scenario}.csv", WORK / f"{tag}-{scenario}.svg"


def sweep_argv(scenario: str, lo: float, hi: float, steps: int, tag: str) -> list[str]:
    csv_path, svg_path = outputs(scenario, tag)
    return [
        "sweep", "--scenario", scenario,
        "--min", repr(lo), "--max", repr(hi), "--steps", str(steps),
        "--csv", str(csv_path), "--svg", str(svg_path),
    ]  # fmt: skip


def import_package():
    """Pin the thread counts, then import numpy, scipy and accelpair from ``src/``.

    Setup subprocesses inherit the same environment.  Raises ImportError when
    the checkout has no package sources or another copy would be imported.
    """
    if not (SRC / "accelpair" / "__init__.py").is_file():
        raise ImportError(f"no accelpair sources under {SRC}")
    os.environ.update(dict.fromkeys(PINNED_THREADS, "1"))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import accelpair.cli

    if Path(accelpair.cli.__file__).resolve().parent != (SRC / "accelpair").resolve():
        raise ImportError(f"imported accelpair from {accelpair.cli.__file__}, not {SRC}")
    return numpy, scipy, accelpair.cli


class Bench:
    """One workload on one seed: its grid, sweeps, and gate tally."""

    def __init__(self, cli, np, name: str, seed: int):
        self.cli = cli
        self.workload = WORKLOADS[name]
        self.lo, self.hi = self.workload.grid_bounds(seed)
        self.grid = [float(v) for v in np.linspace(self.lo, self.hi, self.workload.steps)]
        self.attempted = 0
        self.failed = 0

    def _gate(self, scenario: str, exit_code: int, tag: str, grid: list[float]) -> None:
        self.attempted += len(grid)
        self.failed += gate.check_sweep(scenario, exit_code, *outputs(scenario, tag), grid)

    def sweep(self, tag: str = "sweep") -> float:
        """Wall seconds of one sweep of every scenario; outputs gated afterwards."""
        codes = []
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for scenario in self.workload.scenarios:
                argv = sweep_argv(scenario, self.lo, self.hi, self.workload.steps, tag)
                try:
                    codes.append(self.cli.main(argv))
                except Exception:  # a crashed sweep fails its points; the run goes on
                    traceback.print_exc()
                    codes.append(-1)
        elapsed = time.perf_counter() - start
        for scenario, code in zip(self.workload.scenarios, codes):
            self._gate(scenario, code, tag, self.grid)
        return elapsed

    def setup_seconds(self) -> float:
        """Fresh-process wall time: imports plus a 2-point sweep at the first grid value.

        Two points because 2 is the CLI's smallest grid.
        """
        scenario = self.workload.scenarios[0]
        argv = sweep_argv(scenario, self.lo, self.lo, 2, "setup")
        code = "import sys, numpy, scipy, accelpair.cli; sys.exit(accelpair.cli.main(sys.argv[1:]))"
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S,
        )  # fmt: skip
        elapsed = time.perf_counter() - start
        self._gate(scenario, proc.returncode, "setup", [self.lo, self.lo])
        return elapsed


def _timed_loop(seconds: float, step) -> None:
    start = time.perf_counter()
    done = 0
    while done < MIN_SAMPLES or time.perf_counter() - start < seconds:
        step()
        done += 1


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f}"


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    setup = [bench.setup_seconds() for _ in range(SETUP_REPEATS)]
    bench.sweep("warmup")
    samples: list[float] = []
    _timed_loop(seconds, lambda: samples.append(bench.sweep()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"sweep_s {_quartiles(samples)}; setup_s {_quartiles(setup)}")
    return {
        "sweep_s": statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def measure_layers(bench: Bench, seconds: float, units: dict[str, str], out: Path):
    """Per-layer metrics from traced sweeps alternated with untraced ones.

    Times are medians over the traced sweeps; counts must repeat exactly.
    Returns (metrics, counts_repeat).
    """
    tracer = spans.Tracer()
    bench.sweep("warmup")
    plain: list[float] = []
    traced: list[float] = []
    per_sweep: list[dict[str, float]] = []

    def pair() -> None:
        plain.append(bench.sweep())
        tracer.spans.clear()
        tracer.point_ids = {v: i for i, v in enumerate(bench.grid)}
        with tracer:
            traced.append(bench.sweep("traced"))
        points = len(bench.grid) * len(bench.workload.scenarios)
        per_sweep.append(spans.summarize(tracer.spans, points, tracer.absent))

    _timed_loop(seconds, pair)
    with open(out, "w", encoding="utf-8") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(dict(zip(spans.SPAN_FIELDS, rec))) + "\n")
    if tracer.absent:
        print(f"absent (not traced): {', '.join(tracer.absent)}", file=sys.stderr)
    metrics: dict[str, float] = {}
    counts_repeat = True
    for name, unit in units.items():
        values = [m[name] for m in per_sweep if name in m]
        if len(values) != len(per_sweep):
            continue
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            counts_repeat &= len(set(values)) == 1
            metrics[name] = values[0]
    # Each traced sweep runs right after an untraced one, so pairing them
    # cancels most of the host's slow drift in speed.
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    print(f"untraced sweep_s {_quartiles(plain)}; traced sweep_s {_quartiles(traced)}")
    return metrics, counts_repeat


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "pinned_threads": {v: os.environ[v] for v in PINNED_THREADS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        np, scipy, cli = import_package()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("environment " + json.dumps(environment(np, scipy), sort_keys=True))
    bench = Bench(cli, np, args.workload, args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    correct = True
    if args.trace:
        out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, correct = measure_layers(bench, args.seconds, units, out)
    else:
        values = measure_end_to_end(bench, args.seconds)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"absent metrics: {', '.join(missing)}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    print(f"points attempted {bench.attempted}, failed {bench.failed}")
    result = {
        "correct": correct and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
