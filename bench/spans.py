"""In-memory span tracer for accelpair, installed from outside the package.

The tracer replaces each traced function with a wrapper, both on the module
that defines it and on every ``from ... import`` binding of it inside the
package, so calls made through ``entanglement`` or ``cli`` are seen as well
as calls inside the defining module.  Each call records one span:

    [name, start, end, parent, point, cutoff, size]

``parent`` is the index of the enclosing span (-1 at the top), ``point`` the
grid-point id and ``cutoff`` the bosonic cutoff of the enclosing
``evaluate_scenario`` call (None for fermions, which ignore it), and ``size``
a per-function count: the input dimension of a block eigensolve, or the
stored entries of a coordinate state.  Wrappers return what the wrapped
function returns, untouched.  A traced function that no longer exists is
listed in ``absent`` and its metrics are left out; the tracer does not fail.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

EVALUATE = "entanglement.evaluate_scenario"
BLOCK_EIG = "sparse.hermitian_block_eigenvalues"
COORD_STATE = "states.build_final_state_coords"
EMITTERS = ("cli.emit_csv", "cli.emit_plot")
LADDER_CUTOFFS = (30, 60, 120)
PACKAGE = "accelpair"
SPAN_FIELDS = ("name", "start", "end", "parent", "point", "cutoff", "size")

# "<module>.<function>" names, relative to the package.
TARGETS = (
    "cli.run_sweep",
    "cli.emit_csv",
    "cli.emit_plot",
    EVALUATE,
    "entanglement.reduced_density",
    "entanglement.partial_transpose",
    "states.build_final_state",
    COORD_STATE,
    "sparse.reduced_gram",
    "sparse.partial_transpose_sparse",
    BLOCK_EIG,
    "sparse.schmidt_weights",
    "fock.hermitian_eigenvalues",
)


def _block_states(args, result):
    return int(args[0].shape[0])


def _coord_entries(args, result):
    return len(result[0].values)


_SIZERS = {BLOCK_EIG: _block_states, COORD_STATE: _coord_entries}


class Tracer:
    """Wraps the traced functions of the package while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.point_ids: dict[float, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), func_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizer = _SIZERS.get(name)
        is_evaluate = name == EVALUATE

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_evaluate:
                sc = args[0] if args else next(iter(kwargs.values()), None)
                point = self.point_ids.get(getattr(sc, "squeeze", None))
                scalar = getattr(sc, "statistics", None) == "scalar"
                cutoff = getattr(sc, "cutoff", None) if scalar else None
            elif parent >= 0:
                point, cutoff = spans[parent][4], spans[parent][5]
            else:
                point = cutoff = None
            rec = [name, 0.0, 0.0, parent, point, cutoff, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sizer is not None:
                try:
                    rec[6] = sizer(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced


def summarize(spans: list[list], points: int, absent=()) -> dict[str, float]:
    """Per-layer metrics of one traced sweep over ``points`` grid points.

    ``<layer>.self_s`` is a span's duration minus the time its child spans
    cover, summed over calls; ``<layer>.calls`` counts calls.  Cutoff splits
    and ladder counts always include 30, 60 and 120, so a workload that never
    reaches a cutoff reports 0 there.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    eig_by_cutoff: dict[int, float] = dict.fromkeys(LADDER_CUTOFFS, 0.0)
    evals: Counter = Counter(dict.fromkeys(LADDER_CUTOFFS, 0))
    sizes: dict[str, int | None] = {}
    emit_s = 0.0
    for i, (name, t0, t1, parent, point, cutoff, size) in enumerate(spans):
        own = (t1 - t0) - child[i]
        self_s[name] += own
        calls[name] += 1
        if name == BLOCK_EIG and cutoff is not None:
            eig_by_cutoff[cutoff] = eig_by_cutoff.get(cutoff, 0.0) + own
        if name == EVALUATE and cutoff is not None:
            evals[cutoff] += 1
        if name in EMITTERS:
            emit_s += t1 - t0
        if name in _SIZERS:
            prev = sizes.get(name, 0)
            sizes[name] = None if prev is None or size is None else prev + size

    present = [t for t in TARGETS if t not in absent]
    out: dict[str, float] = {}
    for name in present:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    if BLOCK_EIG in present:
        for cutoff, seconds in sorted(eig_by_cutoff.items()):
            out[f"{BLOCK_EIG}.self_s.n{cutoff}"] = seconds
        if sizes.get(BLOCK_EIG, 0) is not None:
            out[f"{BLOCK_EIG}.states"] = sizes.get(BLOCK_EIG, 0)
    if COORD_STATE in present and sizes.get(COORD_STATE, 0) is not None:
        out["states.coord_entries"] = sizes.get(COORD_STATE, 0)
    if EVALUATE in present:
        for cutoff, count in sorted(evals.items()):
            out[f"ladder.evals.n{cutoff}"] = count
        if calls[EVALUATE]:
            out["ladder.useful_ratio"] = points / calls[EVALUATE]
    if any(e in present for e in EMITTERS):
        out["cli.emit_s"] = emit_s
    return out

