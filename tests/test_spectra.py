"""Negatives-only spectra: closed-form pairs and bisected chains against full ``dsterf``."""

import ast
import importlib.machinery
import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dsterf

from accelpair import Scenario, evaluate_scenario
from accelpair.cli import CUTOFF_CAP
from accelpair.entanglement import (
    NEGATIVE_EIGENVALUE_TOL,
    _dstebz,
    chain_spectrum,
    pair_spectra,
    sweep_plan,
)

SRC = Path(__file__).resolve().parent.parent / "src"
TOL = 1e-15


def full_spectrum(d, e):
    # dsterf works on squared couplings, and a square below the smallest normal
    # double can move its spectrum far more than the coupling itself (a 1e-159
    # coupling beside 0.1 moved an eigenvalue by 1.4e-9).  Dropping couplings
    # below sqrt(tiny) ~ 1.5e-154 moves no eigenvalue by more than 3e-154 (Weyl).
    e = np.where(np.abs(e) < np.sqrt(np.finfo(float).tiny), 0.0, e)
    eigs, info = dsterf(d.copy(), e)
    assert info == 0
    return eigs


def unit_floats(draw, n):
    return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))


def tridiagonal(draw, kind, edges, n):
    """(d, e) of trace about 1, couplings on ``edges``: random, PPT or all zero.
    Random systems also come at traces that put negatives near both thresholds."""
    d, w = unit_floats(draw, n), np.zeros(n - 1)
    w[edges] = unit_floats(draw, edges.size)
    if kind == "zero" or d.sum() == 0.0:
        d, w = 0.0 * d, 0.0 * w
    elif kind == "ppt":  # each row dominated by its diagonal: no negative eigenvalue
        w *= 0.25 / n
        d = d / d.sum() + np.concatenate(([0.0], w)) + np.concatenate((w, [0.0]))
    else:
        trace = draw(st.sampled_from([1.0, 1e-8, 2e-12 * n, 2e-14 * n]))
        d, w = d / d.sum() * trace, w * 2.0 / n * trace
    e = np.zeros(max(n - 1, 1))
    e[: n - 1] = w
    return d, e


@st.composite
def batches(draw, pairs):
    """1-4 systems: rows on one layout of pairs and singletons, as the points of a
    pass share one plan, or chains of any length each."""
    if pairs:
        runs = np.array(draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=24)))
        ends = np.cumsum(runs)
        n, lo = int(ends[-1]), ends[runs == 2] - 2
    systems = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "ppt", "zero"]))
        if not pairs:
            n = draw(st.integers(1, 40))
            mask = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
            lo = np.flatnonzero(np.array(mask, dtype=bool))
        systems.append((*tridiagonal(draw, kind, lo, n), lo, kind))
    return systems


def solve(systems):
    """:func:`pair_spectra` of systems on one layout of pairs, the rows of one batch."""
    lo = systems[0][2]
    d, c = np.stack([d for d, _, _, _ in systems]), np.stack([e[lo] for _, e, _, _ in systems])
    return list(zip(*pair_spectra(d, lo, c)))


def reference(d, e):
    eigs = full_spectrum(d, e)
    # a count at the threshold itself is round-off either way
    assume(not (np.abs(eigs + NEGATIVE_EIGENVALUE_TOL) < TOL).any())
    neg = eigs[eigs < -NEGATIVE_EIGENVALUE_TOL]
    return eigs, -neg.sum(), neg.size


@given(batches(pairs=True))
@settings(max_examples=150, deadline=None)
def test_pair_spectra_match_full_dsterf(systems):
    for (d, e, lo, kind), (neg, low, count) in zip(systems, solve(systems)):
        eigs, ref_neg, ref_count = reference(d, e)
        assert abs(neg - ref_neg) < TOL
        assert count == ref_count
        assert abs(low - eigs[0]) < TOL  # the exact minimum
        if kind != "random":
            assert neg == 0.0 and count == 0 and low >= 0.0
        # a row adds its pairs in order from +0.0, as a sum over each pair alone does
        each = [solve([(d[[i, i + 1]], e[[i]], np.array([0]), kind)])[0][0] for i in lo]
        assert repr(float(neg)) == repr(float(sum(each, 0.0)))


@given(batches(pairs=False))
@settings(max_examples=150, deadline=None)
def test_chain_spectrum_matches_full_dsterf(systems):
    for d, e, lo, kind in systems:
        eigs, ref_neg, ref_count = reference(d, e)
        neg, low, count = chain_spectrum(d, lo, e[lo])
        assert abs(neg - ref_neg) < TOL
        assert count == ref_count
        if low == 0.0:  # certified: nothing at or below -1e-14
            assert eigs[0] > -1e-14 - TOL
        else:
            assert low <= -1e-14 and abs(low - eigs[0]) < TOL
        if kind != "random":
            assert (neg, low, count) == (0.0, 0.0, 0)


@pytest.mark.parametrize("cutoff", range(4, CUTOFF_CAP + 1))
def test_structure_picks_pairs_or_chains(cutoff):
    both = ("p,p", "p,a", "a,p", "a,a")
    for kind, paired, names in [
        (("fermion", "one"), True, ("s,p", "s,a")),
        (("fermion", "both"), True, both),
        (("scalar", "one"), True, ("s,p", "s,a")),
        (("scalar", "both"), False, both),
    ]:
        plan = sweep_plan(Scenario(*kind, 0.3, cutoff=cutoff))
        assert (plan.paired, plan.names) == (paired, names)
        assert len(plan.plans) == len(names)  # each system planned once
        # the physics' rule against the chains: two adjacent edges make a longer chain
        if paired:
            assert all((np.diff(p.edge) > 1).all() for p in plan.plans)  # every chain a pair
        else:
            assert all((np.diff(p.edge) == 1).any() for p in plan.plans)  # a longer chain each


@pytest.mark.parametrize("cutoff", [30, 120])
def test_certified_ppt_chains_call_no_lapack(capfd, cutoff):
    # dstebz on an empty interval makes LAPACK print an error to stderr
    sc = Scenario("scalar", "both", 0.9, cutoff=cutoff)
    res = evaluate_scenario(sc)
    assert res.systems["a,a"].min_pt_eigenvalue == 0.0
    assert res.systems["p,p"].negative_count > 0
    assert res.systems["full"].negative_count == 1  # -sqrt(w0 w1) of the two branch norms
    assert capfd.readouterr().err == ""


SWEEPS = """
import sys
import numpy as np
from accelpair.cli import main
from accelpair.entanglement import _dstebz
csv = ["--steps", "2", "--csv", sys.argv[1]]
for scenario in ("fermion-one", "fermion-both", "scalar-one"):
    assert main(["sweep", "--scenario", scenario, *csv]) == 0
    assert _dstebz.cache_info().currsize == 0, scenario
assert main(["sweep", "--scenario", "scalar-both", *csv]) == 0
assert _dstebz.cache_info().currsize == 1
assert main(["sweep", "--scenario", "scalar-one", "--mu2", "--min", "0.1", "--max", "1", *csv]) == 0
assert not [name for name in sys.modules if name.startswith("scipy")]
assert main(["convert", "--mass", "1", "--field", "1"]) == 0
assert "scipy.special" in sys.modules
import scipy.linalg
from scipy.linalg.lapack import dstebz, dsterf
assert scipy.linalg._flapack.dstebz is _dstebz() and dstebz is _dstebz()
eigs, info = dsterf(np.array([2.0, 2.0]), np.array([1.0]))
assert info == 0 and np.allclose(eigs, [1.0, 3.0])
"""


def test_sweeps_reach_dstebz_without_importing_scipy_linalg(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SWEEPS, str(tmp_path / "sweep.csv")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def scipy_imports(node):
    """The import statements under ``node`` that name scipy or one of its modules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
            names = [sub.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield sub


def test_scipy_is_imported_inside_functions_only():
    # a module-level scipy import would put its load back into every start-up
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        inside = {id(node) for f in funcs for node in scipy_imports(f)}
        assert {id(node) for node in scipy_imports(tree)} == inside, path.name
        importers += [f.name for f in funcs if any(scipy_imports(f))]
    assert sorted(importers) == ["_dstebz", "gamma_pathway_alpha", "hermitian_block_eigenvalues"]


FLAPACK = "scipy.linalg._flapack"


def pinned_chains():
    """The subnormal-coupling chain, then seeded chains at traces near both thresholds."""
    yield np.array([0.0, 0.0, 0.0, 1.0]), np.array([0, 1]), np.array([1e-159, 2 / 19])
    rng = np.random.default_rng(22)
    for n, trace in itertools.product([2, 7, 40], [1.0, 1e-8, 2e-12, 2e-14]):
        d = rng.random(n)
        lo = np.flatnonzero(rng.random(n - 1) < 0.7)
        yield d * trace / d.sum(), lo, rng.random(lo.size) * 2.0 * trace / n


def dstebz_results():
    chains = [chain_spectrum(d, lo, c) for d, lo, c in pinned_chains()]
    rows = [evaluate_scenario(Scenario("scalar", "both", r, cutoff=120)) for r in (0.3, 0.9, 1.2)]
    return chains, rows


@pytest.fixture
def reload_dstebz(monkeypatch):
    """``_dstebz`` loads afresh; the process's own ``_flapack`` is restored afterwards."""
    monkeypatch.delitem(sys.modules, FLAPACK, raising=False)
    _dstebz.cache_clear()
    yield monkeypatch
    _dstebz.cache_clear()


def test_dstebz_falls_back_to_the_public_import_where_the_extension_fails(reload_dstebz):
    from scipy.linalg.lapack import dstebz  # scipy.linalg is already imported here

    chain = np.array([0.0, 0.0, 0.5]), np.array([0, 1]), np.array([0.3, 0.2])
    want = chain_spectrum(*chain)  # through the extension loaded from its file
    assert want[2] == 1
    failed = []

    def exec_module(loader, module):
        failed.append(module.__name__)
        raise ImportError("the extension fails to load")

    reload_dstebz.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", exec_module)
    _dstebz.cache_clear()
    modules = dict(sys.modules)
    assert _dstebz() is dstebz and failed == [FLAPACK]
    assert sys.modules == modules
    assert chain_spectrum(*chain) == want


def test_private_and_public_dstebz_loads_give_equal_results(reload_dstebz):
    calls = []
    spec_from_file_location = importlib.util.spec_from_file_location

    def spy(*args, **kwargs):
        calls.append(args)
        return spec_from_file_location(*args, **kwargs)

    reload_dstebz.setattr(importlib.util, "spec_from_file_location", spy)
    private = dstebz_results()
    assert len(calls) == 1  # loaded from its file
    assert sum(count for _, _, count in private[0]) > 0
    reload_dstebz.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    _dstebz.cache_clear()
    public = dstebz_results()
    assert len(calls) == 1  # found no file: the public import
    assert public == private
