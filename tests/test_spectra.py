"""Negatives-only spectra: closed-form pairs and bisected chains against full ``dsterf``."""

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
from accelpair.entanglement import (
    NEGATIVE_EIGENVALUE_TOL,
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
    """1-4 systems, each of pairs and singletons or of chains of any length."""
    systems = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "ppt", "zero"]))
        if pairs:
            runs = np.array(draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=24)))
            ends = np.cumsum(runs)
            n, lo = int(ends[-1]), ends[runs == 2] - 2
        else:
            n = draw(st.integers(1, 40))
            mask = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
            lo = np.flatnonzero(np.array(mask, dtype=bool))
        systems.append((*tridiagonal(draw, kind, lo, n), lo, kind))
    return systems


def solve(spectra, systems):
    """``spectra`` of the systems joined into one batch, per system."""
    starts = np.cumsum([0] + [d.size for d, _, _, _ in systems])
    return list(zip(*spectra(
        np.concatenate([d for d, _, _, _ in systems]),
        np.concatenate([lo + s for (_, _, lo, _), s in zip(systems, starts)]),
        np.concatenate([e[lo] for _, e, lo, _ in systems]),
        np.repeat(np.arange(len(systems)), [lo.size for _, _, lo, _ in systems]),
        starts,
    )))  # fmt: skip


def reference(d, e):
    eigs = full_spectrum(d, e)
    # a count at the threshold itself is round-off either way
    assume(not (np.abs(eigs + NEGATIVE_EIGENVALUE_TOL) < TOL).any())
    neg = eigs[eigs < -NEGATIVE_EIGENVALUE_TOL]
    return eigs, -neg.sum(), neg.size


@given(batches(pairs=True))
@settings(max_examples=150, deadline=None)
def test_pair_spectra_match_full_dsterf(systems):
    for (d, e, _, kind), (neg, low, count) in zip(systems, solve(pair_spectra, systems)):
        eigs, ref_neg, ref_count = reference(d, e)
        assert abs(neg - ref_neg) < TOL
        assert count == ref_count
        assert abs(low - eigs[0]) < TOL  # the exact minimum
        if kind != "random":
            assert neg == 0.0 and count == 0 and low >= 0.0


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


@pytest.mark.parametrize("cutoff", [4, 30, 120])
def test_structure_picks_pairs_or_chains(cutoff):
    for kind, pairs in [
        (("fermion", "one"), ("s,p", "s,a")),
        (("fermion", "both"), ("p,p", "p,a", "a,p", "a,a")),
        (("scalar", "one"), ("s,p", "s,a")),
        (("scalar", "both"), ()),
    ]:
        assert sweep_plan(Scenario(*kind, 0.3, cutoff=cutoff)).pairs == pairs


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
from accelpair.cli import main
for scenario in ("fermion-one", "fermion-both", "scalar-one"):
    assert main(["sweep", "--scenario", scenario, "--steps", "2", "--csv", sys.argv[1]]) == 0
    assert "scipy.linalg" not in sys.modules, scenario
assert main(["sweep", "--scenario", "scalar-both", "--steps", "2", "--csv", sys.argv[1]]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_only_scalar_both_sweeps_load_scipy_linalg(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SWEEPS, str(tmp_path / "sweep.csv")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
