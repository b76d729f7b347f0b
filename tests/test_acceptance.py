"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from accelpair import Scenario, closed_form_ln, evaluate_scenario, verify_unitarity
from accelpair.bogoliubov import coefficients, gamma_pathway_alpha
from accelpair.cli import SweepConfig, run_sweep
from accelpair.entanglement import Bipartition, negativity, partial_transpose, reduced_density
from accelpair.fock import Ket, SubsystemLayout, boson_mode, fermion_mode
from accelpair.states import build_final_state, scenario_amplitudes

from oracles import brute_force_partial_transpose, random_pure_amplitudes, trace_norm_negativity

HALF_PI = math.pi / 2


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {verdict} - {description}{suffix}")


def _ln(row, system):
    return row.result.systems[system].log_negativity


def test_criterion_1_fermion_one_accelerated_closed_forms():
    grid = np.linspace(0.0, HALF_PI, 101)
    start = time.perf_counter()
    worst = 0.0
    for r_f in grid:
        res = evaluate_scenario(Scenario("fermion", "one", float(r_f)))
        for name in ("full", "s,p", "s,a"):
            expected = closed_form_ln("fermion-one", name, float(r_f))
            worst = max(worst, abs(res.systems[name].log_negativity - expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, "fermion one-accelerated reproduction", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_fermion_both_accelerated_closed_forms():
    grid = np.linspace(0.0, HALF_PI, 101)
    start = time.perf_counter()
    worst = 0.0
    results = {}
    for r_f in grid:
        res = evaluate_scenario(Scenario("fermion", "both", float(r_f)))
        results[float(r_f)] = res
        for name in ("full", "p,p", "a,a", "p,a", "a,p"):
            expected = closed_form_ln("fermion-both", name, float(r_f))
            worst = max(worst, abs(res.systems[name].log_negativity - expected))
    elapsed = time.perf_counter() - start
    endpoint = results[float(grid[-1])]
    transfer_ok = (
        abs(endpoint.systems["a,a"].log_negativity - 1.0) < 1e-10
        and abs(endpoint.systems["p,p"].log_negativity) < 1e-10
    )
    ok = worst < 1e-10 and transfer_ok and elapsed < 5.0
    _report(2, "fermion both-accelerated reproduction", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert transfer_ok
    assert elapsed < 5.0


def test_criterion_3_scalar_invariance_and_zero_transfer():
    start = time.perf_counter()
    one = run_sweep(SweepConfig(scenario="scalar-one", grid_min=0.0, grid_max=1.2, steps=25))
    both = run_sweep(SweepConfig(scenario="scalar-both", grid_min=0.0, grid_max=1.2, steps=25))
    elapsed = time.perf_counter() - start

    checks = {"converged": True, "full": 0.0, "zero_ln": 0.0, "min_pt": 0.0}
    for table in (one, both):
        checks["converged"] &= table.all_converged
        checks["full"] = max(checks["full"], max(abs(_ln(r, "full") - 1.0) for r in table.rows))
    for row in one.rows:
        checks["zero_ln"] = max(checks["zero_ln"], abs(_ln(row, "s,a")))
        checks["min_pt"] = min(checks["min_pt"], row.result.systems["s,a"].min_pt_eigenvalue)
    for row in both.rows:
        for name in ("p,a", "a,a"):
            checks["zero_ln"] = max(checks["zero_ln"], abs(_ln(row, name)))
            checks["min_pt"] = min(checks["min_pt"], row.result.systems[name].min_pt_eigenvalue)

    def monotone(values):
        return all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    sp = [_ln(r, "s,p") for r in one.rows]
    pp = [_ln(r, "p,p") for r in both.rows]
    property_ok = (
        monotone(sp)
        and monotone(pp)
        and abs(sp[0] - 1.0) < 1e-10
        and abs(pp[0] - 1.0) < 1e-10
    )
    strict_ok = all(
        b < a - 1e-9
        for table_vals, rows in ((sp, one.rows), (pp, both.rows))
        for a, b, row in zip(table_vals, table_vals[1:], rows[1:])
        if row.result.scenario.squeeze >= 0.1
    )

    ok = (
        checks["converged"]
        and checks["full"] < 1e-6
        and checks["zero_ln"] == 0.0
        and checks["min_pt"] >= -1e-10
        and property_ok
        and strict_ok
        and elapsed < 60.0
    )
    _report(
        3,
        "scalar invariance and zero antiparticle transfer",
        ok,
        f"full dev {checks['full']:.2e}, min PT {checks['min_pt']:+.1e}, {elapsed:.1f}s",
    )
    assert checks["converged"], "a scalar grid point failed cutoff-doubling stability"
    assert checks["full"] < 1e-6
    assert checks["zero_ln"] == 0.0
    assert checks["min_pt"] >= -1e-10
    assert property_ok
    assert strict_ok
    assert elapsed < 60.0


def test_criterion_4_bogoliubov_unitarity_residuals():
    worst = 0.0
    cross = 0.0
    for mu2 in np.linspace(0.05, 5.0, 50):
        mu2 = float(mu2)
        worst = max(worst, verify_unitarity(mu2, "scalar"), verify_unitarity(mu2, "fermion"))
        cross = max(
            cross,
            abs(gamma_pathway_alpha(mu2, "scalar") - coefficients(mu2, "scalar").alpha_mag),
            abs(gamma_pathway_alpha(mu2, "fermion") - coefficients(mu2, "fermion").alpha_mag),
        )
    ok = worst < 1e-10 and cross < 1e-10
    _report(4, "Bogoliubov unitarity via gamma pathway", ok, f"worst residual {worst:.2e}")
    assert worst < 1e-10
    assert cross < 1e-10


def test_criterion_5_negativity_oracle_equivalence():
    rng = np.random.default_rng(12345)
    dim_profile = [2, 2, 3, 3]
    worst = 0.0
    exact_pt = True
    for trial in range(100):
        n_modes = int(rng.integers(2, 5))
        dims = list(rng.permutation(dim_profile)[:n_modes])
        modes = tuple(
            boson_mode(f"m{i}", d - 1) if d > 2 else fermion_mode(f"m{i}")
            for i, d in enumerate(dims)
        )
        layout = SubsystemLayout(modes)
        state = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        labels = list(rng.permutation(layout.labels))
        n_a = int(rng.integers(1, n_modes))
        n_b = int(rng.integers(1, n_modes - n_a + 1))
        bp = Bipartition(set(labels[:n_a]), set(labels[n_a : n_a + n_b]), set(labels[n_a + n_b :]))
        rho = reduced_density(state, bp)
        pt = partial_transpose(rho, bp.party_a)
        worst = max(worst, abs(negativity(rho, bp.party_a) - trace_norm_negativity(pt)))
        a_positions = sorted(rho.layout.position(lbl) for lbl in bp.party_a)
        oracle_pt = brute_force_partial_transpose(rho.entries, rho.layout.dims, a_positions)
        exact_pt &= np.array_equal(pt, oracle_pt)
    ok = worst < 1e-10 and exact_pt
    _report(5, "negativity and partial-transpose oracle equivalence", ok, f"worst {worst:.2e}")
    assert worst < 1e-10
    assert exact_pt


def test_criterion_6_truncation_law():
    # deficit 1 - (A + B)/2 of the truncated vacuum (A) and one-particle (B)
    # expansions, each squared when both modes are accelerated; x = tanh(r)^2
    worst = 0.0
    x = math.tanh(0.5) ** 2
    for cutoff in (5, 10, 20):
        a = 1.0 - x ** (cutoff + 1)
        b = 1.0 - (cutoff + 2) * x ** (cutoff + 1) + (cutoff + 1) * x ** (cutoff + 2)
        for acc, power in (("one", 1), ("both", 2)):
            expected = 1.0 - (a**power + b**power) / 2.0
            sc = Scenario("scalar", acc, 0.5, cutoff=cutoff)
            for deficit in (build_final_state(sc)[1], scenario_amplitudes(sc)[1]):
                worst = max(worst, abs(deficit - expected))
    ok = worst < 1e-14
    _report(6, "truncation deficit follows the geometric tail", ok, f"worst {worst:.2e}")
    assert worst < 1e-14


def test_criterion_7_phase_invariance():
    rng = np.random.default_rng(999)
    worst = 0.0
    grid = np.linspace(0.0, HALF_PI, 21)
    for acc in ("one", "both"):
        baselines = {
            float(r_f): evaluate_scenario(Scenario("fermion", acc, float(r_f), phase=0.0))
            for r_f in grid
        }
        for phi in rng.uniform(-math.pi, math.pi, size=10):
            for r_f, base in baselines.items():
                res = evaluate_scenario(Scenario("fermion", acc, r_f, phase=float(phi)))
                for name in base.systems:
                    worst = max(
                        worst,
                        abs(
                            res.systems[name].log_negativity
                            - base.systems[name].log_negativity
                        ),
                    )
    ok = worst < 1e-12
    _report(7, "fermionic LN is phase independent", ok, f"worst shift {worst:.2e}")
    assert worst < 1e-12
