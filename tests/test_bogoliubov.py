import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import (
    Coefficients,
    DomainError,
    mu2_from_field,
    verify_unitarity,
)
from accelpair.bogoliubov import gamma_pathway_alpha

HALF_PI = math.pi / 2


def test_mu2_from_field_values():
    assert mu2_from_field(0.0, 1.0) == 0.0
    assert mu2_from_field(1.0, 0.5) == 1.0
    assert mu2_from_field(2.0, 1.0) == 2.0


@pytest.mark.parametrize("m,E", [(1e200, 1e-200), (1.0, 1e-310), (1e-200, 1.0)])
def test_mu2_from_field_rejects_overflow(m, E):
    with pytest.raises(DomainError, match="flows"):
        mu2_from_field(m, E)


@pytest.mark.parametrize("m,E", [(1.0, 0.0), (1.0, -2.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
def test_field_params_rejects_bad_inputs(m, E):
    with pytest.raises(DomainError):
        mu2_from_field(m, E)


def test_scalar_coefficients_weak_field_limit():
    # e^(-10*pi) evaluated to machine precision
    coeff = Coefficients("scalar", 10.0)
    assert coeff.beta_mag == pytest.approx(2.2711010683240965e-14, rel=1e-12)
    assert coeff.squeeze == pytest.approx(2.2711010683240965e-14, rel=1e-12)
    assert coeff.alpha_mag == pytest.approx(1.0, abs=1e-15)


def test_scalar_coefficients_half_occupation_point():
    # mu2 chosen so that e^(-2*pi*mu2) = 1/2
    coeff = Coefficients("scalar", math.log(2.0) / (2.0 * math.pi))
    assert coeff.beta_mag**2 == pytest.approx(0.5, abs=1e-14)
    assert coeff.alpha_mag**2 == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("mu2", [0.0, -0.3, math.nan])
def test_scalar_coefficients_domain(mu2):
    with pytest.raises(DomainError):
        Coefficients("scalar", mu2)


def test_fermion_coefficients_infinite_acceleration_edge():
    coeff = Coefficients("fermion", 0.0)
    assert coeff.squeeze == pytest.approx(HALF_PI, abs=1e-15)
    assert coeff.beta_mag == 1.0
    assert coeff.alpha_mag == 0.0


def test_fermion_coefficients_half_point():
    # mu2 chosen so that e^(-pi*mu2) = 1/2
    coeff = Coefficients("fermion", math.log(2.0) / math.pi)
    assert coeff.beta_mag == pytest.approx(0.5, abs=1e-14)
    assert coeff.squeeze == pytest.approx(math.pi / 6.0, abs=1e-14)


def test_fermion_coefficients_domain():
    with pytest.raises(DomainError):
        Coefficients("fermion", -1e-9)


@pytest.mark.parametrize("statistics", ["boson", "anyon"])
def test_unknown_statistics_is_rejected_everywhere(statistics):
    for call in (lambda mu2, s: Coefficients(s, mu2), gamma_pathway_alpha, verify_unitarity):
        with pytest.raises(DomainError):
            call(0.5, statistics)


@pytest.mark.parametrize(
    "fields",
    [
        ("boson", 0.5),  # unknown statistics
        ("scalar", math.nan),
        ("scalar", math.inf),
        ("scalar", -math.inf),
        ("scalar", 0.0),  # no (m, E) preimage at finite E
        ("scalar", -5.0),
        ("fermion", -1e-300),
    ],
)
def test_coefficients_record_checks_its_invariants(fields):
    with pytest.raises(DomainError):
        Coefficients(*fields)


@given(st.floats(min_value=1e-3, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_scalar_relation_holds(mu2):
    coeff = Coefficients("scalar", mu2)
    assert abs(coeff.alpha_mag**2 - coeff.beta_mag**2 - 1.0) < 1e-12
    assert abs(math.sinh(coeff.squeeze) - coeff.beta_mag) < 1e-14


@given(st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_fermion_relation_holds(mu2):
    coeff = Coefficients("fermion", mu2)
    assert abs(coeff.alpha_mag**2 + coeff.beta_mag**2 - 1.0) < 1e-12
    assert abs(math.sin(coeff.squeeze) - coeff.beta_mag) < 1e-14


@given(
    st.floats(min_value=1e-3, max_value=20.0),
    st.floats(min_value=1e-3, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_squeeze_parameters_decrease_with_mu2(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    assert Coefficients("scalar", lo).squeeze > Coefficients("scalar", hi).squeeze
    assert Coefficients("fermion", lo).squeeze > Coefficients("fermion", hi).squeeze


def test_gamma_reflection_identity_on_half_line():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi*y) at y = 0.7, read back from the scalar route
    val = 2.0 * math.pi * math.exp(-0.7 * math.pi) / gamma_pathway_alpha(0.7, "scalar") ** 2
    assert val == pytest.approx(0.688347235723248, rel=1e-10)


def test_gamma_reflection_identity_on_imaginary_axis():
    # |Gamma(iy)|^2 = pi / (y*sinh(pi*y)) at y = 0.7, read back from the fermion route
    val = 2.0 * math.pi / 0.7 * math.exp(-0.7 * math.pi) / gamma_pathway_alpha(0.7, "fermion") ** 2
    assert val == pytest.approx(1.0078431034129907, rel=1e-10)


# Across the strip, out to large mu2 (the scalar by Stirling from 20 on), and
# down to subnormal mu2, where |Gamma| itself under- or overflows and only the
# log-space route stays finite.
UNITARITY_MU2 = [0.05 * 1.22**k for k in range(27)] + [
    50.0, 100.0, 480.0, 800.0, 5000.0, 5e5, 1e6, 1e-308, 5e-309, 5e-321
]  # fmt: skip


@pytest.mark.parametrize("mu2", UNITARITY_MU2, ids=lambda mu2: f"{mu2:.3g}")
def test_verify_unitarity_across_mu2(mu2):
    assert verify_unitarity(mu2, "scalar") < 1e-10
    assert verify_unitarity(mu2, "fermion") < 1e-10


@pytest.mark.parametrize("mu2", [math.nan, math.inf, -math.inf])
def test_gamma_pathway_rejects_non_finite_mu2(mu2):
    for statistics in ("scalar", "fermion"):
        with pytest.raises(DomainError):
            gamma_pathway_alpha(mu2, statistics)


def test_verify_unitarity_residuals():
    assert verify_unitarity(0.5, "scalar") < 1e-10
    assert verify_unitarity(0.5, "fermion") < 1e-10
    assert verify_unitarity(0.0, "fermion") == 0.0


def test_gamma_pathway_matches_closed_forms():
    for mu2 in (0.05, 0.3, 1.0, 3.0):
        assert gamma_pathway_alpha(mu2, "scalar") == pytest.approx(
            Coefficients("scalar", mu2).alpha_mag, abs=1e-12
        )
        assert gamma_pathway_alpha(mu2, "fermion") == pytest.approx(
            Coefficients("fermion", mu2).alpha_mag, abs=1e-12
        )


def test_verify_unitarity_rejects_unknown_statistics():
    with pytest.raises(DomainError):
        verify_unitarity(0.5, "anyon")
