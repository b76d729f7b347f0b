import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import (
    DomainError,
    FieldParams,
    fermion_coefficients,
    mu2_from_field,
    scalar_coefficients,
    verify_unitarity,
)
from accelpair.bogoliubov import gamma_pathway_alpha

HALF_PI = math.pi / 2


def test_mu2_from_field_values():
    assert mu2_from_field(FieldParams(m=0.0, E=1.0)) == 0.0
    assert mu2_from_field(FieldParams(m=1.0, E=0.5)) == 1.0
    assert mu2_from_field(FieldParams(m=2.0, E=1.0)) == 2.0


@pytest.mark.parametrize("m,E", [(1e200, 1e-200), (1.0, 1e-310)])
def test_mu2_from_field_rejects_overflow(m, E):
    with pytest.raises(DomainError):
        mu2_from_field(FieldParams(m=m, E=E))


@pytest.mark.parametrize("m,E", [(1.0, 0.0), (1.0, -2.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
def test_field_params_rejects_bad_inputs(m, E):
    with pytest.raises(DomainError):
        FieldParams(m=m, E=E)


def test_scalar_coefficients_weak_field_limit():
    # e^(-10*pi) evaluated to machine precision
    coeff = scalar_coefficients(10.0)
    assert coeff.beta_mag == pytest.approx(2.2711010683240965e-14, rel=1e-12)
    assert coeff.r == pytest.approx(2.2711010683240965e-14, rel=1e-12)
    assert coeff.alpha_mag == pytest.approx(1.0, abs=1e-15)


def test_scalar_coefficients_half_occupation_point():
    # mu2 chosen so that e^(-2*pi*mu2) = 1/2
    coeff = scalar_coefficients(math.log(2.0) / (2.0 * math.pi))
    assert coeff.beta_mag**2 == pytest.approx(0.5, abs=1e-14)
    assert coeff.alpha_mag**2 == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("mu2", [0.0, -0.3, math.nan])
def test_scalar_coefficients_domain(mu2):
    with pytest.raises(DomainError):
        scalar_coefficients(mu2)


def test_fermion_coefficients_infinite_acceleration_edge():
    coeff = fermion_coefficients(0.0)
    assert coeff.r_f == pytest.approx(HALF_PI, abs=1e-15)
    assert coeff.beta_mag == 1.0
    assert coeff.alpha_mag == 0.0


def test_fermion_coefficients_half_point():
    # mu2 chosen so that e^(-pi*mu2) = 1/2
    coeff = fermion_coefficients(math.log(2.0) / math.pi)
    assert coeff.beta_mag == pytest.approx(0.5, abs=1e-14)
    assert coeff.r_f == pytest.approx(math.pi / 6.0, abs=1e-14)


def test_fermion_coefficients_domain():
    with pytest.raises(DomainError):
        fermion_coefficients(-1e-9)


@given(st.floats(min_value=1e-3, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_scalar_relation_holds(mu2):
    coeff = scalar_coefficients(mu2)
    assert abs(coeff.alpha_mag**2 - coeff.beta_mag**2 - 1.0) < 1e-12
    assert abs(math.sinh(coeff.r) - coeff.beta_mag) < 1e-14


@given(st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_fermion_relation_holds(mu2):
    coeff = fermion_coefficients(mu2)
    assert abs(coeff.alpha_mag**2 + coeff.beta_mag**2 - 1.0) < 1e-12
    assert abs(math.sin(coeff.r_f) - coeff.beta_mag) < 1e-14


@given(
    st.floats(min_value=1e-3, max_value=20.0),
    st.floats(min_value=1e-3, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_squeeze_parameters_decrease_with_mu2(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    assert scalar_coefficients(lo).r > scalar_coefficients(hi).r
    assert fermion_coefficients(lo).r_f > fermion_coefficients(hi).r_f


def test_gamma_reflection_identity_on_half_line():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi*y) at y = 0.7, read back from the scalar route
    val = 2.0 * math.pi * math.exp(-0.7 * math.pi) / gamma_pathway_alpha(0.7, "boson") ** 2
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
    assert verify_unitarity(mu2, "boson") < 1e-10
    assert verify_unitarity(mu2, "fermion") < 1e-10


@pytest.mark.parametrize("mu2", [math.nan, math.inf, -math.inf])
def test_gamma_pathway_rejects_non_finite_mu2(mu2):
    for statistics in ("boson", "fermion"):
        with pytest.raises(DomainError):
            gamma_pathway_alpha(mu2, statistics)


def test_verify_unitarity_residuals():
    assert verify_unitarity(0.5, "boson") < 1e-10
    assert verify_unitarity(0.5, "fermion") < 1e-10
    assert verify_unitarity(0.0, "fermion") == 0.0


def test_gamma_pathway_matches_closed_forms():
    for mu2 in (0.05, 0.3, 1.0, 3.0):
        assert gamma_pathway_alpha(mu2, "boson") == pytest.approx(
            scalar_coefficients(mu2).alpha_mag, abs=1e-12
        )
        assert gamma_pathway_alpha(mu2, "fermion") == pytest.approx(
            fermion_coefficients(mu2).alpha_mag, abs=1e-12
        )


def test_verify_unitarity_rejects_unknown_statistics():
    with pytest.raises(DomainError):
        verify_unitarity(0.5, "anyon")
