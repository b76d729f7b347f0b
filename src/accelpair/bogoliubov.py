"""Bogoliubov coefficient magnitudes and squeezing parameters.

A charged particle of mass m in a uniform electric field E undergoes pair
production; the mixing between in- and out-quantizations is controlled by the
single dimensionless combination mu2 = m^2 / (2 E).  For both statistics the
beta coefficient has magnitude exp(-pi*mu2):

* scalar field:  |alpha|^2 - |beta|^2 = 1,  alpha = cosh(r),  beta = sinh(r)
* fermion field: |alpha|^2 + |beta|^2 = 1,  alpha = cos(r_f), beta = sin(r_f)

The magnitudes are produced from the closed exponential forms.  The gamma
function route (alpha expressed through Gamma(1/2 + i*mu2) or Gamma(i*mu2))
is kept as an independent cross-check: ``verify_unitarity`` evaluates ln|alpha|
from ``scipy.special.loggamma``, exponentiates once, and reports how well the
unitarity relation is satisfied.  Taken in log space the route stays finite
at every mu2, where |Gamma| itself underflows or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "FieldParams",
    "ScalarCoefficients",
    "FermionCoefficients",
    "mu2_from_field",
    "scalar_coefficients",
    "fermion_coefficients",
    "gamma_pathway_alpha",
    "verify_unitarity",
]

_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class FieldParams:
    """Physical inputs in natural units: rest mass m >= 0 and field strength E > 0."""

    m: float
    E: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.E)):
            raise DomainError("field parameters must be finite")
        if self.m < 0.0:
            raise DomainError(f"mass must be non-negative, got {self.m}")
        if self.E <= 0.0:
            raise DomainError(f"field strength must be positive, got {self.E}")


@dataclass(frozen=True)
class ScalarCoefficients:
    """Scalar (bosonic) coefficient magnitudes with |alpha|^2 - |beta|^2 = 1."""

    mu2: float
    alpha_mag: float
    beta_mag: float
    r: float

    def __post_init__(self) -> None:
        if abs(self.alpha_mag**2 - self.beta_mag**2 - 1.0) > _COEFF_TOL:
            raise DomainError("scalar coefficients violate |alpha|^2 - |beta|^2 = 1")
        if abs(self.alpha_mag - math.cosh(self.r)) > _COEFF_TOL or abs(
            self.beta_mag - math.sinh(self.r)
        ) > _COEFF_TOL:
            raise DomainError("scalar squeeze parameter inconsistent with magnitudes")


@dataclass(frozen=True)
class FermionCoefficients:
    """Fermionic coefficient magnitudes with |alpha|^2 + |beta|^2 = 1, r_f in [0, pi/2]."""

    mu2: float
    alpha_mag: float
    beta_mag: float
    r_f: float

    def __post_init__(self) -> None:
        if abs(self.alpha_mag**2 + self.beta_mag**2 - 1.0) > _COEFF_TOL:
            raise DomainError("fermion coefficients violate |alpha|^2 + |beta|^2 = 1")
        if not 0.0 <= self.r_f <= math.pi / 2:
            raise DomainError(f"r_f must lie in [0, pi/2], got {self.r_f}")
        if abs(self.alpha_mag - math.cos(self.r_f)) > _COEFF_TOL or abs(
            self.beta_mag - math.sin(self.r_f)
        ) > _COEFF_TOL:
            raise DomainError("fermion squeeze parameter inconsistent with magnitudes")


def mu2_from_field(params: FieldParams) -> float:
    """Dimensionless pair-production parameter mu2 = m^2 / (2 E); DomainError if it overflows."""
    mu2 = params.m * params.m / (2.0 * params.E)
    if not math.isfinite(mu2):
        raise DomainError(f"mu2 = m^2 / (2 E) overflows for m = {params.m}, E = {params.E}")
    return mu2


def scalar_coefficients(mu2: float) -> ScalarCoefficients:
    """Scalar coefficient magnitudes from mu2 > 0.

    beta = exp(-pi*mu2), alpha = sqrt(1 + beta^2), r = arsinh(beta).  Smaller
    mu2 (stronger field relative to mass) gives larger r.  mu2 = 0 is rejected:
    the magnitudes stay finite there, but it has no preimage (m, E) with finite
    E at fixed m > 0, and the field-parameter pathway would silently break.
    """
    if not math.isfinite(mu2) or mu2 <= 0.0:
        raise DomainError(f"scalar coefficients require mu2 > 0, got {mu2}")
    beta = math.exp(-math.pi * mu2)
    alpha = math.sqrt(1.0 + beta * beta)
    return ScalarCoefficients(mu2=mu2, alpha_mag=alpha, beta_mag=beta, r=math.asinh(beta))


def fermion_coefficients(mu2: float) -> FermionCoefficients:
    """Fermion coefficient magnitudes from mu2 >= 0.

    beta = exp(-pi*mu2), alpha = sqrt(1 - beta^2), r_f = arcsin(beta).  The
    massless/infinite-acceleration edge mu2 = 0 is allowed and gives
    r_f = pi/2 (complete mode conversion).
    """
    if not math.isfinite(mu2) or mu2 < 0.0:
        raise DomainError(f"fermion coefficients require mu2 >= 0, got {mu2}")
    beta = math.exp(-math.pi * mu2)
    alpha = math.sqrt(max(0.0, 1.0 - beta * beta))
    return FermionCoefficients(mu2=mu2, alpha_mag=alpha, beta_mag=beta, r_f=math.asin(beta))


def gamma_pathway_alpha(mu2: float, statistics: str) -> float:
    """|alpha| evaluated directly through the gamma-function expressions.

    scalar:  alpha = sqrt(2 pi) e^{-pi mu2/2} / Gamma(1/2 + i mu2)   (phase dropped)
    fermion: alpha = sqrt(2 pi / mu2) e^{-pi mu2/2} / Gamma(i mu2)   (phase dropped)

    ln|alpha| is formed from ``scipy.special.loggamma`` (Re ln Gamma = ln|Gamma|)
    and exponentiated once, so neither |Gamma| nor 2 pi / mu2 is ever formed:
    both leave the float range at large or tiny mu2.

    This is the slow cross-check route; production code uses the closed
    exponential forms in :func:`scalar_coefficients` / :func:`fermion_coefficients`.
    """
    # imported here: scipy.special costs each start-up ~3 MB and ~20 ms
    from scipy.special import loggamma

    if not math.isfinite(mu2):
        raise DomainError(f"gamma pathway requires a finite mu2, got {mu2}")
    if statistics == "boson":
        if mu2 <= 0.0:
            raise DomainError("bosonic gamma pathway requires mu2 > 0")
        ln_alpha = 0.5 * math.log(2.0 * math.pi) - loggamma(0.5 + 1j * mu2).real
    elif statistics == "fermion":
        if mu2 < 0.0:
            raise DomainError("fermionic gamma pathway requires mu2 >= 0")
        if mu2 == 0.0:
            # Limit mu2 -> 0: |alpha|^2 = 2 e^{-pi mu2} sinh(pi mu2) -> 0.
            return 0.0
        ln_alpha = 0.5 * (math.log(2.0 * math.pi) - math.log(mu2)) - loggamma(1j * mu2).real
    else:
        raise DomainError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    return math.exp(ln_alpha - math.pi * mu2 / 2.0)


def verify_unitarity(mu2: float, statistics: str) -> float:
    """Residual of the unitarity relation with alpha taken from the gamma route.

    Returns | |alpha|^2 - |beta|^2 - 1 | for bosons and
    | |alpha|^2 + |beta|^2 - 1 | for fermions; both should be < 1e-10.
    """
    alpha = gamma_pathway_alpha(mu2, statistics)
    beta = math.exp(-math.pi * mu2)
    if statistics == "boson":
        return abs(alpha**2 - beta**2 - 1.0)
    return abs(alpha**2 + beta**2 - 1.0)
