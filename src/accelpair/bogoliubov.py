"""Bogoliubov coefficient magnitudes and squeezing parameters.

A charged particle of mass m in a uniform electric field E undergoes pair
production; the mixing between in- and out-quantizations is controlled by the
single dimensionless combination mu2 = m^2 / (2 E).  Both statistics share one
transformation, held in one record, :class:`Coefficients`: the beta
coefficient has magnitude exp(-pi*mu2), and |alpha|^2 + sigma |beta|^2 = 1
with the sign sigma of the statistics:

* scalar field:  sigma = -1,  alpha = cosh(r),   beta = sinh(r)
* fermion field: sigma = +1,  alpha = cos(r_f),  beta = sin(r_f)

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
    "Coefficients",
    "mu2_from_field",
    "coefficients",
    "gamma_pathway_alpha",
    "verify_unitarity",
]

_COEFF_TOL = 1e-12

_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)  # Bernoulli B_2 ... B_10, for Stirling

# statistics -> (sigma, alpha(squeeze), beta(squeeze), squeeze(beta))
_RELATIONS = {
    "scalar": (-1.0, math.cosh, math.sinh, math.asinh),
    "fermion": (1.0, math.cos, math.sin, math.asin),
}


def _relations(statistics: str):
    if statistics not in _RELATIONS:
        raise DomainError(f"statistics must be 'scalar' or 'fermion', got {statistics!r}")
    return _RELATIONS[statistics]


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
class Coefficients:
    """Coefficient magnitudes with |alpha|^2 + sigma |beta|^2 = 1.

    ``squeeze`` is r for the scalar (sigma = -1) and r_f in [0, pi/2] for the
    fermion (sigma = +1).
    """

    statistics: str
    mu2: float
    alpha_mag: float
    beta_mag: float
    squeeze: float

    def __post_init__(self) -> None:
        name = self.statistics
        sigma, alpha_of, beta_of, _ = _relations(name)
        if abs(self.alpha_mag**2 + sigma * self.beta_mag**2 - 1.0) > _COEFF_TOL:
            raise DomainError(f"{name} coefficients violate |alpha|^2 + sigma |beta|^2 = 1")
        if name == "fermion" and not 0.0 <= self.squeeze <= math.pi / 2:
            raise DomainError(f"r_f must lie in [0, pi/2], got {self.squeeze}")
        if abs(self.alpha_mag - alpha_of(self.squeeze)) > _COEFF_TOL or abs(
            self.beta_mag - beta_of(self.squeeze)
        ) > _COEFF_TOL:
            raise DomainError(f"{name} squeeze parameter inconsistent with magnitudes")


def mu2_from_field(params: FieldParams) -> float:
    """Dimensionless pair-production parameter mu2 = m^2 / (2 E); DomainError if it overflows."""
    mu2 = params.m * params.m / (2.0 * params.E)
    if not math.isfinite(mu2):
        raise DomainError(f"mu2 = m^2 / (2 E) overflows for m = {params.m}, E = {params.E}")
    return mu2


def coefficients(mu2: float, statistics: str) -> Coefficients:
    """Coefficient magnitudes of one statistics from mu2.

    beta = exp(-pi*mu2) and alpha = sqrt(1 - sigma beta^2); the squeeze is
    r = arsinh(beta) for the scalar and r_f = arcsin(beta) for the fermion, so
    smaller mu2 (stronger field relative to mass) gives a larger squeeze.

    The fermion takes mu2 >= 0: the massless/infinite-acceleration edge
    mu2 = 0 gives r_f = pi/2 (complete mode conversion).  The scalar takes
    mu2 > 0: its magnitudes stay finite at 0, but mu2 = 0 has no preimage
    (m, E) with finite E at fixed m > 0, and the field-parameter pathway would
    silently break.
    """
    sigma, _, _, squeeze_of = _relations(statistics)
    scalar = statistics == "scalar"
    if not (math.isfinite(mu2) and (mu2 > 0.0 if scalar else mu2 >= 0.0)):
        bound = "> 0" if scalar else ">= 0"
        raise DomainError(f"{statistics} coefficients require mu2 {bound}, got {mu2}")
    beta = math.exp(-math.pi * mu2)
    alpha = math.sqrt(max(0.0, 1.0 - sigma * beta * beta))
    return Coefficients(statistics, mu2, alpha, beta, squeeze_of(beta))


def gamma_pathway_alpha(mu2: float, statistics: str) -> float:
    """|alpha| evaluated directly through the gamma-function expressions.

    scalar:  alpha = sqrt(2 pi) e^{-pi mu2/2} / Gamma(1/2 + i mu2)   (phase dropped)
    fermion: alpha = sqrt(2 pi / mu2) e^{-pi mu2/2} / Gamma(i mu2)   (phase dropped)

    ln|alpha| is formed from ``scipy.special.loggamma`` (Re ln Gamma = ln|Gamma|)
    and exponentiated once, so neither |Gamma| nor 2 pi / mu2 is ever formed:
    both leave the float range at large or tiny mu2.  For the scalar at
    mu2 >= 20, Re ln Gamma(1/2 + i mu2) + pi mu2/2 comes from the Stirling
    series (DLMF 5.11.1), free of the cancellation between two terms ~pi mu2/2.

    This is the slow cross-check route; production code uses the closed
    exponential forms in :func:`coefficients`.
    """
    # imported here: scipy.special costs each start-up ~3 MB and ~20 ms
    from scipy.special import loggamma

    if not math.isfinite(mu2):
        raise DomainError(f"gamma pathway requires a finite mu2, got {mu2}")
    _relations(statistics)  # rejects an unknown statistics
    if statistics == "scalar":
        if mu2 <= 0.0:
            raise DomainError("scalar gamma pathway requires mu2 > 0")
        if mu2 >= 20.0:
            z = 0.5 + 1j * mu2
            tail = sum(b / (2 * k * (2 * k - 1) * z ** (2 * k - 1)) for k, b in enumerate(_B2K, 1))
            return math.exp(0.5 - mu2 * math.atan(0.5 / mu2) - tail.real)
        ln_alpha = 0.5 * math.log(2.0 * math.pi) - loggamma(0.5 + 1j * mu2).real
    else:
        if mu2 < 0.0:
            raise DomainError("fermion gamma pathway requires mu2 >= 0")
        if mu2 == 0.0:
            # Limit mu2 -> 0: |alpha|^2 = 2 e^{-pi mu2} sinh(pi mu2) -> 0.
            return 0.0
        ln_alpha = 0.5 * (math.log(2.0 * math.pi) - math.log(mu2)) - loggamma(1j * mu2).real
    return math.exp(ln_alpha - math.pi * mu2 / 2.0)


def verify_unitarity(mu2: float, statistics: str) -> float:
    """Residual of the unitarity relation with alpha taken from the gamma route.

    Returns | |alpha|^2 + sigma |beta|^2 - 1 |, which should be < 1e-10 for
    both statistics.
    """
    alpha = gamma_pathway_alpha(mu2, statistics)
    beta = math.exp(-math.pi * mu2)
    return abs(alpha**2 + _RELATIONS[statistics][0] * beta**2 - 1.0)
