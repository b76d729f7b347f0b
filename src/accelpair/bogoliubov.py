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
    "Coefficients",
    "mu2_from_field",
    "gamma_pathway_alpha",
    "verify_unitarity",
]

_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)  # Bernoulli B_2 ... B_10, for Stirling

# statistics -> (sigma, squeeze(beta))
_RELATIONS = {"scalar": (-1.0, math.asinh), "fermion": (1.0, math.asin)}


@dataclass(frozen=True)
class Coefficients:
    """The Bogoliubov transformation of one statistics at mu2.

    beta = exp(-pi*mu2) and alpha = sqrt(1 - sigma beta^2); the squeeze is
    r = arsinh(beta) for the scalar and r_f = arcsin(beta) in [0, pi/2] for
    the fermion, so smaller mu2 (stronger field relative to mass) gives a
    larger squeeze.

    The fermion takes mu2 >= 0: the massless/infinite-acceleration edge
    mu2 = 0 gives r_f = pi/2 (complete mode conversion).  The scalar takes
    mu2 > 0: its magnitudes stay finite at 0, but mu2 = 0 has no preimage
    (m, E) with finite E at fixed m > 0, and the field-parameter pathway would
    silently break.
    """

    statistics: str
    mu2: float

    def __post_init__(self) -> None:
        name, mu2 = self.statistics, self.mu2
        if name not in _RELATIONS:
            raise DomainError(f"statistics must be 'scalar' or 'fermion', got {name!r}")
        if not math.isfinite(mu2):
            raise DomainError(f"{name} coefficients require a finite mu2, got {mu2}")
        scalar = name == "scalar"
        if not (mu2 > 0.0 if scalar else mu2 >= 0.0):
            bound = "> 0" if scalar else ">= 0"
            raise DomainError(f"{name} coefficients require mu2 {bound}, got {mu2}")

    @property
    def sigma(self) -> float:
        return _RELATIONS[self.statistics][0]

    @property
    def beta_mag(self) -> float:
        return math.exp(-math.pi * self.mu2)

    @property
    def alpha_mag(self) -> float:
        beta = self.beta_mag
        return math.sqrt(max(0.0, 1.0 - self.sigma * beta * beta))

    @property
    def squeeze(self) -> float:
        return _RELATIONS[self.statistics][1](self.beta_mag)


def mu2_from_field(m: float, E: float) -> float:
    """Dimensionless pair-production parameter mu2 = m^2 / (2 E) of a rest mass m >= 0 and
    a field strength E > 0 (natural units); DomainError outside that domain, if mu2
    overflows, or if it underflows to 0 for m > 0 (a massive particle read as massless)."""
    if not (math.isfinite(m) and math.isfinite(E)):
        raise DomainError("field parameters must be finite")
    if m < 0.0:
        raise DomainError(f"mass must be non-negative, got {m}")
    if E <= 0.0:
        raise DomainError(f"field strength must be positive, got {E}")
    mu2 = m * m / (2.0 * E)
    if not math.isfinite(mu2):
        raise DomainError(f"mu2 = m^2 / (2 E) overflows for m = {m}, E = {E}")
    if mu2 == 0.0 and m > 0.0:
        raise DomainError(f"mu2 = m^2 / (2 E) underflows to 0 for m = {m}, E = {E}")
    return mu2


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
    exponential forms of :class:`Coefficients`, which also checks the domain.
    """
    Coefficients(statistics, mu2)
    # imported here: scipy.special costs each start-up ~3 MB and ~20 ms
    from scipy.special import loggamma

    if statistics == "scalar":
        if mu2 >= 20.0:
            z = 0.5 + 1j * mu2
            tail = sum(b / (2 * k * (2 * k - 1) * z ** (2 * k - 1)) for k, b in enumerate(_B2K, 1))
            return math.exp(0.5 - mu2 * math.atan(0.5 / mu2) - tail.real)
        ln_alpha = 0.5 * math.log(2.0 * math.pi) - loggamma(0.5 + 1j * mu2).real
    else:
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
    coeff = Coefficients(statistics, mu2)
    return abs(alpha**2 + coeff.sigma * coeff.beta_mag**2 - 1.0)
