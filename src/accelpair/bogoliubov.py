"""Bogoliubov coefficient magnitudes and squeezing parameters.

A charged particle of mass m in a uniform electric field E undergoes pair
production; the mixing between in- and out-quantizations is controlled by the
single dimensionless combination mu2 = m^2 / (2 E).  For both statistics the
beta coefficient has magnitude exp(-pi*mu2):

* scalar field:  |alpha|^2 - |beta|^2 = 1,  alpha = cosh(r),  beta = sinh(r)
* fermion field: |alpha|^2 + |beta|^2 = 1,  alpha = cos(r_f), beta = sin(r_f)

The magnitudes are produced from the closed exponential forms.  The gamma
function route (alpha expressed through Gamma(1/2 + i*mu2) or Gamma(i*mu2))
is kept as an independent cross-check: ``verify_unitarity`` evaluates alpha
that way and reports how well the unitarity relation is satisfied.
"""

from __future__ import annotations

import cmath
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
    "complex_gamma",
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


# Lanczos approximation (Godfrey's 15-term coefficient set, g = 607/128).
# Relative accuracy is ~5e-14 on the right half-plane; the reflection formula
# extends it to Re z < 1/2.  Verified against the closed-form identities
# |Gamma(1/2+iy)|^2 = pi/cosh(pi*y) and |Gamma(iy)|^2 = pi/(y*sinh(pi*y))
# for y up to 120.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def complex_gamma(z: complex) -> complex:
    """Gamma function on the complex plane, poles excluded.

    Self-contained Lanczos evaluation; no special-function library involved.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("gamma argument must be finite")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"gamma pole at non-positive integer {z.real:g}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * series


def gamma_pathway_alpha(mu2: float, statistics: str) -> float:
    """|alpha| evaluated directly through the gamma-function expressions.

    scalar:  alpha = sqrt(2 pi) e^{-pi mu2/2} / Gamma(1/2 + i mu2)   (phase dropped)
    fermion: alpha = sqrt(2 pi / mu2) e^{-pi mu2/2} / Gamma(i mu2)   (phase dropped)

    This is the slow cross-check route; production code uses the closed
    exponential forms in :func:`scalar_coefficients` / :func:`fermion_coefficients`.
    """
    if statistics == "boson":
        if mu2 <= 0.0:
            raise DomainError("bosonic gamma pathway requires mu2 > 0")
        g = complex_gamma(0.5 + 1j * mu2)
        return math.sqrt(2.0 * math.pi) * math.exp(-math.pi * mu2 / 2.0) / abs(g)
    if statistics == "fermion":
        if mu2 < 0.0:
            raise DomainError("fermionic gamma pathway requires mu2 >= 0")
        if mu2 == 0.0:
            # Limit mu2 -> 0: |alpha|^2 = 2 e^{-pi mu2} sinh(pi mu2) -> 0.
            return 0.0
        g = complex_gamma(1j * mu2)
        return math.sqrt(2.0 * math.pi / mu2) * math.exp(-math.pi * mu2 / 2.0) / abs(g)
    raise DomainError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")


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
