"""Entanglement redistribution between uniformly accelerated particle pairs.

The package builds the out-basis Fock states of an initially maximally
entangled particle pair whose modes are accelerated by a uniform field,
and computes the logarithmic negativity of every studied bipartition:
fermionic cases against their closed forms, scalar cases by converged
truncation.  The top level holds what a sweep calls; the dense reference
route is imported from its modules.
"""

from .bogoliubov import Coefficients, mu2_from_field, verify_unitarity
from .entanglement import (
    ScenarioResult,
    SystemResult,
    closed_form_ln,
    evaluate_scenario,
    named_bipartitions,
)
from .errors import DomainError, LayoutError
from .states import Scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "LayoutError",
    "Coefficients",
    "mu2_from_field",
    "verify_unitarity",
    "Scenario",
    "closed_form_ln",
    "named_bipartitions",
    "SystemResult",
    "ScenarioResult",
    "evaluate_scenario",
]
