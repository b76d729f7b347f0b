"""Entanglement redistribution between uniformly accelerated particle pairs.

The package builds the out-basis Fock states of an initially maximally
entangled particle pair whose modes are accelerated by a uniform field,
and computes the logarithmic negativity of every studied bipartition:
fermionic cases against their closed forms, scalar cases by converged
truncation.
"""

from .bogoliubov import (
    FermionCoefficients,
    FieldParams,
    ScalarCoefficients,
    fermion_coefficients,
    mu2_from_field,
    scalar_coefficients,
    verify_unitarity,
)
from .entanglement import (
    Bipartition,
    ScenarioResult,
    SystemResult,
    closed_form_ln,
    evaluate_scenario,
    log_negativity,
    log_negativity_pure,
    named_bipartitions,
    negativity,
    partial_transpose,
    reduced_density,
)
from .errors import DomainError, LayoutError
from .fock import (
    DensityMatrix,
    Ket,
    SubModeSpec,
    SubsystemLayout,
    boson_mode,
    fermion_mode,
    hermitian_eigenvalues,
    normalize,
    outer_product,
    partial_trace,
    tensor,
)
from .states import (
    Scenario,
    build_final_state,
    build_final_state_coords,
    scenario_layout,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "LayoutError",
    "FieldParams",
    "ScalarCoefficients",
    "FermionCoefficients",
    "mu2_from_field",
    "scalar_coefficients",
    "fermion_coefficients",
    "verify_unitarity",
    "SubModeSpec",
    "SubsystemLayout",
    "boson_mode",
    "fermion_mode",
    "Ket",
    "DensityMatrix",
    "tensor",
    "normalize",
    "outer_product",
    "partial_trace",
    "hermitian_eigenvalues",
    "Scenario",
    "scenario_layout",
    "build_final_state",
    "build_final_state_coords",
    "Bipartition",
    "reduced_density",
    "partial_transpose",
    "negativity",
    "log_negativity",
    "log_negativity_pure",
    "closed_form_ln",
    "named_bipartitions",
    "SystemResult",
    "ScenarioResult",
    "evaluate_scenario",
]
