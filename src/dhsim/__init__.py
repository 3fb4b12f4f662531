"""Heisenberg-picture descriptor simulator for n-qubit gate networks.

Evolves per-qubit operator triples under a gate circuit, reconstructs
global and reduced density matrices from descriptor products plus a
fixed initial state, cross-validates against an independent
state-vector simulator, and audits circuits for parameter dependence,
contiguity, and locally (in)accessible information.

The names imported below are the public API, one line each in README's
"Public API" table; everything else is reached through its module.
"""

from types import ModuleType as _ModuleType

from .circuit import (
    BoundCircuit,
    BoundGate,
    Circuit,
    Gate,
    ParamRef,
    bind,
    build_bell_experiment,
    build_partial_teleportation,
    build_superdense,
    build_teleportation,
    parse,
    serialize,
)
from .descriptors import (
    Descriptor,
    NetworkState,
    algebra_deviation,
    apply_gate,
    evolve,
    evolve_observable,
    gamma_product,
    init_network,
)
from .errors import (
    BindingError,
    BudgetError,
    DhError,
    GaugeError,
    InvariantError,
    ParseError,
    SizeMismatchError,
)
from .infoflow import (
    DependenceVerdict,
    PastCone,
    audit,
    classify_information,
    contiguity_audit,
    depends_descriptor,
    depends_global,
    depends_reduced,
    descriptor_distance,
    past_cone,
)
from .pauli import PauliString, PauliSum, decompose, hs_inner, to_dense
from .reconstruct import (
    expectation_of_product,
    expectation_table,
    gauge_transform,
    global_density,
    reduced_density,
)
from .statevector import (
    DensityMatrix,
    StateVector,
    density,
    evolve_state,
    measurement_distribution,
    partial_trace,
    state_fidelity,
    trace_distance,
)

__version__ = "0.1.0"

# Every public name bound above except the submodules themselves.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
