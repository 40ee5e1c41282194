"""Bell-type inequalities from correlation polytopes and their quantum bounds.

The pipeline: enumerate truth-table vertices of a correlation polytope,
solve the hull problem for its facet inequalities, substitute measurement
projectors to obtain Bell operators, and read off the quantum bound from the
operator spectrum.  Monte Carlo sampling over random density matrices traces
the same bounds numerically.
"""

__version__ = "0.1.0"

from .errors import BasisError, BellboundsError, BudgetError, InputError, NumericError
from .polytope import (
    EventStructure,
    FacetCheck,
    Inequality,
    classical_range,
    enumerate_vertices,
    hull_facets,
    verify_facet,
)
from .qops import (
    BellOperator,
    DensityMatrix,
    bell_operator,
    bell_operators,
    chsh_operator,
    expectation,
    joint,
    projector,
    sigma,
    single_site,
    to_bell_basis,
)
from .sampling import (
    DensityParams,
    SweepResult,
    density_from_params,
    eigencurves,
    pure_state_polish,
    sample_states,
    sweep,
)
from .spectra import (
    QuantumBound,
    Spectrum,
    cardano_eigenvalues,
    eigen,
    o22_closed_form,
    o33_block_decompose,
    quantum_bound,
    stacked_eigenvalues,
)
from .states import (
    PureState,
    SchmidtData,
    entanglement,
    max_violation_family,
    psi_max_33,
    schmidt,
)
