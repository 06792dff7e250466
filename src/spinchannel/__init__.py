"""Open antiferromagnetic spin-1/2 Heisenberg chains as quantum channels.

Exact-diagonalization toolkit for chains with weakly coupled end probes:
teleportation fidelity versus temperature, state-transfer fidelity versus
time and length, entanglement sharing, and the scaling of the boundary
singlet-triplet gap.  The ``spinchannel`` command-line tool drives sweeps
and writes deterministic CSV/JSON output.
"""

from .chain import (
    ChainSpec,
    Sector,
    SparseOperator,
    build_bond_hamiltonian,
    build_chain_hamiltonian,
    build_transfer_hamiltonian,
    chain_bonds,
    enumerate_sector,
    pauli_xx_expectation,
    pauli_z_expectation,
    pauli_zz_expectation,
)
from .eigensolve import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    EigenPair,
    SpectralData,
    dense_spectrum,
    lowest_eigenpairs,
    spectral_data,
)
from .entangle import (
    SharingResult,
    concurrence,
    shared_output_state,
    sharing_concurrence,
    sharing_report,
    werner_concurrence,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    FlatCurveError,
    InsufficientDataError,
    NoThresholdError,
    OrderingError,
    PropagationError,
    SectorError,
    SpinChainError,
    UnsupportedRegimeError,
)
from .scaling import (
    GapRow,
    GapTable,
    PowerLawFit,
    fit_power_law,
    gap_sweep,
)
from .teleport import (
    DepolarizingChannel,
    FidelityCurve,
    apply_channel,
    fidelity_curve,
    shrink_factor,
    teleport_fidelity,
    threshold_temperature,
)
from .thermal import (
    WERNER_MAX,
    WERNER_MIN,
    thermal_g,
    validate_werner_g,
    werner_density_matrix,
)
from .transfer import (
    EffectiveModel,
    TransferCurve,
    closed_form_fidelity,
    effective_coupling,
    full_chain_transfer,
    max_fidelity,
    numeric_peak,
    optimal_time,
    predicted_peak,
    three_site_oracle,
)

__version__ = "0.1.0"
