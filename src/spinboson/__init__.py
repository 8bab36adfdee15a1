"""Desk-scale controllability certification for the controlled Rabi model.

Assembles truncated spin-boson Hamiltonians, validates the closed-form
coupling-series coefficients against tracked eigenvalue branches, certifies
spectral non-resonance and coupling-graph connectedness on a trusted level
window, and demonstrates state transfer with piecewise-constant controls.
"""

from .fockmodel import (
    BasisIndex,
    LabeledOperator,
    ModelParams,
    basis_order,
    build_control,
    build_excitation,
    build_interaction,
    build_jc,
    build_parity,
    build_rabi,
)
from .spectral import (
    BranchFamily,
    ConvergenceReport,
    GridRefinementError,
    SolverError,
    Spectrum,
    convergence_scan,
    diagonalize,
    hellmann_feynman_check,
    labelled_spectrum,
    rabi_spectrum,
    track_branches,
)
from .perturbation import (
    PerturbationTable,
    build_table,
    c_coefficients,
    coupling_slope_closed,
    coupling_slope_fit,
    degenerate_basis,
    degenerate_slopes,
    e2_closed,
    e4_closed,
    e_series_fit,
)
from .resonance import (
    ChainCertificate,
    GapQuadruple,
    ScanReport,
    TransitionGraph,
    certify_chain,
    classify_quadruple,
    coupling_graph,
    degenerate_quadruple_check,
    gap_scaling_exponent,
    numeric_resonance_scan,
)
from .control import (
    Pulse,
    StateVector,
    TransferError,
    TransferReport,
    design_transfer,
    propagate,
    transfer_experiment,
)

__version__ = "0.1.0"
