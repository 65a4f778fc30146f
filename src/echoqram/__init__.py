"""echoqram: simulator for a time-bin quantum RAM built on a coupled-cavity
photon-echo memory controlled by a single three-level atom.

Modules:
    params     -- rates, cooperativities, impedance matching
    spectral   -- closed-form frequency-domain response and efficiencies
    dynamics   -- time-domain integration of storage and echo retrieval
    addressing -- exact term-level bookkeeping of the addressing protocol
    cli        -- scenario runner
"""

__version__ = "0.1.0"

from .params import (
    SystemParams,
    ParameterError,
    Cooperativities,
    MatchingReport,
    cooperativities,
    check_matching,
    solve_matched_params,
    params_digest,
)
from .spectral import (
    lorentzian_lineshape,
    broadened_response,
    storage_transfer,
    spectral_efficiency,
    resonant_efficiency,
    matched_window,
    blockade_reflection,
    echo_probability_narrowband,
)
from .dynamics import (
    PulseSpec,
    PulseShape,
    AtomEnsemble,
    discretize_ensemble,
    ensemble_for_params,
    invert_detunings,
    SimulationTrace,
    IntegrationError,
    integrate_storage,
    integrate_retrieval,
    run_echo_cycle,
    EchoResult,
    blockade_phase_check,
    PhaseCheck,
    transfer_function_probe,
    ProbeResult,
)
from .addressing import (
    RAMAN_ABSORB_PHASE,
    ECHO_EMISSION_PHASE,
    CONTROL_RESET_PHASE,
    ControlState,
    Cell,
    Term,
    AddressSpec,
    BranchEfficiencies,
    QramState,
    ProtocolError,
    store_sequence,
    absorb_address_bin,
    rephase_cell,
    reset_control,
    run_addressing,
    compose_with_dynamics,
    state_table,
    state_to_dict,
)

__all__ = [
    "__version__",
    "SystemParams", "ParameterError", "Cooperativities", "MatchingReport",
    "cooperativities", "check_matching", "solve_matched_params",
    "params_digest",
    "lorentzian_lineshape", "broadened_response", "storage_transfer",
    "spectral_efficiency", "resonant_efficiency", "matched_window",
    "blockade_reflection", "echo_probability_narrowband",
    "PulseSpec", "PulseShape", "AtomEnsemble", "discretize_ensemble",
    "ensemble_for_params", "invert_detunings", "SimulationTrace",
    "IntegrationError", "integrate_storage", "integrate_retrieval",
    "run_echo_cycle", "EchoResult", "blockade_phase_check", "PhaseCheck",
    "transfer_function_probe", "ProbeResult",
    "RAMAN_ABSORB_PHASE", "ECHO_EMISSION_PHASE", "CONTROL_RESET_PHASE",
    "ControlState", "Cell", "Term", "AddressSpec", "BranchEfficiencies",
    "QramState", "ProtocolError", "store_sequence",
    "absorb_address_bin", "rephase_cell", "reset_control", "run_addressing",
    "compose_with_dynamics", "state_table", "state_to_dict",
]
