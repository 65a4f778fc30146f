"""echoqram: simulator for a time-bin quantum RAM built on a coupled-cavity
photon-echo memory controlled by a single three-level atom.

Modules:
    params     -- rates, cooperativities, impedance matching
    spectral   -- closed-form frequency-domain response and efficiencies
    dynamics   -- time-domain integration of storage and echo retrieval
    addressing -- exact term-level bookkeeping of the addressing protocol
    cli        -- scenario runner

Importing the package runs `params` alone, which uses no numpy.  The other
three layers are registered in sys.modules and as attributes of the
package, but their code runs on the first access to any of their
attributes (`import echoqram.dynamics` is one: the import system reads
the module's __spec__).  A name re-exported here resolves through its
layer the same way.  So each command pays only for the layers it runs:
check-matching loads no numpy, spectra and address no dynamics.

A layer's code runs once, under one re-entrant lock.  Before Python 3.12,
importlib.util.LazyLoader lets a second thread read a module whose code
the first thread is still running, and that thread then fails on a name
not yet defined.  Here the other threads wait on the lock; only the
loading thread, which reads the module while it runs it, gets back in.

numpy is imported before a layer's code runs.  A layer compiled and run
before numpy arranges the process heap so that the dynamics' arrays take
almost twice the minor page faults (about 18,000 against 10,000 for an
echo command), which costs about 10 ms.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

from .params import (  # noqa: E402
    SystemParams,
    ParameterError,
    IntegrationError,
    ProtocolError,
    PulseShape,
    Cooperativities,
    MatchingReport,
    cooperativities,
    check_matching,
    solve_matched_params,
    params_digest,
)

# the names re-exported from each layer that runs on first use
_LAYER_OF = {name: layer for layer, names in {
    "spectral": (
        "lorentzian_lineshape", "broadened_response", "storage_transfer",
        "spectral_efficiency", "resonant_efficiency", "matched_window",
        "blockade_reflection"),
    "dynamics": (
        "PulseSpec", "AtomEnsemble", "discretize_ensemble",
        "ensemble_for_params", "invert_detunings", "SimulationTrace",
        "integrate_storage", "integrate_retrieval", "run_echo_cycle",
        "EchoResult", "blockade_phase_check", "PhaseCheck"),
    "addressing": (
        "RAMAN_ABSORB_PHASE", "ECHO_EMISSION_PHASE", "CONTROL_RESET_PHASE",
        "ControlState", "Cell", "Term", "AddressSpec", "BranchEfficiencies",
        "QramState", "store_sequence", "absorb_address_bin", "rephase_cell",
        "reset_control", "run_addressing", "compose_with_dynamics",
        "state_to_dict"),
}.items() for name in names}

_LOAD_LOCK = threading.RLock()
_loading: set = set()   # layers whose code is running


class _Layer(types.ModuleType):
    """A layer whose code has not run: the first attribute access runs it."""

    def __getattribute__(self, name):
        with _LOAD_LOCK:
            if type(self) is _Layer and self not in _loading:
                _loading.add(self)
                try:
                    import numpy  # noqa: F401
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _loading.discard(self)
        return types.ModuleType.__getattribute__(self, name)


def _register(name: str) -> types.ModuleType:
    spec = find_spec(f"{__name__}.{name}")
    module = module_from_spec(spec)
    module.__class__ = _Layer
    sys.modules[spec.name] = module
    return module


spectral = _register("spectral")
dynamics = _register("dynamics")
addressing = _register("addressing")


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})


__all__ = [
    "__version__",
    "SystemParams", "ParameterError", "Cooperativities", "MatchingReport",
    "cooperativities", "check_matching", "solve_matched_params",
    "params_digest",
    "lorentzian_lineshape", "broadened_response", "storage_transfer",
    "spectral_efficiency", "resonant_efficiency", "matched_window",
    "blockade_reflection",
    "PulseSpec", "PulseShape", "AtomEnsemble", "discretize_ensemble",
    "ensemble_for_params", "invert_detunings", "SimulationTrace",
    "IntegrationError", "integrate_storage", "integrate_retrieval",
    "run_echo_cycle", "EchoResult", "blockade_phase_check", "PhaseCheck",
    "RAMAN_ABSORB_PHASE", "ECHO_EMISSION_PHASE", "CONTROL_RESET_PHASE",
    "ControlState", "Cell", "Term", "AddressSpec", "BranchEfficiencies",
    "QramState", "ProtocolError", "store_sequence",
    "absorb_address_bin", "rephase_cell", "reset_control", "run_addressing",
    "compose_with_dynamics", "state_to_dict",
]
