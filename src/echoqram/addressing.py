"""Exact label algebra for the time-bin addressing protocol.

The memory holds M cells, each storing one photonic qubit as a collective
atomic excitation.  A single address photon spread over M time bins drives
the control atom, which branches every bin into a transfer alternative
(the control atom absorbed this bin, the targeted cell re-emits its
payload) and a blockade alternative (the control atom stayed in its ground
state, the targeted cell bounces its excitation back with a pi phase).
Photon wavepackets are tracked as opaque orthonormal labels; waveform
fidelity is the dynamics module's job.

Three protocol signs are explicit named constants so each can be tested
in isolation and their composition gives the -alpha_n amplitude of the
final entangled state:

    RAMAN_ABSORB_PHASE   applied when a bin maps onto the control atom,
    ECHO_EMISSION_PHASE  applied when a rephased cell emits its payload,
    CONTROL_RESET_PHASE  applied when the control atom re-emits the bin.

States are immutable; every operation returns a new QramState and checks
that the squared-amplitude sum plus the loss ledger is conserved exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .params import SystemParams, ParameterError, check_matching, cooperativities

RAMAN_ABSORB_PHASE = -1.0
ECHO_EMISSION_PHASE = -1.0
CONTROL_RESET_PHASE = -1.0

_DROP = 1e-30      # discard branches below this squared amplitude
_CONSERVE = 1e-12  # per-operation conservation tolerance


class ProtocolError(RuntimeError):
    """Operation applied outside the protocol's phase discipline."""


class ControlState(str, Enum):
    G = "g_c"
    AU = "au_c"
    E = "e_c"   # transient upper level, never populated between steps


class CellStatus(str, Enum):
    OCCUPIED = "D"
    EMPTY = "empty"


@dataclass(frozen=True)
class Cell:
    """Static metadata of one memory cell (1-based index)."""

    index: int
    payload_label: str
    time_label: float | None = None


def _address_label(n: int) -> str:
    return f"psi_a[{n}]"


@dataclass(frozen=True)
class Term:
    """One branch of the superposition.

    cells holds one complex coherence factor per cell: 0 means the cell
    was emptied, a nonzero value means occupied with that accumulated
    phase (blockade bounces multiply it by -1).  pending_bin marks which
    time bin carries the address photon in this branch before it arrives;
    absorbed_bin marks the bin currently mapped onto the control atom.
    """

    amplitude: complex
    control: ControlState
    cells: tuple[complex, ...]
    pending_bin: int | None = None
    absorbed_bin: int | None = None
    emitted: frozenset[str] = frozenset()

    def key(self):
        return (self.control, self.cells, self.pending_bin,
                self.absorbed_bin, self.emitted)

    def cell_status(self, m: int) -> CellStatus:
        return CellStatus.EMPTY if self.cells[m - 1] == 0 else CellStatus.OCCUPIED

    @property
    def empty_count(self) -> int:
        return sum(1 for c in self.cells if c == 0)


@dataclass(frozen=True)
class AddressSpec:
    """Normalized M-bin address photon."""

    amplitudes: tuple[complex, ...]
    bin_spacing: float = 1.0
    bin_duration: float = 0.05

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if not amps:
            raise ParameterError("address needs at least one bin")
        # x * x overflows to inf where x ** 2 would raise; every check
        # below is written so that NaN and inf fail it
        norm = sum(abs(a) * abs(a) for a in amps)
        if not abs(norm - 1.0) <= 1e-12:
            raise ParameterError(f"address amplitudes must have unit norm, got {norm}")
        if not (self.bin_spacing > 0 and self.bin_duration > 0):
            raise ParameterError("bin_spacing and bin_duration must be positive")
        if not self.bin_duration <= 0.1 * self.bin_spacing:
            raise ParameterError(
                f"bin_duration {self.bin_duration} must be <= 0.1 * bin_spacing "
                f"{self.bin_spacing}: bins must stay temporally resolved")

    @property
    def m(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class BranchEfficiencies:
    """Amplitudes of the three readout branches.

    The defaults are the ideal protocol; compose_with_dynamics fills in
    the physical values for a given parameter set and storage delay.
    leakage is the echo component that escapes during a blockade and is
    accounted as loss, never as a propagating term.
    """

    transfer_amplitude: complex = 1.0
    blockade_reflection_amplitude: complex = -1.0
    leakage_amplitude: complex = 0.0

    def __post_init__(self) -> None:
        t = abs(complex(self.transfer_amplitude))
        b = abs(complex(self.blockade_reflection_amplitude))
        lk = abs(complex(self.leakage_amplitude))
        if t > 1.0 + 1e-12:
            raise ParameterError(f"|transfer_amplitude| = {t} exceeds 1")
        if b * b + lk * lk > 1.0 + 1e-12:
            raise ParameterError(
                f"blockade branch over-unit: |b|^2 + |leak|^2 = {b*b + lk*lk}")


@dataclass(frozen=True)
class QramState:
    """Immutable superposition over protocol branches plus loss ledger."""

    cells_meta: tuple[Cell, ...]
    terms: tuple[Term, ...]
    losses: tuple[tuple[str, float], ...] = ()
    consumed_bins: frozenset[int] = frozenset()
    rephased_cells: frozenset[int] = frozenset()

    @property
    def m(self) -> int:
        return len(self.cells_meta)

    @property
    def norm(self) -> float:
        return sum(abs(t.amplitude) ** 2 for t in self.terms)

    @property
    def loss_total(self) -> float:
        return sum(v for _, v in self.losses)

    def loss_ledger(self) -> dict[str, float]:
        return dict(self.losses)


def _merge_terms(terms) -> tuple[Term, ...]:
    merged: dict = {}
    for t in terms:
        k = t.key()
        if k in merged:
            merged[k] = merged[k] + t.amplitude
        else:
            merged[k] = t.amplitude
    out = [Term(amplitude=a, control=k[0], cells=k[1], pending_bin=k[2],
                absorbed_bin=k[3], emitted=k[4])
           for k, a in merged.items() if abs(a) ** 2 > _DROP]
    out.sort(key=lambda t: (t.pending_bin if t.pending_bin is not None else -1,
                            t.absorbed_bin if t.absorbed_bin is not None else -1,
                            t.control.value, sorted(t.emitted)))
    return tuple(out)


def _conserving(before: QramState, after: QramState, op: str) -> QramState:
    lost = after.loss_total - before.loss_total
    drift = (after.norm + lost) - before.norm
    if abs(drift) > _CONSERVE:
        raise ProtocolError(
            f"{op} broke probability bookkeeping by {drift:.3e}")
    return after


def _add_loss(losses: tuple[tuple[str, float], ...], channel: str,
              amount: float) -> tuple[tuple[str, float], ...]:
    if amount <= 0.0:
        return losses
    d = dict(losses)
    d[channel] = d.get(channel, 0.0) + amount
    return tuple(sorted(d.items()))


def store_sequence(m: int, payload_labels=None, time_labels=None) -> QramState:
    """Memory loaded with M distinct qubits, control atom in its ground state."""
    if m < 1:
        raise ParameterError(f"need at least one cell, got M = {m}")
    if payload_labels is None:
        payload_labels = [f"psi_in[{i}]" for i in range(1, m + 1)]
    payload_labels = list(payload_labels)
    if len(payload_labels) != m:
        raise ParameterError(f"expected {m} payload labels, got {len(payload_labels)}")
    if len(set(payload_labels)) != m:
        raise ParameterError("payload labels must be distinct")
    if time_labels is None:
        time_labels = [None] * m
    cells = tuple(Cell(index=i + 1, payload_label=payload_labels[i],
                       time_label=time_labels[i]) for i in range(m))
    root = Term(amplitude=1.0 + 0.0j, control=ControlState.G,
                cells=(1.0 + 0.0j,) * m)
    return QramState(cells_meta=cells, terms=(root,))


def absorb_address_bin(state: QramState, n: int, addr: AddressSpec) -> QramState:
    """Map the bin-n component of the address photon onto the control atom.

    On the first call the root term is expanded into one branch per time
    bin (the branch where the address photon occupies bin k, amplitude
    alpha_k); linearity makes this equivalent to keeping the un-arrived
    superposition in one term.  The branch whose bin just arrived picks
    up RAMAN_ABSORB_PHASE and moves the control atom to au_c.
    """
    if addr.m != state.m:
        raise ParameterError(f"address has {addr.m} bins, memory has {state.m} cells")
    if not 1 <= n <= state.m:
        raise ParameterError(f"bin {n} out of range 1..{state.m}")
    if n in state.consumed_bins:
        raise ProtocolError(f"bin {n} was already consumed")
    if any(t.control is ControlState.AU for t in state.terms):
        raise ProtocolError(
            "an address bin is still mapped on the control atom; "
            "reset_control must run before the next bin")

    expanded = []
    for t in state.terms:
        fresh = (t.control is ControlState.G and t.pending_bin is None
                 and t.absorbed_bin is None and not t.emitted
                 and not state.consumed_bins)
        if fresh:
            for k, alpha in enumerate(addr.amplitudes, start=1):
                expanded.append(Term(amplitude=t.amplitude * alpha,
                                     control=ControlState.G, cells=t.cells,
                                     pending_bin=k, emitted=t.emitted))
        else:
            expanded.append(t)

    out = []
    for t in expanded:
        if t.pending_bin == n:
            out.append(Term(amplitude=t.amplitude * RAMAN_ABSORB_PHASE,
                            control=ControlState.AU, cells=t.cells,
                            pending_bin=None, absorbed_bin=n,
                            emitted=t.emitted))
        else:
            out.append(t)
    after = QramState(cells_meta=state.cells_meta, terms=_merge_terms(out),
                      losses=state.losses,
                      consumed_bins=state.consumed_bins | {n},
                      rephased_cells=state.rephased_cells)
    return _conserving(state, after, f"absorb_address_bin({n})")


def rephase_cell(state: QramState, m: int,
                 eff: BranchEfficiencies = BranchEfficiencies()) -> QramState:
    """Rephase cell m: transfer branches emit, blockade branches bounce.

    Terms holding the control atom in au_c emit the cell's payload photon
    with ECHO_EMISSION_PHASE times the transfer amplitude.  Terms still in
    g_c keep the cell occupied; its coherence factor picks up the phase of
    the blockade reflection amplitude (pi for the ideal bounce) and the
    magnitude shortfall goes to the loss ledger, split between the echo
    leakage and control-atom scattering channels.
    """
    if not 1 <= m <= state.m:
        raise ParameterError(f"cell {m} out of range 1..{state.m}")
    if m in state.rephased_cells:
        raise ProtocolError(f"cell {m} was already rephased")
    if m not in state.consumed_bins:
        raise ProtocolError(
            f"cell {m} rephased before address bin {m} was processed")
    if any(t.cells[m - 1] == 0 for t in state.terms):
        raise ProtocolError(f"cell {m} is already empty in some branch")

    t_amp = complex(eff.transfer_amplitude)
    b_amp = complex(eff.blockade_reflection_amplitude)
    leak2 = abs(eff.leakage_amplitude) ** 2
    scatter2 = max(0.0, 1.0 - abs(b_amp) ** 2 - leak2)
    b_phase = b_amp / abs(b_amp) if abs(b_amp) > 0 else 1.0
    payload = state.cells_meta[m - 1].payload_label

    out = []
    losses = state.losses
    for t in state.terms:
        if t.control is ControlState.AU:
            if t.absorbed_bin != m:
                raise ProtocolError(
                    f"control atom holds bin {t.absorbed_bin} while cell {m} "
                    "is rephased; the protocol pairs bin n with cell n")
            w = abs(t.amplitude) ** 2
            losses = _add_loss(losses, "transfer", w * (1.0 - abs(t_amp) ** 2))
            cells = t.cells[:m - 1] + (0.0 + 0.0j,) + t.cells[m:]
            out.append(Term(amplitude=t.amplitude * ECHO_EMISSION_PHASE * t_amp,
                            control=ControlState.AU, cells=cells,
                            absorbed_bin=t.absorbed_bin,
                            emitted=t.emitted | {payload}))
        else:
            w = abs(t.amplitude) ** 2
            losses = _add_loss(losses, "blockade_leak", w * leak2)
            losses = _add_loss(losses, "blockade_scatter", w * scatter2)
            cells = (t.cells[:m - 1] + (t.cells[m - 1] * b_phase,)
                     + t.cells[m:])
            out.append(Term(amplitude=t.amplitude * abs(b_amp),
                            control=t.control, cells=cells,
                            pending_bin=t.pending_bin,
                            absorbed_bin=t.absorbed_bin, emitted=t.emitted))
    after = QramState(cells_meta=state.cells_meta, terms=_merge_terms(out),
                      losses=losses, consumed_bins=state.consumed_bins,
                      rephased_cells=state.rephased_cells | {m})
    return _conserving(state, after, f"rephase_cell({m})")


def reset_control(state: QramState, n: int) -> QramState:
    """Return the control atom to g_c, re-emitting the bin-n address photon.

    A no-op when no branch holds the control atom excited (the bin-n
    address amplitude was zero).
    """
    if not 1 <= n <= state.m:
        raise ParameterError(f"bin {n} out of range 1..{state.m}")
    out = []
    changed = False
    for t in state.terms:
        if t.control is ControlState.AU:
            if t.absorbed_bin != n:
                raise ProtocolError(
                    f"control atom holds bin {t.absorbed_bin}, cannot reset bin {n}")
            out.append(Term(amplitude=t.amplitude * CONTROL_RESET_PHASE,
                            control=ControlState.G, cells=t.cells,
                            emitted=t.emitted | {_address_label(n)}))
            changed = True
        else:
            out.append(t)
    if not changed:
        return state
    after = QramState(cells_meta=state.cells_meta, terms=_merge_terms(out),
                      losses=state.losses, consumed_bins=state.consumed_bins,
                      rephased_cells=state.rephased_cells)
    return _conserving(state, after, f"reset_control({n})")


def run_addressing(m: int, addr: AddressSpec,
                   eff: BranchEfficiencies = BranchEfficiencies()) -> QramState:
    """Full protocol: absorb bin n, rephase cell n, reset, for n = 1..M.

    With ideal efficiencies the output is the sum over n of terms with
    amplitude -alpha_n, cell n emptied, the bin-n address photon and the
    cell-n payload photon emitted, and every bystander cell still occupied
    with a pi bounce phase per rephasing it sat through.
    """
    if addr.m != m:
        raise ParameterError(f"address has {addr.m} bins, expected {m}")
    state = store_sequence(m)
    for n in range(1, m + 1):
        state = absorb_address_bin(state, n, addr)
        state = rephase_cell(state, n, eff)
        state = reset_control(state, n)
    return state


def compose_with_dynamics(p: SystemParams, tau: float) -> BranchEfficiencies:
    """Physical branch amplitudes for matched parameters and delay tau.

    transfer_amplitude is the echo amplitude decay exp(-2*tau/T2) (its
    sign convention lives in ECHO_EMISSION_PHASE); the blockade branch
    keeps -2C/(1+2C) in the cell and leaks 1/(1+2C) of the amplitude out
    of the cavity.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    report = check_matching(p)
    if not report.all_matched:
        raise ParameterError(
            "addressing composition assumes impedance matching; residuals "
            f"{report.to_dict()}")
    c = cooperativities(p).c_atom
    if c <= 0:
        raise ParameterError("blockade branch needs a coupled control atom (g1 > 0)")
    transfer = 1.0 if math.isinf(p.t2) else math.exp(-2.0 * tau / p.t2)
    return BranchEfficiencies(
        transfer_amplitude=transfer,
        blockade_reflection_amplitude=-2.0 * c / (1.0 + 2.0 * c),
        leakage_amplitude=1.0 / (1.0 + 2.0 * c),
    )


# ------------------------------------------------------------------- reporting

def state_table(state: QramState) -> str:
    """Human-readable term table."""
    lines = []
    head = (f"{'amplitude':>24}  {'control':>7}  cells({state.m})"
            f"{'':{max(0, 2 * state.m - 8)}}  emitted")
    lines.append(head)
    for t in state.terms:
        a = t.amplitude
        amp = f"{a.real:+.6f}{a.imag:+.6f}j"
        cells = " ".join(
            "." if c == 0 else ("+" if abs(cmath.phase(c)) < 1e-9 else "-")
            for c in t.cells)
        emitted = ", ".join(sorted(t.emitted)) or "-"
        lines.append(f"{amp:>24}  {t.control.value:>7}  {cells:<{2 * state.m}}  {emitted}")
    lines.append(f"norm = {state.norm:.12f}   losses = {state.loss_ledger() or {}}")
    return "\n".join(lines)


def state_to_dict(state: QramState) -> dict:
    """JSON-ready term list: amplitudes, control state, cell map, labels."""
    return {
        "m": state.m,
        "cells": [{"index": c.index, "payload_label": c.payload_label,
                   "time_label": c.time_label} for c in state.cells_meta],
        "terms": [{
            "amplitude": {"re": t.amplitude.real, "im": t.amplitude.imag},
            "control": t.control.value,
            "cells": [{"re": c.real, "im": c.imag} for c in t.cells],
            "occupied": [int(c != 0) for c in t.cells],
            "pending_bin": t.pending_bin,
            "absorbed_bin": t.absorbed_bin,
            "emitted": sorted(t.emitted),
        } for t in state.terms],
        "norm": state.norm,
        "losses": state.loss_ledger(),
        "consumed_bins": sorted(state.consumed_bins),
        "rephased_cells": sorted(state.rephased_cells),
    }
