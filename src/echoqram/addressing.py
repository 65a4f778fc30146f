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

A QramState keeps its T branches as parallel arrays, one row per branch:
complex amplitudes (T,), complex cell coherence factors (T, M), and integer
codes (T,) for the control state, the pending bin and the absorbed bin.
The emitted labels are one frozenset per row.  An operation updates the
rows it acts on, and the one cell column a rephasing touches, with array
operations; Python work is done only on rows whose labels change.  It then
merges rows that have become the same branch, adding their amplitudes:
rows are grouped on control state, bins and emitted labels, and cell rows
are compared only inside a group of more than one row.  Branches whose
squared amplitude is below 1e-30 are dropped.  QramState.terms, the sorted
tuple of Term objects, is built when it is first read.

States are immutable; every operation returns a new QramState and checks
that the squared-amplitude sum plus the loss ledger is conserved, to 1e-12,
raising ProtocolError otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


@dataclass(frozen=True)
class Cell:
    """Static metadata of one memory cell (1-based index)."""

    index: int
    payload_label: str


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


@dataclass(frozen=True)
class AddressSpec:
    """Normalized M-bin address photon."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if not amps:
            raise ParameterError("address needs at least one bin")
        # x * x overflows to inf where x ** 2 would raise; the check
        # below is written so that NaN and inf fail it
        norm = sum(abs(a) * abs(a) for a in amps)
        if not abs(norm - 1.0) <= 1e-12:
            raise ParameterError(f"address amplitudes must have unit norm, got {norm}")

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
        # written so that NaN fails the checks as well
        if not t <= 1.0 + 1e-12:
            raise ParameterError(f"|transfer_amplitude| must be <= 1, got {t}")
        if not b * b + lk * lk <= 1.0 + 1e-12:
            raise ParameterError("blockade branch must not exceed unit "
                                 f"probability: |b|^2 + |leak|^2 = {b*b + lk*lk}")


# Row codes of a QramState's control array, and the code of "no bin" in its
# pending and absorbed arrays (bins are 1-based).
_CONTROLS = (ControlState.G, ControlState.AU)
_G, _AU = 0, 1
_NO_BIN = -1


def _bin_code(b: int | None) -> int:
    return _NO_BIN if b is None else b


def _bin(code: int) -> int | None:
    return None if code == _NO_BIN else code


class QramState:
    """Immutable superposition over protocol branches plus loss ledger.

    QramState(cells_meta, terms, ...) builds a state from Term objects;
    the protocol operations build theirs directly from branch arrays.
    terms is the tuple of Term objects sorted by pending bin, absorbed bin,
    control state and emitted labels (ties in row order), built on first
    access; a state built from terms keeps the given order.
    """

    __slots__ = ("cells_meta", "losses", "consumed_bins", "rephased_cells",
                 "_amp", "_cells", "_control", "_pending", "_absorbed",
                 "_emitted", "_order", "_terms", "_norm")

    def __init__(self, cells_meta: tuple[Cell, ...], terms: tuple[Term, ...],
                 losses: tuple[tuple[str, float], ...] = (),
                 consumed_bins: frozenset[int] = frozenset(),
                 rephased_cells: frozenset[int] = frozenset()) -> None:
        terms = tuple(terms)
        m = len(cells_meta)
        if any(len(t.cells) != m for t in terms):
            raise ParameterError(f"every term needs one factor per cell ({m})")
        self._set(tuple(cells_meta), losses, consumed_bins, rephased_cells,
                  np.array([t.amplitude for t in terms], dtype=complex),
                  np.array([t.cells for t in terms],
                           dtype=complex).reshape(len(terms), m),
                  np.array([_CONTROLS.index(t.control) for t in terms], dtype=int),
                  np.array([_bin_code(t.pending_bin) for t in terms], dtype=int),
                  np.array([_bin_code(t.absorbed_bin) for t in terms], dtype=int),
                  tuple(t.emitted for t in terms))
        self._order = list(range(len(terms)))
        self._terms = terms

    @classmethod
    def _of(cls, *fields) -> QramState:
        """A state from the fields of _set, without going through Terms."""
        state = cls.__new__(cls)
        state._set(*fields)
        return state

    def _set(self, cells_meta, losses, consumed_bins, rephased_cells,
             amp, cells, control, pending, absorbed, emitted) -> None:
        self.cells_meta = cells_meta
        self.losses = losses
        self.consumed_bins = consumed_bins
        self.rephased_cells = rephased_cells
        for a in (amp, cells, control, pending, absorbed):
            a.flags.writeable = False   # rows are shared between states
        self._amp = amp
        self._cells = cells
        self._control = control
        self._pending = pending
        self._absorbed = absorbed
        self._emitted = emitted
        self._order = self._terms = self._norm = None

    def _row_order(self) -> list[int]:
        if self._order is None:
            keys = list(zip(self._pending.tolist(), self._absorbed.tolist(),
                            [_CONTROLS[c].value for c in self._control.tolist()],
                            [sorted(e) for e in self._emitted]))
            self._order = sorted(range(len(keys)), key=keys.__getitem__)
        return self._order

    @property
    def terms(self) -> tuple[Term, ...]:
        if self._terms is None:
            order = self._row_order()
            self._terms = tuple(
                Term(amplitude=a, control=_CONTROLS[c], cells=tuple(cells),
                     pending_bin=_bin(p), absorbed_bin=_bin(b),
                     emitted=self._emitted[i])
                for i, a, c, cells, p, b in zip(
                    order, self._amp[order].tolist(),
                    self._control[order].tolist(),
                    self._cells[order].tolist(),
                    self._pending[order].tolist(),
                    self._absorbed[order].tolist()))
        return self._terms

    @property
    def m(self) -> int:
        return len(self.cells_meta)

    @property
    def norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.vdot(self._amp, self._amp).real)
        return self._norm

    @property
    def loss_total(self) -> float:
        return sum(v for _, v in self.losses)

    def loss_ledger(self) -> dict[str, float]:
        return dict(self.losses)


def _times(a: np.ndarray, z) -> np.ndarray:
    """a * z for a scalar z or an array of a's shape, rounded as Python's
    complex product; numpy's vector loop fuses the multiply-add and can
    move the last bit."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * z.real - a.imag * z.imag
    out.imag = a.real * z.imag + a.imag * z.real
    return out


def _merge_rows(keys: list, amp: np.ndarray,
                cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows left after adding identical branches, in first-appearance order,
    and the amplitudes with each duplicate added into the first row like it.

    Rows with different keys are different branches; cell rows are compared
    only within a key.
    """
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    amp = amp.copy()
    rows = []
    for group in groups.values():
        firsts: list[int] = []
        for i in group:
            for f in firsts:
                if np.array_equal(cells[f], cells[i]):
                    amp[f] = amp[f] + amp[i]
                    break
            else:
                firsts.append(i)
        rows.extend(firsts)
    rows.sort()
    return np.array(rows, dtype=int), amp


def _next_state(before: QramState, op: str, amp, cells, control, pending,
                absorbed, emitted, losses=None, consumed_bins=None,
                rephased_cells=None) -> QramState:
    """Merge identical branches, drop negligible ones, check conservation."""
    keys = list(zip(control.tolist(), pending.tolist(), absorbed.tolist(),
                    emitted))
    if len(set(keys)) < len(keys):
        rows, amp = _merge_rows(keys, amp, cells)
    else:
        rows = np.arange(len(keys))
    rows = rows[np.abs(amp[rows]) ** 2 > _DROP]
    if len(rows) < len(keys):
        amp, cells, control, pending, absorbed = (
            a[rows] for a in (amp, cells, control, pending, absorbed))
        emitted = tuple(emitted[i] for i in rows.tolist())
    after = QramState._of(
        before.cells_meta,
        before.losses if losses is None else losses,
        before.consumed_bins if consumed_bins is None else consumed_bins,
        before.rephased_cells if rephased_cells is None else rephased_cells,
        amp, cells, control, pending, absorbed, emitted)
    return _conserving(before, after, op)


def _conserving(before: QramState, after: QramState, op: str) -> QramState:
    lost = after.loss_total - before.loss_total
    drift = (after.norm + lost) - before.norm
    if abs(drift) > _CONSERVE:
        raise ProtocolError(
            f"{op} broke probability bookkeeping by {drift:.3e}")
    return after


def _add_losses(losses: tuple[tuple[str, float], ...],
                **amounts: float) -> tuple[tuple[str, float], ...]:
    d = dict(losses)
    for channel, amount in amounts.items():
        if amount > 0.0:
            d[channel] = d.get(channel, 0.0) + amount
    return tuple(sorted(d.items()))


def _with_label(emitted: tuple[frozenset[str], ...], mask: np.ndarray,
                label: str) -> tuple[frozenset[str], ...]:
    out = list(emitted)
    for i in np.flatnonzero(mask).tolist():
        out[i] = out[i] | {label}
    return tuple(out)


def store_sequence(m: int, payload_labels=None) -> QramState:
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
    cells = tuple(Cell(index=i + 1, payload_label=payload_labels[i])
                  for i in range(m))
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
    if (state._control == _AU).any():
        raise ProtocolError(
            "an address bin is still mapped on the control atom; "
            "reset_control must run before the next bin")

    amp, cells, control = state._amp, state._cells, state._control
    pending, absorbed, emitted = state._pending, state._absorbed, state._emitted
    if not state.consumed_bins:
        fresh = ((control == _G) & (pending == _NO_BIN) & (absorbed == _NO_BIN)
                 & np.array([not e for e in emitted], dtype=bool))
        if fresh.any():
            # each fresh row becomes M rows in place, one per time bin
            counts = np.where(fresh, state.m, 1)
            rows = np.repeat(np.arange(len(amp)), counts)
            split = np.repeat(fresh, counts)
            n_fresh = int(fresh.sum())
            amp = amp[rows]
            amp[split] = _times(amp[split], np.tile(addr.amplitudes, n_fresh))
            pending = pending[rows]
            pending[split] = np.tile(np.arange(1, state.m + 1), n_fresh)
            cells, control, absorbed = cells[rows], control[rows], absorbed[rows]
            emitted = tuple(emitted[i] for i in rows.tolist())

    hit = pending == n
    return _next_state(
        state, f"absorb_address_bin({n})",
        np.where(hit, _times(amp, RAMAN_ABSORB_PHASE), amp), cells,
        np.where(hit, _AU, control), np.where(hit, _NO_BIN, pending),
        np.where(hit, n, absorbed), emitted,
        consumed_bins=state.consumed_bins | {n})


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
    column = state._cells[:, m - 1]
    if (column == 0).any():
        raise ProtocolError(f"cell {m} is already empty in some branch")
    au = state._control == _AU
    wrong = state._absorbed[au & (state._absorbed != m)]
    if wrong.size:
        raise ProtocolError(
            f"control atom holds bin {_bin(int(wrong[0]))} while cell {m} "
            "is rephased; the protocol pairs bin n with cell n")

    t_amp = complex(eff.transfer_amplitude)
    b_amp = complex(eff.blockade_reflection_amplitude)
    leak2 = abs(eff.leakage_amplitude) ** 2
    scatter2 = max(0.0, 1.0 - abs(b_amp) ** 2 - leak2)
    b_phase = b_amp / abs(b_amp) if abs(b_amp) > 0 else 1.0
    payload = state.cells_meta[m - 1].payload_label

    amp = state._amp
    w_emit = float(np.vdot(amp[au], amp[au]).real)
    w_stay = float(np.vdot(amp[~au], amp[~au]).real)
    losses = _add_losses(state.losses,
                         transfer=w_emit * (1.0 - abs(t_amp) ** 2),
                         blockade_leak=w_stay * leak2,
                         blockade_scatter=w_stay * scatter2)
    cells = state._cells.copy()
    cells[:, m - 1] = np.where(au, 0.0 + 0.0j, _times(column, b_phase))
    return _next_state(
        state, f"rephase_cell({m})",
        np.where(au, _times(_times(amp, ECHO_EMISSION_PHASE), t_amp),
                 _times(amp, abs(b_amp))),
        cells, state._control, np.where(au, _NO_BIN, state._pending),
        state._absorbed, _with_label(state._emitted, au, payload),
        losses=losses, rephased_cells=state.rephased_cells | {m})


def reset_control(state: QramState, n: int) -> QramState:
    """Return the control atom to g_c, re-emitting the bin-n address photon.

    A no-op when no branch holds the control atom excited (the bin-n
    address amplitude was zero).
    """
    if not 1 <= n <= state.m:
        raise ParameterError(f"bin {n} out of range 1..{state.m}")
    au = state._control == _AU
    wrong = state._absorbed[au & (state._absorbed != n)]
    if wrong.size:
        raise ProtocolError(
            f"control atom holds bin {_bin(int(wrong[0]))}, cannot reset bin {n}")
    if not au.any():
        return state
    return _next_state(
        state, f"reset_control({n})",
        np.where(au, _times(state._amp, CONTROL_RESET_PHASE), state._amp),
        state._cells, np.where(au, _G, state._control),
        np.where(au, _NO_BIN, state._pending),
        np.where(au, _NO_BIN, state._absorbed),
        _with_label(state._emitted, au, _address_label(n)))


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
    order = state._row_order()
    amp = state._amp[order]
    cells = state._cells[order]
    rows = zip(order, amp.real.tolist(), amp.imag.tolist(),
               state._control[order].tolist(), cells.real.tolist(),
               cells.imag.tolist(), (cells != 0).astype(int).tolist(),
               state._pending[order].tolist(), state._absorbed[order].tolist())
    return {
        "m": state.m,
        "cells": [{"index": c.index, "payload_label": c.payload_label}
                  for c in state.cells_meta],
        "terms": [{
            "amplitude": {"re": a_re, "im": a_im},
            "control": _CONTROLS[control].value,
            "cells": [{"re": re, "im": im} for re, im in zip(c_re, c_im)],
            "occupied": occupied,
            "pending_bin": _bin(pending),
            "absorbed_bin": _bin(absorbed),
            "emitted": sorted(state._emitted[i]),
        } for i, a_re, a_im, control, c_re, c_im, occupied, pending, absorbed
            in rows],
        "norm": state.norm,
        "losses": state.loss_ledger(),
        "consumed_bins": sorted(state.consumed_bins),
        "rephased_cells": sorted(state.rephased_cells),
    }
