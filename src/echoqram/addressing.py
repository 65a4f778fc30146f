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

A QramState keeps its T branches as parallel read-only arrays, one row per
branch: complex amplitudes (T,), integer codes (T,) for the control state,
the pending bin and the absorbed bin, and one (T,) column of complex
coherence factors per cell.  A state shares every column it does not
change with the state before it, so rephasing a cell replaces one column
and costs O(T); only the steps that change the row set (the first
expansion, merges and drops) index every column.  The emitted labels of a
row are a frozenset in an object array, with their hashes in a parallel
integer array.  An operation updates the rows it acts on with array
operations, then merges rows that have become the same branch, adding
their amplitudes: only the rows it changed are tested for an integer
branch key (control state, bins, label hash) that another row shares, and
only such rows are grouped on their exact keys and have their cell
columns compared.  Branches whose squared amplitude is below 1e-30 are
dropped.  QramState.terms, the sorted tuple of Term objects, is built
when it is first read.  A register of M cells thus costs O(M^2).

States are immutable; every operation returns a new QramState and checks
that the squared-amplitude sum plus the loss ledger is conserved, to 1e-12,
raising ProtocolError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import (SystemParams, ParameterError, ProtocolError,
                     check_matching, cooperativities)

RAMAN_ABSORB_PHASE = -1.0
ECHO_EMISSION_PHASE = -1.0
CONTROL_RESET_PHASE = -1.0

_DROP = 1e-30      # discard branches below this squared amplitude
_CONSERVE = 1e-12  # per-operation conservation tolerance


class ControlState(str, Enum):
    G = "g_c"
    AU = "au_c"


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
_FEW_ROWS = 8      # _times multiplies up to this many rows in Python floats
                   # (3 us for one row, 11 us in numpy, even near 12 rows)
_FEW_CHANGED = 4   # up to this many changed rows are tested one at a time
                   # against all keys; more take one sort of all keys (the
                   # sort is as fast from 3 rows of 32, 6 of 256, 14 of 1024)


def _bin_code(b: int | None) -> int:
    return _NO_BIN if b is None else b


def _bin(code: int) -> int | None:
    return None if code == _NO_BIN else code


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False   # arrays are shared between states
    return a


def _label_sets(sets: list[frozenset[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The label sets as an object array, and their hashes as integers."""
    labels = np.empty(len(sets), dtype=object)
    labels[:] = sets
    return labels, np.array([hash(e) for e in sets], dtype=np.int64)


def _with_label(labels: np.ndarray, hashes: np.ndarray, rows: np.ndarray,
                label: str) -> tuple[np.ndarray, np.ndarray]:
    """labels and hashes with label added to the sets of the given rows."""
    labels, hashes = labels.copy(), hashes.copy()
    labels[rows], hashes[rows] = _label_sets(
        [e | {label} for e in labels[rows].tolist()])
    return labels, hashes


class QramState:
    """Immutable superposition over protocol branches plus loss ledger.

    QramState(m, terms, ...) builds a state of m cells from Term objects;
    the protocol operations build theirs directly from branch arrays.
    terms is the tuple of Term objects sorted by pending bin, absorbed bin,
    control state and emitted labels (ties in row order), built on first
    access; a state built from terms keeps the given order.
    """

    __slots__ = ("m", "losses", "consumed_bins", "rephased_cells",
                 "_amp", "_cols", "_control", "_pending", "_absorbed",
                 "_labels", "_hashes", "_repeats", "_order", "_terms", "_norm")

    def __init__(self, m: int, terms: tuple[Term, ...],
                 losses: tuple[tuple[str, float], ...] = (),
                 consumed_bins: frozenset[int] = frozenset(),
                 rephased_cells: frozenset[int] = frozenset()) -> None:
        terms = tuple(terms)
        if any(len(t.cells) != m for t in terms):
            raise ParameterError(f"every term needs one factor per cell ({m})")
        cells = np.array([t.cells for t in terms], dtype=complex)
        self._set(m, losses, consumed_bins, rephased_cells,
                  np.array([t.amplitude for t in terms], dtype=complex),
                  tuple(_frozen(cells.reshape(len(terms), m).T.copy())),
                  np.array([_CONTROLS.index(t.control) for t in terms], dtype=int),
                  np.array([_bin_code(t.pending_bin) for t in terms], dtype=int),
                  np.array([_bin_code(t.absorbed_bin) for t in terms], dtype=int),
                  *_label_sets([t.emitted for t in terms]), True)
        self._order = list(range(len(terms)))
        self._terms = terms

    @classmethod
    def _of(cls, *fields) -> QramState:
        """A state from the fields of _set, without going through Terms."""
        state = cls.__new__(cls)
        state._set(*fields)
        return state

    def _set(self, m, losses, consumed_bins, rephased_cells,
             amp, cols, control, pending, absorbed, labels, hashes,
             repeats) -> None:
        """cols must hold read-only arrays; repeats is False only when no
        two rows share a branch key, True when some may."""
        self.m = m
        self.losses = losses
        self.consumed_bins = consumed_bins
        self.rephased_cells = rephased_cells
        self._amp = _frozen(amp)
        self._cols = cols
        self._control = _frozen(control)
        self._pending = _frozen(pending)
        self._absorbed = _frozen(absorbed)
        self._labels = _frozen(labels)
        self._hashes = _frozen(hashes)
        self._repeats = repeats
        self._order = self._terms = self._norm = None

    def _row_order(self) -> list[int]:
        if self._order is None:
            keys = list(zip(self._pending.tolist(), self._absorbed.tolist(),
                            [_CONTROLS[c].value for c in self._control.tolist()],
                            [sorted(e) for e in self._labels.tolist()]))
            self._order = sorted(range(len(keys)), key=keys.__getitem__)
        return self._order

    @property
    def terms(self) -> tuple[Term, ...]:
        if self._terms is None:
            order = self._row_order()
            self._terms = tuple(
                Term(amplitude=a, control=_CONTROLS[c], cells=tuple(cells),
                     pending_bin=_bin(p), absorbed_bin=_bin(b), emitted=e)
                for a, c, cells, p, b, e in zip(
                    self._amp[order].tolist(), self._control[order].tolist(),
                    _cell_rows(self._cols, order).tolist(),
                    self._pending[order].tolist(),
                    self._absorbed[order].tolist(),
                    self._labels[order].tolist()))
        return self._terms

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
    if len(a) <= _FEW_ROWS and not isinstance(z, np.ndarray):
        # the same products and sums in Python floats, without numpy's
        # per-call overhead on the one or few rows an operation moves
        zr, zi = z.real, z.imag
        return np.array([complex(x.real * zr - x.imag * zi,
                                 x.real * zi + x.imag * zr)
                         for x in a.tolist()], dtype=complex)
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * z.real - a.imag * z.imag
    out.imag = a.real * z.imag + a.imag * z.real
    return out


def _shared_rows(keys: np.ndarray, changed: np.ndarray | None) -> np.ndarray:
    """The rows whose key another row shares, ascending.

    Rows outside changed are taken to share no key with each other; None
    means that nothing is known and every row is tested.
    """
    shared = np.zeros(len(keys), dtype=bool)
    if changed is not None and len(changed) <= _FEW_CHANGED:
        for r in changed.tolist():
            same = keys == keys[r]
            if np.count_nonzero(same) > 1:
                shared |= same
    else:
        order = np.argsort(keys, kind="stable")
        same = keys[order[1:]] == keys[order[:-1]]
        shared[order[1:][same]] = True
        shared[order[:-1][same]] = True
    return shared.nonzero()[0]


def _cell_rows(cols: tuple[np.ndarray, ...], rows) -> np.ndarray:
    """The (len(rows), M) cell factors of the given rows."""
    rows = np.asarray(rows, dtype=np.intp)
    return np.array([c[rows] for c in cols], dtype=complex).reshape(
        len(cols), len(rows)).T


def _merge_rows(rows: np.ndarray, amp: np.ndarray, cols, *fields
                ) -> tuple[list[int], np.ndarray]:
    """The rows that repeat an earlier row's branch, and the amplitudes with
    each such row added into the first row like it.

    Only the given rows are looked at.  Rows whose key fields differ are
    different branches; cell factors are compared only within a key.
    """
    groups: dict = {}
    for i, *key in zip(rows.tolist(), *(f[rows].tolist() for f in fields)):
        groups.setdefault(tuple(key), []).append(i)
    amp = amp.copy()
    gone = []
    for group in groups.values():
        if len(group) < 2:
            continue
        cells = _cell_rows(cols, group)
        firsts: list[int] = []
        for j, i in enumerate(group):
            for f in firsts:
                if np.array_equal(cells[f], cells[j]):
                    amp[group[f]] = amp[group[f]] + amp[i]
                    gone.append(i)
                    break
            else:
                firsts.append(j)
    return gone, amp


def _next_state(before: QramState, op: str, changed: np.ndarray | None,
                amp, cols, control, pending, absorbed, labels, hashes,
                losses=None, consumed_bins=None,
                rephased_cells=None) -> QramState:
    """Merge identical branches, drop negligible ones, check conservation.

    changed holds the rows whose branch key may differ from their row's in
    before; None means that the rows do not correspond (the row set changed).
    """
    # equal branch keys give equal integers; unequal ones rarely collide
    # (the products wrap), and _merge_rows compares the exact keys
    span = before.m + 2
    keys = ((hashes * span + pending) * span + absorbed) * 2 + control
    shared = _shared_rows(keys, None if before._repeats else changed)
    gone = []
    if shared.size:
        gone, amp = _merge_rows(shared, amp, cols, control, pending,
                                absorbed, labels)
    keep = np.abs(amp) ** 2 > _DROP
    if gone:
        keep[gone] = False
    if np.count_nonzero(keep) < len(keep):
        rows = keep.nonzero()[0]
        amp, control, pending, absorbed, labels, hashes = (
            a[rows] for a in (amp, control, pending, absorbed, labels, hashes))
        cols = tuple(_frozen(c[rows]) for c in cols)
    after = QramState._of(
        before.m,
        before.losses if losses is None else losses,
        before.consumed_bins if consumed_bins is None else consumed_bins,
        before.rephased_cells if rephased_cells is None else rephased_cells,
        amp, cols, control, pending, absorbed, labels, hashes,
        bool(shared.size))
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


def store_sequence(m: int) -> QramState:
    """Memory loaded with M distinct qubits psi_in[1..M], control atom in
    its ground state."""
    if m < 1:
        raise ParameterError(f"need at least one cell, got M = {m}")
    root = Term(amplitude=1.0 + 0.0j, control=ControlState.G,
                cells=(1.0 + 0.0j,) * m)
    return QramState(m, (root,))


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

    amp, cols, control = state._amp, state._cols, state._control
    pending, absorbed = state._pending, state._absorbed
    labels, hashes = state._labels, state._hashes
    expanded = False
    if not state.consumed_bins:
        fresh = ((control == _G) & (pending == _NO_BIN) & (absorbed == _NO_BIN)
                 & np.array([not e for e in labels.tolist()], dtype=bool))
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
            control, absorbed = control[rows], absorbed[rows]
            labels, hashes = labels[rows], hashes[rows]
            cols = tuple(_frozen(c[rows]) for c in cols)
            expanded = True

    hit = (pending == n).nonzero()[0]
    amp = amp.copy()
    amp[hit] = _times(amp[hit], RAMAN_ABSORB_PHASE)
    control, pending, absorbed = control.copy(), pending.copy(), absorbed.copy()
    control[hit] = _AU
    pending[hit] = _NO_BIN
    absorbed[hit] = n
    return _next_state(
        state, f"absorb_address_bin({n})", None if expanded else hit,
        amp, cols, control, pending, absorbed, labels, hashes,
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
    column = state._cols[m - 1]
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
    payload = f"psi_in[{m}]"

    amp = state._amp
    w_emit = float(np.vdot(amp[au], amp[au]).real)
    w_stay = float(np.vdot(amp[~au], amp[~au]).real)
    losses = _add_losses(state.losses,
                         transfer=w_emit * (1.0 - abs(t_amp) ** 2),
                         blockade_leak=w_stay * leak2,
                         blockade_scatter=w_stay * scatter2)
    emit = au.nonzero()[0]
    amp = _times(amp, abs(b_amp))
    amp[emit] = _times(_times(state._amp[emit], ECHO_EMISSION_PHASE), t_amp)
    column = _times(column, b_phase)
    column[emit] = 0.0
    pending = state._pending.copy()
    pending[emit] = _NO_BIN
    return _next_state(
        state, f"rephase_cell({m})", emit, amp,
        state._cols[:m - 1] + (_frozen(column),) + state._cols[m:],
        state._control, pending, state._absorbed,
        *_with_label(state._labels, state._hashes, emit, payload),
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
    held = au.nonzero()[0]
    amp = state._amp.copy()
    amp[held] = _times(amp[held], CONTROL_RESET_PHASE)
    control, pending, absorbed = (
        a.copy() for a in (state._control, state._pending, state._absorbed))
    control[held] = _G
    pending[held] = _NO_BIN
    absorbed[held] = _NO_BIN
    return _next_state(
        state, f"reset_control({n})", held, amp, state._cols, control,
        pending, absorbed,
        *_with_label(state._labels, state._hashes, held, _address_label(n)))


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

def state_to_dict(state: QramState) -> dict:
    """JSON-ready term list: amplitudes, control state, cell map, labels."""
    order = state._row_order()
    amp = state._amp[order]
    cells = _cell_rows(state._cols, order)
    rows = zip(state._labels[order].tolist(), amp.real.tolist(),
               amp.imag.tolist(), state._control[order].tolist(),
               cells.real.tolist(), cells.imag.tolist(),
               (cells != 0).astype(int).tolist(),
               state._pending[order].tolist(), state._absorbed[order].tolist())
    return {
        "m": state.m,
        "cells": [{"index": i, "payload_label": f"psi_in[{i}]"}
                  for i in range(1, state.m + 1)],
        "terms": [{
            "amplitude": {"re": a_re, "im": a_im},
            "control": _CONTROLS[control].value,
            "cells": [{"re": re, "im": im} for re, im in zip(c_re, c_im)],
            "occupied": occupied,
            "pending_bin": _bin(pending),
            "absorbed_bin": _bin(absorbed),
            "emitted": sorted(e),
        } for e, a_re, a_im, control, c_re, c_im, occupied, pending, absorbed
            in rows],
        "norm": state.norm,
        "losses": state.loss_ledger(),
        "consumed_bins": sorted(state.consumed_bins),
        "rephased_cells": sorted(state.rephased_cells),
    }
