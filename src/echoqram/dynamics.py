"""Time-domain dynamics of storage, detuning inversion, and echo retrieval.

Single-excitation amplitudes in the rotating frame obey

    da1/dt = -i*g1*bc - i*f2*a2 - (kappa/2)*a1 + sqrt(kappa)*a_in(t)
    dbc/dt = -i*(delta_c - i*gamma/2)*bc - i*g1*a1
    da2/dt = -i*sum_j gj*b_j - i*f2*a1
    db_j/dt = -i*(Delta_j - i/T2)*b_j - i*gj*a2

with the input-output relation a_out = sqrt(kappa)*a1 - a_in.  The
inhomogeneous line is discretized into modes at detunings Delta_j with
quadrature weights w_j; each mode couples with gj = sqrt(N*g2**2 * w_j),
so sum_j |b_j|**2 is the stored excitation probability and collective
sums reproduce N * integral(G(Delta) ...) to quadrature accuracy.

Retrieval solves the same equations with the drive removed and the
ensemble detunings inverted (Delta_j -> -Delta_j at the inversion time),
which realizes the rephasing readout: a mode stored with phase
exp(-i*Delta_j*tau) unwinds to zero phase at 2*tau and the ensemble
re-emits the pulse time-reversed.

Within each stage the equations are linear and time invariant,
dy/dt = A y + B a_in(t).  One stage function propagates both exactly in
the eigenbasis of A, from the ensemble's state with the cavities and the
control atom empty, under the pulse in storage and without it in
retrieval.  A is complex symmetric with arrowhead structure, so its
eigenvalues are the roots of a secular equation, found by Aberth
iteration in O(n**2) operations, and its eigenvectors have closed
Cauchy forms; the detunings are distinct (discretize_ensemble merges
the clipped tails), so no pole of the arrowhead repeats.  On a mirrored
line (delta_c = 0 or g1 = 0) the roots are real or conjugate pairs, and
Aberth iterates one root of each pair, so the solve, the ensemble sums
and the Cauchy rows of a mirror-conjugate state's coordinates take half
the work.  One basis serves every call on the same (parameters, grid),
so storage and retrieval share it on a mirrored grid, and so does its
node operator: the rows of V that a stage reads, the fields, the
collective amplitude sum_m g_m b_m and its rate (lam times its row),
then the Cauchy rows of the nodes, formed once when the basis is first
used, with the input's mode coordinates solved on it.  Each stage forms
its mode coordinates with one kernel.  Storage runs one
exponential-quadrature recurrence for every pulse shape from the
ensemble's coordinates: per step the mode decays by exp(lam h) and gains
weights, exact in its exponential and scaled by the input's coordinate
once, times the envelope at eight Gauss nodes.  Retrieval is the free
evolution of the start on its uniform output grid, a complex exp per run
of samples times one table of in-run offset factors that every run
shares.  A mirror-conjugate state (a mirrored line, a real envelope) has
paired coordinates, so the stage carries one per conjugate pair and the
real modes, and its operator is folded onto those.

A stage runs over blocks whose mode coordinates fit _BLOCK_BYTES, and
never fewer than _MIN_BLOCK samples, so a stage of a few hundred modes
and samples, every stage of the criterion-8 sweep, is one block.
Consecutive blocks share their edge node, so each block is a whole piece
of the stage from its first node to its last.  Only the drive's row at the
shared node and the three running loss integrals cross the edge.  Each
block continues the drive's recurrence from that row, or evaluates the
free evolution at its own anchor times, takes the fields and the
collective rows at every node from the five state rows of the node
operator, O(n) per node, and adds its Hermite increments to the running
losses; only the output samples it owns leave it, the shared node going
with the earlier block.  The node populations come from the probability
balance, not from the node rows: what the input left after the field
populations and the output and control losses is the ensemble's
population plus its dephasing loss, which for a finite T2 is a scalar
recurrence on the same nodes.  The node rows are read at the ledger's
checkpoints alone, every _CHECK-th node and the stage's last, in one
product with the node operator per block, which on a mirror-conjugate
state takes half the line's Cauchy rows as one real product.  So a cycle
costs O(n) per node, one O(n) drive update per storage sample, and one
pass over the operator per block.  A stage holds its node operator, the
one array that grows as the square of the mode count (8 n**2 bytes
folded, 16 n**2 complex, 1.3 MB at n = 401; a single slot holds the
operator of the basis last used), its output samples, and one block,
whose coordinates take at most _BLOCK_BYTES (2 MB), or _MIN_BLOCK
samples' worth on a line of more than 1024 modes, however long its
grid.

Probability is conserved against explicit loss ledgers: the cavity output
integral, the control-atom relaxation integral gamma*int|bc|**2, and the
ensemble dephasing integral (2/T2)*sum_j int|b_j|**2.  The input integral
is closed form; every stage takes its loss integrals from one quintic
Hermite rule on exact time derivatives.  An exponential pulse switches on
or off at its center, so storage samples that instant twice, each copy
with its one-sided drive, and splits every step after it until the
fastest mode, which the jump rings, turns by at most half a radian per
step.  Between checkpoints the balance closes the ledger by
construction; at each checkpoint the population from the node rows is
checked against the balance's, and every run aborts when the two drift
apart beyond 10x params.SOLVER_TOL, a constant that bounds nothing else;
a mode basis whose eigenpair residual or condition number exceeds a
fixed bound is refused as well.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .params import (MAX_SAMPLES, MIN_N_SIM, SOLVER_TOL, IntegrationError,
                     ParameterError, PulseShape, SystemParams)


# ---------------------------------------------------------------------- pulses

@dataclass(frozen=True)
class PulseSpec:
    """Normalized single-photon input envelope.

    duration: standard deviation of the Gaussian field envelope, or the
    1/e time of the exponential field envelopes.  The envelope carries
    unit L2 norm; `carrier_detuning` shifts the spectrum off line center.
    """

    shape: PulseShape = PulseShape.GAUSSIAN
    duration: float = 10.0
    center: float = 0.0
    carrier_detuning: float = 0.0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "shape", PulseShape(self.shape))
        except ValueError:
            raise ParameterError(f"unknown pulse shape {self.shape!r}, not one of "
                                 f"{', '.join(PulseShape)}", arg="shape") from None
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ParameterError(f"pulse duration must be positive, got {self.duration}")
        if not math.isfinite(self.center) or not math.isfinite(self.carrier_detuning):
            raise ParameterError("pulse center and carrier_detuning must be finite")

    def envelope(self, t):
        """Real baseband envelope, unit L2 norm."""
        s = np.asarray(t, dtype=float) - self.center
        dt = self.duration
        if self.shape is PulseShape.GAUSSIAN:
            out = (np.pi * dt ** 2) ** -0.25 * np.exp(-0.5 * s ** 2 / dt ** 2)
        else:
            # x <= 0 is the lit side; exp would overflow on the dark one
            x = s if self.shape is PulseShape.RISING_EXPONENTIAL else -s
            out = np.where(x <= 0, np.sqrt(2.0 / dt) * np.exp(np.minimum(x, 0.0) / dt), 0.0)
        return out if out.ndim else float(out)

    def amplitude(self, t):
        """Complex input amplitude: envelope times the carrier phase."""
        s = np.asarray(t, dtype=float) - self.center
        out = self.envelope(t) * np.exp(-1j * self.carrier_detuning * s)
        return out if out.ndim else complex(out)

    def spectral_amplitude(self, nu):
        """Closed-form (1/sqrt(2*pi)) * integral a_in(t) * exp(i*nu*t) dt."""
        nu = np.asarray(nu, dtype=float)
        mu = nu - self.carrier_detuning
        dt = self.duration
        if self.shape is PulseShape.GAUSSIAN:
            base = (dt ** 2 / np.pi) ** 0.25 * np.exp(-0.5 * mu ** 2 * dt ** 2)
        elif self.shape is PulseShape.RISING_EXPONENTIAL:
            base = np.sqrt(dt / np.pi) / (1.0 + 1j * mu * dt)
        else:
            base = np.sqrt(dt / np.pi) / (1.0 - 1j * mu * dt)
        out = base * np.exp(1j * nu * self.center)
        return out if out.ndim else complex(out)

    def spectral_density(self, nu):
        a = self.spectral_amplitude(nu)
        return np.abs(a) ** 2


# -------------------------------------------------------------------- ensemble

@dataclass(frozen=True)
class AtomEnsemble:
    """Discretized inhomogeneous line.

    coherences holds the mode amplitudes b_j = sqrt(N*w_j) * beta(Delta_j),
    so `probability` is their plain square sum, one node per detuning.
    delta_in keeps the half width of the line the nodes discretize (0
    when built standalone): a stage whose parameters carry another line
    is refused.
    """

    detunings: np.ndarray
    weights: np.ndarray
    coherences: np.ndarray
    delta_in: float = 0.0

    def __post_init__(self) -> None:
        d = np.asarray(self.detunings, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.coherences, dtype=complex)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "coherences", c)
        if not (d.shape == w.shape == c.shape) or d.ndim != 1 or d.size == 0:
            raise ParameterError("detunings, weights, coherences must be equal-length 1-d arrays")
        # every check below is written so that NaN fails it
        if not (np.all(np.isfinite(d)) and np.all(np.diff(d) > 0)):
            raise ParameterError("detunings must be finite and strictly ascending")
        if not np.all(np.isfinite(c)):
            raise ParameterError("coherences must be finite")
        if not np.all(w > 0):
            raise ParameterError("weights must be positive")
        if not abs(float(np.sum(w)) - 1.0) <= 1e-12:
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {np.sum(w)}")
        if not 0 <= self.delta_in < math.inf:
            raise ParameterError(f"delta_in must be finite and >= 0, got {self.delta_in}")

    @property
    def n(self) -> int:
        return int(self.detunings.size)

    @property
    def probability(self) -> float:
        return float(np.sum(np.abs(self.coherences) ** 2))

    def with_coherences(self, coherences) -> "AtomEnsemble":
        return replace(self, coherences=np.asarray(coherences, dtype=complex))


def discretize_ensemble(
    n_sim: int,
    delta_in: float,
    span: float | None = None,
) -> AtomEnsemble:
    """Build quadrature nodes and weights for the Lorentzian line.

    span is the half width of the detuning window (default 40*delta_in).
    Nodes sit at the n_sim equal-probability midpoints of the full line,
    of equal weight; the outliers are clipped to +-span and merged there
    into one node per edge, of weight (clipped count)/n_sim, so no mass
    is dropped and the line holds at most n_sim nodes, all distinct.
    """
    # written so that NaN and inf fail the check as well
    if not (n_sim >= MIN_N_SIM and n_sim % 1 == 0):
        raise ParameterError(f"n_sim must be an integer >= {MIN_N_SIM}, got {n_sim}")
    n_sim = int(n_sim)
    # written so that NaN fails the check as well
    if not 0 < delta_in < math.inf:
        raise ParameterError(f"delta_in must be positive and finite, got {delta_in}")
    if span is None:
        span = 40.0 * delta_in
    check_span(span, delta_in)

    u = (np.arange(n_sim) + 0.5) / n_sim
    det = np.clip(delta_in * np.tan(np.pi * (u - 0.5)), -span, span)
    # the lower half is the negated upper half, so that invert_detunings
    # reproduces the grid bit for bit and both stages share one mode basis
    half = n_sim // 2
    det[:half] = -det[::-1][:half]
    if n_sim % 2:
        det[half] = 0.0
    w = np.full(n_sim, 1.0 / n_sim)
    w /= np.sum(w)
    first = np.flatnonzero(np.concatenate(([True], det[1:] != det[:-1])))
    return AtomEnsemble(detunings=det[first], weights=np.add.reduceat(w, first),
                        coherences=np.zeros(first.size, dtype=complex),
                        delta_in=delta_in)


def check_span(span: float, delta_in: float) -> None:
    """Refuse a detuning window narrower than 20*delta_in, or a NaN one."""
    if not span >= 20.0 * delta_in:
        raise ParameterError(
            f"span {span} too small: need >= 20*delta_in = {20.0 * delta_in} "
            "to keep the truncated line mass negligible", arg="span")


def ensemble_for_params(
    p: SystemParams,
    n_sim: int = 801,
    span: float | None = None,
) -> AtomEnsemble:
    """Discretize the line of `p`."""
    return discretize_ensemble(n_sim, p.delta_in, span=span)


def invert_detunings(ens: AtomEnsemble) -> AtomEnsemble:
    """Flip every detuning sign, keeping each mode's coherence attached.

    Applying it twice returns the original ensemble exactly.
    """
    return replace(ens, detunings=-ens.detunings[::-1],
                   weights=ens.weights[::-1].copy(),
                   coherences=ens.coherences[::-1].copy())


# ----------------------------------------------------------------- integration

@dataclass(frozen=True)
class SimulationTrace:
    """Sampled amplitudes, probabilities, and conservation ledger.

    p_ensemble is the node population the probability balance leaves at
    each output sample.  The ledger is checked where a stage reads its
    node rows, at the checkpoints `ledger_times`: `ledger_residual` is the
    population from the node rows minus the balance's there, which
    between checkpoints is zero by construction and is not reported.
    """

    times: np.ndarray
    cavity1: np.ndarray
    control: np.ndarray
    cavity2: np.ndarray
    alpha_in: np.ndarray
    alpha_out: np.ndarray
    p_cavity1: np.ndarray
    p_control: np.ndarray
    p_cavity2: np.ndarray
    p_ensemble: np.ndarray
    out_flux_integral: np.ndarray       # int |a_out|^2
    control_loss_integral: np.ndarray   # gamma * int |bc|^2
    t2_loss_integral: np.ndarray        # (2/T2) * sum_j int |b_j|^2
    in_flux_integral: np.ndarray        # int |a_in|^2
    ledger_times: np.ndarray            # the checkpoints
    ledger_residual: np.ndarray         # at the checkpoints
    ensemble: AtomEnsemble              # state at the final sample
    initial_probability: float
    kind: str
    params: SystemParams

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def max_ledger_residual(self) -> float:
        return float(np.max(np.abs(self.ledger_residual)))


def _check_ensemble(p: SystemParams, ens: AtomEnsemble) -> None:
    if ens.delta_in > 0 and abs(ens.delta_in - p.delta_in) > 1e-9 * p.delta_in:
        raise ParameterError(
            f"ensemble was discretized for delta_in = {ens.delta_in}, "
            f"params carry {p.delta_in}")


def check_coupled(p: SystemParams) -> None:
    """Refuse uncoupled cavities (f2 = 0) or an uncoupled ensemble."""
    if p.f2 == 0 or p.collective_coupling == 0:
        raise ParameterError(
            "time-domain propagation needs coupled cavities (f2 > 0) and a "
            "coupled ensemble (N*g2**2 > 0)")


#: relative rounding within which a step count is whole, and an echo
#: window's edge lies on a sample
_GRID_SNAP = 1e-9


def _output_times(t_span: tuple[float, float], output_dt: float | None) -> np.ndarray:
    """Uniform output grid over the span."""
    t0, t1 = map(float, t_span)
    # written so that NaN and inf fail the check as well
    if not (t1 > t0 and math.isfinite(t1 - t0)):
        raise ParameterError(f"integration span {t_span} must be finite and nonempty")
    if output_dt is None:
        output_dt = (t1 - t0) / 600.0
    if not (output_dt > 0 and math.isfinite(output_dt)):
        raise ParameterError(f"output_dt must be positive and finite, got {output_dt}")
    ratio = _steps((t0, t1), output_dt)
    whole = abs(ratio - round(ratio)) <= _GRID_SNAP * ratio
    return np.linspace(t0, t1, (round(ratio) if whole else math.ceil(ratio)) + 1)


def _steps(t_span: tuple[float, float], output_dt: float,
           arg: str | None = None) -> float:
    """The step count (t1 - t0) / output_dt of an output grid, refused,
    naming `arg`, when it is NaN or infinite or the grid would hold more
    than MAX_SAMPLES samples."""
    steps = (t_span[1] - t_span[0]) / output_dt if output_dt > 0 else math.inf
    if not steps <= MAX_SAMPLES - 1:
        raise ParameterError(
            f"output grid over {t_span} at step {output_dt:.6g} needs "
            f"{steps:.6g} steps: it must be finite and hold at most "
            f"{MAX_SAMPLES} samples", arg=arg)
    return steps


def _check_grids(pulse: PulseSpec, grids, arg: str):
    """The (span, step) grids, refused before anything is allocated where
    the pulse center rounds by the finest step or more, naming `center`,
    or where _steps refuses one, naming `arg`, or `duration` when its step
    rounds to 0."""
    # at center 0 only a step that rounds to 0 rounds the grid away
    step = min(step for _, step in grids)
    if pulse.center and not math.ulp(pulse.center) < step:
        raise ParameterError(
            f"pulse center {pulse.center} rounds by "
            f"{math.ulp(pulse.center):.6g}, not below the output step "
            f"{step:.6g}: the grid cannot resolve times around it",
            arg="center")
    for span, step in grids:
        _steps(span, step, arg if step > 0 else "duration")
    return grids


def storage_grid(pulse: PulseSpec, t_span: tuple[float, float] | None = None):
    """integrate_storage's (span, output step): t_span, or by default 6
    durations on either side of the pulse center, at min(duration / 30,
    length / 400).  A t_span, or a NaN one, that leaves the center less
    than 5 durations of margin on either side is refused, naming `t_span`,
    and so is a grid that _check_grids refuses."""
    c, dt = pulse.center, pulse.duration
    if t_span is None:
        t_span = (c - 6.0 * dt, c + 6.0 * dt)
    elif not (t_span[0] <= c - 5.0 * dt and t_span[1] >= c + 5.0 * dt):
        raise ParameterError(
            f"pulse centered at {c} (duration {dt}) needs "
            f">= 5 durations of margin inside span {t_span}", arg="t_span")
    step = min(dt / 30.0, (t_span[1] - t_span[0]) / 400.0)
    return _check_grids(pulse, [(t_span, step)], "t_span")[0]


def cycle_grids(pulse: PulseSpec, tau: float):
    """An echo cycle's (span, output step) of storage, up to the inversion
    tau after the pulse center, and of retrieval, from there to 8
    durations after the echo at 2 tau, at duration / 40.  The storage step
    is storage_grid's for the length 6 durations + tau, which a center far
    from t = 0 does not round away.  A tau, or a NaN one, below 5
    durations is refused, naming `tau`, and so are grids that
    _check_grids refuses."""
    c, dt = pulse.center, pulse.duration
    # written so that NaN fails the check as well
    if not tau >= 5.0 * dt:
        raise ParameterError(
            f"tau = {tau} too small: need >= 5 pulse durations "
            f"({5.0 * dt}) after the pulse center", arg="tau")
    return _check_grids(pulse, [
        ((c - 6.0 * dt, c + tau), min(dt / 30.0, (6.0 * dt + tau) / 400.0)),
        ((c + tau, c + 2.0 * tau + 8.0 * dt), dt / 40.0)], "tau")


def _trace(p: SystemParams, ens: AtomEnsemble, kind: str, solver_tol: float,
           times, a1, bc, a2, ain, pe, l_out, l_c, l_t2, l_in, p0: float,
           final_coherences, ledger_times, residual) -> SimulationTrace:
    """Enforce the probability ledger's residual at its checkpoints, and
    package the trace."""
    worst = float(np.max(np.abs(residual)))
    if not worst <= 10.0 * solver_tol:
        raise IntegrationError(
            f"probability ledger violated on {kind}: max residual "
            f"{worst:.3e} > 10*{solver_tol}")
    return SimulationTrace(
        times=times, cavity1=a1, control=bc, cavity2=a2,
        alpha_in=ain, alpha_out=math.sqrt(p.kappa) * a1 - ain,
        p_cavity1=np.abs(a1) ** 2, p_control=np.abs(bc) ** 2,
        p_cavity2=np.abs(a2) ** 2, p_ensemble=pe,
        out_flux_integral=l_out, control_loss_integral=l_c,
        t2_loss_integral=l_t2, in_flux_integral=l_in,
        ledger_times=ledger_times, ledger_residual=residual,
        ensemble=ens.with_coherences(final_coherences),
        initial_probability=p0, kind=kind, params=p,
    )


# ------------------------------------------------------------ modal basis

#: bytes of mode coordinates per block of a stage, whose blocks share
#: their edge sample, so that no temporary grows as (number of samples) x
#: (number of modes): a stage of a few hundred modes and samples runs as
#: one block, and pays each block's fixed cost once
_BLOCK_BYTES = 2 ** 21
#: fewest samples per block, which a stage of more than _BLOCK_BYTES / (16
#: _MIN_BLOCK) = 1024 modes takes above the budget
_MIN_BLOCK = 128
#: samples per run of the free evolution, which share one table of offset
#: factors; it does not grow with the block, since the table takes
#: 2 isqrt(_RUN) complex exps per mode
_RUN = 64
#: a stage reads its node rows, and checks its ledger, at every _CHECK-th
#: node and at its last
_CHECK = 32
#: rows per block of the elementwise sums over poles or roots, which take
#: no matrix product: a block this small keeps its temporaries in cache
_ROW_BLOCK = 16
#: Aberth sweeps allowed before the eigen-solve counts as failed
_ABERTH_MAX_ITER = 100
#: poles on each side of a mirrored line's centre whose roots iterate
#: without their conjugates: a pair may turn real there, or two reals pair
_FREE_POLES = 8
#: sweeps in a row that converge no paired root before the paired roots
#: still iterating are freed
_STALL_SWEEPS = 4
#: largest accepted ||V||_F * ||V^-1||_F of the mode basis
_COND_BOUND = 1e8
#: largest accepted eigenpair residual ||A v - lam v|| / (||A|| ||v||)
_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class _ModalBasis:
    """Eigen-decomposition A = V diag(lam) V^T of the generator.

    A is complex symmetric, so with columns scaled to v^T v = 1 the
    inverse of V is V^T in exact arithmetic (_mode_coordinates refines
    it in floating point).  The basis stores the three field rows of V
    and the collective row sum_m g_m V_mk, the amplitude cavity 2 sees;
    the ensemble rows have the Cauchy form V_mk = -i g_m a2_k / (lam_k -
    D_m) and are formed once, with the state rows, into the basis' node
    operator, one row per node of the grid: its detunings are distinct.
    On a mirrored line the modes are laid out as [pairs, reals,
    conjugates of the pairs]: lam[-pairs:] = conj(lam[:pairs]) bit for
    bit.  A stage whose state is mirror-conjugate carries the
    coordinates of the first n - pairs modes only, the representatives;
    its conjugates follow as c_k' = -flip_k conj(c_k).
    """

    lam: np.ndarray
    a1: np.ndarray
    bc: np.ndarray
    a2: np.ndarray
    collective: np.ndarray  # sum_m g_m V_mk = -i a2_k sum_m g_m**2 / (lam_k - D_m)
    flip: np.ndarray        # a2_k' / conj(a2_k) = +-1, k' the conjugate of mode k
    poles: np.ndarray       # ensemble diagonal D_m = -(i*d_m + 1/T2)
    g: np.ndarray
    mirrored: bool          # delta_c = 0 or g1 = 0, D_M-1-m = conj(D_m)
    pairs: int              # conjugate pairs among the modes, 0 unless mirrored
    cond: float             # ||V||_F * ||V^-1||_F, bounds the 2-norm one
    residual: float         # worst relative eigenpair residual


def _cavity_factor(z: np.ndarray, p: SystemParams, cdamp: complex):
    """K(z) = -(z + kappa/2) + g1**2/(cdamp - z) and dK/dz.

    Eliminating the control atom and cavity 1 leaves a1 = i*f2*a2/K.
    """
    k = -(z + 0.5 * p.kappa)
    dk = -np.ones_like(z)
    if p.g1 > 0:
        x = 1.0 / (cdamp - z)
        k = k + p.g1 ** 2 * x
        dk = dk + p.g1 ** 2 * x * x
    return k, dk


def _ensemble_sums(z: np.ndarray, poles: np.ndarray, g2: np.ndarray,
                   with_norm: bool = False):
    """sum g2/(z-D) and its z-derivative, then sum 1/(z-D), or with
    `with_norm` sum g2/|z-D|**2 in its place."""
    out = np.empty((3, z.size), dtype=complex)
    for lo in range(0, z.size, _ROW_BLOCK):
        r = 1.0 / (z[lo:lo + _ROW_BLOCK, None] - poles)
        q = r * g2
        out[0, lo:lo + _ROW_BLOCK] = q.sum(axis=1)
        out[1, lo:lo + _ROW_BLOCK] = -(q * r).sum(axis=1)
        out[2, lo:lo + _ROW_BLOCK] = ((q.real * r.real + q.imag * r.imag).sum(axis=1)
                                      if with_norm else r.sum(axis=1))
    return out[0], out[1], out[2]


def _newton_step(z, p: SystemParams, cdamp: complex, poles, g2):
    """Newton step of det(z - A) = s(z) * Q(z) * prod(z - D_m), with the
    secular function s(z) = z - f2**2/K(z) + sum g2/(z - D); zero at a root."""
    s_ens, ds_ens, r_sum = _ensemble_sums(z, poles, g2)
    k, dk = _cavity_factor(z, p, cdamp)
    s = z - p.f2 ** 2 / k + s_ens
    ds = 1.0 + p.f2 ** 2 * dk / k ** 2 + ds_ens
    rest = dk / k + r_sum
    if p.g1 > 0:
        rest = rest + 1.0 / (z - cdamp)
    return s / (ds + s * rest)


def _repulsion(za: np.ndarray, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum over l != k of 1/(z_k - z_l) for the roots z_k = z[idx]."""
    out = np.empty_like(za)
    for lo in range(0, za.size, _ROW_BLOCK):
        d = za[lo:lo + _ROW_BLOCK, None] - z
        d[np.arange(d.shape[0]), idx[lo:lo + _ROW_BLOCK]] = np.inf
        out[lo:lo + _ROW_BLOCK] = (1.0 / d).sum(axis=1)
    return out


def _aberth(z: np.ndarray, pairs: int, p: SystemParams, cdamp: complex,
            poles, g2, tol: float) -> tuple[np.ndarray, int]:
    """Aberth sweeps from the roots z; z[:pairs] stand for themselves and
    their conjugates, which enter the repulsion sum implicitly.  Only
    roots whose correction is still above tol are iterated.  Should
    _STALL_SWEEPS sweeps in a row converge no paired root, the paired
    roots still iterating go on as free roots, each beside its conjugate.
    Returns the roots, the pairs first, and the number of pairs."""
    active = np.arange(z.size)
    waiting, idle = pairs, 0
    for _ in range(_ABERTH_MAX_ITER):
        za = z[active]
        newton = _newton_step(za, p, cdamp, poles, g2)
        others = np.concatenate((z, np.conj(z[:pairs])))
        step = newton / (1.0 - newton * _repulsion(za, active, others))
        z[active] = za - step
        active = active[~(np.abs(step) <= tol)]
        if active.size == 0:
            break
        # idle counts the sweeps in a row that converged no paired root
        paired = active[active < pairs]
        idle = idle + 1 if paired.size == waiting else 0
        waiting = paired.size
        if waiting and idle == _STALL_SWEEPS:
            keep = np.ones(pairs, dtype=bool)
            keep[paired] = False
            z = np.concatenate((z[:pairs][keep], z[paired], np.conj(z[paired]),
                                z[pairs:]))
            pairs -= waiting
            active = np.concatenate((np.arange(pairs, pairs + 2 * waiting),
                                     active[waiting:] + waiting))
            waiting = idle = 0
    return z, pairs


def _pair_up(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split roots that are closed under conjugation to rounding into one
    representative per pair, the mean of the two, and real roots.  The
    roots farthest from the real axis pair first; a root is real when no
    conjugate lies closer to it than the axis does."""
    upper = z[z.imag > 0]
    upper = upper[np.argsort(-upper.imag)]
    lower = np.conj(z[z.imag <= 0])
    free = np.ones(lower.size, dtype=bool)
    reps, reals = [], []
    for u in upper:
        dist = np.where(free, np.abs(lower - u), np.inf)
        j = int(np.argmin(dist)) if free.any() else -1
        if j >= 0 and dist[j] < u.imag:
            free[j] = False
            reps.append(0.5 * (u + lower[j]))
        else:
            reals.append(u.real)
    return np.array(reps, dtype=complex), np.concatenate((reals, lower[free].real))


def _secular_roots(p: SystemParams, cdamp: complex, poles, g2, scale: float,
                   mirrored: bool) -> tuple[np.ndarray, int]:
    """All eigenvalues of A by Aberth iteration on det(z - A), O(n**2).

    Start values: each pole shifted by its first-order root estimate
    -g_m**2 / h_m, with h_m the secular function without that pole's term
    (the shift is capped at half the distance to the nearest other
    pole), and the eigenvalues of the bare field block.  A final Newton
    step polishes every root.

    On a mirrored line the roots are real or come in conjugate pairs
    (Bini, Numer. Algorithms 13, 1996): the roots of the poles in the
    upper half plane iterate for their pairs, all but the _FREE_POLES
    nearest the centre; those and the field roots iterate free, since
    they may turn real or pair up, and are matched into pairs at the end.
    A pair whose iteration stalls joins them as its two roots.  Returns
    the roots as [pairs, reals, conjugates of the pairs] and the number of
    pairs; on any other line (roots, 0).
    """
    fields = [[-0.5 * p.kappa, -1j * p.f2], [-1j * p.f2, 0.0]]
    if p.g1 > 0:
        fields = [[-0.5 * p.kappa, -1j * p.g1, -1j * p.f2],
                  [-1j * p.g1, cdamp, 0.0], [-1j * p.f2, 0.0, 0.0]]
    size = poles.size
    pairs = max(size // 2 - _FREE_POLES, 0) if mirrored else 0
    # start values of the poles up to the conjugates of the pairs
    own = size - pairs
    gap = np.full(size, np.inf)
    gap[1:] = np.abs(np.diff(poles))
    gap = np.minimum(gap, np.append(gap[1:], np.inf))[:own]
    h = np.empty(own, dtype=complex)
    for lo in range(0, own, _ROW_BLOCK):
        d = poles[lo:min(lo + _ROW_BLOCK, own), None] - poles
        d[np.arange(d.shape[0]), np.arange(lo, lo + d.shape[0])] = np.inf
        h[lo:lo + _ROW_BLOCK] = (g2 / d).sum(axis=1)
    k, _ = _cavity_factor(poles[:own], p, cdamp)
    shift = -g2[:own] / (poles[:own] - p.f2 ** 2 / k + h)
    big = np.abs(shift) > 0.5 * gap
    shift[big] *= 0.5 * gap[big] / np.abs(shift[big])
    starts = poles[:own] + shift
    field_starts = np.linalg.eigvals(np.array(fields, dtype=complex))
    tol = 1e-13 * scale
    z, pairs = _aberth(np.concatenate((starts, field_starts)), pairs, p,
                       cdamp, poles, g2, tol)
    if not mirrored:
        return z - _newton_step(z, p, cdamp, poles, g2), 0
    reps, reals = _pair_up(z[pairs:])
    reps = np.concatenate((z[:pairs], reps))
    reps -= _newton_step(reps, p, cdamp, poles, g2)
    reals -= _newton_step(reals.astype(complex), p, cdamp, poles, g2).real
    return np.concatenate((reps, reals, np.conj(reps))), reps.size


def _modal_basis(p: SystemParams, ens: AtomEnsemble) -> _ModalBasis:
    """Mode basis for (p, grid); repeated grids reuse the cached solve."""
    # +0.0 turns -0.0 into 0.0, so an inverted mirrored grid hits the cache
    return _cached_basis(p, (ens.detunings + 0.0).tobytes(), ens.weights.tobytes())


@functools.lru_cache(maxsize=4)
def _cached_basis(p: SystemParams, det_bytes: bytes, w_bytes: bytes) -> _ModalBasis:
    basis = _build_basis(p, np.frombuffer(det_bytes), np.frombuffer(w_bytes))
    for value in vars(basis).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False   # every caller shares these arrays
    return basis


def _build_basis(p: SystemParams, det: np.ndarray, w: np.ndarray) -> _ModalBasis:
    check_coupled(p)
    cc = p.collective_coupling
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    cdamp = -(1j * p.delta_c + 0.5 * p.gamma)
    g2 = cc * w
    poles = -(1j * det + inv_t2)
    scale = (float(np.max(np.abs(poles))) + 0.5 * p.kappa + abs(cdamp)
             + p.f2 + p.g1 + math.sqrt(cc))

    # with g1 = 0 the control atom, and delta_c with it, enters no equation
    mirrored = ((p.delta_c == 0 or p.g1 == 0)
                and np.array_equal(poles[::-1], np.conj(poles))
                and np.array_equal(g2[::-1], g2))
    lam, pairs = _secular_roots(p, cdamp, poles, g2, scale, mirrored)
    # the sums at a pair's conjugate are the conjugate sums; at a real root
    # of a mirrored line they are real
    reps = lam.size - pairs
    sums = _ensemble_sums(lam[:reps], poles, g2, with_norm=True)
    if mirrored:
        for x in sums:
            x[pairs:] = x[pairs:].real
    s_ens, ds_ens, abs_ens = (np.concatenate((x, np.conj(x[:pairs]))) for x in sums)
    abs_ens = abs_ens.real
    k, _ = _cavity_factor(lam, p, cdamp)
    a1 = 1j * p.f2 / k
    bc = -1j * p.g1 * a1 / (lam - cdamp) if p.g1 > 0 else np.zeros_like(lam)
    # eigenvectors with a2 = 1; A v - lam v vanishes but for the a2 row,
    # which holds -s(lam)
    norm2 = 1.0 + np.abs(a1) ** 2 + np.abs(bc) ** 2 + abs_ens
    secular = lam - p.f2 ** 2 / k + s_ens
    trace_a = -0.5 * p.kappa + (cdamp if p.g1 > 0 else 0.0) + np.sum(poles)
    residual = max(float(np.max(np.abs(secular) / np.sqrt(norm2))) / scale,
                   abs(np.sum(lam) - trace_a) / (lam.size * scale))
    scale_v = 1.0 / np.sqrt(1.0 + a1 ** 2 + bc ** 2 + ds_ens)   # v^T v = 1
    cond = float(np.sum(np.abs(scale_v) ** 2 * norm2))
    if not (residual <= _RESIDUAL_BOUND and cond <= _COND_BOUND):
        raise IntegrationError(
            f"mode basis rejected: eigenpair residual {residual:.2e} (bound "
            f"{_RESIDUAL_BOUND:g}), cond(V) {cond:.3e} (bound {_COND_BOUND:g})")
    # a2 of each mode's conjugate; a real mode is its own
    mate = np.concatenate((scale_v[reps:], scale_v[pairs:reps], scale_v[:pairs]))
    return _ModalBasis(
        lam=lam, a1=a1 * scale_v, bc=bc * scale_v, a2=scale_v,
        collective=-1j * scale_v * s_ens,
        flip=np.sign((mate / np.conj(scale_v)).real),
        poles=poles, g=np.sqrt(g2), mirrored=mirrored, pairs=pairs,
        cond=cond, residual=residual)


# ------------------------------------------------------- modal propagation

class _NodeOperator(NamedTuple):
    rows: np.ndarray        # the rows of V that a stage reads
    weight: np.ndarray      # each row's weight in a sum over the state


def _build_node_operator(basis: _ModalBasis, folded: bool) -> _NodeOperator:
    """The rows of V that a stage reads, with their weights: the five
    state rows a1, bc, a2, sig_k = sum_m g_m V_mk and its rate lam_k sig_k
    (the input's coordinates V^-1 e_a1 carry no sig part), then the Cauchy
    rows of the nodes, formed a block of nodes at a time.

    Unfolded, they are the complex rows over every mode, shape
    (5 + nodes, n).  Folded, for a mirror-conjugate state carried on its
    n - k representatives, they cover the state rows and the lower half
    of the nodes.  A conjugate's column is c_k' = -flip_k conj(c_k), so a
    row reads a c + conj(b c) for its own part a over the representatives
    and b_k = -flip_k conj(its column at k') over the pairs, zero on the
    real modes; a node's b is its mirror's row, V_M-1-m,k, since D_M-1-m
    = conj(D_m).  Then Re = Re((a + b) c) and Im = Im((a - b) c).  Each
    takes one real row, the real view of conj(a + b) and of i conj(a - b),
    whose product with the real view of c, interleaved mode by mode,
    gives it: each row of V becomes its Re row and its Im row, shape
    (2 (5 + nodes), 2 (n - k)).
    """
    n, k, size = basis.lam.size, basis.pairs if folded else 0, basis.g.size
    nodes = (size + 1) // 2 if folded else size
    state = np.array([basis.a1, basis.bc, basis.a2, basis.collective,
                      basis.lam * basis.collective])
    op = np.empty((5 + nodes, 2, n - k) if folded else (5 + nodes, n),
                  dtype=complex)

    def fold(out, a, b):
        np.conjugate(a + b, out=out[:, 0])
        np.multiply(np.conj(a - b), 1j, out=out[:, 1])

    if folded:
        mirror = np.zeros((5, n - k), dtype=complex)
        mirror[:, :k] = -basis.flip[:k] * np.conj(state[:, n - k:])
        fold(op[:5], state[:, :n - k], mirror)
    else:
        op[:5] = state
    for lo in range(0, nodes, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, nodes)
        poles, g = basis.poles[lo:hi], basis.g[lo:hi]
        if folded:
            # the mirror node's pole is the conjugate, its coupling the same
            poles = np.concatenate((poles, np.conj(poles)))
            g = np.concatenate((g, g))
        # -i g_m a2_k / (lam_k - D_m) over the carried modes
        blk = basis.lam[:n - k] - poles[:, None]
        np.reciprocal(blk, out=blk)
        blk *= basis.a2[:n - k]
        blk *= (-1j * g)[:, None]
        if not folded:
            op[5 + lo:5 + hi] = blk
            continue
        blk[hi - lo:, k:] = 0.0
        fold(op[5 + lo:5 + hi], blk[:hi - lo], blk[hi - lo:])
    weight = np.concatenate((np.ones(3), np.zeros(2),
                             np.where(np.arange(nodes) < size - nodes, 2.0, 1.0)))
    if folded:
        op = op.view(float).reshape(2 * (5 + nodes), 2 * (n - k))
        weight = np.repeat(weight, 2)
    op.flags.writeable = weight.flags.writeable = False
    return _NodeOperator(op, weight)


class _OperatorSlot:
    """One-slot cache of the node operator, its rows and their weights,
    and the drive solved on it, keyed by the basis object and the fold: a
    basis built again is another object and never reads a stale
    operator.  The old entry is released before the next is built, so one
    operator is held at a time; `misses` counts the builds."""

    def __init__(self) -> None:
        self.entry: tuple | None = None
        self.misses = 0

    def __call__(self, basis: _ModalBasis,
                 folded: bool) -> tuple[_NodeOperator, np.ndarray]:
        """The node operator and V^-1 e_a1, the mode coordinates of the
        input over the modes that the operator's stage carries."""
        entry = self.entry
        if entry is None or entry[0] is not basis or entry[1] != folded:
            self.entry = entry = None
            op = _build_node_operator(basis, folded)
            drive = _mode_coordinates(basis, op, np.array([1.0, 0.0, 0.0]),
                                      np.zeros(basis.g.size), folded)
            drive.flags.writeable = False
            self.entry = entry = (basis, folded, op, drive)
            self.misses += 1
        return entry[2:]


#: the node operator of the basis last used, folded or not, with its drive
_node_operator = _OperatorSlot()


def _mode_coordinates(basis: _ModalBasis, op: _NodeOperator, fields: np.ndarray,
                      coherences: np.ndarray, folded: bool) -> np.ndarray:
    """Solve V c = y for the state y = (a1, bc, a2, coherences) on the
    node operator op of (basis, folded).

    V^T is the inverse of V in exact arithmetic only: in a strongly
    non-normal basis (large cond) the rounding of the columns leaves
    V V^T - I far above machine precision, so V^T serves as the
    preconditioner of a few refinement steps instead.  The residual
    r = y - V c and the step V^T r are products with the node operator,
    whose two collective rows take weight 0.

    A mirror-conjugate state (a1 real, bc and a2 imaginary, b_M-1-m =
    conj(b_m)) on a mirrored line has paired coordinates, c_k' =
    -flip_k conj(c_k) for the partner k' of mode k, lam_k' = conj(lam_k),
    with flip_k = a2_k' / conj(a2_k) = +-1.  Its residuals are
    mirror-conjugate, so only the fields and the lower half of the nodes
    are formed, a node counting for itself and its mirror; the upper rows
    of mode k are -flip_k times the conjugate lower rows of k'.  Folded,
    it is solved for the n - k representatives: the real view's
    transpose takes the rows a r + b conj(r), a pair's own step and its
    conjugate's, read through the mirror.  A real mode is its own partner
    and takes the mean of its step and its mirror, so it stays paired bit
    for bit.  Returns every mode's coordinates, or folded the
    representatives.
    """
    weight = op.weight[::2] if folded else op.weight    # one per row of V
    y = np.concatenate((fields, np.zeros(2),
                        coherences[:weight.size - 5])).astype(complex)
    norm = math.sqrt(float(weight @ np.abs(y) ** 2))
    k = basis.pairs if folded else 0
    c = np.zeros(basis.lam.size - k, dtype=complex)
    r, err = y, norm
    # the first pass starts from c = 0, so its residual is y
    for step in range(5):
        if step:
            r = y - ((op.rows @ c.view(float)).view(complex) if folded
                     else op.rows @ c)
            last, err = err, math.sqrt(float(weight @ np.abs(r) ** 2))
            # stop well inside the ledger bound, once rounding stalls the
            # residual, or after four steps
            if err <= 1e-12 * norm or err > 0.5 * last or step == 4:
                break
        if folded:
            # the real view's transpose maps s to conj(a) s + conj(b)
            # conj(s) for each row (a, b): s = conj(w r) gives the conjugate
            # of a w r + b conj(w r); every lower row counts twice, for
            # itself and its mirror
            delta = np.conj((np.conj(weight * r).view(float) @ op.rows).view(complex))
            delta *= 0.5
            delta[k:] -= basis.flip[k:c.size] * np.conj(delta[k:])
        else:
            delta = (weight * r) @ op.rows
        c += delta
    if not err <= 1e-9 * norm:
        raise IntegrationError(
            f"mode basis cannot resolve the state: relative residual "
            f"{err / norm:.2e} (cond(V) {basis.cond:.3e})")
    return c


def _offset_table(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The factors exp(lam_k (t_j - t_0)) of the first _RUN samples of a
    uniform grid, which every run of its samples shares.

    With s = isqrt(_RUN), offset j = s a + b is offset s a plus offset b,
    so its factor is a coarse one, of every s-th offset, times a fine one,
    of the first s: 2 s complex exps per mode and one extra rounding."""
    d = t[:_RUN] - t[0]
    s = math.isqrt(_RUN)
    coarse = np.exp(np.multiply.outer(d[::s], lam))
    fine = np.exp(np.multiply.outer(d[:s], lam))
    return (coarse[:, None] * fine).reshape(-1, lam.size)[:d.size]


def _propagator(lam: np.ndarray, amp: np.ndarray, t: np.ndarray, t0: float,
                table: np.ndarray) -> np.ndarray:
    """amp_k exp(lam_k (t_j - t0)) for every mode k and sample j of a block
    t of the uniform grid that starts at t0, stored sample by sample.

    Each run of _RUN samples is its anchor's exponential
    exp(lam (t_a - t0)) times the offset factors exp(lam (t_j - t_a)) of
    `table`, the grid's _offset_table, so nothing compounds from run to
    run and the grid takes one complex exp per mode and anchor.
    """
    out = np.empty((t.size, lam.size), dtype=complex)
    for lo in range(0, t.size, _RUN):
        anchor = amp * np.exp(lam * (t[lo] - t0))
        np.multiply(anchor, table[:t.size - lo], out=out[lo:lo + _RUN])
    return out.T


#: Gauss nodes theta_q per drive step
_DRIVE_NODES = 8
#: a drive weight is closed form from |mu h| = _DRIVE_SPLIT up, else a
#: _DRIVE_RULE-point Gauss rule; both within 6e-15 of sum |W| there
_DRIVE_SPLIT = 12.0
_DRIVE_RULE = 32


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on (0, 1) by Newton's method
    on the Legendre recurrence: no LAPACK code is paged in for this alone."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _drive_rule() -> tuple[np.ndarray, ...]:
    """theta_q; their Lagrange basis l_q times the fine rule's weights at
    its points 1 - x; l_q^(k)(0) and l_q^(k)(1) for k < P, from powers of
    x - 0 and x - 1, in which the roots have one sign and nothing cancels."""
    theta = _gauss_legendre(_DRIVE_NODES)[0]
    x, w = _gauss_legendre(_DRIVE_RULE)
    values = np.empty((x.size, _DRIVE_NODES))
    ends = np.empty((2, _DRIVE_NODES, _DRIVE_NODES))
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, _DRIVE_NODES))))
    for q in range(_DRIVE_NODES):
        others = np.delete(theta, q)
        scale = np.prod(theta[q] - others)
        values[:, q] = w * np.prod(x[:, None] - others, axis=1) / scale
        for i, e in enumerate((0.0, 1.0)):
            ends[i, :, q] = factorials * np.poly(others - e)[::-1] / scale
    return theta, 1.0 - x, values, ends[0], ends[1]


def _drive_weights(mu: np.ndarray, s: float) -> np.ndarray:
    """Weights of env(t + theta_q s) in the integral over [t, t + s] of
    exp(mu_k (t + s - u)) env(u) du: s times the integral of
    exp(z (1 - theta)) l_q(theta), z = mu s, by the fine rule for |z| <
    _DRIVE_SPLIT, else by parts, sum_k<P (exp(z) l_q^(k)(0) - l_q^(k)(1)) /
    z**(k+1), whose terms stay within 15 times the first."""
    _, x1, values, d0, d1 = _drive_rule()
    z = mu * s
    w = np.empty((z.size, _DRIVE_NODES), dtype=complex)
    near = np.abs(z) < _DRIVE_SPLIT
    w[near] = np.exp(np.multiply.outer(z[near], x1)) @ values
    powers = np.cumprod(np.repeat(1.0 / z[~near, None], _DRIVE_NODES, axis=1), axis=1)
    w[~near] = np.exp(z[~near, None]) * (powers @ d0) - powers @ d1
    return s * w


def _pulse_cdf(pulse: PulseSpec, t: np.ndarray) -> np.ndarray:
    """integral of |a_in|**2 from -infinity to t."""
    s = (t - pulse.center) / pulse.duration
    if pulse.shape is PulseShape.GAUSSIAN:
        return 0.5 * np.vectorize(math.erfc, otypes=[float])(-s)
    if pulse.shape is PulseShape.RISING_EXPONENTIAL:
        return np.exp(2.0 * np.minimum(s, 0.0))
    return -np.expm1(-2.0 * np.maximum(s, 0.0))


class _DrivePlan(NamedTuple):
    """What every block of a grid's drive shares: its steps grouped by
    length, and per group the weights and the decay exp(lam h)."""

    starts: np.ndarray      # each group's shortest step, ascending
    offsets: list           # each group's Gauss nodes within a step
    weights: list           # each group's weights, (node, mode re/im)
    decay_hi: list          # exp(lam h) = hi + lo in two doubles
    decay_lo: list


def _drive_plan(pulse: PulseSpec, lam: np.ndarray, t: np.ndarray,
                gain: np.ndarray) -> _DrivePlan:
    """The drive's set-up on the samples t, each mode's input scaled by
    gain_k.  Steps of one length to rounding form a group, whose mean
    keeps the summed steps on the samples; the weights take the gain, and
    the carrier detuning into mu = lam + i om, so only the real envelope
    is interpolated."""
    h = np.diff(t)
    order = np.argsort(h)
    tol = 16.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    new = np.diff(h[order], prepend=-np.inf) > tol
    group = np.empty(h.size, dtype=int)
    group[order] = np.cumsum(new) - 1
    lengths = np.bincount(group, weights=h) / np.bincount(group)
    offsets, weights = [], []
    for length in lengths:
        w = _drive_weights(lam + 1j * pulse.carrier_detuning, length) * gain[:, None]
        # one real row per Gauss node, real and imaginary parts interleaved
        # mode by mode: a real product with the envelope lands in the float
        # view of the sample-major coordinates, and a complex product this
        # thin is slow on threaded BLAS
        weights.append(np.ascontiguousarray(w.T).view(float))
        offsets.append(_drive_rule()[0] * length)
    # exp(lam h) is the sum hi + lo of two doubles, from extended precision
    # where there is any, since one factor reused at every step compounds
    # its rounding
    decay = np.exp(np.multiply.outer(lengths.astype(np.longdouble),
                                     lam.astype(np.clongdouble)))
    hi = decay.astype(complex)
    lo = (decay - hi).astype(complex)
    return _DrivePlan(h[order][new], offsets, weights, list(hi), list(lo))


def _drive_integrals(pulse: PulseSpec, lam: np.ndarray, t: np.ndarray,
                     plan: _DrivePlan,
                     start: np.ndarray | None = None) -> np.ndarray:
    """I_k(t_j) = start_k exp(lam_k (t_j - t_0)) + gain_k times the
    integral from t_0 to t_j of exp(lam_k (t_j - s)) a_in(s) ds on a
    block t of samples, stored sample by sample; start is 0 unless given,
    gain that of `plan`.

    One exponential-quadrature recurrence for every pulse shape
    (Hochbruck & Ostermann, Acta Numerica 19, 2010),
    I(t_j+1) = exp(lam h) I(t_j) + carrier(t_j+1) sum W(h) env(nodes), with
    the weights and decays of `plan`, the _drive_plan of the grid the block
    belongs to: started from I(t_0) = start, it carries the start's free
    evolution with the pulse's convolution, so storage from a loaded
    ensemble needs no second kernel.  Gauss nodes are interior and an
    exponential pulse's switching instant is a sample, so no step
    interpolates across the edge.
    """
    h = np.diff(t)
    group = np.searchsorted(plan.starts, h, side="right") - 1
    out = np.empty((t.size, lam.size), dtype=complex)
    out[0] = 0.0 if start is None else start
    # each sample's row, real and imaginary parts interleaved mode by mode,
    # which is how the weights order their columns
    flat = out.view(float)
    for g in np.flatnonzero(np.bincount(group, minlength=len(plan.starts))):
        steps = np.flatnonzero(group == g)
        env = pulse.envelope(t[steps, None] + plan.offsets[g])
        cols = steps + 1
        if cols[-1] - cols[0] == cols.size - 1:
            # a run of samples: the product is written in place
            np.matmul(env, plan.weights[g], out=flat[cols[0]:cols[-1] + 1])
        else:
            flat[cols] = env @ plan.weights[g]
    if pulse.carrier_detuning:
        out[1:] *= np.exp(-1j * pulse.carrier_detuning
                          * (t[1:] - pulse.center))[:, None]
    # the recurrence, one O(n) update per step in place; every update runs
    # over one sample's contiguous row, and is small enough that it writes
    # through row views and a product buffer made once
    rows, term = list(out), np.empty(lam.size, dtype=complex)
    hi, lo = plan.decay_hi, plan.decay_lo
    for j, g in enumerate(group.tolist()):
        np.multiply(lo[g], rows[j], out=term)
        rows[j + 1] += term
        np.multiply(hi[g], rows[j], out=term)
        rows[j + 1] += term
    return out.T


def _hermite_steps(t: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The integral over each step between the samples t of rates[0], or
    of each of its rows, from its values and two derivatives rates[0],
    rates[1], rates[2], by the two-point quintic Hermite rule, exact for
    polynomials of degree five."""
    h = np.diff(t)
    pair = rates[..., :-1] + rates[..., 1:]
    slope = rates[1, ..., :-1] - rates[1, ..., 1:]
    return h * (0.5 * pair[0] + h * (0.1 * slope + (h / 120.0) * pair[2]))


def _state_at(op: _NodeOperator, c: np.ndarray, folded: bool) -> np.ndarray:
    """The rows a1, bc, a2, sig = sum_m g_m b_m and d(sig)/dt at every
    sample of a block: the coordinates c, stored sample by sample,
    through the five state rows of the node operator op, folded or not,
    in one product of O(n) per sample.  The node rows are read only at
    the ledger's checkpoints, by _nodes_at.

    Folded, c holds the coordinates of a mirror-conjugate state's n - k
    representatives, the k pairs and the real modes, and each row of V
    takes two real rows that give the real and imaginary parts from those
    of c, interleaved mode by mode, which is a view of c.  The product is
    taken as samples times operator rows, the orientation in which BLAS
    keeps its peak on a block this narrow."""
    c = np.ascontiguousarray(c.T)
    if not folded:
        return (c @ op.rows[:5].T).T
    state = (c.view(float) @ op.rows[:10].T).T
    return state[0::2] + 1j * state[1::2]


def _nodes_at(op: _NodeOperator, c: np.ndarray, folded: bool):
    """The node population and the node rows at each of the samples c,
    from one product with the node rows of op.

    Folded, the operator takes the lower half of the nodes only: their
    populations count twice, a centre node once, and the node rows stay
    interleaved, real part and imaginary part, node by node."""
    per = 2 if folded else 1     # operator rows per row of V
    c = np.ascontiguousarray(c.T)
    rows = (c.view(float) if folded else c) @ op.rows[5 * per:].T
    weight = op.weight[5 * per:]
    pe = (np.square(rows) if folded else rows.real ** 2 + rows.imag ** 2) @ weight
    return pe, rows


#: largest phase of the fastest mode per step after an exponential's switch
_SWITCH_PHASE = 0.5


def _drive_nodes(pulse: PulseSpec, times: np.ndarray, lam: np.ndarray):
    """Storage samples, and a_in with its first two time derivatives there.

    A Gaussian pulse is sampled at the output times.  An exponential pulse
    samples its switching instant twice, each copy with the one-sided
    limits (0 on the undriven side), and the zero-length step between the
    copies takes zero weight and unit decay; every output step after it is
    split until the fastest mode turns by at most _SWITCH_PHASE per
    sub-step."""
    if pulse.shape is PulseShape.GAUSSIAN:
        ain = pulse.amplitude(times)
        rate = -(times - pulse.center) / pulse.duration ** 2 \
            - 1j * pulse.carrier_detuning
        return times, ain, rate * ain, (rate * rate - pulse.duration ** -2) * ain
    c = pulse.center
    before, edge = times[times < c], np.append(c, times[times > c])
    r = math.ceil((times[1] - times[0]) * np.max(np.abs(lam)) / _SWITCH_PHASE)
    fine = edge[:-1, None] + np.diff(edge)[:, None] * (np.arange(r) / r)
    nodes = np.concatenate((before, [c], fine.ravel(), edge[-1:]))
    rising = pulse.shape is PulseShape.RISING_EXPONENTIAL
    alpha = (1.0 if rising else -1.0) / pulse.duration \
        - 1j * pulse.carrier_detuning
    # the first copy closes a rising pulse's drive, the second opens a
    # decaying pulse's
    driven = (np.arange(nodes.size) <= before.size) == rising
    ain = driven * math.sqrt(2.0 / pulse.duration) \
        * np.exp(alpha * np.where(driven, nodes - c, 0.0))
    return nodes, ain, alpha * ain, alpha * alpha * ain


@functools.lru_cache(maxsize=4)
def _derivative_map(p: SystemParams) -> np.ndarray:
    """The rows, over (a1, bc, a2, sig, ain, dain, ddain), of a_out and bc
    with their first and second time derivatives, then a2 and its
    derivative, from the equations of motion."""
    sqrtk = math.sqrt(p.kappa)
    cdamp = -(1j * p.delta_c + 0.5 * p.gamma)
    e = np.eye(7, dtype=complex)
    da1 = -0.5 * p.kappa * e[0] - 1j * p.g1 * e[1] - 1j * p.f2 * e[2] + sqrtk * e[4]
    dbc = -1j * p.g1 * e[0] + cdamp * e[1]
    da2 = -1j * p.f2 * e[0] - 1j * e[3]
    dda1 = -0.5 * p.kappa * da1 - 1j * p.g1 * dbc - 1j * p.f2 * da2 + sqrtk * e[5]
    ddbc = -1j * p.g1 * da1 + cdamp * dbc
    out = np.array([sqrtk * e[0] - e[4], e[1], sqrtk * da1 - e[5], dbc,
                    sqrtk * dda1 - e[6], ddbc, e[2], da2])
    out.flags.writeable = False     # every caller shares it
    return out


def _hermite_losses(p: SystemParams, nodes: np.ndarray, a1, bc, a2, sig,
                    dsig, inv_t2: float, ain, dain, ddain, start: np.ndarray,
                    budget):
    """The three loss integrals on a block of nodes, continued from their
    values `start` at its first node, and the node population that the
    probability balance leaves at each node.

    The output and control losses take the quintic Hermite rule on time
    derivatives from the equations of motion, under the input amplitude
    ain with its first two time derivatives; sig = sum_j g_j b_j comes with
    its derivative.  What the budget p0 + l_in leaves after the field
    populations and those two losses, Q, is the node population plus the
    dephasing loss, so pe = Q - l_t2.  For a finite T2, l_t2 takes the
    same rule on its rate (2/T2) pe = (2/T2)(Q - l_t2), which is affine in
    l_t2, so the rule is a scalar linear recurrence, one step per node,
    implicit in the step's end: l_t2 decays by the (3,3) Pade form of
    exp(-2 h/T2)."""
    y = _derivative_map(p) @ np.array([a1, bc, a2, sig, ain, dain, ddain])
    x, dx, ddx = y[0:2], y[2:4], y[4:6]
    conj = np.conj(x)
    # the rates |a_out|**2 and gamma |bc|**2, each with its first two
    # derivatives, as (derivative order, loss, node)
    rates = np.empty((3, 2, nodes.size))
    rates[0] = x.real ** 2 + x.imag ** 2
    rates[1] = 2.0 * (conj * dx).real
    rates[2] = 2.0 * (dx.real ** 2 + dx.imag ** 2 + (conj * ddx).real)
    rates[:, 1] *= p.gamma
    losses = np.empty((3, nodes.size))
    losses[:, 0] = start
    losses[:2, 1:] = np.cumsum(_hermite_steps(nodes, rates), axis=1) + start[:2, None]
    q = (budget - np.abs(a1) ** 2 - np.abs(bc) ** 2 - np.abs(a2) ** 2
         - losses[0] - losses[1])
    if not inv_t2:
        losses[2, 1:] = start[2]
        return losses, q - start[2]
    # with k = 2/T2 each derivative of the rate k pe = k (Q - l_t2) is a
    # part from Q, through d pe/dt = 2 Im(a2 conj(sig)) - k pe, plus -k,
    # k**2 and -k**3 times l_t2
    k, s = 2.0 * inv_t2, np.conj(sig)
    part = np.empty((3, nodes.size))
    part[0] = k * q
    part[1] = 2.0 * k * (y[6] * s).imag - k * part[0]
    part[2] = 2.0 * k * (y[7] * s + y[6] * np.conj(dsig)).imag - k * part[1]
    kh = k * np.diff(nodes)
    even, odd = 1.0 + kh * kh / 10.0, kh * (0.5 + kh * kh / 120.0)
    keep = (even - odd) / (even + odd)
    gain = _hermite_steps(nodes, part) / (even + odd)
    losses[2, 1:] = list(itertools.accumulate(
        zip(keep.tolist(), gain.tolist()), lambda l, kg: kg[0] * l + kg[1],
        initial=float(start[2])))[1:]
    return losses, q - losses[2]


def _modal_stage(p: SystemParams, ens: AtomEnsemble, times: np.ndarray,
                 pulse: PulseSpec | None) -> SimulationTrace:
    """One stage from the ensemble's state, with the cavities and the
    control atom empty: storage under `pulse`, retrieval without one.

    The nodes run in blocks whose coordinates fit _BLOCK_BYTES, of at
    least _MIN_BLOCK nodes, each starting on the node the last one ended
    on, and only the output samples it owns and the running losses leave
    a block.  A block's mode coordinates, of the
    representatives of a folded state, come from one kernel: in storage
    the drive's recurrence, started from the ensemble's coordinates and
    continued from its row at the shared node; in retrieval the free
    evolution of the start on the uniform output grid.  Every node takes
    the five state rows only, and its population from the probability
    balance; the loss integrals continue from their values at the shared
    node.  The node rows are read at the checkpoints alone, every _CHECK-th
    node and the stage's last: there they give an independent population,
    which the ledger checks against the balance, and at the last node the
    final amplitudes."""
    basis = _modal_basis(p, ens)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    b0 = ens.coherences
    folded = (basis.mirrored and np.array_equal(b0[::-1], np.conj(b0))
              and (pulse is None or not pulse.carrier_detuning))
    op, drive = _node_operator(basis, folded)
    lam = basis.lam[:drive.size]
    c0 = (_mode_coordinates(basis, op, np.zeros(3, dtype=complex), b0, folded)
          if np.any(b0) else None)
    if pulse is None:
        nodes, kind = times, "retrieval"
        alpha_in, l_in = np.zeros(times.size, dtype=complex), np.zeros(times.size)
        inputs = np.broadcast_to(0j, (3, nodes.size))   # a view, no samples
        table = _offset_table(lam, nodes)
    else:
        nodes, *inputs = _drive_nodes(pulse, times, basis.lam)
        inputs = np.array(inputs)
        plan = _drive_plan(pulse, lam, nodes, math.sqrt(p.kappa) * drive)
        cdf = _pulse_cdf(pulse, nodes)
        kind, alpha_in, l_in = "storage", pulse.amplitude(times), cdf - cdf[0]
    budget = ens.probability + l_in

    out = np.searchsorted(nodes, times)
    checks = np.append(np.arange(0, nodes.size - 1, _CHECK), nodes.size - 1)
    residual = np.empty(checks.size)
    fields = np.empty((3, times.size), dtype=complex)
    pe, losses = np.empty(times.size), np.empty((3, times.size))
    row, carried, j1, k1 = c0, np.zeros(3), 0, 0
    # samples per block, at 16 bytes of coordinates per mode and sample
    size = max(_MIN_BLOCK, _BLOCK_BYTES // (16 * lam.size))
    # consecutive blocks share their edge node, which the earlier one owns
    for lo in range(0, nodes.size - 1, size - 1):
        hi = min(lo + size, nodes.size)
        block = nodes[lo:hi]
        if pulse is None:
            c = _propagator(lam, c0, block, nodes[0], table)
        else:
            c = _drive_integrals(pulse, lam, block, plan, row)
            row = c[:, -1].copy()
        state = _state_at(op, c, folded)
        losses_at, balance = _hermite_losses(p, block, *state, inv_t2,
                                             *inputs[:, lo:hi], carried,
                                             budget[lo:hi])
        carried = losses_at[:, -1]
        k0, k1 = k1, np.searchsorted(checks, hi)
        at = checks[k0:k1] - lo
        population, rows = _nodes_at(op, c[:, at], folded)
        residual[k0:k1] = population - balance[at]
        j0, j1 = j1, np.searchsorted(out, hi)
        pick = out[j0:j1] - lo
        fields[:, j0:j1] = state[:3, pick]
        pe[j0:j1] = balance[pick]
        losses[:, j0:j1] = losses_at[:, pick]
    # the amplitudes at the last node, the last checkpoint; folded, its
    # rows hold the lower half of the nodes, whose conjugate mirror is the
    # upper half, and a centre node is real
    end = rows[-1]
    if folded:
        low = end.view(complex)
        up = basis.g.size - low.size
        end = np.concatenate((low, np.conj(low[:up][::-1])))
        end[up:low.size].imag = 0.0
    return _trace(p, ens, kind, SOLVER_TOL, times, *fields, alpha_in, pe,
                  *losses, l_in[out], ens.probability, end, nodes[checks],
                  residual)


def integrate_storage(
    p: SystemParams,
    ens: AtomEnsemble,
    pulse: PulseSpec,
    t_span: tuple[float, float] | None = None,
) -> SimulationTrace:
    """Drive the memory from the ensemble's state with a normalized input
    pulse; `initial_probability` is the loaded probability.

    The span, by default 6 durations on either side of the pulse center,
    must contain the pulse with at least 5 durations of margin on each
    side so the stored probability has settled at the end; its output
    grid is storage_grid's, which refuses it otherwise.
    """
    _check_ensemble(p, ens)
    times = _output_times(*storage_grid(pulse, t_span))
    return _modal_stage(p, ens, times, pulse)


def integrate_retrieval(
    p: SystemParams,
    ens: AtomEnsemble,
    t_span: tuple[float, float],
    *,
    output_dt: float | None = None,
) -> SimulationTrace:
    """Free evolution of a loaded ensemble with the drive removed, sampled
    on a uniform grid: step output_dt (default: span / 600), or the
    largest step below it that divides the span.

    The cavities and the control atom start empty; whatever the ensemble
    re-emits leaves through the input cavity as alpha_out.
    """
    _check_ensemble(p, ens)
    if ens.probability <= 0.0:
        raise ParameterError("retrieval needs an ensemble with nonzero coherence")
    times = _output_times(t_span, output_dt)
    return _modal_stage(p, ens, times, None)


# ----------------------------------------------------------------- echo cycle

@dataclass(frozen=True)
class EchoResult:
    """Outcome of a storage -> inversion -> retrieval cycle."""

    echo_probability: float
    fidelity_time_reversed: float
    echo_window: tuple[float, float]    # the window's first and last sample
    output_times: np.ndarray
    output_waveform: np.ndarray
    storage_probability: float
    tau: float
    t_final: float
    ens_stored: AtomEnsemble            # at the inversion time, pre-inversion
    ens_final: AtomEnsemble             # at t_final, inverted detunings
    max_ledger_residual: float
    storage_trace: SimulationTrace
    retrieval_trace: SimulationTrace


#: distance, in pulse durations, at which the fidelity search stops: Brent's
#: method ends once both ends of its bracket lie within this of its best
#: delay, and a delay 1e-6 durations off the peak loses about 1e-12 of
#: overlap
_DELAY_TOL = 1e-6
#: Brent's golden-section step, the share of the larger side it steps into
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _mid_scan(pulse: PulseSpec, t_out: np.ndarray, carried: np.ndarray,
              weights: np.ndarray, lo: float, hi: float):
    """The delays in (lo, hi) halfway between the samples t_out, shifted
    by the pulse center, and at each delay d |sum_i env(d - t_i)
    carried_i|**2 and sum_i env(d - t_i)**2 weights_i.

    On the uniform grid t_out a mid delay k less sample i depends on k - i
    alone, so every envelope value comes from one lattice of those
    differences, (delays + samples - 1) values, and each sum over the
    samples is a product with a window of it: the two sums are the valid
    part of the lattice's convolutions with carried and weights."""
    mids = pulse.center + 0.5 * (t_out[:-1] + t_out[1:])
    inside = np.flatnonzero((mids > lo) & (mids < hi))
    if not inside.size:
        return mids[inside], np.zeros(0), np.zeros(0)
    # the envelope at mid delay k0 + a less sample i is lattice[a - i + N -
    # 1], N samples: the first mid less every sample, from the last, then
    # the later mids less the first sample
    k0, k1 = inside[0], inside[-1]
    lattice = pulse.envelope(np.concatenate(
        (mids[k0] - t_out[::-1], mids[k0 + 1:k1 + 1] - t_out[0])))
    num = np.abs(np.convolve(lattice, carried, "valid")) ** 2
    den = np.convolve(lattice * lattice, weights, "valid")
    return mids[inside], num, den


def _brent_max(f, a: float, b: float, x: float, fx: float,
               tol: float) -> float:
    """The largest value of f found by Brent's method on [a, b], from x in
    it, whose value fx is known: a parabola through the three best points
    sets each step, and a golden-section step into the larger side
    replaces it where the parabola's step would leave the bracket or not
    shrink.  It stops once a and b lie within tol of the best point."""
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        # the shortest step: half of tol, plus an ulp so that x + step is
        # not x where tol is below the rounding of x
        step = 0.5 * tol + math.ulp(x)
        m = 0.5 * (a + b)
        if max(x - a, b - x) <= 2.0 * step:
            return fx
        parabola = False
        if abs(e) > step:
            # the vertex of the parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabola = (abs(p) < abs(0.5 * q * e)
                        and q * (a - x) < p < q * (b - x))
            if parabola:
                e, d = d, p / q
                if min(x + d - a, b - x - d) < 2.0 * step:
                    d = math.copysign(step, m - x)
        if not parabola:
            e = a - x if x >= m else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _best_overlap(pulse: PulseSpec, t_out: np.ndarray, a_out: np.ndarray,
                  lo: float, hi: float) -> float:
    """Largest normalized overlap of a_out with the pulse mirrored at a
    delay d in [lo, hi], a_in(d - t), by the trapezoid rule on the
    uniform grid t_out.

    Its carrier is exp(+i om t) times a phase of d alone, which drops out
    of the modulus, so a_out takes exp(-i om t) once and only the
    envelope is evaluated.  The delays halfway between the samples,
    shifted by the pulse center, are scanned first, by _mid_scan, with lo
    and hi: an exponential pulse's edge crosses a sample only between two
    of them, so its overlap is constant around each and no peak is
    missed.  Brent's method then refines the best delay within its two
    neighbours, where the overlap of a smooth pulse peaks.
    """
    h = np.diff(t_out)
    weights = 0.5 * (np.concatenate((h, [0.0])) + np.concatenate(([0.0], h)))
    out_norm = float(np.abs(a_out) ** 2 @ weights)
    if not out_norm > 0:
        return 0.0
    carried = weights * a_out * np.exp(-1j * pulse.carrier_detuning * t_out)

    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den * out_norm, out=np.zeros_like(num),
                         where=den > 0)

    def overlap(delays: np.ndarray) -> np.ndarray:
        env = pulse.envelope(delays[:, None] - t_out)
        return ratio(np.abs(env @ carried) ** 2, (env * env) @ weights)

    mids, num, den = _mid_scan(pulse, t_out, carried, weights, lo, hi)
    delays = np.concatenate(([lo], mids, [hi]))
    ends = overlap(np.array([lo, hi]))
    values = np.concatenate((ends[:1], ratio(num, den), ends[1:]))
    k = int(np.argmax(values))
    return _brent_max(lambda d: float(overlap(np.array([d]))[0]),
                      float(delays[max(k - 1, 0)]),
                      float(delays[min(k + 1, delays.size - 1)]),
                      float(delays[k]), float(values[k]),
                      _DELAY_TOL * pulse.duration)


def run_echo_cycle(
    p_store: SystemParams,
    p_read: SystemParams,
    ens: AtomEnsemble,
    pulse: PulseSpec,
    tau: float,
) -> EchoResult:
    """Store a pulse, invert the detunings tau after the pulse center,
    and integrate the readout stage with parameters p_read.

    tau is measured from the pulse center; the echo is expected around
    center + 2*tau and the echo window is the retrieval samples within
    +-6 durations of it, its ends being `echo_window`.
    The time-reversal fidelity is the normalized overlap between the
    output waveform and the input mirrored at a delay d, a_in(d - t),
    maximized over d within 2 durations of 2*center + 2*tau, where the
    mirror image lands on the echo (a global phase drops out of the
    modulus).
    """
    (store, _), (read, read_dt) = cycle_grids(pulse, tau)
    dt, c = pulse.duration, pulse.center
    storage = integrate_storage(p_store, ens, pulse, store)
    ens_stored = storage.ensemble
    inverted = invert_detunings(ens_stored)

    echo_center = c + 2.0 * tau
    t_inv, t_end = read
    w_lo = max(echo_center - 6.0 * dt, t_inv)
    w_hi = min(echo_center + 6.0 * dt, t_end)
    retrieval = integrate_retrieval(p_read, inverted, read, output_dt=read_dt)

    # the samples in [w_lo, w_hi], an edge within rounding of one on it
    snap, times = _GRID_SNAP * read_dt, retrieval.times
    i_lo = int(np.searchsorted(times, w_lo - snap))
    i_hi = int(np.searchsorted(times, w_hi + snap, side="right")) - 1
    echo_probability = float(retrieval.out_flux_integral[i_hi]
                             - retrieval.out_flux_integral[i_lo])

    sel = slice(i_lo, i_hi + 1)
    t_out = times[sel]
    a_out = retrieval.alpha_out[sel]
    mirror = echo_center + c
    fidelity = _best_overlap(pulse, t_out, a_out, mirror - 2.0 * dt,
                             mirror + 2.0 * dt)

    return EchoResult(
        echo_probability=echo_probability,
        fidelity_time_reversed=fidelity,
        echo_window=(float(t_out[0]), float(t_out[-1])),
        output_times=t_out.copy(),
        output_waveform=a_out.copy(),
        storage_probability=ens_stored.probability,
        tau=tau,
        t_final=retrieval.final_time,
        ens_stored=ens_stored,
        ens_final=retrieval.ensemble,
        max_ledger_residual=max(storage.max_ledger_residual,
                                retrieval.max_ledger_residual),
        storage_trace=storage,
        retrieval_trace=retrieval,
    )


# ------------------------------------------------------------ blockade check

class PhaseCheck(NamedTuple):
    phase: float            # |arg| of the overlap, radians in [0, pi]
    magnitude_ratio: float  # |overlap| after unwinding free evolution


def blockade_phase_check(
    p: SystemParams,
    ens_after: AtomEnsemble,
    ens_initial: AtomEnsemble,
    tau: float,
    elapsed: float,
) -> PhaseCheck:
    """Compare post-reabsorption coherences with the stored pattern.

    ens_initial is the ensemble at the inversion time (pre-inversion
    detunings), ens_after the final ensemble of a blockade readout that
    ran for `elapsed` after the inversion (the echo attempt sits at
    tau into it).  Both patterns are freely evolved/unwound to the echo
    time; a working blockade returns the overlap with phase pi and
    magnitude near one.
    """
    if ens_initial.probability < 0.5:
        raise ParameterError(
            f"stored probability {ens_initial.probability:.3f} < 0.5: "
            "storage failed, blockade comparison is meaningless")
    if not (math.isfinite(tau) and math.isfinite(elapsed)):
        raise ParameterError(f"tau and elapsed must be finite, got {tau}, {elapsed}")
    if elapsed <= tau:
        raise ParameterError("elapsed must exceed tau (echo before the end)")
    back = invert_detunings(ens_after)  # restore the original node order
    if back.detunings.shape != ens_initial.detunings.shape or \
            not np.allclose(back.detunings, ens_initial.detunings,
                            rtol=0, atol=1e-9):
        raise ParameterError("ensembles do not share a detuning grid")
    d = ens_initial.detunings
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    # post-inversion node j (originally at d_j) evolves as exp(+i*d_j*t)
    stored_at_echo = ens_initial.coherences * np.exp((1j * d - inv_t2) * tau)
    unwound = back.coherences * np.exp((-1j * d + inv_t2) * (elapsed - tau))
    ref = np.vdot(stored_at_echo, stored_at_echo)
    overlap = np.vdot(stored_at_echo, unwound) / ref
    return PhaseCheck(phase=abs(math.atan2(overlap.imag, overlap.real)),
                      magnitude_ratio=abs(overlap))
