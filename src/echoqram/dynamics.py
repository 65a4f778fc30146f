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
dy/dt = A y + B a_in(t), and both stages are propagated exactly in the
eigenbasis of A.  A is complex symmetric with arrowhead structure, so its
eigenvalues are the roots of a secular equation, found by Aberth
iteration in O(n**2) operations, and its eigenvectors have closed
Cauchy forms; nodes that share a detuning are merged first.  One basis
serves every call on the same (parameters, grid), so storage and
retrieval share it on a mirrored grid.  The drive enters through each
mode's convolution with the pulse, one exponential-quadrature recurrence
for every pulse shape: per output step the mode decays by exp(lam h) and
gains weights, exact in its exponential, times the envelope at eight
Gauss nodes; the weights are formed once per distinct step length.
Each mode's free evolution at the samples is a complex exp per block of
samples times a table of in-block offset factors that every regular
block shares.  So a cycle costs its matrix products (node populations at
every sample, the Gram forms of the loss ledger), one O(n) drive update
per storage sample, and little else.  No array grows as the square of
the mode count.

Probability is conserved against explicit loss ledgers: the cavity output
integral, the control-atom relaxation integral gamma*int|bc|**2, and the
ensemble dephasing integral (2/T2)*sum_j int|b_j|**2.  The input integral
is closed form.  The loss integrals are exact Gram forms of the modes
wherever the state is a sum of exponentials: free evolution, and an
exponential drive taken as one more exponential.  Under a Gaussian drive
they use a quintic Hermite rule on exact time derivatives.
Every run checks the ledger at each output time and aborts when it drifts
beyond 100x solver_tol, which is all solver_tol bounds here; a mode basis
whose eigenpair residual or condition number exceeds a fixed bound is
refused as well.  The CW probe's steady state is one O(n) solve of the
same arrowhead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .params import SystemParams, ParameterError


class IntegrationError(RuntimeError):
    """Solver failure or conservation-ledger violation."""


# ---------------------------------------------------------------------- pulses

class PulseShape(str, Enum):
    GAUSSIAN = "gaussian"
    RISING_EXPONENTIAL = "rising_exponential"
    DECAYING_EXPONENTIAL = "decaying_exponential"


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
        if isinstance(self.shape, str) and not isinstance(self.shape, PulseShape):
            object.__setattr__(self, "shape", PulseShape(self.shape))
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
        elif self.shape is PulseShape.RISING_EXPONENTIAL:
            out = np.where(s <= 0, np.sqrt(2.0 / dt) * np.exp(s / dt), 0.0)
        else:
            out = np.where(s >= 0, np.sqrt(2.0 / dt) * np.exp(-s / dt), 0.0)
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
    so `probability` is their plain square sum.  collective_coupling keeps
    the N*g2**2 the grid was built for (0 when built standalone).
    """

    detunings: np.ndarray
    weights: np.ndarray
    coherences: np.ndarray
    collective_coupling: float = 0.0

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
        if not (np.all(np.isfinite(d)) and np.all(np.diff(d) >= 0)):
            raise ParameterError("detunings must be finite and sorted ascending")
        if not np.all(w > 0):
            raise ParameterError("weights must be positive")
        if not abs(float(np.sum(w)) - 1.0) <= 1e-12:
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {np.sum(w)}")
        if not 0 <= self.collective_coupling < math.inf:
            raise ParameterError("collective_coupling must be finite and >= 0, "
                                 f"got {self.collective_coupling}")

    @property
    def n(self) -> int:
        return int(self.detunings.size)

    @property
    def probability(self) -> float:
        return float(np.sum(np.abs(self.coherences) ** 2))

    def with_coherences(self, coherences) -> "AtomEnsemble":
        return replace(self, coherences=np.asarray(coherences, dtype=complex))


#: fewest quadrature nodes a discretized line may have
MIN_N_SIM = 16


def discretize_ensemble(
    n_sim: int,
    delta_in: float,
    span: float | None = None,
    collective_coupling: float = 0.0,
) -> AtomEnsemble:
    """Build quadrature nodes and weights for the Lorentzian line.

    span is the half width of the detuning window (default 40*delta_in).
    Nodes sit at equal-probability midpoints of the full line, with
    outliers clipped to +-span, so weights are exactly 1/n and no mass is
    dropped.
    """
    if n_sim < MIN_N_SIM:
        raise ParameterError(f"n_sim must be >= {MIN_N_SIM}, got {n_sim}")
    # written so that NaN fails the checks as well
    if not 0 < delta_in < math.inf:
        raise ParameterError(f"delta_in must be positive and finite, got {delta_in}")
    if span is None:
        span = 40.0 * delta_in
    if not span >= 20.0 * delta_in:
        raise ParameterError(
            f"span {span} too small: need >= 20*delta_in = {20.0 * delta_in} "
            "to keep the truncated line mass negligible")

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
    return AtomEnsemble(detunings=det, weights=w,
                        coherences=np.zeros(n_sim, dtype=complex),
                        collective_coupling=collective_coupling)


def ensemble_for_params(
    p: SystemParams,
    n_sim: int = 801,
    span: float | None = None,
) -> AtomEnsemble:
    """Discretize the line of `p` carrying its collective coupling along."""
    return discretize_ensemble(n_sim, p.delta_in, span=span,
                               collective_coupling=p.collective_coupling)


def invert_detunings(ens: AtomEnsemble) -> AtomEnsemble:
    """Flip every detuning sign, keeping each mode's coherence attached.

    Applying it twice returns the original ensemble exactly.
    """
    return AtomEnsemble(
        detunings=-ens.detunings[::-1],
        weights=ens.weights[::-1].copy(),
        coherences=ens.coherences[::-1].copy(),
        collective_coupling=ens.collective_coupling,
    )


# ----------------------------------------------------------------- integration

@dataclass(frozen=True)
class SimulationTrace:
    """Sampled amplitudes, probabilities, and conservation ledger."""

    times: np.ndarray
    cavity1: np.ndarray
    control: np.ndarray
    cavity2: np.ndarray
    alpha_in: np.ndarray
    alpha_out: np.ndarray
    coherences: np.ndarray | None       # (n_times, n_atoms) when stored
    p_cavity1: np.ndarray
    p_control: np.ndarray
    p_cavity2: np.ndarray
    p_ensemble: np.ndarray
    out_flux_integral: np.ndarray       # int |a_out|^2
    control_loss_integral: np.ndarray   # gamma * int |bc|^2
    t2_loss_integral: np.ndarray        # (2/T2) * sum_j int |b_j|^2
    in_flux_integral: np.ndarray        # int |a_in|^2
    ledger_residual: np.ndarray
    ensemble: AtomEnsemble              # state at the final sample
    initial_probability: float
    solver_tol: float
    kind: str
    params: SystemParams

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def max_ledger_residual(self) -> float:
        return float(np.max(np.abs(self.ledger_residual)))


def _check_ensemble(p: SystemParams, ens: AtomEnsemble) -> None:
    cc = p.collective_coupling
    if ens.collective_coupling > 0 and abs(ens.collective_coupling - cc) > 1e-9 * max(cc, 1e-30):
        raise ParameterError(
            f"ensemble was discretized for N*g2**2 = {ens.collective_coupling}, "
            f"params carry {cc}")


def _check_coupled(p: SystemParams) -> None:
    if p.f2 == 0 or p.collective_coupling == 0:
        raise ParameterError(
            "time-domain propagation needs coupled cavities (f2 > 0) and a "
            "coupled ensemble (N*g2**2 > 0)")


def _check_tol(solver_tol: float) -> None:
    # written so that NaN fails the check as well
    if not (0 < solver_tol <= 1e-8):
        raise ParameterError(f"solver_tol must be in (0, 1e-8], got {solver_tol}")


#: relative rounding within which a step count is whole and an extra time
#: replaces its grid point: the grid keeps one step and every extra time
_GRID_SNAP = 1e-9


def _output_times(t_span: tuple[float, float], output_dt: float | None,
                  extra_eval: tuple[float, ...]) -> np.ndarray:
    """Uniform output grid over the span plus the requested extra times."""
    t0, t1 = map(float, t_span)
    if not t1 > t0:
        raise ParameterError(f"empty integration span {t_span}")
    if output_dt is None:
        output_dt = (t1 - t0) / 600.0
    if not (output_dt > 0 and math.isfinite(output_dt)):
        raise ParameterError(f"output_dt must be positive and finite, got {output_dt}")
    ratio = (t1 - t0) / output_dt
    whole = abs(ratio - round(ratio)) <= _GRID_SNAP * ratio
    t_eval = np.linspace(t0, t1, (round(ratio) if whole else math.ceil(ratio)) + 1)
    if extra_eval:
        extra = np.asarray(extra_eval, dtype=float)
        if not np.all((extra >= t0) & (extra <= t1)):
            raise ParameterError("extra evaluation times fall outside the span")
        step = t_eval[1] - t_eval[0]
        near = np.rint((extra - t0) / step).astype(int)
        snap = np.abs(t_eval[near] - extra) <= _GRID_SNAP * step
        t_eval[near[snap]] = extra[snap]
        t_eval = np.unique(np.concatenate([t_eval, extra[~snap]]))
    return t_eval


def _trace(p: SystemParams, ens: AtomEnsemble, kind: str, solver_tol: float,
           times, a1, bc, a2, ain, pe,
           l_out, l_c, l_t2, l_in, p0: float, coherences,
           final_coherences) -> SimulationTrace:
    """Close the probability ledger, enforce it, and package the trace."""
    p1 = np.abs(a1) ** 2
    pc = np.abs(bc) ** 2
    p2 = np.abs(a2) ** 2
    residual = (p1 + pc + p2 + pe + l_out + l_c + l_t2) - (l_in + p0)
    worst = float(np.max(np.abs(residual)))
    if not worst <= 100.0 * solver_tol:
        raise IntegrationError(
            f"probability ledger violated on {kind}: max residual "
            f"{worst:.3e} > 100*{solver_tol}")
    return SimulationTrace(
        times=times, cavity1=a1, control=bc, cavity2=a2,
        alpha_in=ain, alpha_out=math.sqrt(p.kappa) * a1 - ain,
        coherences=coherences,
        p_cavity1=p1, p_control=pc, p_cavity2=p2, p_ensemble=pe,
        out_flux_integral=l_out, control_loss_integral=l_c,
        t2_loss_integral=l_t2, in_flux_integral=l_in,
        ledger_residual=residual, ensemble=ens.with_coherences(final_coherences),
        initial_probability=p0, solver_tol=solver_tol, kind=kind, params=p,
    )


# ------------------------------------------------------------ modal basis

#: rows per block in every sum over modes, nodes or samples, so that no
#: temporary grows as (number of modes)**2
_BLOCK = 128
#: Aberth sweeps allowed before the eigen-solve counts as failed
_ABERTH_MAX_ITER = 100
#: largest accepted ||V||_F * ||V^-1||_F of the mode basis
_COND_BOUND = 1e8
#: largest accepted eigenpair residual ||A v - lam v|| / (||A|| ||v||)
_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class _ModalBasis:
    """Eigen-decomposition A = V diag(lam) V^T of the generator.

    A is complex symmetric, so with columns scaled to v^T v = 1 the
    inverse of V is V^T in exact arithmetic (_mode_coordinates refines
    it in floating point).  Only the three field rows of V are stored; the
    ensemble rows have the Cauchy form V_mk = -i g_m a2_k / (lam_k - D_m)
    and are formed a block at a time.  Nodes that share a detuning are
    merged into one node of coupling sqrt(sum g_j**2): `group` maps each
    original node to its merged node, `share` holds g_j / g_m.
    """

    lam: np.ndarray
    a1: np.ndarray
    bc: np.ndarray
    a2: np.ndarray
    ens_sum: np.ndarray     # S_k = sum_m g_m**2 / (lam_k - D_m)
    ens_norm: np.ndarray    # sum_m |V_mk|**2
    poles: np.ndarray       # merged ensemble diagonal D_m = -(i*d_m + 1/T2)
    g: np.ndarray
    group: np.ndarray
    share: np.ndarray
    cond: float             # ||V||_F * ||V^-1||_F, bounds the 2-norm one
    residual: float         # worst relative eigenpair residual
    drive: np.ndarray | None = None    # V^-1 e_a1: the mode coordinates of the input

    @property
    def collective(self) -> np.ndarray:
        """Row sum_m g_m V_mk: the ensemble amplitude cavity 2 sees."""
        return -1j * self.a2 * self.ens_sum

    def ensemble_rows(self, lo: int, hi: int) -> np.ndarray:
        rows = self.lam - self.poles[lo:hi, None]
        np.reciprocal(rows, out=rows)
        rows *= self.a2
        rows *= (-1j * self.g[lo:hi])[:, None]
        return rows


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
    for lo in range(0, z.size, _BLOCK):
        r = 1.0 / (z[lo:lo + _BLOCK, None] - poles)
        q = r * g2
        out[0, lo:lo + _BLOCK] = q.sum(axis=1)
        out[1, lo:lo + _BLOCK] = -(q * r).sum(axis=1)
        out[2, lo:lo + _BLOCK] = ((q.real * r.real + q.imag * r.imag).sum(axis=1)
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
    for lo in range(0, za.size, _BLOCK):
        d = za[lo:lo + _BLOCK, None] - z
        d[np.arange(d.shape[0]), idx[lo:lo + _BLOCK]] = np.inf
        out[lo:lo + _BLOCK] = (1.0 / d).sum(axis=1)
    return out


def _secular_roots(p: SystemParams, cdamp: complex, poles, g2,
                   scale: float) -> np.ndarray:
    """All eigenvalues of A by Aberth iteration on det(z - A), O(n**2).

    Start values: each pole shifted by its first-order root estimate
    -g_m**2 / h_m, with h_m the secular function without that pole's term
    (the shift is capped at half the distance to the nearest other
    pole), and the eigenvalues of the bare field block.  Only roots whose
    correction is still above the tolerance are iterated; a final Newton
    step polishes every root.
    """
    fields = [[-0.5 * p.kappa, -1j * p.f2], [-1j * p.f2, 0.0]]
    if p.g1 > 0:
        fields = [[-0.5 * p.kappa, -1j * p.g1, -1j * p.f2],
                  [-1j * p.g1, cdamp, 0.0], [-1j * p.f2, 0.0, 0.0]]
    gap = np.full(poles.size, np.inf)
    gap[1:] = np.abs(np.diff(poles))
    gap[:-1] = np.minimum(gap[:-1], gap[1:])
    h = np.empty_like(poles)
    for lo in range(0, poles.size, _BLOCK):
        d = poles[lo:lo + _BLOCK, None] - poles
        d[np.arange(d.shape[0]), np.arange(lo, lo + d.shape[0])] = np.inf
        h[lo:lo + _BLOCK] = (g2 / d).sum(axis=1)
    k, _ = _cavity_factor(poles, p, cdamp)
    shift = -g2 / (poles - p.f2 ** 2 / k + h)
    big = np.abs(shift) > 0.5 * gap
    shift[big] *= 0.5 * gap[big] / np.abs(shift[big])
    z = np.concatenate([poles + shift,
                        np.linalg.eigvals(np.array(fields, dtype=complex))])
    tol = 1e-13 * scale
    active = np.arange(z.size)
    for _ in range(_ABERTH_MAX_ITER):
        za = z[active]
        newton = _newton_step(za, p, cdamp, poles, g2)
        step = newton / (1.0 - newton * _repulsion(za, active, z))
        z[active] = za - step
        active = active[~(np.abs(step) <= tol)]
        if active.size == 0:
            break
    return z - _newton_step(z, p, cdamp, poles, g2)


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
    _check_coupled(p)
    cc = p.collective_coupling
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    cdamp = -(1j * p.delta_c + 0.5 * p.gamma)
    first = np.concatenate(([True], det[1:] != det[:-1]))
    group = np.cumsum(first) - 1
    g2_nodes = cc * w
    g2 = np.bincount(group, weights=g2_nodes)
    share = np.sqrt(g2_nodes / g2[group])
    poles = -(1j * det[first] + inv_t2)
    scale = (float(np.max(np.abs(poles))) + 0.5 * p.kappa + abs(cdamp)
             + p.f2 + p.g1 + math.sqrt(cc))

    lam = _secular_roots(p, cdamp, poles, g2, scale)
    s_ens, ds_ens, abs_ens = _ensemble_sums(lam, poles, g2, with_norm=True)
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
    basis = _ModalBasis(
        lam=lam, a1=a1 * scale_v, bc=bc * scale_v, a2=scale_v,
        ens_sum=s_ens, ens_norm=np.abs(scale_v) ** 2 * abs_ens,
        poles=poles, g=np.sqrt(g2), group=group, share=share,
        cond=cond, residual=residual)
    return replace(basis, drive=_mode_coordinates(
        basis, np.array([1.0, 0.0, 0.0]), np.zeros(g2.size)))


# ------------------------------------------------------- modal propagation

def _mode_coordinates(basis: _ModalBasis, fields: np.ndarray,
                      bright: np.ndarray) -> np.ndarray:
    """Solve V c = y for the state y = (a1, bc, a2, merged ensemble).

    V^T is the inverse of V in exact arithmetic only: in a strongly
    non-normal basis (large cond) the rounding of the columns leaves
    V V^T - I far above machine precision, so V^T serves as the
    preconditioner of a few refinement steps instead.
    """
    rows = (basis.a1, basis.bc, basis.a2)
    y_fields, y_ens = fields.astype(complex), bright.astype(complex)
    size = math.sqrt(float(np.sum(np.abs(y_fields) ** 2) + np.sum(np.abs(y_ens) ** 2)))
    c = np.zeros(basis.lam.size, dtype=complex)
    err = size
    # each pass forms every Cauchy block once, for both the residual
    # r = y - V c and the step V^T r; the first pass starts from c = 0
    for step in range(5):
        r_fields = y_fields - np.array([row @ c for row in rows])
        r_ens = y_ens.copy()
        delta = sum(row * r for row, r in zip(rows, r_fields))
        if step or np.any(r_ens):
            for lo in range(0, basis.g.size, _BLOCK):
                blk = basis.ensemble_rows(lo, lo + _BLOCK)
                if step:
                    r_ens[lo:lo + _BLOCK] -= blk @ c
                delta += r_ens[lo:lo + _BLOCK] @ blk
        if step:
            last, err = err, math.sqrt(float(np.sum(np.abs(r_fields) ** 2)
                                             + np.sum(np.abs(r_ens) ** 2)))
            # stop well inside the ledger bound, once rounding stalls the
            # residual, or after four steps
            if err <= 1e-12 * size or err > 0.5 * last or step == 4:
                break
        c += delta
    if not err <= 1e-9 * size:
        raise IntegrationError(
            f"mode basis cannot resolve the state: relative residual "
            f"{err / size:.2e} (cond(V) {basis.cond:.3e})")
    return c


def _propagator(lam: np.ndarray, amp: np.ndarray, t: np.ndarray,
                t0: float) -> np.ndarray:
    """amp_k exp(lam_k (t_j - t0)) for every mode k and sample j.

    Each block of samples is its anchor's exponential exp(lam (t_a - t0))
    times the offset factors exp(lam (t_j - t_a)).  A block whose offsets
    repeat the first block's, to the rounding of the sample times, reuses
    the first block's factors, so a uniform grid takes one complex exp per
    mode and anchor plus one table; a block holding an off-grid sample
    takes its own offsets.
    """
    out = np.empty((lam.size, t.size), dtype=complex)
    width = _BLOCK // 2
    first = t[:width] - t[0]
    table = np.exp(np.multiply.outer(lam, first))
    tol = 16.0 * np.finfo(float).eps * max(abs(t0), float(np.max(np.abs(t))))
    for lo in range(0, t.size, width):
        off = t[lo:lo + width] - t[lo]
        if np.all(np.abs(off - first[:off.size]) <= tol):
            factors = table[:, :off.size]
        else:
            factors = np.exp(np.multiply.outer(lam, off))
        anchor = amp * np.exp(lam * (t[lo] - t0))
        np.multiply(anchor[:, None], factors, out=out[:, lo:lo + width])
    return out


#: Gauss nodes theta_q per drive step of at most _DRIVE_STEP durations
_DRIVE_NODES = 8
_DRIVE_STEP = 1.0 / 30.0
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


def _drive_weights(mu: np.ndarray, s: float, m: int) -> np.ndarray:
    """Weights of env(t + (r + theta_q) s), r < m, in the integral over
    [t, t + m s] of exp(mu_k (t + m s - u)) env(u) du: s times the integral
    of exp(z (1 - theta)) l_q(theta), z = mu s, by the fine rule for |z| <
    _DRIVE_SPLIT, else by parts, sum_k<P (exp(z) l_q^(k)(0) - l_q^(k)(1)) /
    z**(k+1), whose terms stay within 15 times the first; times
    exp(z (m - 1 - r)) for the sub-intervals that follow."""
    _, x1, values, d0, d1 = _drive_rule()
    z = mu * s
    w = np.empty((z.size, _DRIVE_NODES), dtype=complex)
    near = np.abs(z) < _DRIVE_SPLIT
    w[near] = np.exp(np.multiply.outer(z[near], x1)) @ values
    powers = np.cumprod(np.repeat(1.0 / z[~near, None], _DRIVE_NODES, axis=1), axis=1)
    w[~near] = np.exp(z[~near, None]) * (powers @ d0) - powers @ d1
    later = np.exp(np.multiply.outer(z, np.arange(m - 1, -1, -1.0)))
    return (later[:, :, None] * (s * w)[:, None, :]).reshape(z.size, m * _DRIVE_NODES)


def _pulse_cdf(pulse: PulseSpec, t: np.ndarray) -> np.ndarray:
    """integral of |a_in|**2 from -infinity to t."""
    s = (t - pulse.center) / pulse.duration
    if pulse.shape is PulseShape.GAUSSIAN:
        return 0.5 * np.vectorize(math.erfc, otypes=[float])(-s)
    if pulse.shape is PulseShape.RISING_EXPONENTIAL:
        return np.exp(2.0 * np.minimum(s, 0.0))
    return -np.expm1(-2.0 * np.maximum(s, 0.0))


def _drive_integrals(pulse: PulseSpec, lam: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """I_k(t_j) = integral from t_0 to t_j of exp(lam_k (t_j - s)) a_in(s) ds.

    One exponential-quadrature recurrence for every pulse shape
    (Hochbruck & Ostermann, Acta Numerica 19, 2010),
    I(t_j+1) = exp(lam h) I(t_j) + carrier(t_j+1) sum W(h) env(nodes); the
    weights take the carrier detuning into mu = lam + i om, so only the
    real envelope is interpolated.  Gauss nodes are interior and an
    exponential pulse's switching instant is a sample, so no step
    interpolates across the edge.
    """
    n = lam.size
    h = np.diff(t)
    # one group per run of lengths within rounding: its mean keeps the
    # summed steps on the samples
    order = np.argsort(h)
    tol = 16.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    group = np.empty(h.size, dtype=int)
    group[order] = np.cumsum(np.diff(h[order], prepend=-np.inf) > tol) - 1
    lengths = np.bincount(group, weights=h) / np.bincount(group)
    out = np.zeros((n, t.size), dtype=complex)
    for g, length in enumerate(lengths):
        m = max(1, math.ceil(length / (_DRIVE_STEP * pulse.duration) - _GRID_SNAP))
        w = _drive_weights(lam + 1j * pulse.carrier_detuning, length / m, m)
        # real and imaginary parts stacked for one real product: a complex
        # product this thin is slow on threaded BLAS
        stacked = np.concatenate((w.real, w.imag))
        steps = np.flatnonzero(group == g)
        nodes = ((np.arange(m)[:, None] + _drive_rule()[0]) * (length / m)).ravel()
        env = pulse.envelope(t[steps] + nodes[:, None])
        for k in range(0, steps.size, _BLOCK):
            part = stacked @ env[:, k:k + _BLOCK]
            out.real[:, steps[k:k + _BLOCK] + 1] = part[:n]
            out.imag[:, steps[k:k + _BLOCK] + 1] = part[n:]
    if pulse.carrier_detuning:
        out[:, 1:] *= np.exp(-1j * pulse.carrier_detuning * (t[1:] - pulse.center))
    # the recurrence, one O(n) update per step in place; exp(lam h) is the
    # sum hi + lo of two doubles, from extended precision where there is
    # any, since one factor reused at every step compounds its rounding
    decay = np.exp(np.multiply.outer(lengths.astype(np.longdouble),
                                     lam.astype(np.clongdouble)))
    hi = decay.astype(complex)
    lo = (decay - hi).astype(complex)
    cols = list(out.T)
    for j, g in enumerate(group.tolist()):
        cols[j + 1] += lo[g] * cols[j]
        cols[j + 1] += hi[g] * cols[j]
    return out


def _hermite_cumulative(t: np.ndarray, r: np.ndarray, dr: np.ndarray,
                        ddr: np.ndarray) -> np.ndarray:
    """Running integral of r by the two-point quintic Hermite rule, exact
    for polynomials of degree five, from values and two derivatives."""
    h = np.diff(t)
    inc = h * (0.5 * (r[:-1] + r[1:]) + h * ((dr[:-1] - dr[1:]) / 10.0
                                             + h * (ddr[:-1] + ddr[1:]) / 120.0))
    return np.concatenate(([0.0], np.cumsum(inc)))


def _rate(x, dx, ddx, weight: float):
    """weight*|x|**2 and its first two time derivatives."""
    return (weight * np.abs(x) ** 2,
            2.0 * weight * (np.conj(x) * dx).real,
            2.0 * weight * (np.abs(dx) ** 2 + (np.conj(x) * ddx).real))


def _ensemble_at(basis: _ModalBasis, c: np.ndarray, cols: np.ndarray | None):
    """Bright-ensemble population at every sample, the original nodes'
    amplitudes at the samples `cols` (None: none kept) and at the last one."""
    n_nodes = basis.group.size
    pe = np.zeros(c.shape[1])
    kept = None if cols is None else np.empty((cols.size, n_nodes), dtype=complex)
    last = np.empty(n_nodes, dtype=complex)
    bounds = np.searchsorted(basis.group, np.arange(0, basis.g.size + _BLOCK, _BLOCK))
    for i, lo in enumerate(range(0, basis.g.size, _BLOCK)):
        blk = basis.ensemble_rows(lo, lo + _BLOCK) @ c
        pe += (blk.real ** 2 + blk.imag ** 2).sum(axis=0)
        j0, j1 = bounds[i], bounds[i + 1]
        rows = basis.group[j0:j1] - lo
        share = basis.share[j0:j1]
        last[j0:j1] = share * blk[rows, -1]
        if kept is not None:
            kept[:, j0:j1] = (share[:, None] * blk[rows][:, cols]).T
    return pe, kept, last


def _gram_losses(basis: _ModalBasis, c: np.ndarray, p: SystemParams,
                 inv_t2: float, forced=None):
    """Exact loss integrals since the first sample of a sum of exponentials.

    Free evolution: c_k(t) = c_k(t0) exp(lam_k t).  A loss rate y^H W y
    has the Gram kernel Q = W_kl / (conj(lam_k) + lam_l): Phi(t) =
    c(t)^H Q c(t) obeys dPhi/dt = rate, so the integral since t0 is
    Phi(t) - Phi(t0).  The ensemble weight sum_m conj(V_mk) V_ml has the
    closed form conj(a2_k) a2_l (conj(S_k) + S_l) / (conj(lam_k) + lam_l
    + 2/T2), its diagonal the direct sum.  Q is Hermitian, so only the
    blocks on and above the diagonal are formed.

    forced = (alpha, u, amp, xi): an exponential drive a_in = amp * xi with
    xi(t) = exp(alpha t) splits c = h + u xi into a free part h and the
    driven profile u; xi joins the modes as one more coordinate.  Returns
    the output, control-atom and T2 integrals.
    """
    lam, n = basis.lam, basis.lam.size
    sqrtk, sqrtg = math.sqrt(p.kappa), math.sqrt(p.gamma)
    h = c if forced is None else c - np.outer(forced[1], forced[3])
    phi = np.zeros((3, c.shape[1]))
    active = [i for i, on in enumerate((True, p.g1 > 0, inv_t2 > 0)) if on]
    for lo in range(0, n, _BLOCK // 2):
        hi = min(lo + _BLOCK // 2, n)
        lk = np.conj(lam[lo:hi, None])
        kernel = lk + lam[lo:]
        np.reciprocal(kernel, out=kernel)
        # within the diagonal block keep the upper triangle, the diagonal
        # at half weight, so that 2 Re sum covers every pair once
        kernel[:, :hi - lo] *= np.triu(np.ones((hi - lo, hi - lo)), 1) \
            + 0.5 * np.eye(hi - lo)
        # the active channels' weight blocks, stacked for one product
        w = np.empty((len(active), hi - lo, n - lo), dtype=complex)
        for j, i in enumerate(active):
            if i == 0:
                np.multiply(p.kappa * np.conj(basis.a1[lo:hi, None]),
                            basis.a1[lo:], out=w[j])
            elif i == 1:
                np.multiply(p.gamma * np.conj(basis.bc[lo:hi, None]),
                            basis.bc[lo:], out=w[j])
            else:
                np.add(lk + 2.0 * inv_t2, lam[lo:], out=w[j])
                np.reciprocal(w[j], out=w[j])
                w[j] *= np.conj(basis.ens_sum[lo:hi, None]) + basis.ens_sum[lo:]
                w[j] *= 2.0 * inv_t2 * np.conj(basis.a2[lo:hi, None]) * basis.a2[lo:]
                diag = np.arange(hi - lo)
                w[j, diag, diag] = 2.0 * inv_t2 * basis.ens_norm[lo:hi]
        w *= kernel
        y = (w.reshape(-1, n - lo) @ h[lo:]).reshape(len(active), hi - lo, -1)
        # Re(conj(h) y) summed over the rows: the interleaved real and
        # imaginary parts of h and y multiply pairwise
        prod = np.einsum("ms,kms->ks", h[lo:hi].view(float), y.view(float))
        phi[active] += 2.0 * prod.reshape(len(active), -1, 2).sum(axis=2)
    if forced is not None:
        alpha, u, amp, xi = forced
        # the rows' entries on xi: r.u, and for the output also -amp; the
        # ensemble's are E u = V_E^H (V_E u) and u^H E u = |V_E u|**2
        out_xi = sqrtk * (basis.a1 @ u) - amp
        ens_u = np.zeros(n, dtype=complex)
        ens_uu = 0.0
        for lo in range(0, basis.g.size if inv_t2 > 0 else 0, _BLOCK):
            rows = basis.ensemble_rows(lo, lo + _BLOCK)
            y = rows @ u
            ens_u += y @ np.conj(rows)
            ens_uu += float(np.sum(np.abs(y) ** 2))
        channels = [(np.conj(sqrtk * basis.a1) * out_xi, abs(out_xi) ** 2),
                    (np.conj(sqrtg * basis.bc) * sqrtg * (basis.bc @ u),
                     p.gamma * abs(basis.bc @ u) ** 2),
                    (2.0 * inv_t2 * ens_u, 2.0 * inv_t2 * ens_uu)]
        for i, (cross, corner) in enumerate(channels):
            cross_h = (cross / (np.conj(lam) + alpha)) @ np.conj(h)
            phi[i] += 2.0 * (cross_h * xi).real \
                + corner * np.abs(xi) ** 2 / (2.0 * alpha.real)
    return phi - phi[:, :1]


def _modal_storage(p: SystemParams, ens: AtomEnsemble, pulse: PulseSpec,
                   times: np.ndarray, solver_tol: float,
                   store_ensemble: bool) -> SimulationTrace:
    basis = _modal_basis(p, ens)
    sqrtk = math.sqrt(p.kappa)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    gaussian = pulse.shape is PulseShape.GAUSSIAN
    # an exponential pulse switches at its center, which the margin check
    # puts inside the span: sample the state there as well
    nodes = times if gaussian else np.union1d(times, [pulse.center])
    out = np.searchsorted(nodes, times)

    c = _drive_integrals(pulse, basis.lam, nodes)
    c *= (sqrtk * basis.drive)[:, None]
    a1, bc, a2 = basis.a1 @ c, basis.bc @ c, basis.a2 @ c
    pe, kept, last = _ensemble_at(basis, c, out if store_ensemble else None)
    if gaussian:
        losses = _hermite_losses(p, basis, c, nodes, pulse, a1, bc, a2, pe,
                                 inv_t2)
    else:
        # a sum of exponentials on either side of the switching instant:
        # the driven side with the drive as one more coordinate, exact
        rising = pulse.shape is PulseShape.RISING_EXPONENTIAL
        alpha = (1.0 if rising else -1.0) / pulse.duration \
            - 1j * pulse.carrier_detuning
        amp = math.sqrt(2.0 / pulse.duration)
        k = int(np.searchsorted(nodes, pulse.center))
        driven = slice(0, k + 1) if rising else slice(k, None)
        xi = np.exp(alpha * (nodes[driven] - pulse.center))
        u = amp * sqrtk * basis.drive / (alpha - basis.lam)
        losses = np.zeros((3, nodes.size))
        losses[:, driven] = _gram_losses(basis, c[:, driven], p, inv_t2,
                                         forced=(alpha, u, amp, xi))
        if rising:
            losses[:, k:] = losses[:, k:k + 1] + _gram_losses(
                basis, c[:, k:], p, inv_t2)
    cdf = _pulse_cdf(pulse, times)
    l_in = cdf - cdf[0]
    return _trace(p, ens, "storage", solver_tol, times,
                  a1[out], bc[out], a2[out], pulse.amplitude(times),
                  pe[out], *losses[:, out], l_in, 0.0, kept, last)


def _hermite_losses(p: SystemParams, basis: _ModalBasis, c: np.ndarray,
                    nodes: np.ndarray, pulse: PulseSpec, a1, bc, a2, pe,
                    inv_t2: float) -> np.ndarray:
    """Loss integrals under a Gaussian drive by the quintic Hermite rule,
    with first and second time derivatives from the equations of motion;
    sig = sum_j g_j b_j and its derivative need the rows sum_m g_m V_mk
    and sum_m g_m D_m V_mk."""
    sqrtk = math.sqrt(p.kappa)
    cdamp = -(1j * p.delta_c + 0.5 * p.gamma)
    sig = basis.collective @ c
    dsig = (-1j * basis.a2 * (basis.lam * basis.ens_sum
                              - p.collective_coupling)) @ c \
        - 1j * p.collective_coupling * a2
    ain = pulse.amplitude(nodes)
    rate = -(nodes - pulse.center) / pulse.duration ** 2 \
        - 1j * pulse.carrier_detuning
    dain = rate * ain
    ddain = (rate * rate - pulse.duration ** -2) * ain
    da2 = -1j * sig - 1j * p.f2 * a1
    dbc = cdamp * bc - 1j * p.g1 * a1
    da1 = -1j * p.g1 * bc - 1j * p.f2 * a2 - 0.5 * p.kappa * a1 + sqrtk * ain
    ddbc = cdamp * dbc - 1j * p.g1 * da1
    dda1 = (-1j * p.g1 * dbc - 1j * p.f2 * da2 - 0.5 * p.kappa * da1
            + sqrtk * dain)
    dpe = -2.0 * inv_t2 * pe + 2.0 * (-1j * a2 * np.conj(sig)).real
    ddpe = -2.0 * inv_t2 * dpe + 2.0 * (-1j * (da2 * np.conj(sig)
                                             + a2 * np.conj(dsig))).real
    return np.array([
        _hermite_cumulative(nodes, *_rate(sqrtk * a1 - ain, sqrtk * da1 - dain,
                                          sqrtk * dda1 - ddain, 1.0)),
        _hermite_cumulative(nodes, *_rate(bc, dbc, ddbc, p.gamma)),
        _hermite_cumulative(nodes, 2.0 * inv_t2 * pe, 2.0 * inv_t2 * dpe,
                            2.0 * inv_t2 * ddpe)])


def _modal_retrieval(p: SystemParams, ens: AtomEnsemble, times: np.ndarray,
                     solver_tol: float, store_ensemble: bool) -> SimulationTrace:
    basis = _modal_basis(p, ens)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    b0 = ens.coherences
    # split each merged node into the part the cavity sees and a dark
    # remainder, which only dephases
    weighted = basis.share * b0
    bright = (np.bincount(basis.group, weights=weighted.real)
              + 1j * np.bincount(basis.group, weights=weighted.imag))
    dark = b0 - basis.share * bright[basis.group]
    c0 = _mode_coordinates(basis, np.zeros(3, dtype=complex), bright)
    elapsed = times - times[0]
    c = _propagator(basis.lam, c0, times, times[0])

    a1, bc, a2 = basis.a1 @ c, basis.bc @ c, basis.a2 @ c
    cols = np.arange(times.size) if store_ensemble else None
    pe, kept, last = _ensemble_at(basis, c, cols)
    l_out, l_c, l_t2 = _gram_losses(basis, c, p, inv_t2)
    dark_p = float(np.sum(np.abs(dark) ** 2))
    if dark_p > 0:
        node_poles = -(1j * ens.detunings + inv_t2)
        pe = pe + dark_p * np.exp(-2.0 * inv_t2 * elapsed)
        l_t2 = l_t2 - dark_p * np.expm1(-2.0 * inv_t2 * elapsed)
        last = last + dark * np.exp(node_poles * elapsed[-1])
        if kept is not None:
            kept += _propagator(node_poles, dark, times, times[0]).T
    return _trace(p, ens, "retrieval", solver_tol, times, a1, bc, a2,
                  np.zeros(times.size, dtype=complex), pe, l_out, l_c, l_t2,
                  np.zeros(times.size), float(np.sum(np.abs(b0) ** 2)),
                  kept, last)


def integrate_storage(
    p: SystemParams,
    ens: AtomEnsemble,
    pulse: PulseSpec,
    t_span: tuple[float, float],
    solver_tol: float = 1e-9,
    *,
    output_dt: float | None = None,
    extra_eval: tuple[float, ...] = (),
    store_ensemble: bool = True,
) -> SimulationTrace:
    """Drive the empty memory with a normalized input pulse.

    The span must contain the pulse with at least 5 durations of margin on
    each side so the stored probability has settled at the end.
    """
    _check_ensemble(p, ens)
    _check_tol(solver_tol)
    if t_span[0] > pulse.center - 5.0 * pulse.duration or \
       t_span[1] < pulse.center + 5.0 * pulse.duration:
        raise ParameterError(
            f"pulse centered at {pulse.center} (duration {pulse.duration}) needs "
            f">= 5 durations of margin inside span {t_span}")
    if output_dt is None:
        output_dt = min(pulse.duration / 30.0, (t_span[1] - t_span[0]) / 400.0)
    times = _output_times(t_span, output_dt, extra_eval)
    return _modal_storage(p, ens, pulse, times, solver_tol, store_ensemble)


def integrate_retrieval(
    p: SystemParams,
    ens: AtomEnsemble,
    t_span: tuple[float, float],
    solver_tol: float = 1e-9,
    *,
    output_dt: float | None = None,
    extra_eval: tuple[float, ...] = (),
    store_ensemble: bool = True,
) -> SimulationTrace:
    """Free evolution of a loaded ensemble with the drive removed.

    The cavities and the control atom start empty; whatever the ensemble
    re-emits leaves through the input cavity as alpha_out.
    """
    _check_ensemble(p, ens)
    _check_tol(solver_tol)
    if ens.probability <= 0.0:
        raise ParameterError("retrieval needs an ensemble with nonzero coherence")
    times = _output_times(t_span, output_dt, extra_eval)
    return _modal_retrieval(p, ens, times, solver_tol, store_ensemble)


# ----------------------------------------------------------------- echo cycle

@dataclass(frozen=True)
class EchoResult:
    """Outcome of a storage -> inversion -> retrieval cycle."""

    echo_probability: float
    fidelity_time_reversed: float
    echo_window: tuple[float, float]
    output_times: np.ndarray
    output_waveform: np.ndarray
    storage_probability: float
    tau: float
    t_final: float
    ens_stored: AtomEnsemble            # at the inversion time, pre-inversion
    ens_final: AtomEnsemble             # at t_final, inverted detunings
    max_ledger_residual: float
    storage_trace: SimulationTrace | None = None
    retrieval_trace: SimulationTrace | None = None


#: golden-section bracket, in pulse durations, at which the fidelity search
#: stops: a delay 1e-6 durations off the peak loses about 1e-12 of overlap
_DELAY_TOL = 1e-6
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _best_overlap(pulse: PulseSpec, t_out: np.ndarray, a_out: np.ndarray,
                  lo: float, hi: float) -> float:
    """Largest normalized overlap of a_out with the conjugated pulse
    mirrored at a delay in [lo, hi], by the trapezoid rule on t_out.

    The carrier phase of the mirrored pulse factors out of the modulus,
    so only its envelope is evaluated.  The delays halfway between the
    samples, shifted by the pulse center, are evaluated in one call: an
    exponential pulse's edge crosses a sample only between two of them,
    so its overlap is constant around each and no peak is missed.  Golden
    section then refines the bracket around the best delay, where the
    overlap of a smooth pulse peaks.
    """
    h = np.diff(t_out)
    weights = 0.5 * (np.concatenate((h, [0.0])) + np.concatenate(([0.0], h)))
    out_norm = float(np.abs(a_out) ** 2 @ weights)
    if not out_norm > 0:
        return 0.0
    carried = weights * a_out * np.exp(1j * pulse.carrier_detuning * t_out)

    def overlap(delays: np.ndarray) -> np.ndarray:
        env = pulse.envelope(delays[:, None] - t_out)
        num = np.abs(env @ carried) ** 2
        den = (env * env) @ weights * out_norm
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    mids = pulse.center + 0.5 * (t_out[:-1] + t_out[1:])
    delays = np.concatenate(([lo], mids[(mids > lo) & (mids < hi)], [hi]))
    values = overlap(delays)
    k = int(np.argmax(values))
    a, b = delays[max(k - 1, 0)], delays[min(k + 1, delays.size - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = overlap(np.array([x1, x2]))
    while b - a > _DELAY_TOL * pulse.duration:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = overlap(np.array([x1]))[0]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = overlap(np.array([x2]))[0]
    return float(max(values[k], f1, f2))


def run_echo_cycle(
    p_store: SystemParams,
    p_read: SystemParams,
    ens: AtomEnsemble,
    pulse: PulseSpec,
    tau: float,
    solver_tol: float = 1e-9,
    *,
    keep_traces: bool = True,
) -> EchoResult:
    """Store a pulse, invert the detunings tau after the pulse center,
    and integrate the readout stage with parameters p_read.

    tau is measured from the pulse center; the echo is expected around
    center + 2*tau and the retrieval window spans +-6 durations of it.
    The time-reversal fidelity is the normalized overlap between the
    output waveform and the conjugated input mirrored at a delay d,
    a_in(d - t), maximized over d within 2 durations of 2*center + 2*tau,
    where the mirror image lands on the echo (a global phase drops out
    of the modulus).
    """
    if tau < 5.0 * pulse.duration:
        raise ParameterError(
            f"tau = {tau} too small: need >= 5 pulse durations "
            f"({5.0 * pulse.duration}) after the pulse center")
    dt = pulse.duration
    c = pulse.center
    t_inv = c + tau
    storage = integrate_storage(
        p_store, ens, pulse, (c - 6.0 * dt, t_inv), solver_tol,
        store_ensemble=keep_traces)
    ens_stored = storage.ensemble
    inverted = invert_detunings(ens_stored)

    echo_center = c + 2.0 * tau
    t_end = echo_center + 8.0 * dt
    w_lo = max(echo_center - 6.0 * dt, t_inv)
    w_hi = min(echo_center + 6.0 * dt, t_end)
    retrieval = integrate_retrieval(
        p_read, inverted, (t_inv, t_end), solver_tol,
        output_dt=dt / 40.0, extra_eval=(w_lo, w_hi),
        store_ensemble=keep_traces)

    i_lo = int(np.searchsorted(retrieval.times, w_lo))
    i_hi = int(np.searchsorted(retrieval.times, w_hi))
    echo_probability = float(retrieval.out_flux_integral[i_hi]
                             - retrieval.out_flux_integral[i_lo])

    sel = slice(i_lo, i_hi + 1)
    t_out = retrieval.times[sel]
    a_out = retrieval.alpha_out[sel]
    mirror = echo_center + c
    fidelity = _best_overlap(pulse, t_out, a_out, mirror - 2.0 * dt,
                             mirror + 2.0 * dt)

    return EchoResult(
        echo_probability=echo_probability,
        fidelity_time_reversed=fidelity,
        echo_window=(w_lo, w_hi),
        output_times=t_out.copy(),
        output_waveform=a_out.copy(),
        storage_probability=ens_stored.probability,
        tau=tau,
        t_final=retrieval.final_time,
        ens_stored=ens_stored,
        ens_final=retrieval.ensemble,
        max_ledger_residual=max(storage.max_ledger_residual,
                                retrieval.max_ledger_residual),
        storage_trace=storage if keep_traces else None,
        retrieval_trace=retrieval if keep_traces else None,
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


# ------------------------------------------------------------------ CW probes

class ProbeResult(NamedTuple):
    cavity1_over_input: complex
    cavity2_over_cavity1: complex


#: node spacings around the probe detuning that the homogeneous width
#: 1/T2 must span for the discrete line to stand for the continuous one
_PROBE_RESOLUTION = 2.0


def transfer_function_probe(
    p: SystemParams,
    delta: float,
    *,
    n_sim: int = 801,
    span: float | None = None,
) -> ProbeResult:
    """Steady-state response ratios under a CW drive at detuning delta.

    The steady state y = -(A + i*delta)**-1 B of the driven equations is
    one O(n) solve through the arrowhead: each mode follows cavity 2 as
    b_j = -i*g_j*a2 / (-i*delta - D_j), the control atom follows cavity 1,
    so a2/a1 = -i*f2 / (S - i*delta) with S = sum_j g_j**2 / (-i*delta - D_j)
    and a1/a_in = sqrt(kappa) / (kappa/2 - i*delta
    + g1**2/(gamma/2 + i*(delta_c - delta)) + f2**2/(S - i*delta)).

    A line of discrete modes has the steady state of the continuous line
    only when the homogeneous width 1/T2 spans a few node spacings around
    delta; a narrower line, T2 = inf included, is refused.
    """
    _check_coupled(p)
    ens = ensemble_for_params(p, n_sim=n_sim, span=span)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    det = ens.detunings
    i = min(max(int(np.searchsorted(det, delta)), 1), det.size - 1)
    spacing = det[i] - det[i - 1]
    if not inv_t2 >= _PROBE_RESOLUTION * spacing:
        raise ParameterError(
            f"a CW steady state needs 1/T2 >= {_PROBE_RESOLUTION:g} node "
            f"spacings ({_PROBE_RESOLUTION * spacing:.3e}) around delta = "
            f"{delta}, got 1/T2 = {inv_t2:.3e}")
    s_ens = np.sum(p.collective_coupling * ens.weights
                   / (1j * (det - delta) + inv_t2))
    cavity2 = -1j * p.f2 / (s_ens - 1j * delta)
    atom = p.g1 ** 2 / (1j * (p.delta_c - delta) + 0.5 * p.gamma)
    cavity1 = math.sqrt(p.kappa) / (0.5 * p.kappa - 1j * delta + atom
                                    + 1j * p.f2 * cavity2)
    return ProbeResult(cavity1_over_input=complex(cavity1),
                       cavity2_over_cavity1=complex(cavity2))
