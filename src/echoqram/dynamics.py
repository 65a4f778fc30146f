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
retrieval share it on a mirrored grid.  The drive enters through closed
forms of each mode's convolution with the pulse (the Faddeeva function
for the Gaussian).  No array grows as the square of the mode count.

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
refused as well.  The adaptive DOP853 integrator of the full equations
remains for the CW probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar
from scipy.special import erfc, wofz

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

class DiscretizationScheme(str, Enum):
    QUANTILE = "quantile"
    UNIFORM_WEIGHTED = "uniform_weighted"


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
        if np.any(np.diff(d) < 0):
            raise ParameterError("detunings must be sorted ascending")
        if np.any(w <= 0):
            raise ParameterError("weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {np.sum(w)}")
        if self.collective_coupling < 0:
            raise ParameterError("collective_coupling must be >= 0")

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
    scheme: DiscretizationScheme | str = DiscretizationScheme.QUANTILE,
    collective_coupling: float = 0.0,
) -> AtomEnsemble:
    """Build quadrature nodes and weights for the Lorentzian line.

    span is the half width of the detuning window (default 40*delta_in).
    The quantile scheme places nodes at equal-probability midpoints of the
    full line and clips outliers to +-span, so weights are exactly 1/n and
    no mass is dropped.  The uniform scheme uses equidistant nodes with
    exact line mass per bin, folding the outer tails into the edge bins.
    """
    scheme = DiscretizationScheme(scheme)
    if n_sim < 16:
        raise ParameterError(f"n_sim must be >= 16, got {n_sim}")
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    if span is None:
        span = 40.0 * delta_in
    if span < 20.0 * delta_in:
        raise ParameterError(
            f"span {span} too small: need >= 20*delta_in = {20.0 * delta_in} "
            "to keep the truncated line mass negligible")

    if scheme is DiscretizationScheme.QUANTILE:
        u = (np.arange(n_sim) + 0.5) / n_sim
        det = delta_in * np.tan(np.pi * (u - 0.5))
        det = np.clip(det, -span, span)
        w = np.full(n_sim, 1.0 / n_sim)
    else:
        edges = np.linspace(-span, span, n_sim + 1)
        det = 0.5 * (edges[:-1] + edges[1:])
        cdf = 0.5 + np.arctan(edges / delta_in) / np.pi
        w = np.diff(cdf)
        w[0] += cdf[0]           # fold the left tail into the first bin
        w[-1] += 1.0 - cdf[-1]   # and the right tail into the last
    # the lower half is the negated upper half, so that invert_detunings
    # reproduces the grid bit for bit and both stages share one mode basis
    half = n_sim // 2
    det[:half] = -det[::-1][:half]
    w[:half] = w[::-1][:half]
    if n_sim % 2:
        det[half] = 0.0
    w = w / np.sum(w)
    return AtomEnsemble(detunings=det, weights=w,
                        coherences=np.zeros(n_sim, dtype=complex),
                        collective_coupling=collective_coupling)


def ensemble_for_params(
    p: SystemParams,
    n_sim: int = 801,
    span: float | None = None,
    scheme: DiscretizationScheme | str = DiscretizationScheme.QUANTILE,
) -> AtomEnsemble:
    """Discretize the line of `p` carrying its collective coupling along."""
    return discretize_ensemble(n_sim, p.delta_in, span=span, scheme=scheme,
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


def _check_tol(solver_tol: float) -> None:
    # written so that NaN fails the check as well
    if not (0 < solver_tol <= 1e-8):
        raise ParameterError(f"solver_tol must be in (0, 1e-8], got {solver_tol}")


def _output_times(t_span: tuple[float, float], output_dt: float | None,
                  extra_eval: tuple[float, ...]) -> np.ndarray:
    """Uniform output grid over the span plus the requested extra times."""
    t0, t1 = map(float, t_span)
    if not t1 > t0:
        raise ParameterError(f"empty integration span {t_span}")
    if output_dt is None:
        output_dt = (t1 - t0) / 600.0
    m = max(2, int(math.ceil((t1 - t0) / output_dt)) + 1)
    t_eval = np.linspace(t0, t1, m)
    if extra_eval:
        t_eval = np.unique(np.concatenate([t_eval, np.asarray(extra_eval, dtype=float)]))
        if t_eval[0] < t0 or t_eval[-1] > t1:
            raise ParameterError("extra evaluation times fall outside the span")
    return t_eval


def _integrate(
    p: SystemParams,
    ens: AtomEnsemble,
    drive: Callable[[float], complex] | None,
    t_span: tuple[float, float],
    y0_modes: np.ndarray,
    y0_fields: tuple[complex, complex, complex],
    solver_tol: float,
    output_dt: float | None,
    extra_eval: tuple[float, ...] = (),
    store_ensemble: bool = True,
    kind: str = "storage",
    ledger_check: bool = True,
) -> SimulationTrace:
    """Adaptive DOP853 integration of the full equations with a running ledger.

    The CW probe uses it; the tests use it as an independent oracle for
    the modal propagator.  Every Runge-Kutta stage costs one Python call
    of the right-hand side.
    """
    _check_tol(solver_tol)
    t_eval = _output_times(t_span, output_dt, extra_eval)
    t0, t1 = t_eval[0], t_eval[-1]
    n = ens.n
    kappa, g1, f2 = p.kappa, p.g1, p.f2
    sqrtk = math.sqrt(kappa)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    gj = np.sqrt(p.collective_coupling * ens.weights)
    damp = -(1j * ens.detunings + inv_t2)
    mig = -1j * gj
    cdamp = -(1j * p.delta_c + 0.5 * p.gamma)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a1, bc, a2 = y[0], y[1], y[2]
        b = y[3:3 + n]
        ain = drive(t) if drive is not None else 0.0
        dy = np.empty_like(y)
        dy[0] = -1j * g1 * bc - 1j * f2 * a2 - 0.5 * kappa * a1 + sqrtk * ain
        dy[1] = cdamp * bc - 1j * g1 * a1
        dy[2] = mig @ b - 1j * f2 * a1
        dy[3:3 + n] = damp * b + mig * a2
        aout = sqrtk * a1 - ain
        dy[3 + n] = abs(aout) ** 2
        dy[4 + n] = p.gamma * abs(bc) ** 2
        dy[5 + n] = 2.0 * inv_t2 * float(b.real @ b.real + b.imag @ b.imag)
        dy[6 + n] = abs(ain) ** 2
        return dy

    y0 = np.zeros(n + 7, dtype=complex)
    y0[0], y0[1], y0[2] = y0_fields
    y0[3:3 + n] = y0_modes

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                    rtol=solver_tol, atol=solver_tol * 1e-3, t_eval=t_eval)
    if not sol.success:
        raise IntegrationError(f"solver failed on {kind} span {t_span}: {sol.message}")

    a1 = sol.y[0]
    bc = sol.y[1]
    a2 = sol.y[2]
    b = sol.y[3:3 + n]
    ain = (np.asarray([drive(t) for t in sol.t], dtype=complex)
           if drive is not None else np.zeros_like(sol.t, dtype=complex))
    p0 = float(np.sum(np.abs(y0_modes) ** 2)
               + sum(abs(v) ** 2 for v in y0_fields))
    return _trace(p, ens, kind, solver_tol, ledger_check, sol.t,
                  a1, bc, a2, ain, np.sum(np.abs(b) ** 2, axis=0),
                  sol.y[3 + n].real, sol.y[4 + n].real, sol.y[5 + n].real,
                  sol.y[6 + n].real, p0,
                  b.T.copy() if store_ensemble else None, b[:, -1])


def _trace(p: SystemParams, ens: AtomEnsemble, kind: str, solver_tol: float,
           ledger_check: bool, times, a1, bc, a2, ain, pe,
           l_out, l_c, l_t2, l_in, p0: float, coherences,
           final_coherences) -> SimulationTrace:
    """Close the probability ledger, enforce it, and package the trace."""
    p1 = np.abs(a1) ** 2
    pc = np.abs(bc) ** 2
    p2 = np.abs(a2) ** 2
    residual = (p1 + pc + p2 + pe + l_out + l_c + l_t2) - (l_in + p0)
    worst = float(np.max(np.abs(residual)))
    if ledger_check and not worst <= 100.0 * solver_tol:
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
        return (-1j * self.g[lo:hi, None]) * self.a2 \
            / (self.lam - self.poles[lo:hi, None])


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
    cc = p.collective_coupling
    if p.f2 == 0 or cc == 0:
        raise ParameterError(
            "time-domain propagation needs coupled cavities (f2 > 0) and a "
            "coupled ensemble (N*g2**2 > 0)")
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
    r_fields, r_ens = y_fields, y_ens
    err = size
    for _ in range(4):
        for row, r in zip(rows, r_fields):
            c += row * r
        if np.any(r_ens):
            for lo in range(0, basis.g.size, _BLOCK):
                c += r_ens[lo:lo + _BLOCK] @ basis.ensemble_rows(lo, lo + _BLOCK)
        r_fields = y_fields - np.array([row @ c for row in rows])
        r_ens = y_ens.copy()
        for lo in range(0, basis.g.size, _BLOCK):
            r_ens[lo:lo + _BLOCK] -= basis.ensemble_rows(lo, lo + _BLOCK) @ c
        last, err = err, math.sqrt(float(np.sum(np.abs(r_fields) ** 2)
                                         + np.sum(np.abs(r_ens) ** 2)))
        # stop well inside the ledger bound or once rounding stalls the residual
        if err <= 1e-12 * size or err > 0.5 * last:
            break
    if not err <= 1e-9 * size:
        raise IntegrationError(
            f"mode basis cannot resolve the state: relative residual "
            f"{err / size:.2e} (cond(V) {basis.cond:.3e})")
    return c


def _pulse_cdf(pulse: PulseSpec, t: np.ndarray) -> np.ndarray:
    """integral of |a_in|**2 from -infinity to t."""
    s = (t - pulse.center) / pulse.duration
    if pulse.shape is PulseShape.GAUSSIAN:
        return 0.5 * erfc(-s)
    if pulse.shape is PulseShape.RISING_EXPONENTIAL:
        return np.exp(2.0 * np.minimum(s, 0.0))
    return -np.expm1(-2.0 * np.maximum(s, 0.0))


def _drive_integrals(pulse: PulseSpec, lam: np.ndarray, t: np.ndarray,
                     t0: float) -> np.ndarray:
    """I_k(t) = integral from t0 to t of exp(lam_k (t - s)) a_in(s) ds.

    Gaussian: a completed square turns I into a difference of two
    erfc values, each written as exp(E) * w(i x) with the Faddeeva
    function w (Weideman 1994), so no factor overflows.  Exponential
    pulses give elementary forms.  Filled a block of times at a time.
    """
    out = np.empty((lam.size, t.size), dtype=complex)
    c, sd, om = pulse.center, pulse.duration, pulse.carrier_detuning
    lam_c = lam[:, None]
    for lo in range(0, t.size, _BLOCK // 2):
        tt = t[None, lo:lo + _BLOCK // 2]
        if pulse.shape is PulseShape.GAUSSIAN:
            beta = lam_c + 1j * om
            root = sd * math.sqrt(2.0)
            u0, u1 = t0 - c, tt - c
            w0 = (u0 + sd * sd * beta) / root
            w1 = (u1 + sd * sd * beta) / root
            e0 = np.exp(lam_c * (tt - t0) - u0 * u0 / (2.0 * sd * sd) - 1j * om * u0)
            e1 = np.exp(-u1 * u1 / (2.0 * sd * sd) - 1j * om * u1)
            # exp(E) erfc(x) exp(x**2) = exp(E) w(i x) for Re x >= 0, else
            # 2 exp(E + x**2) - exp(E) w(-i x); E + x**2 is the same at both
            # ends, so that term survives only where the ends differ in sign
            sg0 = np.where(w0.real < 0, -1.0, 1.0)
            sg1 = np.where(w1.real < 0, -1.0, 1.0)
            blk = sg0 * e0 * wofz(1j * sg0 * w0) - sg1 * e1 * wofz(1j * sg1 * w1)
            rows, cols = np.nonzero((sg0 < 0) & (sg1 > 0))
            if rows.size:
                blk[rows, cols] += 2.0 * np.exp(
                    lam[rows] * u1[0, cols] + 0.5 * (sd * beta[rows, 0]) ** 2)
            blk *= (math.pi * sd * sd) ** -0.25 * sd * math.sqrt(0.5 * math.pi)
        elif pulse.shape is PulseShape.RISING_EXPONENTIAL:
            alpha = 1.0 / sd - 1j * om
            te = np.minimum(tt, c)
            blk = -(math.sqrt(2.0 / sd) * np.exp(alpha * (te - c))
                    * np.expm1((lam_c - alpha) * (te - t0)) / (alpha - lam_c)
                    * np.exp(lam_c * (tt - te)))
        else:
            alpha = -1.0 / sd - 1j * om
            lag = np.maximum(tt - c, 0.0)
            x = (alpha - lam_c) * lag
            with np.errstate(invalid="ignore", divide="ignore"):
                phi = np.where(x == 0, 1.0, np.expm1(x) / x)
            blk = math.sqrt(2.0 / sd) * lag * np.exp(lam_c * lag) * phi
        out[:, lo:lo + _BLOCK // 2] = blk
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
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        lk = np.conj(lam[lo:hi, None])
        kernel = 1.0 / (lk + lam[lo:])
        # within the diagonal block keep the upper triangle, the diagonal
        # at half weight, so that 2 Re sum covers every pair once
        kernel[:, :hi - lo] *= np.triu(np.ones((hi - lo, hi - lo)), 1) \
            + 0.5 * np.eye(hi - lo)
        hk = h[lo:hi]
        for i in range(3):
            if i == 0:
                w = p.kappa * np.conj(basis.a1[lo:hi, None]) * basis.a1[lo:]
            elif i == 1 and p.g1 > 0:
                w = p.gamma * np.conj(basis.bc[lo:hi, None]) * basis.bc[lo:]
            elif i == 2 and inv_t2 > 0:
                w = (np.conj(basis.ens_sum[lo:hi, None]) + basis.ens_sum[lo:]) \
                    / (lk + lam[lo:] + 2.0 * inv_t2)
                w *= 2.0 * inv_t2 * np.conj(basis.a2[lo:hi, None]) * basis.a2[lo:]
                diag = np.arange(hi - lo)
                w[diag, diag] = 2.0 * inv_t2 * basis.ens_norm[lo:hi]
            else:
                continue
            w *= kernel
            y = w @ h[lo:]
            phi[i] += 2.0 * (hk.real * y.real + hk.imag * y.imag).sum(axis=0)
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
                   scale: complex, times: np.ndarray, solver_tol: float,
                   store_ensemble: bool) -> SimulationTrace:
    basis = _modal_basis(p, ens)
    t0 = times[0]
    sqrtk = math.sqrt(p.kappa)
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    gaussian = pulse.shape is PulseShape.GAUSSIAN
    # an exponential pulse switches at its center, which the margin check
    # puts inside the span: sample the state there as well
    nodes = times if gaussian else np.union1d(times, [pulse.center])
    out = np.searchsorted(nodes, times)

    c = _drive_integrals(pulse, basis.lam, nodes, t0)
    c *= (scale * sqrtk * basis.drive)[:, None]
    a1, bc, a2 = basis.a1 @ c, basis.bc @ c, basis.a2 @ c
    pe, kept, last = _ensemble_at(basis, c, out if store_ensemble else None)
    if gaussian:
        losses = _hermite_losses(p, basis, c, nodes, pulse, scale, a1, bc, a2,
                                 pe, inv_t2)
    else:
        # a sum of exponentials on either side of the switching instant:
        # the driven side with the drive as one more coordinate, exact
        rising = pulse.shape is PulseShape.RISING_EXPONENTIAL
        alpha = (1.0 if rising else -1.0) / pulse.duration \
            - 1j * pulse.carrier_detuning
        amp = scale * math.sqrt(2.0 / pulse.duration)
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
    l_in = abs(scale) ** 2 * (_pulse_cdf(pulse, times) - _pulse_cdf(pulse, np.asarray(t0)))
    return _trace(p, ens, "storage", solver_tol, True, times,
                  a1[out], bc[out], a2[out], scale * pulse.amplitude(times),
                  pe[out], *losses[:, out], l_in, 0.0, kept, last)


def _hermite_losses(p: SystemParams, basis: _ModalBasis, c: np.ndarray,
                    nodes: np.ndarray, pulse: PulseSpec, scale: complex,
                    a1, bc, a2, pe, inv_t2: float) -> np.ndarray:
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
    ain = scale * pulse.amplitude(nodes)
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
    c = np.multiply.outer(basis.lam, elapsed)
    np.exp(c, out=c)
    c *= c0[:, None]

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
            kept += np.exp(np.multiply.outer(elapsed, node_poles)) * dark
    return _trace(p, ens, "retrieval", solver_tol, True, times, a1, bc, a2,
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
    input_scale: complex = 1.0,
    output_dt: float | None = None,
    extra_eval: tuple[float, ...] = (),
    store_ensemble: bool = True,
) -> SimulationTrace:
    """Drive the empty memory with a normalized input pulse.

    The span must contain the pulse with at least 5 durations of margin on
    each side so the stored probability has settled at the end.  Scaling
    `input_scale` scales the whole trace linearly (single excitation sector).
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
    return _modal_storage(p, ens, pulse, complex(input_scale), times,
                          solver_tol, store_ensemble)


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
    output waveform and the conjugated, time-mirrored input, maximized
    over a delay near 2*tau (a global phase drops out of the modulus).
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
    out_norm = float(np.trapezoid(np.abs(a_out) ** 2, t_out))

    def neg_overlap(t_mirror: float) -> float:
        ref = np.conj(pulse.amplitude(t_mirror - t_out))
        num = abs(np.trapezoid(np.conj(ref) * a_out, t_out)) ** 2
        den = float(np.trapezoid(np.abs(ref) ** 2, t_out)) * out_norm
        return -num / den if den > 0 else 0.0

    if out_norm > 0:
        res = minimize_scalar(neg_overlap, bounds=(echo_center - 2.0 * dt,
                                                   echo_center + 2.0 * dt),
                              method="bounded",
                              options={"xatol": 1e-4 * dt})
        fidelity = float(-res.fun)
    else:
        fidelity = 0.0

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


def transfer_function_probe(
    p: SystemParams,
    delta: float,
    *,
    n_sim: int = 801,
    span: float | None = None,
    solver_tol: float = 1e-9,
    hold: float = 140.0,
) -> ProbeResult:
    """Steady-state response ratios under a CW drive at detuning delta.

    Ramps a constant drive on smoothly, lets every pole settle, and reads
    the complex ratios a1/a_in and a2/a1.  Raises when the two late-time
    checkpoints disagree, which means the hold was too short.
    """
    ens = ensemble_for_params(p, n_sim=n_sim, span=span)
    w = 6.0 / p.kappa
    t_ramp = 5.0 * w
    t_end = t_ramp + hold / p.kappa

    def drive(t: float) -> complex:
        return 0.5 * (1.0 + math.tanh((t - t_ramp) / w)) * np.exp(-1j * delta * t)

    t_a = t_end - 25.0 / p.kappa
    trace = _integrate(p, ens, drive, (0.0, t_end),
                       y0_modes=np.zeros(ens.n, dtype=complex),
                       y0_fields=(0.0, 0.0, 0.0),
                       solver_tol=solver_tol, output_dt=None,
                       extra_eval=(t_a,), kind="probe", ledger_check=False)
    idx_a = int(np.searchsorted(trace.times, t_a))
    ratios = []
    for idx in (idx_a, len(trace.times) - 1):
        ain = trace.alpha_in[idx]
        a1 = trace.cavity1[idx]
        r1 = a1 / ain
        r21 = trace.cavity2[idx] / a1 if abs(a1) > 0 else 0.0j
        ratios.append((complex(r1), complex(r21)))
    (r1a, r21a), (r1b, r21b) = ratios
    if abs(r1a - r1b) > 1e-3 * max(abs(r1b), 1e-12):
        raise IntegrationError(
            f"probe did not reach steady state: a1/a_in moved {r1a} -> {r1b}")
    if abs(r21a - r21b) > 1e-3 * max(abs(r21b), 1e-12):
        raise IntegrationError(
            f"probe did not reach steady state: a2/a1 moved {r21a} -> {r21b}")
    return ProbeResult(cavity1_over_input=r1b, cavity2_over_cavity1=r21b)
