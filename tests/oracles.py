"""Independent numerical routes the tests compare the package against.

integrate: adaptive DOP853 integration of the full equations of motion,
the oracle of the modal propagator and of the CW probe.
transfer_function_probe: the steady state under a CW drive, one O(n)
solve through the arrowhead, the check of the discrete line against the
continuum's closed forms.
dense_generator: the generator A of the equations of motion as a dense
matrix, whose LAPACK eigenvalues check the Aberth solve of the modes.
echo_spectrum: the retrieved echo's spectral amplitude from the closed
storage transfer functions, the frequency-domain route to the echo
probability.
echo_probability_narrowband: the closed law 16*C_pm**2*exp(-4*tau/T2) /
(1 + C_pm)**4 of a narrowband pulse's echo, the check of both routes.
broadened_response_quadrature: direct quadrature of the regulated line
integral that spectral.broadened_response evaluates in closed form.
drive_integral_quadrature: adaptive quadrature of one mode's convolution
with the input pulse, which the storage drive evaluates by recurrence;
gaussian_drive_closed_form: the same convolutions for a Gaussian pulse
through the Faddeeva function.  All need scipy, which only the tests
depend on.
echo_probability_quadrature: the echo probability as a direct
Gauss-Legendre integral of kappa |a1|**2 between the retrieval's samples,
the check of the loss ledger's quadrature.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from echoqram.dynamics import (AtomEnsemble, IntegrationError, PulseShape,
                               PulseSpec, SimulationTrace, _check_coupled,
                               _modal_basis, _mode_coordinates,
                               _node_operator, _output_times, _trace,
                               ensemble_for_params, invert_detunings)
from echoqram.params import ParameterError, SystemParams, cooperativities
from echoqram.spectral import lorentzian_lineshape, storage_transfer


def integrate(
    p: SystemParams,
    ens: AtomEnsemble,
    drive: Callable[[float], complex] | None,
    t_span: tuple[float, float],
    y0_modes: np.ndarray,
    y0_fields: tuple[complex, complex, complex],
    solver_tol: float,
    output_dt: float | None,
    kind: str = "storage",
) -> SimulationTrace:
    """Adaptive DOP853 integration of the full equations with a running
    ledger; every Runge-Kutta stage costs one Python call of the
    right-hand side."""
    t_eval = _output_times(t_span, output_dt)
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
    pe = np.sum(np.abs(b) ** 2, axis=0)
    losses = sol.y[3 + n:7 + n].real
    # the ledger closes at every output time, from the integrated populations
    residual = (np.abs(a1) ** 2 + np.abs(bc) ** 2 + np.abs(a2) ** 2 + pe
                + losses[0] + losses[1] + losses[2]) - (losses[3] + p0)
    return _trace(p, ens, kind, solver_tol, sol.t, a1, bc, a2, ain, pe,
                  *losses, p0, b[:, -1], sol.t, residual)


def dense_generator(p: SystemParams, ens: AtomEnsemble) -> np.ndarray:
    """dy/dt = A y on (a1, bc, a2, b_1 .. b_n) without the drive, as a dense
    matrix; bc is left out when the control atom is uncoupled (g1 = 0)."""
    n = ens.n
    inv_t2 = 0.0 if math.isinf(p.t2) else 1.0 / p.t2
    g = np.sqrt(p.collective_coupling * ens.weights)
    a = np.zeros((n + 3, n + 3), dtype=complex)
    a[0, 0] = -0.5 * p.kappa
    a[0, 1] = a[1, 0] = -1j * p.g1
    a[0, 2] = a[2, 0] = -1j * p.f2
    a[1, 1] = -(1j * p.delta_c + 0.5 * p.gamma)
    a[2, 3:] = a[3:, 2] = -1j * g
    a[3:, 3:][np.diag_indices(n)] = -(1j * ens.detunings + inv_t2)
    if p.g1 == 0:
        a = np.delete(np.delete(a, 1, axis=0), 1, axis=1)
    return a


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


def echo_spectrum(nu: np.ndarray, alpha_in: np.ndarray, p_store: SystemParams,
                  p_read: SystemParams, tau: float) -> np.ndarray:
    """Spectral amplitude of the echo retrieved at 2*tau after detuning
    inversion at tau, for the input amplitude alpha_in on the grid nu.

    alpha(nu) = -2*pi*kappa*N*(g2/f2)**2 * G(nu) * F_store(-nu) * F_read(nu)
                * alpha_in(-nu) * exp(-2*tau/T2)

    The echo inverts the spectrum around line center, so nu must be
    symmetric, and alpha_in must have unit norm on it.
    """
    scale = max(1.0, float(np.max(np.abs(nu))))
    if not np.allclose(nu, -nu[::-1], rtol=0.0, atol=1e-12 * scale):
        raise ParameterError("echo_spectrum needs a symmetric frequency grid")
    norm = float(np.trapezoid(np.abs(alpha_in) ** 2, nu))
    if abs(norm - 1.0) > 1e-6:
        raise ParameterError(f"input spectrum norm**2 = {norm}, expected 1 within 1e-6")
    decay = 1.0 if math.isinf(p_store.t2) else math.exp(-2.0 * tau / p_store.t2)
    prefac = (2.0 * np.pi * p_store.kappa * p_store.n_atoms
              * (p_store.g2 / p_store.f2) ** 2)
    return (-prefac * lorentzian_lineshape(nu, p_store.delta_in)
            * storage_transfer(-nu, p_store) * storage_transfer(nu, p_read)
            * alpha_in[::-1] * decay)


def echo_probability_narrowband(p: SystemParams, tau: float) -> float:
    """Echo retrieval probability for a narrowband pulse, transfer read stage.

    P = 16*C_pm**2 * exp(-4*tau/T2) / (1 + C_pm)**4
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    c = cooperativities(p)
    decay = 0.0 if math.isinf(p.t2) else 4.0 * tau / p.t2
    return 16.0 * c.c_pm ** 2 * math.exp(-decay) / (1.0 + c.c_pm) ** 4


def broadened_response_quadrature(
    delta: float, delta_in: float, epsilon: float = 1e-6
) -> complex:
    """Direct numerical quadrature of the defining response integral.

    Slow and scalar.  The regulator epsilon must stay small against
    delta_in; the integrand develops a peak of width epsilon at
    nu = delta, so that neighborhood is integrated on its own panel.
    """
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    if not (0 < epsilon < delta_in):
        raise ParameterError("epsilon must satisfy 0 < epsilon < delta_in")

    def integrand_re(nu):
        g = delta_in / (math.pi * (nu * nu + delta_in * delta_in))
        return g * epsilon / (epsilon ** 2 + (nu - delta) ** 2)

    def integrand_im(nu):
        g = delta_in / (math.pi * (nu * nu + delta_in * delta_in))
        return -g * (nu - delta) / (epsilon ** 2 + (nu - delta) ** 2)

    span = 2e3 * delta_in + 10 * abs(delta)
    w = min(1e5 * epsilon, 0.3 * delta_in)
    edges = sorted({-span, delta - w, delta + w, span})
    peak_pts = [delta - 10 * epsilon, delta, delta + 10 * epsilon]
    re = im = 0.0
    with warnings.catch_warnings():
        # far panels converge like 1/nu**2 and trip quad's heuristic
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            pts = [x for x in peak_pts if a < x < b] or None
            r, _ = quad(integrand_re, a, b, points=pts, limit=800)
            i, _ = quad(integrand_im, a, b, points=pts, limit=800)
            re += r
            im += i
    return complex(re, im)


def drive_integral_quadrature(pulse: PulseSpec, lam: complex, t0: float,
                              t: float) -> complex:
    """integral from t0 to t of exp(lam (t - s)) a_in(s) ds, scalar.

    The integrand is g(s) exp(i (phi - w s)) with the real g(s) =
    env(s) exp(Re(lam) (t - s)) and w = Im(lam) + carrier_detuning, so
    quad's Fourier-weighted rule takes the oscillation however fast it
    is.  The range is split at an exponential pulse's switching instant
    and starts where exp(Re(lam) (t - s)) has fallen to e**-40, below
    rounding of the rest.
    """
    om = pulse.carrier_detuning
    w = lam.imag + om
    phase = lam.imag * t + om * pulse.center

    def g(s):
        return pulse.envelope(s) * math.exp(lam.real * (t - s))

    start = t0 if lam.real == 0 else max(t0, t + 40.0 / lam.real)
    edges = {start, t}
    if pulse.shape is not PulseShape.GAUSSIAN and start < pulse.center < t:
        edges.add(pulse.center)
    edges = sorted(edges)
    total = 0j
    with warnings.catch_warnings():
        # the tolerance sits at rounding level, where quad reports roundoff
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            re, _ = quad(g, a, b, weight="cos", wvar=w, limit=400,
                         epsabs=1e-15, epsrel=1e-13)
            im, _ = quad(g, a, b, weight="sin", wvar=w, limit=400,
                         epsabs=1e-15, epsrel=1e-13)
            total += re - 1j * im
    return cmath.exp(1j * phase) * total


def gaussian_drive_closed_form(pulse: PulseSpec, lam: np.ndarray,
                               t: np.ndarray) -> np.ndarray:
    """integral from t[0] to t of exp(lam (t - s)) a_in(s) ds for a
    Gaussian pulse, every mode and sample.

    Completing the square gives N sd sqrt(pi/2) exp(lam (t - c))
    (G(u0) - G(u)) with u = t - c, beta = lam + i om and G(u) =
    exp(sd**2 beta**2 / 2) erfc((u + sd**2 beta) / (sd sqrt 2)), written
    with wofz on the upper half plane: exp(-u**2 / 2 sd**2 - u beta) w(i a)
    for Re a >= 0, else 2 exp(sd**2 beta**2 / 2) minus the mirrored term.
    No factor overflows while sd**2 Re(beta**2) / 2 and Re(lam) (t - c)
    stay moderate.
    """
    from scipy.special import wofz

    sd, c, om = pulse.duration, pulse.center, pulse.carrier_detuning
    beta = (lam + 1j * om)[:, None]
    lead = lam[:, None] * (t - c)

    def g_scaled(u):
        # exp(lam (t - c)) G(u)
        a = (u + sd * sd * beta) / (sd * math.sqrt(2.0))
        sign = np.where(a.real >= 0, 1.0, -1.0)
        term = (sign * np.exp(lead - u * u / (2 * sd * sd) - u * beta)
                * wofz(1j * sign * a))
        return term + (sign < 0) * 2.0 * np.exp(lead + 0.5 * (sd * beta) ** 2)

    norm = (math.pi * sd * sd) ** -0.25 * sd * math.sqrt(0.5 * math.pi)
    return norm * (g_scaled(t[0] - c) - g_scaled(t - c))


def echo_probability_quadrature(p_read: SystemParams, ens_stored: AtomEnsemble,
                                t_inv: float, times: np.ndarray) -> float:
    """integral of kappa |a1|**2 from times[0] to times[-1] in the
    retrieval that starts from invert_detunings(ens_stored) at t_inv.

    a1(t) = sum_k a1_k c_k exp(lam_k (t - t_inv)) in the modes of the
    read stage, with c the mode coordinates of the initial state.  Each
    interval between consecutive times takes a 16-point Gauss-Legendre
    rule, far inside rounding for the intervals a cycle samples, so the
    result checks the ledger's quadrature and not the propagation.

    c is the full-mode solve refined, and a1 summed over the modes, in
    extended precision (np.longdouble): at cond(V) ~ 2e6 (n_sim = 1601,
    span 10) the solve and the sum each leave up to about 1e-12 of the
    probability in double precision, the size of the differences this
    route is asked to resolve.  Each node's exponential is its interval's
    start times a node factor of the interval's length.
    """
    ens = invert_detunings(ens_stored)
    basis = _modal_basis(p_read, ens)
    ext = np.clongdouble
    lam, a2, g = basis.lam.astype(ext), basis.a2.astype(ext), basis.g.astype(ext)
    poles = basis.poles.astype(ext)
    fields = np.array([basis.a1, basis.bc, basis.a2]).astype(ext)
    y = np.concatenate((np.zeros(3), ens.coherences)).astype(ext)
    op, _ = _node_operator(basis, False)
    c = _mode_coordinates(basis, op, np.zeros(3, dtype=complex),
                          ens.coherences, False).astype(ext)
    # two steps c += V^T (y - V c), the Cauchy rows a block at a time
    for _ in range(2):
        step = (y[:3] - fields @ c) @ fields
        for lo in range(0, basis.g.size, 128):
            rows = -1j * g[lo:lo + 128, None] * a2 / (lam - poles[lo:lo + 128, None])
            step += (y[3 + lo:3 + lo + 128] - rows @ c) @ rows
        c += step
    x, w = np.polynomial.legendre.leggauss(16)
    h = np.diff(times)
    lengths, which = np.unique(h, return_inverse=True)
    factors = np.exp(np.multiply.outer(
        np.multiply.outer(lengths, 0.5 * (x + 1.0)).astype(np.longdouble), lam))
    amp = fields[0] * c
    total = np.longdouble(0.0)
    for lo in range(0, h.size, 128):
        start = np.exp(np.multiply.outer(
            (times[lo:lo + 128] - t_inv).astype(np.longdouble), lam)) * amp
        for j, length in enumerate(lengths):
            sel = which[lo:lo + 128] == j
            if np.any(sel):
                a1 = start[:h.size - lo][sel] @ factors[j].T
                total += np.sum((0.5 * length * w).astype(np.longdouble)
                                * (a1.real ** 2 + a1.imag ** 2))
    return p_read.kappa * float(total)
