"""Independent numerical routes the tests compare the package against.

integrate: adaptive DOP853 integration of the full equations of motion,
the oracle of the modal propagator and of the CW probe.
echo_spectrum: the retrieved echo's spectral amplitude from the closed
storage transfer functions, the frequency-domain route to the echo
probability.
broadened_response_quadrature: direct quadrature of the regulated line
integral that spectral.broadened_response evaluates in closed form.
drive_integral_quadrature: adaptive quadrature of one mode's convolution
with the input pulse, which the storage drive evaluates by recurrence;
gaussian_drive_closed_form: the same convolutions for a Gaussian pulse
through the Faddeeva function.  All need scipy, which only the tests
depend on.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from echoqram.dynamics import (AtomEnsemble, IntegrationError, PulseShape,
                               PulseSpec, SimulationTrace, _check_tol,
                               _output_times, _trace)
from echoqram.params import ParameterError, SystemParams
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
    extra_eval: tuple[float, ...] = (),
    kind: str = "storage",
) -> SimulationTrace:
    """Adaptive DOP853 integration of the full equations with a running
    ledger; every Runge-Kutta stage costs one Python call of the
    right-hand side."""
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
    return _trace(p, ens, kind, solver_tol, sol.t,
                  a1, bc, a2, ain, np.sum(np.abs(b) ** 2, axis=0),
                  sol.y[3 + n].real, sol.y[4 + n].real, sol.y[5 + n].real,
                  sol.y[6 + n].real, p0, b.T.copy(), b[:, -1])


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
