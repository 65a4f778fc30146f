"""Closed-form frequency response of the coupled-cavity echo memory.

Conventions: frequencies are detunings from the cavity resonance, in the
same units as kappa.  The broadened ensemble enters through

    G(nu)       = delta_in / (pi * (nu**2 + delta_in**2))          (Lorentzian line)
    Gt(delta)   = integral dnu G(nu) / (eps + i*(nu - delta)),  eps -> 0+

For the Lorentzian the response integral has the closed form
Gt(delta) = 1 / (delta_in - i*delta); `broadened_response_quadrature`
keeps the defining integral available as a numerical cross-check.

The storage transfer function of an input photon component at detuning
delta into the ensemble coherence is

    F(delta) = f2**2 / ((N*g2**2*Gt - i*delta)
               * (kappa/2 + i*g1**2/(delta - delta_c + i*gamma/2) - i*delta)
               + f2**2)

and the spectral storage efficiency is
eps(delta) = 2*pi*N*kappa*(g2/f2)**2 * G(delta) * |F(delta)|**2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import quad, IntegrationWarning

from .params import SystemParams, ParameterError, cooperativities

#: denominators smaller than this are treated as poles and replaced by limits
POLE_GUARD = 1e-30


def lorentzian_lineshape(nu, delta_in: float):
    """Normalized Lorentzian line of half width delta_in."""
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    nu = np.asarray(nu, dtype=float)
    out = delta_in / (np.pi * (nu ** 2 + delta_in ** 2))
    return out if out.ndim else float(out)


def broadened_response(delta, delta_in: float):
    """Closed form of the broadened ensemble response, 1/(delta_in - i*delta).

    Satisfies Gt(0) = 1/delta_in, Gt(-delta) = conj(Gt(delta)), and
    |Gt| -> 1/|delta| far from line center.
    """
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    delta = np.asarray(delta, dtype=float)
    out = 1.0 / (delta_in - 1j * delta)
    return out if out.ndim else complex(out)


def broadened_response_quadrature(
    delta: float, delta_in: float, epsilon: float = 1e-6
) -> complex:
    """Direct numerical quadrature of the defining response integral.

    Diagnostics route only: slow, scalar, used to validate the closed form.
    The regulator epsilon must stay small against delta_in; the integrand
    develops a peak of width epsilon at nu = delta, so that neighborhood
    is integrated on its own panel.
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


def _atom_term(delta, p: SystemParams):
    """g1**2 / (delta - delta_c + i*gamma/2), with infinities preserved."""
    den = delta - p.delta_c + 0.5j * p.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(den) < POLE_GUARD, np.inf, p.g1 ** 2 / np.where(
            np.abs(den) < POLE_GUARD, 1.0, den))
    return out


def storage_transfer(delta, p: SystemParams, diagnostics: dict | None = None):
    """Transfer function F(delta) from input photon to ensemble coherence.

    Poles at grid points (possible only in lossless corners such as
    gamma -> 0 with delta = delta_c) return the limiting value 0 and are
    counted in `diagnostics` when a dict is passed.
    """
    delta = np.asarray(delta, dtype=float)
    gt = 1.0 / (p.delta_in - 1j * delta)
    ensemble_factor = p.collective_coupling * gt - 1j * delta
    cavity_factor = p.kappa / 2.0 + 1j * _atom_term(delta, p) - 1j * delta
    den = ensemble_factor * cavity_factor + p.f2 ** 2
    bad = ~np.isfinite(den) | (np.abs(den) < POLE_GUARD)
    if diagnostics is not None:
        diagnostics["pole_points"] = int(np.count_nonzero(bad))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(bad, 0.0 + 0.0j, p.f2 ** 2 / np.where(bad, 1.0, den))
    return out if out.ndim else complex(out)


def spectral_efficiency(delta, p: SystemParams, diagnostics: dict | None = None):
    """Storage efficiency density ratio eps(delta), dimensionless in [0, 1]."""
    if p.f2 == 0:
        raise ParameterError("spectral efficiency undefined for f2 = 0")
    delta = np.asarray(delta, dtype=float)
    f = storage_transfer(delta, p, diagnostics)
    g = lorentzian_lineshape(delta, p.delta_in)
    out = (2.0 * np.pi * p.n_atoms * p.kappa * (p.g2 / p.f2) ** 2
           * g * np.abs(f) ** 2)
    return out if out.ndim else float(out)


def resonant_efficiency(p: SystemParams) -> float:
    """Line-center storage efficiency in terms of the cooperativities.

    eps(0) = 4*C_pm / ((1 + C_pm + gamma**2*C/(delta_c**2 + (gamma/2)**2))**2
             + (2*delta_c*gamma*C/(delta_c**2 + (gamma/2)**2))**2)

    With the control atom decoupled (g1 = 0) this reduces to
    4*C_pm/(1+C_pm)**2; with delta_c = 0 it is the blockade branch
    4*C_pm/(1+C_pm+4*C)**2.
    """
    c = cooperativities(p)
    lor = p.delta_c ** 2 + (p.gamma / 2.0) ** 2
    x = p.gamma ** 2 * c.c_atom / lor
    y = 2.0 * p.delta_c * p.gamma * c.c_atom / lor
    return 4.0 * c.c_pm / ((1.0 + c.c_pm + x) ** 2 + y ** 2)


def matched_window(nu, kappa: float):
    """Flat-top efficiency window 1/(1 + (nu/(kappa/2))**6) of the matched memory."""
    if kappa <= 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    nu = np.asarray(nu, dtype=float)
    out = 1.0 / (1.0 + (nu / (kappa / 2.0)) ** 6)
    return out if out.ndim else float(out)


def blockade_reflection(nu, p: SystemParams, diagnostics: dict | None = None):
    """Reflection coefficient of the loaded input cavity.

    f_Bl(nu) = i*kappa / (nu + i*kappa/2 - g1**2/(nu - delta_c + i*gamma/2)
               - f2**2/(nu + i*N*g2**2*Gt(nu))) - 1

    An exact pole of the atom term (gamma = 0, nu = delta_c) gives the
    limit -1: the atom reflects everything.
    """
    nu = np.asarray(nu, dtype=float)
    gt = 1.0 / (p.delta_in - 1j * nu)
    ens_den = nu + 1j * p.collective_coupling * gt
    atom = _atom_term(nu, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ens_term = np.where(np.abs(ens_den) < POLE_GUARD, np.inf,
                            p.f2 ** 2 / np.where(np.abs(ens_den) < POLE_GUARD, 1.0, ens_den))
    den = nu + 0.5j * p.kappa - atom - ens_term
    bad = ~np.isfinite(den) | (np.abs(den) < POLE_GUARD)
    if diagnostics is not None:
        diagnostics["pole_points"] = int(np.count_nonzero(bad))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(bad, -1.0 + 0.0j,
                       1j * p.kappa / np.where(bad, 1.0, den) - 1.0)
    return out if out.ndim else complex(out)


def blockade_response_factor(nu, kappa: float):
    """Collective reabsorption factor J(nu) = kappa*(kappa - 2i*nu) / (kappa**2 - 4i*kappa*nu - 8*nu**2)."""
    nu = np.asarray(nu, dtype=float)
    out = kappa * (kappa - 2j * nu) / (kappa ** 2 - 4j * kappa * nu - 8.0 * nu ** 2)
    return out if out.ndim else complex(out)


def echo_probability_narrowband(p: SystemParams, tau: float) -> float:
    """Echo retrieval probability for a narrowband pulse, transfer read stage.

    P = 16*C_pm**2 * exp(-4*tau/T2) / (1 + C_pm)**4
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    c = cooperativities(p)
    decay = 0.0 if math.isinf(p.t2) else 4.0 * tau / p.t2
    return 16.0 * c.c_pm ** 2 * math.exp(-decay) / (1.0 + c.c_pm) ** 4


# ------------------------------------------------------------------ grid types

class SpectrumKind(str, Enum):
    PHOTON_SPECTRUM = "photon_spectrum"
    EFFICIENCY_REAL = "efficiency_real"


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing detuning grid; `spacing` is set when uniform."""

    points: np.ndarray
    spacing: float | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ParameterError("grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("grid points must be strictly increasing")

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.points, -self.points[::-1],
                                rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(self.points))))))

    @classmethod
    def uniform(cls, span: float = 8.0, n: int = 4096, center: float = 0.0) -> "FrequencyGrid":
        """Uniform grid of n points covering center +- span (default |nu| <= 8)."""
        if span <= 0 or n < 2:
            raise ParameterError("uniform grid needs span > 0 and n >= 2")
        pts = np.linspace(center - span, center + span, n)
        return cls(points=pts, spacing=float(pts[1] - pts[0]))


@dataclass(frozen=True)
class ComplexSpectrum:
    """Values over a frequency grid with a label naming what they are."""

    grid: FrequencyGrid
    values: np.ndarray
    kind: SpectrumKind
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise ParameterError("values and grid must have matching shape")
        if self.kind is SpectrumKind.EFFICIENCY_REAL:
            if np.any(np.abs(vals.imag) > 0):
                raise ParameterError("efficiency spectrum must be real")
            re = vals.real
            if np.any(re < -1e-12) or np.any(re > 1.0 + 1e-9):
                raise ParameterError("efficiency values must lie in [0, 1 + 1e-9]")

    def l2_norm_sq(self) -> float:
        """Trapezoid integral of |values|**2 over the grid."""
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid.points))


def echo_spectrum(
    input_spectrum: ComplexSpectrum,
    p_store: SystemParams,
    p_read: SystemParams,
    tau: float,
    t: float | None = None,
) -> ComplexSpectrum:
    """Spectral amplitude of the retrieved echo after detuning inversion at tau.

    alpha(nu) = -2*pi*kappa*N*(g2/f2)**2 * G(nu) * F_store(-nu) * F_read(nu)
                * alpha_in(-nu) * exp(-i*nu*(t - 2*tau)) * exp(-2*tau/T2)

    The default observation time t = 2*tau drops the translation phase.
    The input spectrum must be unit-normalized on a symmetric grid, since
    the echo inverts the spectrum around line center.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if input_spectrum.kind is not SpectrumKind.PHOTON_SPECTRUM:
        raise ParameterError("echo_spectrum expects a photon_spectrum input")
    if not input_spectrum.grid.is_symmetric:
        raise ParameterError("echo_spectrum needs a symmetric frequency grid")
    norm = input_spectrum.l2_norm_sq()
    if abs(norm - 1.0) > 1e-6:
        raise ParameterError(f"input spectrum norm**2 = {norm}, expected 1 within 1e-6")
    if p_store.f2 == 0 or p_read.f2 == 0:
        raise ParameterError("echo spectrum undefined for f2 = 0")
    nu = input_spectrum.grid.points
    t_obs = 2.0 * tau if t is None else t
    f_store_rev = storage_transfer(-nu, p_store)
    f_read = storage_transfer(nu, p_read)
    g = lorentzian_lineshape(nu, p_store.delta_in)
    alpha_rev = input_spectrum.values[::-1]  # alpha_in(-nu) on a symmetric grid
    decay = 1.0 if math.isinf(p_store.t2) else math.exp(-2.0 * tau / p_store.t2)
    prefac = 2.0 * np.pi * p_store.kappa * p_store.n_atoms * (p_store.g2 / p_store.f2) ** 2
    vals = (-prefac * g * f_store_rev * f_read * alpha_rev
            * np.exp(-1j * nu * (t_obs - 2.0 * tau)) * decay)
    meta = {"tau": tau, "t": t_obs, "total_probability":
            float(np.trapezoid(np.abs(vals) ** 2, nu))}
    return ComplexSpectrum(grid=input_spectrum.grid, values=vals,
                           kind=SpectrumKind.PHOTON_SPECTRUM, meta=meta)
