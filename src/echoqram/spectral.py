"""Closed-form frequency response of the coupled-cavity echo memory.

Conventions: frequencies are detunings from the cavity resonance, in the
same units as kappa.  The broadened ensemble enters through

    G(nu)       = delta_in / (pi * (nu**2 + delta_in**2))          (Lorentzian line)
    Gt(delta)   = integral dnu G(nu) / (eps + i*(nu - delta)),  eps -> 0+

For the Lorentzian the response integral has the closed form
Gt(delta) = 1 / (delta_in - i*delta).

The storage transfer function of an input photon component at detuning
delta into the ensemble coherence is

    F(delta) = f2**2 / ((N*g2**2*Gt - i*delta)
               * (kappa/2 + i*g1**2/(delta - delta_c + i*gamma/2) - i*delta)
               + f2**2)

and the spectral storage efficiency is
eps(delta) = 2*pi*N*kappa*(g2/f2)**2 * G(delta) * |F(delta)|**2.

Each closed form is homogeneous in the rates.  F and the reflection,
which are dimensionless, are evaluated in units of kappa, where
POLE_GUARD applies; G and Gt, which carry the dimension of an inverse
rate, in units of delta_in, and scaled back.  So the same line at kappa =
1e-100 or 1e100 gives the values of kappa = 1 on the scaled grid.
"""

from __future__ import annotations

import numpy as np

from .params import SystemParams, ParameterError, cooperativities

#: denominators smaller than this, in units of kappa, are treated as poles
#: and replaced by limits
POLE_GUARD = 1e-30


def _per(x, rate: float) -> np.ndarray:
    """x in units of rate, as a float array (0-d for a scalar x, so that a
    scalar takes numpy's arithmetic as a grid does)."""
    return np.asarray(np.asarray(x, dtype=float) / rate)


def lorentzian_lineshape(nu, delta_in: float):
    """Normalized Lorentzian line of half width delta_in."""
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    x = _per(nu, delta_in)
    out = 1.0 / (np.pi * (x ** 2 + 1.0)) / delta_in
    return out if out.ndim else float(out)


def broadened_response(delta, delta_in: float):
    """Closed form of the broadened ensemble response, 1/(delta_in - i*delta).

    Satisfies Gt(0) = 1/delta_in, Gt(-delta) = conj(Gt(delta)), and
    |Gt| -> 1/|delta| far from line center.
    """
    if delta_in <= 0:
        raise ParameterError(f"delta_in must be positive, got {delta_in}")
    x = _per(delta, delta_in)
    out = 1.0 / (1.0 - 1j * x) / delta_in
    return out if out.ndim else complex(out)


def _in_kappa_units(p: SystemParams) -> SystemParams:
    """p with every rate divided by kappa, so kappa = 1."""
    k = p.kappa
    return p.with_(kappa=1.0, gamma=p.gamma / k, g1=p.g1 / k, g2=p.g2 / k,
                   f2=p.f2 / k, delta_in=p.delta_in / k, delta_c=p.delta_c / k)


def _divide(num, den, limit):
    """num / den, and `limit` where den is not finite or is a pole."""
    bad = ~np.isfinite(den) | (np.abs(den) < POLE_GUARD)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(bad, limit, num / np.where(bad, 1.0, den))


def _atom_term(delta, p: SystemParams):
    """g1**2 / (delta - delta_c + i*gamma/2), infinite at its pole."""
    return _divide(p.g1 ** 2, delta - p.delta_c + 0.5j * p.gamma, np.inf)


def storage_transfer(delta, p: SystemParams):
    """Transfer function F(delta) from input photon to ensemble coherence.

    Poles at grid points (possible only in lossless corners such as
    gamma -> 0 with delta = delta_c) return the limiting value 0.
    """
    delta = _per(delta, p.kappa)
    p = _in_kappa_units(p)
    gt = 1.0 / (p.delta_in - 1j * delta)
    ensemble_factor = p.collective_coupling * gt - 1j * delta
    cavity_factor = p.kappa / 2.0 + 1j * _atom_term(delta, p) - 1j * delta
    out = _divide(p.f2 ** 2, ensemble_factor * cavity_factor + p.f2 ** 2, 0j)
    return out if out.ndim else complex(out)


def check_coupled(p: SystemParams) -> None:
    """Refuse uncoupled cavities (f2 = 0), for which eps is undefined."""
    if p.f2 == 0:
        raise ParameterError("spectral efficiency undefined for f2 = 0")


def spectral_efficiency(delta, p: SystemParams):
    """Storage efficiency density ratio eps(delta), dimensionless in [0, 1]."""
    check_coupled(p)
    delta = np.asarray(delta, dtype=float)
    f = storage_transfer(delta, p)
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


def blockade_reflection(nu, p: SystemParams):
    """Reflection coefficient of the loaded input cavity.

    f_Bl(nu) = i*kappa / (nu + i*kappa/2 - g1**2/(nu - delta_c + i*gamma/2)
               - f2**2/(nu + i*N*g2**2*Gt(nu))) - 1

    An exact pole of the atom term (gamma = 0, nu = delta_c) gives the
    limit -1: the atom reflects everything.
    """
    nu = _per(nu, p.kappa)
    p = _in_kappa_units(p)
    gt = 1.0 / (p.delta_in - 1j * nu)
    ens_term = _divide(p.f2 ** 2, nu + 1j * p.collective_coupling * gt, np.inf)
    den = nu + 0.5j * p.kappa - _atom_term(nu, p) - ens_term
    out = _divide(1j * p.kappa, den, 0j) - 1.0
    return out if out.ndim else complex(out)

