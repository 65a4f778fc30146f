"""System parameters, cooperativities, and impedance-matching checks.

All rates share one unit convention: the decay rate of the input cavity
(kappa) is the unit, so kappa = 1.0 by default and every other rate is
quoted relative to it.

This module uses no numpy, so it also holds what the CLI reads from the
other layers before it runs one: the pulse shapes, the fewest nodes a
line may have and the errors the layers raise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, replace
from enum import Enum
from typing import NamedTuple


class ParameterError(ValueError):
    """Physically invalid or inconsistent system parameters; `arg` names
    the argument of the rule that refused them, when the rule names one."""

    def __init__(self, message: str, arg: str | None = None):
        super().__init__(message)
        self.arg = arg


class IntegrationError(RuntimeError):
    """Solver failure or conservation-ledger violation."""


class ProtocolError(RuntimeError):
    """Operation applied outside the protocol's phase discipline."""


class PulseShape(str, Enum):
    GAUSSIAN = "gaussian"
    RISING_EXPONENTIAL = "rising_exponential"
    DECAYING_EXPONENTIAL = "decaying_exponential"


#: fewest quadrature nodes a discretized line may have
MIN_N_SIM = 16
#: most quadrature nodes a config may ask for: a stage's node operator
#: holds 8 n**2 bytes folded or 16 n**2 complex, 1 GiB at this bound
MAX_N_SIM = 8192
#: most samples of a grid: a spectra grid's n, a stage's output times.  A
#: stage peaks at its node operator, plus its output arrays (about 200
#: bytes per output sample, 200 MB at this bound), plus one block of 128
#: samples by (modes + nodes), whatever the length of its grid
MAX_SAMPLES = 10**6
#: most time bins of an address register: a run holds M**2 cell factors.
#: An `address` command with equal amplitudes peaked at 54, 115 and 357 MB
#: in 0.44, 0.70 and 1.8 s at M = 256, 512 and 1024 (2-core x86-64 Linux,
#: Python 3.11), so about 1.4 GB at this bound
MAX_BINS = 2048
#: the probability ledger's tolerance, and all it bounds: a stage whose
#: ledger drifts beyond 10 x SOLVER_TOL is refused.  Storage and
#: retrieval are exact in the mode basis, so it sets no step size
SOLVER_TOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Rates of the two-cavity memory in a frame rotating with the carrier.

    kappa     : input cavity decay rate (the unit)
    gamma     : control atom energy relaxation rate
    g1        : control atom coupling to the input cavity
    g2        : single-atom coupling of the ensemble to the second cavity
    f2        : coupling between the two cavities
    n_atoms   : physical ensemble size N; only N*g2**2 enters the dynamics
    delta_in  : half width of the Lorentzian inhomogeneous line
    delta_c   : control atom detuning (0 engages the blockade)
    t2        : ensemble phase relaxation time, may be math.inf
    """

    kappa: float
    gamma: float
    g1: float
    g2: float
    f2: float
    n_atoms: int
    delta_in: float
    delta_c: float = 0.0
    t2: float = math.inf

    def __post_init__(self) -> None:
        # every check is written so that NaN and inf fail it
        for name in ("kappa", "gamma", "delta_in"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        for name in ("g1", "g2", "f2"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        if not (1 <= self.n_atoms < math.inf and self.n_atoms % 1 == 0):
            raise ParameterError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        # an integral float is stored as the int it equals, so that equal
        # parameter sets share one provenance digest
        object.__setattr__(self, "n_atoms", int(self.n_atoms))
        if not (self.t2 > 0):
            raise ParameterError(f"t2 must be positive (math.inf allowed), got {self.t2}")
        if not math.isfinite(self.delta_c):
            raise ParameterError(f"delta_c must be finite, got {self.delta_c}")

    @property
    def collective_coupling(self) -> float:
        """N*g2**2, the only combination of N and g2 the dynamics sees."""
        return self.n_atoms * self.g2 ** 2

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["t2"] = "inf" if math.isinf(self.t2) else self.t2
        return d


class Cooperativities(NamedTuple):
    c_atom: float   # g1**2 / (kappa * gamma)
    c_pm: float     # 2 * f2**2 * delta_in / (kappa * N * g2**2)


def cooperativities(p: SystemParams) -> Cooperativities:
    """Single-atom cooperativity and the photonic-molecule cooperativity.

    The second cavity feeds the broadened ensemble at rate N*g2**2/delta_in,
    so the molecule cooperativity is

        C_pm = f2**2 / (kappa * N*g2**2 / (2*delta_in))
    """
    if p.g2 == 0:
        raise ParameterError("c_pm undefined for g2 = 0 (no ensemble coupling)")
    c_atom = p.g1 ** 2 / (p.kappa * p.gamma)
    c_pm = 2.0 * p.f2 ** 2 * p.delta_in / (p.kappa * p.collective_coupling)
    return Cooperativities(c_atom=c_atom, c_pm=c_pm)


def second_condition_target(p: SystemParams) -> float:
    """Matched value of N*g2**2/delta_in: delta_in*(kappa/2)/(delta_in + kappa/2)."""
    return p.delta_in * (p.kappa / 2.0) / (p.delta_in + p.kappa / 2.0)


@dataclass(frozen=True)
class MatchingReport:
    """Residuals of the three impedance-matching conditions.

    Conditions, in order: C_pm = 1; N*g2**2/delta_in equals the matched
    feed rate; delta_in = kappa/2.  A condition is matched when its
    residual is at most `tolerance`.
    """

    c_pm_residual: float
    second_condition_residual: float
    third_condition_residual: float
    tolerance: float

    @property
    def c_pm_matched(self) -> bool:
        return self.c_pm_residual <= self.tolerance

    @property
    def second_condition_matched(self) -> bool:
        return self.second_condition_residual <= self.tolerance

    @property
    def third_condition_matched(self) -> bool:
        return self.third_condition_residual <= self.tolerance

    @property
    def all_matched(self) -> bool:
        return (self.c_pm_matched and self.second_condition_matched
                and self.third_condition_matched)

    def to_dict(self) -> dict:
        return {
            "c_pm_residual": self.c_pm_residual,
            "c_pm_matched": self.c_pm_matched,
            "second_condition_residual": self.second_condition_residual,
            "second_condition_matched": self.second_condition_matched,
            "third_condition_residual": self.third_condition_residual,
            "third_condition_matched": self.third_condition_matched,
            "all_matched": self.all_matched,
            "tolerance": self.tolerance,
        }


def check_matching(p: SystemParams, tol: float = 1e-9) -> MatchingReport:
    """Evaluate the three matching residuals without modifying anything.

    The first residual is |C_pm - 1| (absolute), the second is the relative
    residual of the feed-rate condition, the third is |delta_in - kappa/2|/kappa.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    c = cooperativities(p)
    target = second_condition_target(p)
    second = abs(p.collective_coupling / p.delta_in - target) / target
    third = abs(p.delta_in - p.kappa / 2.0) / p.kappa
    return MatchingReport(
        c_pm_residual=abs(c.c_pm - 1.0),
        second_condition_residual=second,
        third_condition_residual=third,
        tolerance=tol,
    )


def solve_matched_params(
    kappa: float,
    c_atom_target: float,
    *,
    gamma: float | None = None,
    n_atoms: int = 1000,
    delta_c: float = 0.0,
    t2: float = math.inf,
) -> SystemParams:
    """Construct a parameter set satisfying all three matching conditions.

    delta_in = kappa/2 fixes the line width, the feed-rate condition then
    pins N*g2**2 = kappa**2/8, and C_pm = 1 pins f2.  The control atom
    coupling realizes the requested single-atom cooperativity with the
    given gamma (default gamma = kappa); c_atom_target = 0 decouples it.
    """
    if kappa <= 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if c_atom_target < 0:
        raise ParameterError(f"c_atom_target must be >= 0, got {c_atom_target}")
    if not (n_atoms >= 1 and float(n_atoms).is_integer()):
        raise ParameterError(f"n_atoms must be a positive integer, got {n_atoms}")
    if gamma is None:
        gamma = kappa
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    delta_in = kappa / 2.0
    ng2sq = delta_in ** 2 * (kappa / 2.0) / (delta_in + kappa / 2.0)
    f2 = math.sqrt(kappa * ng2sq / (2.0 * delta_in))
    g1 = math.sqrt(c_atom_target * kappa * gamma)
    g2 = math.sqrt(ng2sq / n_atoms)
    p = SystemParams(
        kappa=kappa, gamma=gamma, g1=g1, g2=g2, f2=f2,
        n_atoms=n_atoms, delta_in=delta_in, delta_c=delta_c, t2=t2,
    )
    report = check_matching(p, tol=1e-12)
    if not (report.c_pm_matched and report.second_condition_matched
            and report.third_condition_matched):
        raise ParameterError(f"matched solve failed self-check: {report.to_dict()}")
    return p


def params_digest(p: SystemParams) -> str:
    """Short stable hash identifying a parameter set in exported artifacts."""
    blob = json.dumps(p.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
