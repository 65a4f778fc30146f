"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible with -rA or on failure) and enforces its runtime budget where
one is part of the guarantee.  Heavy integrations come from the shared
session fixtures so the suite stays fast; their compute time is carried
alongside the results and checked here.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from echoqram.cli import parse_scenario_config, run_sweep
from echoqram.dynamics import PulseSpec, blockade_phase_check
from echoqram.params import check_matching, solve_matched_params
from echoqram.spectral import (blockade_reflection, matched_window,
                               resonant_efficiency, spectral_efficiency)
from echoqram.addressing import ControlState, run_addressing, AddressSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_matched_transfer(matched):
    t0 = time.perf_counter()
    eps = resonant_efficiency(matched)
    elapsed = time.perf_counter() - t0
    err = abs(eps - 1.0)
    ok = err < 1e-9 and elapsed < 1.0
    _report(1, "matched transfer", ok,
            f"resonant efficiency deviates from 1 by {err:.2e} "
            f"(bound 1e-9), {elapsed:.3f} s")


def test_criterion_02_flat_window(matched):
    t0 = time.perf_counter()
    rep = check_matching(matched)
    nu = np.linspace(-matched.kappa, matched.kappa, 2001)
    delta = float(np.max(np.abs(spectral_efficiency(nu, matched)
                                - matched_window(nu, matched.kappa))))
    elapsed = time.perf_counter() - t0
    ok = rep.all_matched and delta <= 0.02 and elapsed < 1.0
    _report(2, "flat spectral window", ok,
            f"max |efficiency - window| = {delta:.2e} over |nu| <= kappa "
            f"(bound 0.02), all three matching conditions hold: "
            f"{rep.all_matched}, {elapsed:.3f} s")


def test_criterion_03_blockade_numbers(blockade30):
    eps30 = resonant_efficiency(blockade30)
    eps300 = resonant_efficiency(solve_matched_params(1.0, 300.0))
    closed30 = (1.0 + 2.0 * 30.0) ** -2
    closed300 = (1.0 + 2.0 * 300.0) ** -2
    ok = (abs(eps30 / closed30 - 1.0) < 1e-12
          and abs(eps300 / closed300 - 1.0) < 1e-12
          and eps30 == pytest.approx(2.687e-4, rel=5e-4)
          and eps30 == pytest.approx(2.6e-4, rel=0.05)
          and eps300 == pytest.approx(2.77e-6, rel=5e-3)
          and eps300 == pytest.approx(3e-6, rel=0.10))
    _report(3, "blockade suppression numbers", ok,
            f"eps(0) C=30: {eps30:.4e} (closed form {closed30:.4e}, "
            f"text ~2.6e-4); C=300: {eps300:.3e} (closed form "
            f"{closed300:.3e}, text ~3e-6)")


def test_criterion_04_blockade_reflection(blockade30):
    got = abs(blockade_reflection(0.0, blockade30)) ** 2
    closed = (2.0 * 30.0 / (1.0 + 2.0 * 30.0)) ** 2
    ok = abs(got - closed) < 1e-9
    _report(4, "blockade reflection", ok,
            f"|reflection(0)|^2 = {got:.10f} vs closed form (2C/(1+2C))^2 "
            f"= {closed:.10f} at C=30; note: the prose figure 0.983 "
            "circulating for this quantity is inconsistent with the "
            "reflection formula itself, which gives 0.9675; this suite "
            "holds the formula")


def test_criterion_05_frequency_time_equivalence(matched, storage_cases):
    lines = []
    ok = True
    for dt, (trace, seconds) in sorted(storage_cases.items()):
        pulse = PulseSpec(duration=dt)
        lim = 30.0 / dt
        ref, _ = quad(lambda nu: spectral_efficiency(nu, matched)
                      * pulse.spectral_density(nu), -lim, lim,
                      points=[0.0], limit=800)
        got = trace.ensemble.probability
        rel = abs(got - ref) / ref
        ok = ok and rel <= 0.01 and seconds < 30.0
        lines.append(f"dt*kappa={dt:g}: time-domain {got:.6f} vs "
                     f"quadrature {ref:.6f} (rel {rel:.2e}), {seconds:.1f} s")
    _report(5, "frequency-time equivalence", ok, "; ".join(lines))


def test_criterion_06_echo_decay_law(echo_inf, echo_decay):
    echo0, sec0 = echo_inf
    lines = [f"T2=inf: fidelity {echo0.fidelity_time_reversed:.6f}, "
             f"{sec0:.1f} s"]
    ok = echo0.fidelity_time_reversed >= 0.99 and sec0 < 60.0
    for t2, (echo, seconds) in sorted(echo_decay.items()):
        expect = math.exp(-4.0 * echo.tau / t2)
        rel = abs(echo.echo_probability - expect) / expect
        ok = ok and rel <= 0.02 and seconds < 60.0
        lines.append(f"tau/T2={echo.tau / t2:g}: P={echo.echo_probability:.6f} "
                     f"vs exp law {expect:.6f} (rel {rel:.2e}), {seconds:.1f} s")
    _report(6, "echo decay law", ok,
            "matched transfer both ways, pulse bandwidth 0.1*kappa; "
            + "; ".join(lines))


def test_criterion_07_blockade_echo(blockade_cycle, blockade30):
    echo, seconds = blockade_cycle
    elapsed = echo.t_final - echo.tau  # pulse centered at 0
    chk = blockade_phase_check(blockade30, echo.ens_final, echo.ens_stored,
                               echo.tau, elapsed)
    ok = (echo.echo_probability < 0.0023
          and abs(chk.phase - math.pi) <= 0.1
          and chk.magnitude_ratio >= 0.95
          and seconds < 60.0)
    _report(7, "blockade echo suppression", ok,
            f"read stage C=30: P_echo={echo.echo_probability:.3e} "
            f"(bound 2.3e-3), coherence phase off pi by "
            f"{abs(chk.phase - math.pi):.4f} rad (bound 0.1), magnitude "
            f"ratio {chk.magnitude_ratio:.4f} (bound 0.95), {seconds:.1f} s")


def test_criterion_08_echo_vs_duration_sweep():
    text = (CONFIG_DIR / "echo_sweep_t2.json").read_text()
    cfg = parse_scenario_config(text, source="echo_sweep_t2.json")
    t0 = time.perf_counter()
    pts = run_sweep(cfg, workers=1)
    elapsed = time.perf_counter() - t0

    curves: dict = {}
    for r in pts:
        curves.setdefault(r["curve_value"], []).append(
            (r["value"], r["echo_probability"]))
    for series in curves.values():
        series.sort()
    p100 = [p for _, p in curves[100.0]]
    p1k = [p for _, p in curves[1000.0]]
    p10k = [p for _, p in curves[10000.0]]
    durations = [v for v, _ in curves[10000.0]]

    i_max = int(np.argmax(p100))
    interior = 0 < i_max < len(p100) - 1
    dominated = all(b >= a - 1e-9 for a, b in zip(p100, p1k)) and \
        all(b >= a - 1e-9 for a, b in zip(p1k, p10k))
    at_ten = p10k[durations.index(10.0)]
    ok = interior and dominated and at_ten > 0.9 and elapsed < 600.0
    _report(8, "echo vs duration sweep", ok,
            f"T2*kappa=100 peaks inside the grid at dt*kappa="
            f"{durations[i_max]:g} (P={p100[i_max]:.3f}); longer T2 curves "
            f"dominate pointwise: {dominated}; P(T2*kappa=1e4, dt*kappa=10)="
            f"{at_ten:.4f} > 0.9; 27 points in {elapsed:.1f} s")


def test_criterion_09_unitarity_ledger(storage_cases, echo_inf, echo_decay,
                                       blockade_cycle):
    worst = 0.0
    runs = 0
    tol = 1e-9  # solver tolerance used by every fixture

    def scan(residual, bound):
        nonlocal worst, runs
        worst = max(worst, residual)
        runs += 1
        return residual <= bound

    ok = True
    for trace, _ in storage_cases.values():
        ok = ok and scan(trace.max_ledger_residual, 10.0 * tol)
    for echo, _ in (echo_inf, blockade_cycle, *echo_decay.values()):
        ok = ok and scan(echo.max_ledger_residual, 10.0 * tol)
    _report(9, "unitarity ledger", ok,
            f"{runs} integrations, worst |in - (system+out+losses)| "
            f"= {worst:.2e} at every output step (bound 10*tol = 1e-8)")


def test_criterion_10_addressing_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260821)
    checked = 0
    ok = True
    details = []
    for m in range(1, 9):
        raw = rng.normal(size=m) + 1j * rng.normal(size=m)
        amps = tuple(raw / np.linalg.norm(raw))
        addr = AddressSpec(amplitudes=amps)
        state = run_addressing(m, addr)
        ok = ok and abs(state.norm - 1.0) <= 1e-12
        ok = ok and len(state.terms) == m
        for t in state.terms:
            k = next(i for i, c in enumerate(t.cells, start=1) if c == 0)
            ok = ok and abs(t.amplitude - (-amps[k - 1])) < 1e-12
            ok = ok and t.control is ControlState.G
            ok = ok and t.emitted == frozenset({f"psi_in[{k}]", f"psi_a[{k}]"})
            bystanders = [c for i, c in enumerate(t.cells, start=1) if i != k]
            ok = ok and all(abs(c + 1.0) < 1e-12 for c in bystanders)
            # pairing rule: an emitted address photon always rides with
            # the payload of the same index, never another cell's
            a_bins = {int(s[6:-1]) for s in t.emitted if s.startswith("psi_a")}
            p_bins = {int(s[7:-1]) for s in t.emitted if s.startswith("psi_in")}
            ok = ok and a_bins == p_bins == {k}
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(10, "addressing identity", ok,
            f"M=1..8 with random address amplitudes: {checked} branches all "
            f"match the closed form (-alpha_n, bystander pi phases, paired "
            f"photons), norms within 1e-12, {elapsed:.3f} s")
