import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from echoqram import cli, dynamics
from echoqram.cli import main, parse_scenario_config, run_sweep
from echoqram.params import (ParameterError, params_digest,
                             solve_matched_params)
from echoqram.dynamics import (AtomEnsemble, IntegrationError, PulseShape,
                               PulseSpec, blockade_phase_check,
                               discretize_ensemble, ensemble_for_params,
                               integrate_retrieval, integrate_storage,
                               invert_detunings, run_echo_cycle)
from echoqram.spectral import (blockade_reflection, broadened_response,
                               spectral_efficiency, storage_transfer)
from oracles import (dense_generator, drive_integral_quadrature,
                     echo_probability_quadrature, gaussian_drive_closed_form,
                     integrate, transfer_function_probe)

REPO = Path(__file__).resolve().parents[1]


def cauchy_rows(basis):
    """Every node's row of V over every mode, from the Cauchy form
    V_mk = -i g_m a2_k / (lam_k - D_m), built here at once."""
    return -1j * basis.g[:, None] * basis.a2 / (basis.lam - basis.poles[:, None])


def expand(basis, c):
    """Every mode's coordinates from the representatives of a
    mirror-conjugate state: c_k' = -flip_k conj(c_k)."""
    k = basis.lam.size - c.shape[0]
    flip = basis.flip[:k].reshape((k,) + (1,) * (c.ndim - 1))
    return np.concatenate((c, -flip * np.conj(c[:k])))


def unit_plan(pulse, lam, t):
    """The drive plan of the samples t with unit gain: the recurrence then
    gives the bare convolutions."""
    return dynamics._drive_plan(pulse, lam, t, np.ones(lam.size))


ALL_SHAPES = [PulseShape.GAUSSIAN, PulseShape.RISING_EXPONENTIAL,
              PulseShape.DECAYING_EXPONENTIAL]


class TestPulses:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_unit_time_norm(self, shape):
        pulse = PulseSpec(shape=shape, duration=3.0, center=1.0)
        norm, _ = quad(lambda t: abs(pulse.amplitude(t)) ** 2, -40.0, 40.0,
                       points=[1.0], limit=400)
        assert norm == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_unit_spectral_norm(self, shape):
        # the exponential spectra are Lorentzian, so the finite window
        # holds exactly (2/pi)*atan(L*dt) of the mass; the Gaussian's
        # tails are gone entirely at L*dt = 120
        pulse = PulseSpec(shape=shape, duration=2.0, carrier_detuning=0.3)
        half = 60.0
        norm, _ = quad(pulse.spectral_density, 0.3 - half, 0.3 + half,
                       points=[0.3], limit=800)
        if shape is PulseShape.GAUSSIAN:
            expect = 1.0
        else:
            expect = 2.0 / math.pi * math.atan(half * pulse.duration)
        assert norm == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    @pytest.mark.parametrize("nu", [0.0, 0.13, -0.7])
    def test_spectral_amplitude_dual_route(self, shape, nu):
        # closed form against direct Fourier quadrature of the time trace
        pulse = PulseSpec(shape=shape, duration=4.0, center=2.0,
                          carrier_detuning=-0.2)
        re, _ = quad(lambda t: (pulse.amplitude(t)
                                * np.exp(1j * nu * t)).real,
                     -80.0, 80.0, points=[2.0], limit=800)
        im, _ = quad(lambda t: (pulse.amplitude(t)
                                * np.exp(1j * nu * t)).imag,
                     -80.0, 80.0, points=[2.0], limit=800)
        direct = complex(re, im) / math.sqrt(2.0 * math.pi)
        assert pulse.spectral_amplitude(nu) == pytest.approx(direct, rel=1e-6)

    def test_carrier_phase(self):
        pulse = PulseSpec(duration=2.0, center=1.0, carrier_detuning=0.5)
        got = pulse.amplitude(3.0)
        expect = pulse.envelope(3.0) * np.exp(-1j * 0.5 * 2.0)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_shape_from_string(self):
        assert PulseSpec(shape="rising_exponential").shape \
            is PulseShape.RISING_EXPONENTIAL

    @pytest.mark.parametrize("kw", [
        dict(duration=0.0), dict(duration=-1.0), dict(duration=math.inf),
        dict(center=math.nan), dict(carrier_detuning=math.inf)])
    def test_rejects(self, kw):
        with pytest.raises(ParameterError):
            PulseSpec(**kw)

    @pytest.mark.parametrize("shape", [None, 0, "square"])
    def test_unknown_shape_refused(self, shape):
        # a value that is not a member would run as a decaying exponential
        with pytest.raises(ParameterError, match="unknown pulse shape") as err:
            PulseSpec(shape=shape)
        assert err.value.arg == "shape"

    @pytest.mark.parametrize("shape", ALL_SHAPES[1:])
    def test_exponential_envelope_far_from_center(self, shape):
        # 1e4 durations on either side: exp of the dark side's exponent
        # would overflow, which the suite's warning filter turns into a
        # failure
        pulse = PulseSpec(shape=shape, duration=5.0, center=1.0)
        s = pulse.center + pulse.duration * np.array([-1e4, 1e4])
        assert np.array_equal(pulse.envelope(s), [0.0, 0.0])
        assert np.array_equal(pulse.amplitude(s), [0.0, 0.0])


class TestDiscretization:
    def test_quantile_weights_and_nodes(self):
        ens = discretize_ensemble(101, 0.5)
        assert np.all(ens.weights == ens.weights[0])  # exactly uniform
        assert ens.weights[0] == pytest.approx(1.0 / 101, rel=1e-14)
        assert np.all(np.diff(ens.detunings) >= 0)
        assert np.max(np.abs(ens.detunings)) <= 40.0 * 0.5
        # interior nodes sit at the exact line quantiles
        k = 50  # median
        assert ens.detunings[k] == pytest.approx(0.0, abs=1e-12)
        k = 75
        expect = 0.5 * math.tan(math.pi * ((k + 0.5) / 101 - 0.5))
        assert ens.detunings[k] == pytest.approx(expect, rel=1e-12)
        # symmetric grid (steep tangent near the edges needs rtol)
        assert np.allclose(ens.detunings, -ens.detunings[::-1],
                           rtol=1e-9, atol=1e-12)

    def test_quantile_winsorized_tails(self):
        ens = discretize_ensemble(1001, 1.0, span=20.0)
        assert ens.detunings[0] == -20.0
        assert ens.detunings[-1] == 20.0
        assert np.sum(ens.weights) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n_sim, span, nodes", [(801, None, 791),
                                                    (401, 10.0, 391)])
    def test_clipped_tails_merge_into_edge_nodes(self, n_sim, span, nodes):
        ens = discretize_ensemble(n_sim, 0.5, span=span)
        edge = 20.0 if span is None else span
        u = (np.arange(n_sim) + 0.5) / n_sim
        clipped = np.count_nonzero(0.5 * np.tan(np.pi * (u - 0.5)) >= edge)
        assert ens.n == nodes == n_sim - 2 * (clipped - 1)
        assert np.all(np.diff(ens.detunings) > 0)
        assert ens.detunings[0] == -edge and ens.detunings[-1] == edge
        assert ens.weights[0] == ens.weights[-1]
        assert ens.weights[0] == pytest.approx(clipped / n_sim, rel=1e-15)
        assert np.all(ens.weights[1:-1] == ens.weights[1])
        assert ens.weights[1] == pytest.approx(1.0 / n_sim, rel=1e-15)
        assert np.sum(ens.weights) == pytest.approx(1.0, abs=1e-15)

    def test_equal_detunings_refused(self):
        with pytest.raises(ParameterError, match="strictly ascending"):
            AtomEnsemble(detunings=np.array([0.0, 1.0, 1.0]),
                         weights=np.full(3, 1.0 / 3.0),
                         coherences=np.zeros(3, complex))

    @pytest.mark.parametrize("call", [
        lambda: discretize_ensemble(8, 0.5),
        lambda: discretize_ensemble(64, 0.0),
        lambda: discretize_ensemble(64, 0.5, span=5.0),
        lambda: discretize_ensemble(64, 0.5, span=math.nan),
        lambda: discretize_ensemble(64, math.nan),
    ])
    def test_rejects(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("n_sim", [64.5, math.nan, math.inf])
    def test_non_integral_n_sim_refused(self, n_sim):
        with pytest.raises(ParameterError, match="n_sim"):
            discretize_ensemble(n_sim, 0.5)

    def test_ensemble_validation(self):
        with pytest.raises(ParameterError):
            AtomEnsemble(detunings=np.array([1.0, 0.0]),
                         weights=np.array([0.5, 0.5]),
                         coherences=np.zeros(2, complex))
        with pytest.raises(ParameterError):
            AtomEnsemble(detunings=np.array([0.0, 1.0]),
                         weights=np.array([0.5, 0.6]),
                         coherences=np.zeros(2, complex))
        with pytest.raises(ParameterError):
            AtomEnsemble(detunings=np.array([0.0, 1.0]),
                         weights=np.array([0.5, 0.5]),
                         coherences=np.zeros(3, complex))

    @pytest.mark.parametrize("field, value", [
        ("detunings", [0.0, math.nan]),
        ("detunings", [math.nan, math.nan]),
        ("weights", [0.5, math.nan]),
        ("weights", [math.nan, math.nan]),
        ("delta_in", math.nan),
        ("delta_in", math.inf),
    ])
    def test_ensemble_refuses_nan(self, field, value):
        good = dict(detunings=np.array([0.0, 1.0]),
                    weights=np.array([0.5, 0.5]),
                    coherences=np.zeros(2, complex), delta_in=1.0)
        AtomEnsemble(**good)
        with pytest.raises(ParameterError):
            AtomEnsemble(**{**good, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_ensemble_refuses_non_finite_coherences(self, value):
        # retrieval from such a state ended in "mode basis cannot resolve
        # the state" after a RuntimeWarning
        with pytest.raises(ParameterError, match="coherences"):
            AtomEnsemble(detunings=np.array([0.0, 1.0]),
                         weights=np.array([0.5, 0.5]),
                         coherences=np.array([0.5, value]))

    def test_for_params_carries_line(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        assert ens.delta_in == matched.delta_in
        assert invert_detunings(ens).delta_in == matched.delta_in

    def test_invert_is_involution(self):
        ens = discretize_ensemble(33, 0.5)
        rng = np.random.default_rng(7)
        ens = ens.with_coherences(rng.normal(size=33) + 1j * rng.normal(size=33))
        back = invert_detunings(invert_detunings(ens))
        assert np.array_equal(back.detunings, ens.detunings)
        assert np.array_equal(back.coherences, ens.coherences)
        flipped = invert_detunings(ens)
        # node at +d moves to -d with its coherence riding along
        assert flipped.detunings[0] == -ens.detunings[-1]
        assert flipped.coherences[0] == ens.coherences[-1]


class TestStorage:
    def test_mode_amplitude_oracle(self, matched):
        # frozen analytic form of each stored mode amplitude at time t
        # after driving with alpha_in:
        #   b_j(t) = -sqrt(N*w_j) * sqrt(2*pi*kappa) * (g2/f2)
        #            * F(Delta_j) * alpha_spec(Delta_j) * exp(-i*Delta_j*t)
        # (T2 = inf; overall sign fixed against the integrator once)
        pulse = PulseSpec(duration=10.0)
        tau = 60.0
        ens = ensemble_for_params(matched, n_sim=801)
        trace = integrate_storage(matched, ens, pulse, (-60.0, tau))
        d = ens.detunings
        pref = -math.sqrt(2.0 * math.pi * matched.kappa) \
            * np.sqrt(matched.n_atoms * ens.weights) \
            * (matched.g2 / matched.f2)
        analytic = (pref * storage_transfer(d, matched)
                    * pulse.spectral_amplitude(d) * np.exp(-1j * d * tau))
        num = trace.ensemble.coherences
        err = np.max(np.abs(num - analytic)) / np.max(np.abs(analytic))
        assert err < 1e-5

    def test_probability_vs_spectral_overlap(self, matched, storage_cases):
        # time-domain integration against the frequency-domain overlap
        # integral of efficiency times spectral density (dual route)
        trace, _ = storage_cases[5.0]
        pulse = PulseSpec(duration=5.0)
        ref, _ = quad(lambda nu: spectral_efficiency(nu, matched)
                      * pulse.spectral_density(nu), -6.0, 6.0,
                      points=[0.0], limit=800)
        assert trace.ensemble.probability == pytest.approx(ref, rel=1e-3)

    def test_ledger_residual_small(self, storage_cases):
        for dt, (trace, _) in storage_cases.items():
            assert trace.max_ledger_residual < 1e-10, f"duration {dt}"

    def test_energy_accounting_closes(self, storage_cases):
        trace, _ = storage_cases[10.0]
        lhs = (trace.p_cavity1[-1] + trace.p_control[-1] + trace.p_cavity2[-1]
               + trace.p_ensemble[-1] + trace.out_flux_integral[-1]
               + trace.control_loss_integral[-1] + trace.t2_loss_integral[-1])
        assert lhs == pytest.approx(trace.in_flux_integral[-1], abs=1e-9)

    def test_margin_validation(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            integrate_storage(matched, ens, PulseSpec(duration=10.0),
                              (-10.0, 10.0))

    def test_grid_line_mismatch(self, matched):
        # the nodes discretize delta_in alone: a stage on another line is
        # refused, whatever its coupling
        ens = ensemble_for_params(matched, n_sim=64)
        other = matched.with_(delta_in=0.7)
        with pytest.raises(ParameterError, match="delta_in = 0.5"):
            integrate_storage(other, ens, PulseSpec(duration=5.0),
                              (-30.0, 30.0))
        with pytest.raises(ParameterError, match="params carry 0.7"):
            run_echo_cycle(matched, other, ens, PulseSpec(duration=5.0), 25.0)
        stronger = matched.with_(g2=2.0 * matched.g2)
        trace = integrate_storage(stronger, ens, PulseSpec(duration=5.0),
                                  (-30.0, 30.0))
        assert trace.ensemble.delta_in == matched.delta_in

    def test_far_center_refused(self, matched):
        # ulp(1e17) is 16, above the output step 0.15: the storage ran and
        # failed its ledger by 36 instead
        ens = ensemble_for_params(matched, n_sim=64)
        c = 1e17
        with pytest.raises(ParameterError, match="pulse center") as exc:
            integrate_storage(matched, ens, PulseSpec(duration=5.0, center=c),
                              (c - 30.0, c + 30.0))
        assert exc.value.arg == "center"

    @pytest.mark.parametrize("drift, refused", [(5e-9, False), (5e-8, True)])
    def test_ledger_bound_is_ten_solver_tol(self, matched, monkeypatch, drift,
                                            refused):
        # the stage refuses at the bound acceptance criterion 9 and the
        # benchmark hold every run to, 10 x SOLVER_TOL = 1e-8: an input
        # ledger that drifts by 5e-8 after the first sample is refused
        inner = dynamics._pulse_cdf
        monkeypatch.setattr(dynamics, "_pulse_cdf", lambda pulse, t: inner(
            pulse, t) + np.where(t > t[0], drift, 0.0))
        ens = ensemble_for_params(matched, n_sim=64)
        pulse = PulseSpec(duration=5.0)
        if refused:
            with pytest.raises(IntegrationError, match=r"> 10\*1e-09"):
                integrate_storage(matched, ens, pulse, (-30.0, 30.0))
        else:
            trace = integrate_storage(matched, ens, pulse, (-30.0, 30.0))
            assert trace.max_ledger_residual == pytest.approx(drift, rel=1e-2)

    def test_retrieval_needs_coherence(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            integrate_retrieval(matched, ens, (0.0, 10.0))

    @pytest.mark.parametrize("span", [(0.0, math.inf), (-math.inf, 0.0),
                                      (0.0, math.nan), (1.0, 1.0)])
    def test_retrieval_refuses_its_span(self, matched, span):
        # the span is the fault, not the default step it would imply
        ens = ensemble_for_params(matched, n_sim=64)
        loaded = ens.with_coherences(np.sqrt(ens.weights))
        with pytest.raises(ParameterError, match="must be finite and nonempty"):
            integrate_retrieval(matched, loaded, span)


class TestEchoCycle:
    def test_matched_echo(self, echo_inf):
        echo, _ = echo_inf
        assert echo.echo_probability > 0.999
        assert echo.fidelity_time_reversed > 0.9995
        assert echo.storage_probability == pytest.approx(1.0, abs=2e-4)
        w_lo, w_hi = echo.echo_window
        assert w_lo <= 2.0 * echo.tau <= w_hi

    def test_echo_peaks_at_two_tau(self, echo_inf):
        echo, _ = echo_inf
        t_peak = echo.output_times[np.argmax(np.abs(echo.output_waveform))]
        assert abs(t_peak - 2.0 * echo.tau) < 2.0

    def test_traces_attached(self, echo_inf):
        echo, _ = echo_inf
        assert echo.storage_trace is not None
        assert echo.retrieval_trace is not None
        assert echo.storage_trace.kind == "storage"
        assert echo.retrieval_trace.kind == "retrieval"

    def test_decay_follows_t2_law(self, echo_decay, echo_inf):
        p_inf = echo_inf[0].echo_probability
        for t2, (echo, _) in echo_decay.items():
            expect = p_inf * math.exp(-4.0 * echo.tau / t2)
            assert echo.echo_probability == pytest.approx(expect, rel=0.02), \
                f"T2 = {t2}"

    def test_tau_too_small(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            run_echo_cycle(matched, matched, ens, PulseSpec(duration=10.0),
                           20.0)

    @pytest.mark.parametrize("center", [-40.0, 25.0, 100.0])
    def test_fidelity_follows_pulse_center(self, matched, center):
        # the mirrored pulse lines up with the echo at 2*center + 2*tau, so
        # moving the pulse moves nothing but the time axis
        p = matched.with_(t2=1e4)
        ens = ensemble_for_params(p, n_sim=401)

        def fidelity(c):
            return run_echo_cycle(p, p, ens, PulseSpec(duration=10.0, center=c),
                                  50.0).fidelity_time_reversed

        assert fidelity(center) == pytest.approx(fidelity(0.0), abs=1e-9)

    def test_sweep_retrieval_grids_have_one_step(self, matched):
        # the committed sweep's durations: its dt/40 grid must not gain an
        # interval from rounding, nor a sliver next to the echo window.
        # 256 nodes keep the line's revival period above the echo time at
        # every duration, so that each cycle is resolved and passes its
        # ledger
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_sweep_t2.json").read_text())
        ens = ensemble_for_params(matched, n_sim=256, span=cfg.span)
        for dt in cfg.sweep.values:
            echo = run_echo_cycle(matched, matched, ens, PulseSpec(duration=dt),
                                  cfg.sweep.tau_over_duration * dt)
            times = echo.retrieval_trace.times
            steps = np.diff(times)
            assert np.all(np.abs(steps - dt / 40.0) <= 1e-12 * dt), dt
            assert set(echo.echo_window) <= set(times.tolist()), dt

    def test_echo_window_on_an_uneven_grid(self, matched):
        # 40 tau / duration = 213.2 is not whole: the retrieval grid keeps
        # its uniform step and the window is the samples within +-6
        # durations of the echo, both ends among them
        ens = ensemble_for_params(matched, n_sim=201)
        echo = run_echo_cycle(matched, matched, ens, PulseSpec(duration=10.0),
                              53.3)
        times = echo.retrieval_trace.times
        steps = np.diff(times)
        assert np.max(steps) - np.min(steps) <= 1e-12 * 10.0
        w_lo, w_hi = echo.echo_window
        assert w_lo == times[0] == echo.output_times[0]
        assert w_hi == echo.output_times[-1] in times
        assert 166.6 - steps[0] < w_hi <= 166.6
        # the echo probability when the window's ends were inserted into
        # the grid as extra samples
        assert echo.echo_probability == pytest.approx(0.9997619141499298,
                                                      rel=1e-12)

    @pytest.mark.parametrize("n_sim", [1201, 1601])
    def test_fine_grid_short_pulse_passes_its_ledger(self, matched, n_sim):
        # this keeps free evolution on the closed-form _propagator: the
        # drive recurrence seeded with the start and given no pulse missed
        # the direct integral by 6.1e-12 at n_sim = 1201, since its per-step
        # rounding is uncorrelated across modes and V c amplifies it by
        # cond(V), 9e5 here
        ens = ensemble_for_params(matched, n_sim=n_sim, span=10.0)
        echo = run_echo_cycle(matched, matched, ens, PulseSpec(duration=1.0),
                              5.0)
        assert echo.retrieval_trace.max_ledger_residual <= 1e-11
        direct = echo_probability_quadrature(matched, echo.ens_stored, 5.0,
                                             echo.output_times)
        assert abs(echo.echo_probability - direct) <= 1e-12

    def test_sweep_echo_is_the_direct_integral(self, matched):
        # the sweep's worst point for the Gram form of the output integral,
        # which missed the direct integral by 1.05e-11
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_sweep_t2.json").read_text())
        p = matched.with_(t2=1e4)
        tau = cfg.sweep.tau_over_duration
        ens = ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span)
        echo = run_echo_cycle(p, p, ens, PulseSpec(duration=1.0), tau)
        direct = echo_probability_quadrature(p, echo.ens_stored, tau,
                                             echo.output_times)
        assert abs(echo.echo_probability - direct) <= 1e-13

    def test_under_resolved_line_refused(self, matched):
        # 128 nodes revive at half the echo time: the cycle returned
        # P_echo 0.478 where the converged value is 0.820
        p = matched.with_(t2=1e4)
        ens = ensemble_for_params(p, n_sim=128, span=10.0)
        with pytest.raises(IntegrationError, match="ledger violated on retrieval"):
            run_echo_cycle(p, p, ens, PulseSpec(duration=100.0), 500.0)

    @pytest.mark.parametrize("output_dt", [0.0, -1.0, math.nan, math.inf])
    def test_bad_output_step_refused(self, matched, output_dt):
        ens = ensemble_for_params(matched, n_sim=64)
        loaded = ens.with_coherences(np.full(ens.n, 1.0 / math.sqrt(ens.n)))
        with pytest.raises(ParameterError, match="output_dt"):
            integrate_retrieval(matched, loaded, (0.0, 10.0),
                                output_dt=output_dt)


class TestGrids:
    """storage_grid and cycle_grids decide a run's sample grids, and refuse
    them, for the parser and the stages alike."""

    @pytest.mark.parametrize("name", ["echo_matched.json",
                                      "echo_sweep_t2.json"])
    def test_stages_run_the_checked_grids(self, name):
        cfg = parse_scenario_config((REPO / "configs" / name).read_text())
        point = (cfg.params, cfg.read_params or cfg.params, cfg.pulse, cfg.tau)
        if cfg.sweep is not None:
            point = list(cli._sweep_points(cfg))[-1][1]
        p_store, p_read, pulse, tau = point
        ens = ensemble_for_params(p_store, n_sim=cfg.n_sim, span=cfg.span)
        echo = run_echo_cycle(p_store, p_read, ens, pulse, tau)
        grids = dynamics.cycle_grids(pulse, tau)
        assert len(grids) == 2
        for trace, grid in zip((echo.storage_trace, echo.retrieval_trace),
                               grids):
            assert np.array_equal(trace.times, dynamics._output_times(*grid))

    def test_default_storage_span(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        pulse = PulseSpec(duration=5.0, center=7.5)
        default = integrate_storage(matched, ens, pulse)
        explicit = integrate_storage(matched, ens, pulse, (-22.5, 37.5))
        for name in ("times", "cavity1", "control", "cavity2", "alpha_out",
                     "p_ensemble", "out_flux_integral", "t2_loss_integral",
                     "ledger_times", "ledger_residual"):
            assert np.array_equal(getattr(default, name),
                                  getattr(explicit, name)), name
        assert np.array_equal(default.ensemble.coherences,
                              explicit.ensemble.coherences)

    @pytest.mark.parametrize("run, arg, message", [
        (lambda p, e: run_echo_cycle(p, p, e, PulseSpec(duration=10.0), 20.0),
         "tau", "tau = 20.0 too small: need >= 5 pulse durations (50.0) "
                "after the pulse center"),
        (lambda p, e: run_echo_cycle(p, p, e, PulseSpec(duration=10.0),
                                     math.nan),
         "tau", "tau = nan too small: need >= 5 pulse durations (50.0) "
                "after the pulse center"),
        (lambda p, e: integrate_storage(p, e, PulseSpec(duration=10.0),
                                        (-10.0, 10.0)),
         "t_span", "pulse centered at 0.0 (duration 10.0) needs >= 5 "
                   "durations of margin inside span (-10.0, 10.0)"),
        (lambda p, e: integrate_storage(p, e, PulseSpec(duration=10.0),
                                        (math.nan, 60.0)),
         "t_span", "pulse centered at 0.0 (duration 10.0) needs >= 5 "
                   "durations of margin inside span (nan, 60.0)"),
        (lambda p, e: run_echo_cycle(p, p, e, PulseSpec(duration=1.0), 1e5),
         "tau", "output grid over (-6.0, 100000.0) at step 0.0333333 needs "
                "3.00018e+06 steps: it must be finite and hold at most "
                "1000000 samples"),
        (lambda p, e: integrate_storage(p, e, PulseSpec(duration=5.0),
                                        (-30.0, 2e5)),
         "t_span", "output grid over (-30.0, 200000.0) at step 0.166667 "
                   "needs 1.20018e+06 steps: it must be finite and hold at "
                   "most 1000000 samples"),
        (lambda p, e: integrate_storage(p, e, PulseSpec(duration=5e-324)),
         "duration", "output grid over (-3e-323, 3e-323) at step 0 needs "
                     "inf steps: it must be finite and hold at most 1000000 "
                     "samples"),
        (lambda p, e: run_echo_cycle(p, p, e, PulseSpec(duration=5e-324),
                                     25.0),
         "duration", "output grid over (-3e-323, 25.0) at step 0 needs inf "
                     "steps: it must be finite and hold at most 1000000 "
                     "samples"),
        (lambda p, e: integrate_storage(p, e, PulseSpec(duration=5.0,
                                                        center=1e17)),
         "center", "pulse center 1e+17 rounds by 16, not below the output "
                   "step 0.16: the grid cannot resolve times around it"),
        (lambda p, e: run_echo_cycle(p, p, e, PulseSpec(duration=5.0,
                                                        center=1e17), 25.0),
         "center", "pulse center 1e+17 rounds by 16, not below the output "
                   "step 0.125: the grid cannot resolve times around it"),
    ], ids=["delay", "nan-delay", "margin", "nan-margin", "tau-samples",
            "t_span-samples", "storage-duration", "cycle-duration",
            "storage-center", "cycle-center"])
    def test_refusals_through_the_stages(self, matched, run, arg, message):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError) as exc:
            run(matched, ens)
        assert (str(exc.value), exc.value.arg) == (message, arg)


class TestBlockadePhase:
    def test_pi_phase_and_magnitude(self, blockade_cycle, blockade30):
        echo, _ = blockade_cycle
        elapsed = echo.t_final - echo.tau  # pulse center at 0
        check = blockade_phase_check(blockade30, echo.ens_final,
                                     echo.ens_stored, echo.tau, elapsed)
        assert abs(check.phase - math.pi) <= 0.1
        assert check.magnitude_ratio >= 0.95

    def test_elapsed_validation(self, blockade_cycle, blockade30):
        echo, _ = blockade_cycle
        with pytest.raises(ParameterError):
            blockade_phase_check(blockade30, echo.ens_final, echo.ens_stored,
                                 echo.tau, echo.tau)

    def test_requires_stored_excitation(self, blockade30):
        ens = ensemble_for_params(blockade30, n_sim=64)
        with pytest.raises(ParameterError):
            blockade_phase_check(blockade30, ens, ens, 1.0, 2.0)

    @pytest.mark.parametrize("tau, elapsed", [(math.nan, 10.0), (1.0, math.inf),
                                              (1.0, math.nan)])
    def test_non_finite_times_refused(self, blockade30, tau, elapsed):
        # these returned PhaseCheck(nan, nan)
        ens = ensemble_for_params(blockade30, n_sim=64).with_coherences(
            np.full(64, 0.125, complex))
        with pytest.raises(ParameterError, match="finite"):
            blockade_phase_check(blockade30, invert_detunings(ens), ens,
                                 tau, elapsed)

    def test_requires_matching_grid(self, blockade_cycle, blockade30):
        echo, _ = blockade_cycle
        other = ensemble_for_params(blockade30, n_sim=64).with_coherences(
            np.ones(64, complex))
        with pytest.raises(ParameterError):
            blockade_phase_check(blockade30, other, echo.ens_stored,
                                 echo.tau, echo.tau + 10.0)


class TestProbe:
    """The CW steady state needs a homogeneous width 1/T2 that spans the
    node spacing of the 801-node line; T2 = 100 widens the line by 2 %,
    which the closed forms take as delta_in + 1/T2."""

    T2 = 100.0

    def test_matched_response(self, matched):
        delta = 0.3
        p = matched.with_(t2=self.T2)
        line = p.with_(delta_in=p.delta_in + 1.0 / self.T2)
        got = transfer_function_probe(p, delta)
        r1 = (blockade_reflection(delta, line) + 1.0) / math.sqrt(p.kappa)
        r21 = p.f2 / (delta + 1j * p.collective_coupling
                      * broadened_response(delta, line.delta_in))
        assert got.cavity1_over_input == pytest.approx(r1, rel=1e-3)
        assert got.cavity2_over_cavity1 == pytest.approx(r21, rel=1e-3)

    def test_blockaded_response(self, blockade30):
        got = transfer_function_probe(blockade30.with_(t2=self.T2), 0.0)
        # the bounce leaves 1/(1+2C) of the drive inside the input cavity
        assert abs(got.cavity1_over_input) == pytest.approx(
            1.0 / 61.0, rel=1e-3)

    def test_matches_ramped_dop853(self):
        # a CW drive ramped on smoothly, integrated until every pole of the
        # 64-node line has settled, reads the steady-state ratios
        p = solve_matched_params(1.0, 0.0, t2=10.0)
        delta, width, t_ramp = 0.3, 6.0, 30.0
        ens = ensemble_for_params(p, n_sim=64)

        def drive(t):
            return 0.5 * (1.0 + math.tanh((t - t_ramp) / width)) \
                * np.exp(-1j * delta * t)

        ref = integrate(p, ens, drive, (0.0, 250.0), np.zeros(ens.n, complex),
                        (0, 0, 0), 1e-11, 1.0, kind="probe")
        got = transfer_function_probe(p, delta, n_sim=64)
        assert got.cavity1_over_input == pytest.approx(
            ref.cavity1[-1] / ref.alpha_in[-1], rel=1e-6)
        assert got.cavity2_over_cavity1 == pytest.approx(
            ref.cavity2[-1] / ref.cavity1[-1], rel=1e-6)

    @pytest.mark.parametrize("t2", [math.inf, 1e3])
    def test_refuses_unresolved_line(self, matched, t2):
        # a line narrower than its node spacing has a comb of lossless
        # resonances for a steady state, not the continuous line's
        with pytest.raises(ParameterError, match="node spacings"):
            transfer_function_probe(matched.with_(t2=t2), 0.3)


class TestFaddeeva:
    """The Gaussian CDF, erfc(x) = exp(-x**2) w(i x), against scipy."""

    def test_gaussian_cdf_against_erfc(self):
        s = np.concatenate([np.linspace(-27.0, 27.0, 5401),
                            np.random.default_rng(4).uniform(-27.0, 27.0, 5000)])
        pulse = PulseSpec(duration=2.0, center=1.0)
        ref = 0.5 * erfc(-s)
        kept = ref > 1e-300
        got = dynamics._pulse_cdf(pulse, pulse.center + pulse.duration * s)
        assert np.max(np.abs(got - ref)[kept] / ref[kept]) <= 1e-13


class TestKernels:
    """The propagation kernels against direct dense evaluations."""

    def test_propagator_matches_exp(self, blockade30):
        # both sides round the phase lam*(t - t0) to about 2e-16 of its
        # size, which this grid keeps below 200
        p = blockade30.with_(t2=100.0)
        basis = dynamics._modal_basis(
            p, ensemble_for_params(p, n_sim=64, span=10.0))
        times = dynamics._output_times((-10.0, 10.0), 0.02)
        amp = [1.0, 1j] @ np.random.default_rng(5).normal(size=(2, basis.lam.size))
        got = dynamics._propagator(basis.lam, amp, times, times[0],
                                   dynamics._offset_table(basis.lam, times))
        ref = amp[:, None] * np.exp(np.multiply.outer(basis.lam, times - times[0]))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_gaussian_storage_over_long_span(self, matched):
        # 9,000 drive steps of modes that T2 = 2 damps: a closed form that
        # completes the square has the factor exp(sd**2 Re(lam)**2 / 2) =
        # exp(1250) here; the recurrence only multiplies by |exp(lam h)| < 1
        sd, c = 100.0, 20.0
        p = matched.with_(t2=2.0)
        ens = ensemble_for_params(p, n_sim=64)
        trace = integrate_storage(p, ens, PulseSpec(duration=sd, center=c),
                                  (c - 6.0 * sd, c + 300.0 * sd))
        for name in ("cavity1", "control", "cavity2", "p_ensemble",
                     "out_flux_integral"):
            assert np.all(np.isfinite(getattr(trace, name))), name
        assert trace.max_ledger_residual < 1e-10

    @staticmethod
    def check_drive(pulse, lam, times, extra):
        # the switching instant of an exponential pulse is a sample, as in
        # storage; compared at a few samples, those after the extra ones
        # and the switching instant among them
        nodes = (times if pulse.shape is PulseShape.GAUSSIAN
                 else np.union1d(times, [pulse.center]))
        got = dynamics._drive_integrals(pulse, lam, nodes, unit_plan(pulse, lam, nodes))
        cols = np.union1d(np.linspace(0, nodes.size - 1, 4).astype(int),
                          np.searchsorted(nodes, [*extra, pulse.center]))
        ref = np.array([[drive_integral_quadrature(pulse, mode, nodes[0],
                                                   nodes[j]) for j in cols]
                        for mode in lam])
        assert np.max(np.abs(got[:, cols] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t2", [100.0, math.inf])
    @pytest.mark.parametrize("carrier", [0.0, 0.3])
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_drive_integrals_match_quad(self, matched, shape, carrier, t2):
        p = matched.with_(t2=t2)
        lam = dynamics._modal_basis(p, ensemble_for_params(p, n_sim=64)).lam
        pulse = PulseSpec(shape=shape, duration=2.0, center=1.0,
                          carrier_detuning=carrier)
        extra = (-3.217, 4.4444)
        times = np.union1d(dynamics._output_times((-11.0, 13.0), 2.0 / 30.0), extra)
        self.check_drive(pulse, lam[np.argsort(np.abs(lam))[::6]], times, extra)

    @pytest.mark.parametrize("steps", [5, 60])
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_drive_integrals_long_steps_stiff_modes(self, shape, steps):
        # output steps of 5 and 60 sub-intervals h, and modes with |lam h|
        # from 1e-8 to 300, on both sides of the weights' closed-form
        # threshold, that oscillate, decay, or both
        pulse = PulseSpec(shape=shape, duration=2.0, center=1.0,
                          carrier_detuning=0.3)
        h = pulse.duration / 30.0
        r = np.concatenate([np.logspace(-8.0, math.log10(300.0), 8),
                            [4.0, 11.0, 13.0, 40.0]]) / h
        lam = np.concatenate([1j * r, (-1.0 + 1j) * r / math.sqrt(2.0), -r])
        extra = (-3.217, 4.4444)
        times = np.union1d(dynamics._output_times((-11.0, 13.0), steps * h), extra)
        self.check_drive(pulse, lam, times, extra)

    def test_drive_integrals_long_grid(self):
        # a 400-step storage grid of a long sweep pulse, whose step lengths
        # differ in the last bits: steps grouped by length must keep their
        # summed lengths on the samples, or modes near the carrier pick up
        # a phase drift of about 2e-13
        pulse = PulseSpec(duration=31.6, center=1.0, carrier_detuning=0.3)
        times = dynamics._output_times((1.0 - 6.0 * 31.6, 1.0 + 5.0 * 31.6),
                                       11.0 * 31.6 / 400.0)
        lam = np.array([-0.0014 - 0.29j, -0.01 + 0.5j, -1e-6 - 2.0j])
        got = dynamics._drive_integrals(pulse, lam, times, unit_plan(pulse, lam, times))
        cols = [100, 200, 300, 400]
        ref = np.array([[drive_integral_quadrature(pulse, mode, times[0],
                                                   times[j]) for j in cols]
                        for mode in lam])
        assert np.max(np.abs(got[:, cols] - ref)) <= 5e-14 * np.max(np.abs(ref))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="exp(lam h) needs extended precision to hold this")
    @pytest.mark.parametrize("carrier", [0.0, 0.3])
    def test_gaussian_drive_against_closed_form(self, matched, carrier):
        # the store config's modes and grid (401 nodes, T2 = inf, 400
        # steps): exp(lam h) rounded in double and reused at every step
        # compounds to 2e-14 of max|I| here, which moved that artifact's
        # cavity amplitudes by 2e-11
        lam = dynamics._modal_basis(
            matched, ensemble_for_params(matched, n_sim=401)).lam
        pulse = PulseSpec(duration=10.0, carrier_detuning=carrier)
        times = dynamics._output_times((-60.0, 60.0), 0.3)
        ref = gaussian_drive_closed_form(pulse, lam, times)
        got = dynamics._drive_integrals(pulse, lam, times, unit_plan(pulse, lam, times))
        assert np.max(np.abs(got - ref)) <= 1.2e-14 * np.max(np.abs(ref))


def overlaps(pulse, t, a_out, delays):
    """The fidelity objective: normalized trapezoid overlap of a_out with
    the pulse mirrored at each delay d, a_in(d - t)."""
    ref = pulse.amplitude(np.asarray(delays)[:, None] - t)
    num = np.abs(np.trapezoid(np.conj(ref) * a_out, t, axis=1)) ** 2
    return num / (np.trapezoid(np.abs(ref) ** 2, t, axis=1)
                  * np.trapezoid(np.abs(a_out) ** 2, t))


class TestFidelitySearch:
    @pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN,
                                       PulseShape.DECAYING_EXPONENTIAL])
    def test_two_peaks_returns_the_higher(self, shape):
        # the lower peak sits where a bounded Brent search starts, seven
        # durations from the higher one; an exponential's overlap is a
        # staircase in the delay, one step per sample.  With a carrier,
        # each peak is the mirrored input a_in(d - t) itself
        t = np.linspace(-4.0, 4.0, 1601)
        lo, hi = -2.0, 2.0
        low, high = lo + 0.38 * (hi - lo), 1.6
        for carrier in (0.0, 3.0):
            pulse = PulseSpec(shape=shape, duration=0.3,
                              carrier_detuning=carrier)
            a_out = 0.8 * pulse.amplitude(low - t) + pulse.amplitude(high - t)
            got = dynamics._best_overlap(pulse, t, a_out, lo, hi)
            delays = np.linspace(lo, hi, 4001)
            grid = overlaps(pulse, t, a_out, delays)
            near_low = np.abs(delays - low) < 0.3
            near_high = np.abs(delays - high) < 0.3
            assert np.max(grid[near_high]) > np.max(grid[near_low])
            assert got >= np.max(grid[near_high]) - 1e-12
            assert got < np.max(grid[near_high]) + 1e-3

    def test_echo_config_beats_fine_grid(self):
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_matched.json").read_text())
        p, pulse = cfg.params, cfg.pulse
        ens = ensemble_for_params(p, n_sim=128)
        echo = run_echo_cycle(p, p, ens, pulse, cfg.tau)
        center = pulse.center + 2.0 * cfg.tau
        delays = np.linspace(center - 2.0 * pulse.duration,
                             center + 2.0 * pulse.duration, 4001)
        grid = overlaps(pulse, echo.output_times, echo.output_waveform, delays)
        assert echo.fidelity_time_reversed >= np.max(grid) - 1e-12

    def test_carrier_echo_matches_the_mirrored_input(self):
        # a carrier-detuned echo is scored against a_in(d - t), whose
        # carrier runs the other way in t from the input's, not against
        # its conjugate
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_matched.json").read_text())
        p = cfg.params
        pulse = PulseSpec(duration=cfg.pulse.duration, carrier_detuning=0.1)
        echo = run_echo_cycle(p, p, ensemble_for_params(p, n_sim=201),
                              pulse, cfg.tau)
        assert echo.fidelity_time_reversed >= 0.9999
        delays = np.linspace(2.0 * cfg.tau - 2.0 * pulse.duration,
                             2.0 * cfg.tau + 2.0 * pulse.duration, 4001)
        grid = overlaps(pulse, echo.output_times, echo.output_waveform, delays)
        assert echo.fidelity_time_reversed >= np.max(grid) - 1e-12

    @staticmethod
    def window(pulse, tau):
        """An echo window as run_echo_cycle takes it: the samples of the
        uniform retrieval grid within 6 durations of the echo, a waveform
        on them with the trapezoid weights and the carrier taken off, and
        the bracket of delays within 2 durations of the mirror image."""
        d, c = pulse.duration, pulse.center
        t = np.linspace(c + tau, c + 2.0 * tau + 8.0 * d, 521)
        t = t[np.abs(t - c - 2.0 * tau) <= 6.0 * d + 1e-9]
        rng = np.random.default_rng(5)
        a_out = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        h = np.diff(t)
        weights = 0.5 * (np.concatenate((h, [0.0])) + np.concatenate(([0.0], h)))
        carried = weights * a_out * np.exp(-1j * pulse.carrier_detuning * t)
        mirror = 2.0 * (c + tau)
        return t, carried, weights, (mirror - 2.0 * d, mirror + 2.0 * d)

    @staticmethod
    def direct_scan(pulse, t, carried, weights, lo, hi):
        """_mid_scan's delays and sums from one row of envelope values per
        delay."""
        mids = pulse.center + 0.5 * (t[:-1] + t[1:])
        mids = mids[(mids > lo) & (mids < hi)]
        env = pulse.envelope(mids[:, None] - t)
        return mids, np.abs(env @ carried) ** 2, (env * env) @ weights

    @pytest.mark.parametrize("carrier", [0.0, 0.7])
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_lattice_scan_matches_direct(self, shape, carrier):
        # mid delay k less sample i depends on k - i alone on the uniform
        # grid, so one lattice of envelope values serves every delay
        pulse = PulseSpec(shape=shape, duration=10.0, center=0.37,
                          carrier_detuning=carrier)
        t, carried, weights, (lo, hi) = self.window(pulse, 50.0)
        got = dynamics._mid_scan(pulse, t, carried, weights, lo, hi)
        ref = self.direct_scan(pulse, t, carried, weights, lo, hi)
        assert got[0].size == ref[0].size > 100
        assert np.array_equal(got[0], ref[0])
        for x, y in zip(got[1:], ref[1:]):
            assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_lattice_scan_of_a_short_bracket(self, shape):
        # lo == hi holds no mid delay, and a bracket under one step holds
        # the one mid inside it or none; the search still refines it
        pulse = PulseSpec(shape=shape, duration=10.0, center=0.37)
        t, carried, weights, _ = self.window(pulse, 50.0)
        mids = pulse.center + 0.5 * (t[:-1] + t[1:])
        k, step = mids.size // 2, t[1] - t[0]
        for lo, hi, count in [(mids[k], mids[k], 0), (t[k], t[k], 0),
                              (mids[k] - 0.3 * step, mids[k] + 0.3 * step, 1),
                              (mids[k] + 0.1 * step, mids[k] + 0.9 * step, 0)]:
            got = dynamics._mid_scan(pulse, t, carried, weights, lo, hi)
            ref = self.direct_scan(pulse, t, carried, weights, lo, hi)
            assert got[0].size == got[1].size == got[2].size == count
            assert np.array_equal(got[0], ref[0])
            for x, y in zip(got[1:], ref[1:]):
                assert np.allclose(x, y, rtol=1e-13, atol=0.0)
            a_out = carried / weights * np.exp(1j * pulse.carrier_detuning * t)
            best = dynamics._best_overlap(pulse, t, a_out, lo, hi)
            assert 0.0 <= best <= 1.0 + 1e-12


class TestTraceExport:
    """A storage trace reaches files through the store subcommand."""

    @staticmethod
    def export(matched, tmp_path, fmt):
        config = tmp_path / "store.json"
        config.write_text(json.dumps({
            "scenario": "store", "params": matched.to_dict(),
            "pulse": {"duration": 5.0}, "t_span": [-30.0, 30.0],
            "n_sim": 64}))
        path = tmp_path / f"trace.{fmt}"
        assert main(["store", "--config", str(config), "--out", str(path),
                     "--format", fmt]) == 0
        trace = integrate_storage(matched, ensemble_for_params(matched, 64),
                                  PulseSpec(duration=5.0), (-30.0, 30.0))
        return path.read_text(), trace

    def test_csv(self, matched, tmp_path, capsys):
        text, trace = self.export(matched, tmp_path, "csv")
        capsys.readouterr()
        lines = text.splitlines()
        assert lines[0] == "# kind=storage"
        assert "# scenario=store" in lines
        assert "# solver_tol=1e-09" in lines
        assert f"# params_sha256={params_digest(matched)}" in lines
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "time,series,re,im"
        rows = [l.split(",") for l in lines
                if not l.startswith("#") and l != header]
        names = {r[1] for r in rows}
        assert {"alpha_in", "alpha_out", "ledger_residual"} <= names
        p_ens = [float(r[2]) for r in rows if r[1] == "p_ensemble"]
        assert p_ens == trace.p_ensemble.tolist()
        # the ledger's residual at its checkpoints only, every 32nd
        # sample and the last
        ledger = [(float(r[0]), float(r[2])) for r in rows
                  if r[1] == "ledger_residual"]
        assert ledger == list(zip(trace.ledger_times.tolist(),
                                  trace.ledger_residual.tolist()))
        assert trace.ledger_times.tolist() == \
            trace.times[np.r_[0:trace.times.size - 1:32, -1]].tolist()

    def test_json(self, matched, tmp_path, capsys):
        text, trace = self.export(matched, tmp_path, "json")
        capsys.readouterr()
        doc = json.loads(text)
        assert doc["scenario"] == "store"
        assert doc["kind"] == "storage"
        assert doc["solver_tol"] == 1e-9
        assert len(doc["times"]) == len(doc["fields"]["alpha_out"]["re"])
        assert doc["params"]["t2"] == "inf"
        assert doc["fields"]["alpha_out"]["im"] == \
            np.imag(trace.alpha_out).tolist()
        assert doc["ledger"] == {"times": trace.ledger_times.tolist(),
                                 "residual": trace.ledger_residual.tolist()}
        assert "ledger_residual" not in doc["probabilities"]


class TestModalPropagator:
    """The modal propagator against the adaptive DOP853 integrator."""

    @staticmethod
    def clipped_grid(p):
        # clip harder than discretize_ensemble does, so that several
        # nodes share each edge detuning, and merge each run of them into
        # one node of their summed weight
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        det = np.clip(ens.detunings, -4.0, 4.0)
        first = np.flatnonzero(np.concatenate(([True], np.diff(det) != 0)))
        assert first.size <= ens.n - 4
        return AtomEnsemble(det[first], np.add.reduceat(ens.weights, first),
                            np.zeros(first.size, complex), ens.delta_in)

    @staticmethod
    def oracle_cycle(monkeypatch, p_store, p_read, ens, pulse, tau):
        """run_echo_cycle with both stages integrated by DOP853."""
        tol = 1e-10

        def storage(p, e, pl, span):
            output_dt = min(pl.duration / 30.0, (span[1] - span[0]) / 400.0)
            return integrate(p, e, pl.amplitude, span,
                             np.zeros(e.n, complex), (0, 0, 0), tol,
                             output_dt)

        def retrieval(p, e, span, *, output_dt=None):
            return integrate(p, e, None, span, e.coherences.copy(),
                             (0, 0, 0), tol, output_dt, kind="retrieval")

        with monkeypatch.context() as m:
            m.setattr(dynamics, "integrate_storage", storage)
            m.setattr(dynamics, "integrate_retrieval", retrieval)
            return run_echo_cycle(p_store, p_read, ens, pulse, tau)

    def compare(self, monkeypatch, p_store, p_read, pulse, tau):
        ens = self.clipped_grid(p_store)
        got = run_echo_cycle(p_store, p_read, ens, pulse, tau)
        ref = self.oracle_cycle(monkeypatch, p_store, p_read, ens, pulse, tau)
        for name in ("storage_probability", "echo_probability",
                     "fidelity_time_reversed"):
            assert getattr(got, name) == pytest.approx(
                getattr(ref, name), rel=1e-7, abs=1e-12), name
        assert np.array_equal(got.output_times, ref.output_times)
        peak = np.max(np.abs(ref.output_waveform))
        assert np.max(np.abs(got.output_waveform - ref.output_waveform)) \
            <= 1e-7 * peak
        assert got.max_ledger_residual < 1e-10
        return got

    @pytest.mark.parametrize("t2", [100.0, math.inf])
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_matches_dop853(self, monkeypatch, shape, t2):
        p = solve_matched_params(1.0, 0.0, t2=t2)
        pulse = PulseSpec(shape=shape, duration=2.0, center=1.0,
                          carrier_detuning=0.1)
        self.compare(monkeypatch, p, p, pulse, 10.0)

    def test_blockaded_read_matches_dop853(self, monkeypatch):
        p = solve_matched_params(1.0, 0.0)
        echo = self.compare(monkeypatch, p, solve_matched_params(1.0, 30.0),
                            PulseSpec(duration=2.0, carrier_detuning=0.1), 10.0)
        assert echo.echo_probability < 0.01

    @pytest.mark.parametrize("shape", ALL_SHAPES[1:])
    def test_switched_pulse_rings_blockaded_cavity(self, blockade30, shape):
        # the switching instant of an exponential pulse excites the fast
        # vacuum-Rabi modes of the C = 30 cavity, far faster than the
        # output grid of a long pulse resolves
        ens = ensemble_for_params(blockade30, n_sim=64, span=10.0)
        pulse = PulseSpec(shape=shape, duration=10.0)
        span = (-60.0, 60.0)
        got = integrate_storage(blockade30, ens, pulse, span)
        ref = integrate(blockade30, ens, pulse.amplitude, span,
                        np.zeros(ens.n, complex), (0, 0, 0), 1e-10,
                        (span[1] - span[0]) / 400.0)
        assert got.max_ledger_residual < 1e-10
        assert np.array_equal(got.times, ref.times)
        assert got.ensemble.probability == pytest.approx(
            ref.ensemble.probability, rel=1e-6)
        peak = np.max(np.abs(ref.alpha_out))
        assert np.max(np.abs(got.alpha_out - ref.alpha_out)) <= 1e-7 * peak

    @pytest.mark.parametrize("shape", ALL_SHAPES[1:])
    def test_exponential_storage_matches_dop853(self, matched, shape):
        # the store config's line at n_sim = 801 and T2 = inf, where the
        # jump at the switching instant rings modes that turn by up to 6
        # rad per output step
        ens = ensemble_for_params(matched, n_sim=801)
        pulse = PulseSpec(shape=shape, duration=10.0)
        span = (-60.0, 60.0)
        got = integrate_storage(matched, ens, pulse, span)
        ref = integrate(matched, ens, pulse.amplitude, span,
                        np.zeros(ens.n, complex), (0, 0, 0), 1e-10, 0.3)
        assert got.max_ledger_residual < 1e-10
        assert np.array_equal(got.times, ref.times)
        peak = np.max(np.abs(ref.alpha_out))
        assert np.max(np.abs(got.alpha_out - ref.alpha_out)) <= 1e-7 * peak
        assert np.max(np.abs(got.out_flux_integral - ref.out_flux_integral)) \
            <= 1e-9
        assert got.ensemble.probability == pytest.approx(
            ref.ensemble.probability, abs=1e-9)

    @pytest.mark.parametrize("shape, t2, clipped", [
        *((shape, t2, False) for shape in ALL_SHAPES for t2 in (100.0, 1e3)),
        (PulseShape.GAUSSIAN, 100.0, True)])
    def test_loaded_storage_matches_dop853(self, shape, t2, clipped):
        # a pulse stored into a memory that already holds 0.25 of an
        # excitation, with random phases: the loaded part evolves and
        # re-emits alongside the drive; the clipped grid holds merged
        # edge nodes of larger weight
        p = solve_matched_params(1.0, 0.0, t2=t2)
        ens = (self.clipped_grid(p) if clipped
               else ensemble_for_params(p, n_sim=64, span=10.0))
        phases = np.random.default_rng(16).uniform(0.0, 2.0 * np.pi, ens.n)
        ens = ens.with_coherences(0.5 * np.sqrt(ens.weights) * np.exp(1j * phases))
        pulse = PulseSpec(shape=shape, duration=2.0, center=1.0,
                          carrier_detuning=0.1)
        span = (-11.0, 13.0)
        got = integrate_storage(p, ens, pulse, span)
        ref = integrate(p, ens, pulse.amplitude, span, ens.coherences.copy(),
                        (0, 0, 0), 1e-10, (span[1] - span[0]) / 400.0)
        assert got.initial_probability == ens.probability
        assert got.max_ledger_residual < 1e-10
        assert np.array_equal(got.times, ref.times)
        assert got.ensemble.probability == pytest.approx(
            ref.ensemble.probability, rel=1e-7)
        peak = np.max(np.abs(ref.alpha_out))
        assert np.max(np.abs(got.alpha_out - ref.alpha_out)) <= 1e-7 * peak

    def test_decaying_pulse_ledger_at_gaussian_level(self, matched):
        # the pulse's rate -1/duration sits among the modes' eigenvalues
        p = matched.with_(t2=100.0)
        trace = integrate_storage(p, ensemble_for_params(p, n_sim=201),
                                  PulseSpec(shape="decaying_exponential",
                                            duration=10.0), (-60.0, 60.0))
        assert trace.max_ledger_residual <= 1e-10

    def test_inverted_mirrored_grid_shares_basis(self, matched):
        ens = ensemble_for_params(matched, n_sim=65, span=10.0)
        assert dynamics._modal_basis(matched, invert_detunings(ens)) \
            is dynamics._modal_basis(matched, ens)

    def test_failed_eigen_solve_raises(self, matched, monkeypatch):
        ens = ensemble_for_params(matched, n_sim=64, span=10.0)
        monkeypatch.setattr(dynamics, "_ABERTH_MAX_ITER", 1)
        dynamics._cached_basis.cache_clear()
        try:
            with pytest.raises(IntegrationError, match="eigenpair residual"):
                integrate_storage(matched, ens, PulseSpec(duration=2.0),
                                  (-12.0, 12.0))
        finally:
            dynamics._cached_basis.cache_clear()



class TestEigenSolve:
    """The Aberth roots against LAPACK on the dense generator, and the
    paired iteration of a mirrored line against the general one."""

    @staticmethod
    def fresh_basis(p, ens):
        dynamics._cached_basis.cache_clear()
        try:
            return dynamics._modal_basis(p, ens)
        finally:
            dynamics._cached_basis.cache_clear()

    @staticmethod
    def assert_same_roots(got, ref, tol):
        assert got.size == ref.size
        dist = np.abs(got[:, None] - ref[None, :])
        assert np.max(np.min(dist, axis=1)) <= tol
        assert np.max(np.min(dist, axis=0)) <= tol

    @staticmethod
    def assert_paired(basis):
        k, n = basis.pairs, basis.lam.size
        assert basis.mirrored and k > 0
        assert np.array_equal(basis.lam[n - k:], np.conj(basis.lam[:k]))
        assert np.all(basis.lam[:k].imag > 0)
        assert np.all(basis.lam[k:n - k].imag == 0)

    # odd and even lines, with and without a real root
    @pytest.mark.parametrize("n_sim", [64, 65])
    @pytest.mark.parametrize("c_atom", [0.0, 30.0])
    @pytest.mark.parametrize("t2", [1e3, math.inf])
    @pytest.mark.parametrize("delta_c", [0.0, 0.2])
    def test_matches_dense_eigvals(self, n_sim, c_atom, t2, delta_c):
        p = solve_matched_params(1.0, c_atom, t2=t2, delta_c=delta_c)
        ens = ensemble_for_params(p, n_sim=n_sim)
        basis = self.fresh_basis(p, ens)
        assert basis.g.size == ens.n    # no merged nodes: A is the arrowhead
        ref = np.linalg.eigvals(dense_generator(p, ens))
        scale = float(np.max(np.abs(ref)))
        self.assert_same_roots(basis.lam, ref, 1e-12 * scale)
        # with no control atom (C = 0, g1 = 0) delta_c enters no equation
        if delta_c == 0 or c_atom == 0:
            self.assert_paired(basis)
            reals = basis.lam.size - 2 * basis.pairs
            assert reals == np.sum(np.abs(ref.imag) <= 1e-8 * scale)
        else:
            assert basis.pairs == 0

    def test_real_roots_covered(self):
        # the cases above include lines with two, one and no real roots
        reals = {}
        for n_sim, c_atom in [(64, 0.0), (65, 0.0), (65, 30.0)]:
            p = solve_matched_params(1.0, c_atom, t2=1e3)
            basis = self.fresh_basis(p, ensemble_for_params(p, n_sim=n_sim))
            reals[n_sim, c_atom] = basis.lam.size - 2 * basis.pairs
        assert reals == {(64, 0.0): 2, (65, 0.0): 1, (65, 30.0): 0}

    # the committed configs' lines, and one with an uncoupled control atom
    # (g1 = 0) detuned, where delta_c enters no equation
    @pytest.mark.parametrize("c_atom, t2, n_sim, delta_c", [
        (0.0, 1e4, 801, 0.0), (0.0, math.inf, 801, 0.0),
        (30.0, math.inf, 801, 0.0), (0.0, 100.0, 401, 0.0),
        (0.0, 1e4, 801, 0.2)],
        ids=["0.0-10000.0-801", "0.0-inf-801", "30.0-inf-801",
             "0.0-100.0-401", "0.0-10000.0-801-detuned"])
    def test_paired_matches_general(self, c_atom, t2, n_sim, delta_c):
        # both paths on the same grid
        p = solve_matched_params(1.0, c_atom, t2=t2, delta_c=delta_c)
        ens = ensemble_for_params(p, n_sim=n_sim,
                                  span=10.0 if n_sim == 401 else None)
        basis = self.fresh_basis(p, ens)
        self.assert_paired(basis)
        cdamp = -(1j * p.delta_c + 0.5 * p.gamma)
        scale = float(np.max(np.abs(basis.lam)))
        general, pairs = dynamics._secular_roots(
            p, cdamp, basis.poles, basis.g ** 2, scale, False)
        assert pairs == 0
        self.assert_same_roots(basis.lam, general, 1e-12 * scale)

    def freed_pairs(self, monkeypatch, p, ens):
        """The basis, and the pairs the one Aberth solve took in and kept;
        the roots must come out paired bit for bit and right."""
        calls = []
        inner = dynamics._aberth

        def recording(z, pairs, *args):
            z, left = inner(z, pairs, *args)
            calls.append((pairs, left))
            return z, left

        monkeypatch.setattr(dynamics, "_aberth", recording)
        basis = self.fresh_basis(p, ens)
        assert len(calls) == 1
        self.assert_paired(basis)
        ref = np.linalg.eigvals(dense_generator(p, ens))
        self.assert_same_roots(basis.lam, ref,
                               1e-12 * float(np.max(np.abs(ref))))
        return calls[0]

    def test_stalled_pairs_fall_back(self, monkeypatch):
        # a representative of a pole far from the centre wanders into the
        # field roots' region and stops converging: it goes on free beside
        # its conjugate, within the one solve
        p = solve_matched_params(1.0, 0.0, t2=1e3).with_(
            f2=0.2780861898674829, n_atoms=1916, gamma=2.9721235991858954)
        pairs, left = self.freed_pairs(
            monkeypatch, p, ensemble_for_params(p, n_sim=92, span=40.0))
        assert 0 < left < pairs

    def test_every_pair_freed(self, monkeypatch):
        # no pair converges in the first sweep, so with a stall limit of
        # one sweep every pair goes free
        monkeypatch.setattr(dynamics, "_STALL_SWEEPS", 1)
        p = solve_matched_params(1.0, 0.0, t2=1e3)
        pairs, left = self.freed_pairs(monkeypatch, p,
                                       ensemble_for_params(p, n_sim=65))
        assert pairs > 0 and left == 0

    @pytest.mark.parametrize("c_atom, t2", [(0.0, 1e3), (30.0, math.inf)])
    def test_half_row_coordinates(self, c_atom, t2):
        # a mirror-conjugate target: the representatives only, paired
        # coordinates bit for bit, the full rows' solution to the basis'
        # conditioning
        p = solve_matched_params(1.0, c_atom, t2=t2)
        ens = ensemble_for_params(p, n_sim=129)
        basis = self.fresh_basis(p, ens)
        x = np.linspace(-1.0, 1.0, ens.n)
        bright = (np.exp(-x ** 2) + 1j * x) / math.sqrt(ens.n)
        assert np.array_equal(bright[::-1], np.conj(bright))
        for fields, target in [((1.0, 0.0, 0.0), np.zeros(ens.n)),
                               ((0.0, 0.0, 0.0), bright)]:
            op, _ = dynamics._node_operator(basis, True)
            reps = dynamics._mode_coordinates(basis, op, np.array(fields),
                                              target, True)
            assert reps.size == basis.lam.size - basis.pairs
            half = expand(basis, reps)
            op, _ = dynamics._node_operator(basis, False)
            full = dynamics._mode_coordinates(basis, op, np.array(fields),
                                              target, False)
            n, k = basis.lam.size, basis.pairs
            partner = np.r_[n - k:n, k:n - k, :k]
            flip = np.sign((basis.a2[partner] / np.conj(basis.a2)).real)
            assert np.array_equal(flip, basis.flip)
            assert np.array_equal(half[partner], -flip * np.conj(half))
            assert np.max(np.abs(half - full)) <= 1e-15 * basis.cond \
                * np.max(np.abs(full))


class TestMirroredLine:
    """A mirror-conjugate state takes the rows of half the line."""

    @staticmethod
    def spy(monkeypatch):
        """Record the basis, coordinates and `folded` flag of every
        call that reads a stage's state through the node operator: the
        slot holds the basis of the operator the call reads.  The block
        budget is 0, so that every stage runs over blocks of _MIN_BLOCK
        samples."""
        calls = []
        inner = dynamics._state_at
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 0)

        def recording(op, c, folded):
            assert dynamics._node_operator.entry[2] is op
            calls.append((dynamics._node_operator.entry[0], c, folded))
            return inner(op, c, folded)

        monkeypatch.setattr(dynamics, "_state_at", recording)
        return calls

    @staticmethod
    def handed(calls):
        """The (folded, coordinate rows, modes) that the recorded calls
        share: every block of a stage is handed the same way."""
        return {(m, c.shape[0], basis.lam.size) for basis, c, m in calls}

    @staticmethod
    def stages(calls, *traces):
        """Each trace's coordinates, its blocks' joined in order: a later
        block of a stage repeats the node the last one ended on.  No block
        holds more than _MIN_BLOCK samples."""
        assert all(0 < c.shape[1] <= dynamics._MIN_BLOCK for _, c, _ in calls)
        blocks, joined = iter(c for _, c, _ in calls), []
        for trace in traces:
            parts = [next(blocks)]
            while sum(c.shape[1] for c in parts) < trace.times.size:
                parts.append(next(blocks)[:, 1:])
            joined.append(np.concatenate(parts, axis=1))
            assert joined[-1].shape[1] == trace.times.size
        assert next(blocks, None) is None
        return joined

    @staticmethod
    def dense_populations(basis, c):
        """sum over every node of |b_m|**2, the full rows at once."""
        rows = cauchy_rows(basis) @ c
        return np.sum(np.abs(rows) ** 2, axis=0)

    def storage_reference(self, p, ens, pulse, trace):
        """The stored populations and final node amplitudes, full rows."""
        basis = dynamics._modal_basis(p, ens)
        # the drive over every mode, solved on the unfolded operator
        _, drive = dynamics._node_operator(basis, False)
        c = dynamics._drive_integrals(
            pulse, basis.lam, trace.times, dynamics._drive_plan(
                pulse, basis.lam, trace.times, math.sqrt(p.kappa) * drive))
        last = cauchy_rows(basis) @ c[:, -1]
        return self.dense_populations(basis, c), last

    def retrieval_reference(self, p, trace):
        # one node per detuning: the whole state is in the node rows
        ens = invert_detunings(trace.ensemble)
        basis = dynamics._modal_basis(p, ens)
        assert basis.g.size == ens.n
        op, _ = dynamics._node_operator(basis, False)
        c0 = dynamics._mode_coordinates(basis, op, np.zeros(3),
                                        ens.coherences, False)
        return basis, c0

    def test_symmetric_cycle_matches_full_rows(self, matched, monkeypatch):
        p = matched.with_(t2=1e3)
        ens = ensemble_for_params(p, n_sim=129)
        pulse = PulseSpec(duration=5.0)
        calls = self.spy(monkeypatch)
        echo = run_echo_cycle(p, p, ens, pulse, 25.0)
        basis = calls[0][0]
        assert self.handed(calls) == {(True, basis.lam.size - basis.pairs,
                                       basis.lam.size)}
        self.stages(calls, echo.storage_trace, echo.retrieval_trace)
        stored = echo.ens_stored.coherences
        assert np.array_equal(stored[::-1], np.conj(stored))
        assert stored[ens.n // 2].imag == 0.0
        ref, last = self.storage_reference(p, ens, pulse, echo.storage_trace)
        assert np.max(np.abs(echo.storage_trace.p_ensemble - ref)) <= 1e-11
        assert np.max(np.abs(stored - last)) <= 1e-11
        # the retrieval starts from the stored state, inverted
        retrieval = echo.retrieval_trace
        basis, c0 = self.retrieval_reference(p, echo.storage_trace)
        c = dynamics._propagator(
            basis.lam, c0, retrieval.times, retrieval.times[0],
            dynamics._offset_table(basis.lam, retrieval.times))
        assert np.max(np.abs(retrieval.p_ensemble
                             - self.dense_populations(basis, c))) <= 1e-11

    @pytest.mark.parametrize("case", ["carrier", "delta_c", "weights"])
    def test_asymmetric_line_takes_full_rows(self, blockade30, monkeypatch,
                                             case):
        p = blockade30.with_(t2=1e3, delta_c=0.2 if case == "delta_c" else 0.0)
        ens = ensemble_for_params(p, n_sim=64)
        if case == "weights":
            w = 1.0 + 0.2 * np.linspace(-1.0, 1.0, ens.n)
            ens = AtomEnsemble(ens.detunings, w / np.sum(w), ens.coherences,
                               ens.delta_in)
        pulse = PulseSpec(duration=5.0,
                          carrier_detuning=0.1 if case == "carrier" else 0.0)
        calls = self.spy(monkeypatch)
        trace = integrate_storage(p, ens, pulse, (-30.0, 30.0))
        n = calls[0][0].lam.size
        assert self.handed(calls) == {(False, n, n)}
        self.stages(calls, trace)
        ref, last = self.storage_reference(p, ens, pulse, trace)
        assert np.max(np.abs(trace.p_ensemble - ref)) <= 1e-11
        assert np.max(np.abs(trace.ensemble.coherences - last)) <= 1e-11

    def test_mirrored_state_needs_a_mirrored_start(self, matched, monkeypatch):
        # a retrieval from a state that is not mirror-conjugate bit for bit
        # takes the full rows on a mirrored line
        ens = ensemble_for_params(matched, n_sim=64)
        b0 = np.exp(1j * np.linspace(0.0, 1.0, ens.n)) / math.sqrt(ens.n)
        calls = self.spy(monkeypatch)
        trace = integrate_retrieval(matched, ens.with_coherences(b0),
                                    (0.0, 20.0))
        n = calls[0][0].lam.size
        assert self.handed(calls) == {(False, n, n)}
        self.stages(calls, trace)
        basis = dynamics._modal_basis(matched, ens)
        op, _ = dynamics._node_operator(basis, False)
        c0 = dynamics._mode_coordinates(basis, op, np.zeros(3), b0, False)
        c = dynamics._propagator(basis.lam, c0, trace.times, 0.0,
                                 dynamics._offset_table(basis.lam, trace.times))
        assert np.max(np.abs(trace.p_ensemble
                             - self.dense_populations(basis, c))) <= 1e-11

    # the lines of TestEigenSolve.test_real_roots_covered: two, one and no
    # real modes at T2 = 1e3
    @pytest.mark.parametrize("t2", [1e3, math.inf])
    @pytest.mark.parametrize("n_sim, c_atom", [(64, 0.0), (65, 0.0), (65, 30.0)])
    def test_folded_stage_matches_full_modes(self, monkeypatch, n_sim, c_atom,
                                             t2):
        # both stages carry the n - k representatives; the fields, node
        # populations, loss integrals and final coherences agree with the
        # dense rows applied to every mode's coordinates
        p = solve_matched_params(1.0, c_atom, t2=t2)
        ens = ensemble_for_params(p, n_sim=n_sim)
        pulse = PulseSpec(duration=5.0)
        calls = self.spy(monkeypatch)
        echo = run_echo_cycle(p, p, ens, pulse, 25.0)
        basis = calls[0][0]
        n, k = basis.lam.size, basis.pairs
        assert basis.g.size == ens.n and k > 0
        assert self.handed(calls) == {(True, n - k, n)}
        inv_t2 = 0.0 if math.isinf(t2) else 1.0 / t2
        cc = p.collective_coupling
        traces = (echo.storage_trace, echo.retrieval_trace)
        for trace, c in zip(traces, self.stages(calls, *traces)):
            full = expand(basis, c)
            a1, bc, a2 = basis.a1 @ full, basis.bc @ full, basis.a2 @ full
            nodes = cauchy_rows(basis) @ full
            pe = np.sum(np.abs(nodes) ** 2, axis=0)
            sig = basis.collective @ full
            # d(sig)/dt = sum_m g_m (D_m b_m - i g_m a2)
            dsig = (basis.g * basis.poles) @ nodes - 1j * cc * a2
            if trace.kind == "storage":
                drive = dynamics._drive_nodes(pulse, trace.times, basis.lam)[1:]
            else:
                drive = (np.zeros(trace.times.size),) * 3
            # the losses from zero, and the population that the balance
            # leaves, on the budget p0 + l_in
            losses, balance = dynamics._hermite_losses(
                p, trace.times, a1, bc, a2, sig, dsig, inv_t2, *drive,
                np.zeros(3), trace.initial_probability + trace.in_flux_integral)
            last = nodes[:, -1]
            for got, ref in [(trace.cavity1, a1), (trace.control, bc),
                             (trace.cavity2, a2), (trace.p_ensemble, pe),
                             (balance, pe),
                             (trace.out_flux_integral, losses[0]),
                             (trace.control_loss_integral, losses[1]),
                             (trace.t2_loss_integral, losses[2]),
                             (trace.ensemble.coherences, last)]:
                assert np.max(np.abs(got - ref)) <= 1e-11


class TestPopulationBalance:
    """Every node takes its population from the probability balance, and
    the node rows are read at the ledger's checkpoints alone: the two
    agree at every node of a stage."""

    @staticmethod
    def spy(monkeypatch):
        """Per stage, each block's basis, coordinates, fold, nodes and
        balance."""
        stages = []
        stage, state_at, losses = (dynamics._modal_stage, dynamics._state_at,
                                   dynamics._hermite_losses)

        def recording_stage(*args):
            stages.append([])
            return stage(*args)

        def recording_state(op, c, folded):
            stages[-1].append([dynamics._node_operator.entry[0], c, folded])
            return state_at(op, c, folded)

        def recording_losses(p, nodes, *args):
            out = losses(p, nodes, *args)
            stages[-1][-1] += [nodes, out[1]]
            return out

        monkeypatch.setattr(dynamics, "_modal_stage", recording_stage)
        monkeypatch.setattr(dynamics, "_state_at", recording_state)
        monkeypatch.setattr(dynamics, "_hermite_losses", recording_losses)
        return stages

    @pytest.mark.parametrize("t2", [1e3, math.inf])
    @pytest.mark.parametrize("folded", [True, False])
    @pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN,
                                       PulseShape.RISING_EXPONENTIAL])
    def test_balance_matches_node_rows(self, monkeypatch, shape, folded, t2):
        # a carrier breaks the mirror symmetry of both stages, which then
        # carry every mode on complex rows
        p = solve_matched_params(1.0, 0.0, t2=t2)
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        pulse = PulseSpec(shape=shape, duration=2.0,
                          carrier_detuning=0.0 if folded else 0.1)
        stages = self.spy(monkeypatch)
        echo = run_echo_cycle(p, p, ens, pulse, 10.0)
        traces = (echo.storage_trace, echo.retrieval_trace)
        assert len(stages) == len(traces)
        for trace, blocks in zip(traces, stages):
            assert {m for _, _, m, _, _ in blocks} == {folded}
            for basis, c, m, nodes, balance in blocks:
                full = expand(basis, c) if m else c
                rows = np.sum(np.abs(cauchy_rows(basis) @ full) ** 2, axis=0)
                assert np.max(np.abs(balance - rows)) <= 1e-10
            # consecutive blocks share their edge node: the nodes are the
            # output samples, but for an exponential's storage, which
            # samples its switching instant twice and splits the steps after
            nodes = np.concatenate([blocks[0][3]] + [b[3][1:] for b in blocks[1:]])
            if trace.kind == "storage" and shape is not PulseShape.GAUSSIAN:
                assert np.count_nonzero(nodes == pulse.center) == 2
                assert nodes.size > trace.times.size
            else:
                assert np.array_equal(nodes, trace.times)
        for trace in (echo.storage_trace, echo.retrieval_trace):
            assert trace.ledger_times[-1] == trace.times[-1]
            assert 0.0 < trace.max_ledger_residual <= 1e-10


class TestNodeOperator:
    """Each basis forms its node operator once, into a single slot."""

    @staticmethod
    def builds(run):
        """The node operators that run() builds, from the slot's misses."""
        before = dynamics._node_operator.misses
        run()
        return dynamics._node_operator.misses - before

    @staticmethod
    def cycle_arrays(echo):
        return [echo.storage_trace.p_ensemble, echo.storage_trace.cavity1,
                echo.ens_stored.coherences, echo.retrieval_trace.p_ensemble,
                echo.retrieval_trace.out_flux_integral, echo.output_waveform,
                np.array([echo.echo_probability, echo.fidelity_time_reversed])]

    def assert_same_cycle(self, a, b):
        for x, y in zip(self.cycle_arrays(a), self.cycle_arrays(b)):
            assert np.array_equal(x, y)

    def test_sweep_builds_one_per_curve(self):
        # the criterion-8 sweep runs curve-major: 3 T2 curves of 9 cycles,
        # one basis, so one operator, per curve
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_sweep_t2.json").read_text())
        assert self.builds(lambda: run_sweep(cfg)) == 3
        assert self.builds(lambda: run_sweep(cfg)) == 3

    def test_echo_builds_one_blockade_two(self, matched, blockade30):
        # storage and retrieval share the basis of a mirrored grid and its
        # operator; a blockaded read is another basis
        p = matched.with_(t2=321.0)
        ens = ensemble_for_params(p, n_sim=97)
        pulse = PulseSpec(duration=5.0)
        assert self.builds(lambda: run_echo_cycle(
            p, blockade30.with_(t2=321.0), ens, pulse, 25.0)) == 2
        # the slot holds the read's operator, not the storage's
        assert self.builds(lambda: run_echo_cycle(p, p, ens, pulse, 25.0)) == 1

    def test_carrier_echo_on_a_mirrored_line_builds_one(self, matched):
        # the carrier breaks the mirror symmetry of the state, so both
        # stages read the unfolded operator, and the drive is solved on it
        p = matched.with_(t2=432.0)
        ens = ensemble_for_params(p, n_sim=97)
        assert dynamics._modal_basis(p, ens).mirrored
        pulse = PulseSpec(duration=5.0, carrier_detuning=0.1)
        assert self.builds(lambda: run_echo_cycle(p, p, ens, pulse,
                                                  25.0)) == 1
        assert dynamics._node_operator.entry[1] is False

    @pytest.mark.parametrize("c_atom, t2, delta_c", [
        (0.0, 1e4, 0.0), (30.0, math.inf, 0.0), (30.0, 1e3, 0.2)])
    def test_rate_row_is_lam_times_collective(self, c_atom, t2, delta_c):
        # lam_k sum_m g_m V_mk = sum_m g_m (A V)_mk
        #                      = sum_m g_m D_m V_mk - i N g2**2 a2_k
        p = solve_matched_params(1.0, c_atom, t2=t2, delta_c=delta_c)
        basis = dynamics._modal_basis(p, ensemble_for_params(p, n_sim=201))
        ref = (basis.g * basis.poles) @ cauchy_rows(basis) \
            - 1j * p.collective_coupling * basis.a2
        got = basis.lam * basis.collective
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        op, _ = dynamics._node_operator(basis, False)
        assert np.array_equal(op.rows[3:5], [basis.collective, got])

    def test_operators_are_read_only(self, matched):
        ens = ensemble_for_params(matched, n_sim=65)
        basis = dynamics._modal_basis(matched, ens)
        for folded in (True, False):
            op, drive = dynamics._node_operator(basis, folded)
            # the drive is held with its operator, over the carried modes
            held = dynamics._node_operator.entry
            assert held[2] is op and held[3] is drive
            assert drive.size == basis.lam.size - (basis.pairs if folded
                                                   else 0)
            for x in (*op, drive):
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0.0

    def test_cold_and_warm_operators_agree(self, matched):
        p = matched.with_(t2=654.0)
        ens = ensemble_for_params(p, n_sim=97)
        pulse = PulseSpec(duration=5.0)
        cold = run_echo_cycle(p, p, ens, pulse, 25.0)
        warm = run_echo_cycle(p, p, ens, pulse, 25.0)
        # another basis takes the slot, so the operator is built again
        other = ensemble_for_params(p, n_sim=96)
        run_echo_cycle(p, p, other, pulse, 25.0)
        assert self.builds(lambda: run_echo_cycle(p, p, ens, pulse, 25.0)) == 1
        rebuilt = run_echo_cycle(p, p, ens, pulse, 25.0)
        self.assert_same_cycle(cold, warm)
        self.assert_same_cycle(cold, rebuilt)

    def test_rebuilt_basis_reads_no_stale_operator(self, matched):
        p = matched.with_(t2=987.0)
        ens = ensemble_for_params(p, n_sim=97)
        pulse = PulseSpec(duration=5.0)
        first = run_echo_cycle(p, p, ens, pulse, 25.0)
        old_basis = dynamics._modal_basis(p, ens)
        old_op = dynamics._node_operator.entry[2]
        dynamics._cached_basis.cache_clear()
        again = run_echo_cycle(p, p, ens, pulse, 25.0)
        basis, folded, op, _ = dynamics._node_operator.entry
        assert basis is dynamics._modal_basis(p, ens)
        assert basis is not old_basis and op is not old_op
        self.assert_same_cycle(first, again)


class TestStageBlocks:
    """A stage runs over blocks of _MIN_BLOCK nodes when its budget is 0:
    each case agrees with the same stage run as one block to rounding, and
    with DOP853."""

    @staticmethod
    def blocked(monkeypatch, stage, *args, budget=0, **kw):
        """The stage under a block budget, by default in blocks of
        _MIN_BLOCK samples, with the (folded, samples) of every block."""
        calls = []
        inner = dynamics._state_at

        def recording(op, c, folded):
            calls.append((folded, c.shape[1]))
            return inner(op, c, folded)

        with monkeypatch.context() as m:
            m.setattr(dynamics, "_state_at", recording)
            m.setattr(dynamics, "_BLOCK_BYTES", budget)
            trace = stage(*args, **kw)
        return trace, calls

    @staticmethod
    def one_block(monkeypatch, stage, *args, **kw):
        """The same stage with a budget above its coordinates."""
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_BLOCK_BYTES", 10 ** 12)
            return stage(*args, **kw)

    @staticmethod
    def agree(got, ref):
        assert np.array_equal(got.times, ref.times)
        for name in ("cavity1", "control", "cavity2", "p_ensemble",
                     "out_flux_integral", "control_loss_integral",
                     "t2_loss_integral"):
            x, y = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), name
        x, y = got.ensemble.coherences, ref.ensemble.coherences
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    @staticmethod
    def against_dop853(got, p, ens, pulse, span, output_dt):
        drive = pulse.amplitude if pulse is not None else None
        ref = integrate(p, ens, drive, span, ens.coherences.copy(), (0, 0, 0),
                        1e-10, output_dt,
                        kind="storage" if pulse is not None else "retrieval")
        assert np.array_equal(got.times, ref.times)
        assert got.ensemble.probability == pytest.approx(
            ref.ensemble.probability, rel=1e-7)
        peak = np.max(np.abs(ref.alpha_out))
        assert np.max(np.abs(got.alpha_out - ref.alpha_out)) <= 1e-7 * peak
        assert np.max(np.abs(got.out_flux_integral - ref.out_flux_integral)) \
            <= 1e-9

    @staticmethod
    def mirrored_load(ens):
        """0.25 of an excitation with b_M-1-m = conj(b_m): a
        mirror-conjugate start, which takes the folded path."""
        phases = np.random.default_rng(23).uniform(0.0, 2.0 * np.pi, ens.n)
        b0 = 0.5 * np.sqrt(ens.weights) * np.exp(1j * (phases - phases[::-1]))
        return ens.with_coherences(b0)

    def check_storage(self, monkeypatch, p, ens, pulse, span, folded):
        trace, calls = self.blocked(monkeypatch, integrate_storage, p, ens,
                                    pulse, span)
        assert len(calls) > 1 and {m for m, _ in calls} == {folded}
        assert all(0 < size <= dynamics._MIN_BLOCK for _, size in calls)
        self.agree(trace, self.one_block(monkeypatch, integrate_storage, p,
                                         ens, pulse, span))
        self.against_dop853(trace, p, ens, pulse, span, dynamics.storage_grid(
            pulse, span)[1])
        return trace

    def test_gaussian_storage_and_retrieval(self, monkeypatch, matched):
        # 401 storage and 601 retrieval samples, neither a whole number of
        # blocks, which start every _MIN_BLOCK - 1 samples; the retrieval
        # starts from the stored state, inverted
        stride = dynamics._MIN_BLOCK - 1
        p = matched.with_(t2=100.0)
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        stored = self.check_storage(monkeypatch, p, ens, PulseSpec(duration=5.0),
                                    (-30.0, 30.0), True)
        assert (stored.times.size - 1) % stride
        loaded = invert_detunings(stored.ensemble)
        trace, calls = self.blocked(monkeypatch, integrate_retrieval, p,
                                    loaded, (30.0, 50.0))
        assert (trace.times.size - 1) % stride
        assert [m for m, _ in calls] == [True] * -(-(trace.times.size - 1)
                                                   // stride)
        self.agree(trace, self.one_block(monkeypatch, integrate_retrieval, p,
                                         loaded, (30.0, 50.0)))
        self.against_dop853(trace, p, loaded, None, (30.0, 50.0), None)

    @pytest.mark.parametrize("shape", ALL_SHAPES[1:])
    def test_switching_instant_on_a_block_edge(self, monkeypatch, matched,
                                               shape):
        # the node that the second and third blocks share, node `edge`, is
        # the switching instant's first copy, then its second: `before`
        # output samples at step 1/15 precede the center, 555 steps in all
        p = matched.with_(t2=100.0)
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        pulse = PulseSpec(shape=shape, duration=2.0)
        lam = dynamics._modal_basis(p, ens).lam
        edge = 2 * (dynamics._MIN_BLOCK - 1)
        for before in (edge, edge - 1):
            start = -(before - 0.75) / 15.0
            span = (start, start + 37.0)
            times = dynamics._output_times(
                span, dynamics.storage_grid(pulse, span)[1])
            nodes = dynamics._drive_nodes(pulse, times, lam)[0]
            assert nodes[before] == nodes[before + 1] == pulse.center
            self.check_storage(monkeypatch, p, ens, pulse, span, True)

    def test_sweep_line_runs_each_stage_as_one_block(self, monkeypatch):
        # the criterion-8 sweep's line, n_sim 401 on span 10 at T2 = 100: a
        # cycle's 401 storage and 521 retrieval samples each fit the budget,
        # and agree with the same cycle over blocks of _MIN_BLOCK samples
        p = solve_matched_params(1.0, 0.0, t2=100.0)
        ens = ensemble_for_params(p, n_sim=401, span=10.0)
        pulse = PulseSpec(duration=10.0)
        one, calls = self.blocked(monkeypatch, run_echo_cycle, p, p, ens,
                                  pulse, 50.0, budget=dynamics._BLOCK_BYTES)
        assert [size for _, size in calls] == [401, 521]
        blocked, calls = self.blocked(monkeypatch, run_echo_cycle, p, p, ens,
                                      pulse, 50.0)
        # 400 and 520 steps, _MIN_BLOCK - 1 to a block
        assert len(calls) == 4 + 5
        assert all(0 < size <= dynamics._MIN_BLOCK for _, size in calls)
        for name in ("echo_probability", "fidelity_time_reversed",
                     "storage_probability"):
            assert getattr(one, name) == pytest.approx(getattr(blocked, name),
                                                       rel=1e-12, abs=0.0)
        self.agree(one.storage_trace, blocked.storage_trace)
        self.agree(one.retrieval_trace, blocked.retrieval_trace)

    @pytest.mark.parametrize("n_sim, sizes", [(401, [401]),
                                              (3201, [128, 128, 128, 20])])
    def test_block_holds_the_budget(self, monkeypatch, matched, n_sim, sizes):
        # 16 bytes per mode and sample: the 197 modes of n_sim 401 fit a
        # 401-sample storage in the budget; the 1552 of n_sim 3201 take
        # more than _BLOCK_BYTES / _MIN_BLOCK per sample, so its blocks hold
        # _MIN_BLOCK samples, the fewest a block takes
        ens = ensemble_for_params(matched, n_sim=n_sim, span=10.0)
        coords = []
        inner = dynamics._state_at

        def recording(op, c, folded):
            coords.append(c.shape)
            return inner(op, c, folded)

        monkeypatch.setattr(dynamics, "_state_at", recording)
        integrate_storage(matched, ens, PulseSpec(duration=5.0), (-30.0, 30.0))
        assert [size for _, size in coords] == sizes
        (modes,) = {modes for modes, _ in coords}
        if n_sim == 401:
            assert 16 * modes * sizes[0] <= dynamics._BLOCK_BYTES
        else:
            assert 16 * modes * dynamics._MIN_BLOCK > dynamics._BLOCK_BYTES

    def test_blocks_share_one_edge_node(self, monkeypatch, matched):
        # the samples and coordinates of every block, driven in a storage
        # and free in a retrieval: consecutive blocks share exactly one
        # node, where the drive's coordinates agree bit for bit and the
        # free evolution's, anchored in each block, to rounding
        p = matched.with_(t2=100.0)
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        pulse = PulseSpec(duration=5.0)
        stored = integrate_storage(p, ens, pulse, (-30.0, 30.0))
        loaded = invert_detunings(stored.ensemble)
        for kernel, stage, args, tol in [
                ("_drive_integrals", integrate_storage,
                 (p, ens, pulse, (-30.0, 30.0)), 0.0),
                ("_propagator", integrate_retrieval,
                 (p, loaded, (30.0, 50.0)), 1e-14)]:
            samples, coords = [], []
            inner, state_at = getattr(dynamics, kernel), dynamics._state_at

            def sampled(*a):
                samples.append(a[2])
                return inner(*a)

            def recording(op, c, folded):
                coords.append(c)
                return state_at(op, c, folded)

            with monkeypatch.context() as m:
                m.setattr(dynamics, kernel, sampled)
                m.setattr(dynamics, "_state_at", recording)
                m.setattr(dynamics, "_BLOCK_BYTES", 0)
                trace = stage(*args)
            assert len(samples) == len(coords) > 2
            assert [t.size for t in samples] == [c.shape[1] for c in coords]
            assert all(t.size == dynamics._MIN_BLOCK for t in samples[:-1])
            assert 1 < samples[-1].size <= dynamics._MIN_BLOCK
            assert np.array_equal(np.concatenate(
                [samples[0]] + [t[1:] for t in samples[1:]]), trace.times)
            for a, b in zip(coords, coords[1:]):
                assert np.max(np.abs(a[:, -1] - b[:, 0])) \
                    <= tol * np.max(np.abs(a[:, -1]))

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_loaded_storage(self, monkeypatch, shape):
        # the drive's recurrence started from the load's coordinates, blocked
        p = solve_matched_params(1.0, 0.0, t2=1e3)
        ens = self.mirrored_load(ensemble_for_params(p, n_sim=64, span=10.0))
        pulse = PulseSpec(shape=shape, duration=2.0, center=1.0)
        trace = self.check_storage(monkeypatch, p, ens, pulse, (-11.0, 13.0),
                                   True)
        assert trace.initial_probability == pytest.approx(0.25)

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_loaded_storage_is_linear(self, matched, shape):
        # storage carries its start in the drive's recurrence: from a
        # loaded ensemble it is the store into the empty one plus the free
        # evolution of the load, over 60,181 samples whose per-step
        # rounding the recurrence accumulates
        ens = ensemble_for_params(matched, n_sim=401, span=10.0)
        loaded = self.mirrored_load(ens)
        pulse = PulseSpec(shape=shape, duration=5.0)
        span = (-30.0, 10000.0)
        full = integrate_storage(matched, loaded, pulse, span)
        empty = integrate_storage(matched, ens, pulse, span)
        step = dynamics.storage_grid(pulse, span)[1]
        free = integrate_retrieval(matched, loaded, span, output_dt=step)
        assert np.array_equal(full.times, free.times)
        got = full.ensemble.coherences
        ref = empty.ensemble.coherences + free.ensemble.coherences
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_carrier_detuned_stage(self, monkeypatch, blockade30):
        # the carrier breaks the state's mirror symmetry: every mode's
        # coordinates, the unfolded operator
        p = blockade30.with_(t2=100.0)
        ens = self.mirrored_load(ensemble_for_params(p, n_sim=64, span=10.0))
        pulse = PulseSpec(duration=2.0, center=1.0, carrier_detuning=0.1)
        self.check_storage(monkeypatch, p, ens, pulse, (-11.0, 13.0), False)
