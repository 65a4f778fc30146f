import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from echoqram import dynamics
from echoqram.cli import main, parse_scenario_config
from echoqram.params import (ParameterError, params_digest,
                             solve_matched_params)
from echoqram.dynamics import (AtomEnsemble, IntegrationError, PulseShape,
                               PulseSpec, blockade_phase_check,
                               discretize_ensemble, ensemble_for_params,
                               integrate_retrieval, integrate_storage,
                               invert_detunings, run_echo_cycle,
                               transfer_function_probe)
from echoqram.spectral import (blockade_reflection, broadened_response,
                               spectral_efficiency, storage_transfer)
from oracles import (drive_integral_quadrature, gaussian_drive_closed_form,
                     integrate)

REPO = Path(__file__).resolve().parents[1]

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
        ("collective_coupling", math.nan),
        ("collective_coupling", math.inf),
    ])
    def test_ensemble_refuses_nan(self, field, value):
        good = dict(detunings=np.array([0.0, 1.0]),
                    weights=np.array([0.5, 0.5]),
                    coherences=np.zeros(2, complex), collective_coupling=1.0)
        AtomEnsemble(**good)
        with pytest.raises(ParameterError):
            AtomEnsemble(**{**good, field: value})

    def test_for_params_carries_coupling(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        assert ens.collective_coupling == matched.collective_coupling

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

    def test_solver_tol_validation(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            integrate_storage(matched, ens, PulseSpec(duration=5.0),
                              (-30.0, 30.0), solver_tol=1e-6)

    def test_grid_coupling_mismatch(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        other = matched.with_(g2=2.0 * matched.g2)
        with pytest.raises(ParameterError):
            integrate_storage(other, ens, PulseSpec(duration=5.0),
                              (-30.0, 30.0))

    def test_retrieval_needs_coherence(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            integrate_retrieval(matched, ens, (0.0, 10.0))


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
                                  50.0, keep_traces=False).fidelity_time_reversed

        assert fidelity(center) == pytest.approx(fidelity(0.0), abs=1e-9)

    def test_sweep_retrieval_grids_have_one_step(self, matched):
        # the committed sweep's durations: its dt/40 grid must not gain an
        # interval from rounding, nor a sliver next to the echo window
        cfg = parse_scenario_config(
            (REPO / "configs" / "echo_sweep_t2.json").read_text())
        ens = ensemble_for_params(matched, n_sim=64, span=cfg.span)
        for dt in cfg.sweep.values:
            echo = run_echo_cycle(matched, matched, ens, PulseSpec(duration=dt),
                                  cfg.sweep.tau_over_duration * dt)
            times = echo.retrieval_trace.times
            steps = np.diff(times)
            assert np.all(np.abs(steps - dt / 40.0) <= 1e-12 * dt), dt
            assert set(echo.echo_window) <= set(times.tolist()), dt

    @pytest.mark.parametrize("output_dt", [0.0, -1.0, math.nan, math.inf])
    def test_bad_output_step_refused(self, matched, output_dt):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError, match="output_dt"):
            integrate_storage(matched, ens, PulseSpec(duration=1.0), (-6.0, 6.0),
                              output_dt=output_dt)


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

    @pytest.mark.parametrize("extra", [(), (-6.789, 4.321), (-9.99, -9.5)])
    def test_propagator_matches_exp(self, blockade30, extra):
        # extra samples off the uniform grid, in a later block and in the
        # first, whose offsets the other blocks are compared against.  Both
        # sides round the phase lam*(t - t0) to about 2e-16 of its size,
        # which this grid keeps below 200
        p = blockade30.with_(t2=100.0)
        basis = dynamics._modal_basis(
            p, ensemble_for_params(p, n_sim=64, span=10.0))
        times = dynamics._output_times((-10.0, 10.0), 0.02, extra)
        amp = [1.0, 1j] @ np.random.default_rng(5).normal(size=(2, basis.lam.size))
        got = dynamics._propagator(basis.lam, amp, times, times[0])
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
                                  (c - 6.0 * sd, c + 300.0 * sd),
                                  store_ensemble=False)
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
        got = dynamics._drive_integrals(pulse, lam, nodes)
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
        times = dynamics._output_times((-11.0, 13.0), 2.0 / 30.0, extra)
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
        times = dynamics._output_times((-11.0, 13.0), steps * h, extra)
        self.check_drive(pulse, lam, times, extra)

    def test_drive_integrals_long_grid(self):
        # a 400-step storage grid of a long sweep pulse, whose step lengths
        # differ in the last bits: steps grouped by length must keep their
        # summed lengths on the samples, or modes near the carrier pick up
        # a phase drift of about 2e-13
        pulse = PulseSpec(duration=31.6, center=1.0, carrier_detuning=0.3)
        times = dynamics._output_times((1.0 - 6.0 * 31.6, 1.0 + 5.0 * 31.6),
                                       11.0 * 31.6 / 400.0, ())
        lam = np.array([-0.0014 - 0.29j, -0.01 + 0.5j, -1e-6 - 2.0j])
        got = dynamics._drive_integrals(pulse, lam, times)
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
        times = dynamics._output_times((-60.0, 60.0), 0.3, ())
        ref = gaussian_drive_closed_form(pulse, lam, times)
        got = dynamics._drive_integrals(pulse, lam, times)
        assert np.max(np.abs(got - ref)) <= 1.2e-14 * np.max(np.abs(ref))

    def test_gram_losses_match_dense_reference(self, blockade30):
        p = blockade30.with_(t2=100.0)
        basis = dynamics._modal_basis(p, ensemble_for_params(p, n_sim=64))
        lam = basis.lam
        times = np.linspace(0.0, 40.0, 301)
        c0 = [1.0, 1j] @ np.random.default_rng(6).normal(size=(2, lam.size))
        c = c0[:, None] * np.exp(np.multiply.outer(lam, times))
        got = dynamics._gram_losses(basis, c, p, 1.0 / p.t2)
        # dense per-channel weights, the ensemble one summed over its nodes
        v_ens = basis.ensemble_rows(0, basis.g.size)
        weights = [p.kappa * np.outer(np.conj(basis.a1), basis.a1),
                   p.gamma * np.outer(np.conj(basis.bc), basis.bc),
                   2.0 / p.t2 * (np.conj(v_ens).T @ v_ens)]
        kernel = 1.0 / np.add.outer(np.conj(lam), lam)
        for w, loss in zip(weights, got):
            phi = np.einsum("ks,kl,ls->s", np.conj(c), w * kernel, c).real
            ref = phi - phi[0]
            assert np.max(np.abs(loss - ref)) <= 1e-12 * np.max(np.abs(ref))


def overlaps(pulse, t, a_out, delays):
    """The fidelity objective: normalized trapezoid overlap of a_out with
    the conjugated pulse mirrored at each delay."""
    ref = np.conj(pulse.amplitude(np.asarray(delays)[:, None] - t))
    num = np.abs(np.trapezoid(np.conj(ref) * a_out, t, axis=1)) ** 2
    return num / (np.trapezoid(np.abs(ref) ** 2, t, axis=1)
                  * np.trapezoid(np.abs(a_out) ** 2, t))


class TestFidelitySearch:
    @pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN,
                                       PulseShape.DECAYING_EXPONENTIAL])
    def test_two_peaks_returns_the_higher(self, shape):
        # the lower peak sits where a bounded Brent search starts, seven
        # durations from the higher one; an exponential's overlap is a
        # staircase in the delay, one step per sample
        pulse = PulseSpec(shape=shape, duration=0.3)
        t = np.linspace(-4.0, 4.0, 1601)
        lo, hi = -2.0, 2.0
        low, high = lo + 0.38 * (hi - lo), 1.6
        a_out = 0.8 * np.conj(pulse.amplitude(low - t)) \
            + np.conj(pulse.amplitude(high - t))
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
        echo = run_echo_cycle(p, p, ens, pulse, cfg.tau, keep_traces=False)
        center = pulse.center + 2.0 * cfg.tau
        delays = np.linspace(center - 2.0 * pulse.duration,
                             center + 2.0 * pulse.duration, 4001)
        grid = overlaps(pulse, echo.output_times, echo.output_waveform, delays)
        assert echo.fidelity_time_reversed >= np.max(grid) - 1e-12


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


class TestModalPropagator:
    """The modal propagator against the adaptive DOP853 integrator."""

    @staticmethod
    def clipped_grid(p):
        # clip harder than discretize_ensemble does, so that several
        # nodes share each edge detuning and get merged
        ens = ensemble_for_params(p, n_sim=64, span=10.0)
        det = np.clip(ens.detunings, -4.0, 4.0)
        assert np.count_nonzero(np.diff(det) == 0) >= 4
        return AtomEnsemble(det, ens.weights, ens.coherences,
                            ens.collective_coupling)

    @staticmethod
    def oracle_cycle(monkeypatch, p_store, p_read, ens, pulse, tau):
        """run_echo_cycle with both stages integrated by DOP853."""
        tol = 1e-10

        def storage(p, e, pl, span, solver_tol=1e-9, *, output_dt=None,
                    store_ensemble=True):
            if output_dt is None:
                output_dt = min(pl.duration / 30.0, (span[1] - span[0]) / 400.0)
            return integrate(p, e, pl.amplitude, span,
                             np.zeros(e.n, complex), (0, 0, 0), tol,
                             output_dt)

        def retrieval(p, e, span, solver_tol=1e-9, *, output_dt=None,
                      extra_eval=(), store_ensemble=True):
            return integrate(p, e, None, span, e.coherences.copy(),
                             (0, 0, 0), tol, output_dt,
                             extra_eval=extra_eval, kind="retrieval")

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

    def test_nan_solver_tol_rejected(self, matched):
        ens = ensemble_for_params(matched, n_sim=64)
        with pytest.raises(ParameterError):
            integrate_storage(matched, ens, PulseSpec(duration=5.0),
                              (-30.0, 30.0), solver_tol=math.nan)
