import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from echoqram.cli import ConfigError, main, parse_scenario_config
from echoqram.dynamics import PulseSpec
from echoqram.params import (ParameterError, params_digest,
                             solve_matched_params)
from echoqram.spectral import (blockade_reflection, broadened_response,
                               lorentzian_lineshape, matched_window,
                               resonant_efficiency, spectral_efficiency,
                               storage_transfer)
from oracles import (broadened_response_quadrature, echo_spectrum,
                     echo_probability_narrowband)


def photon(nu, duration):
    """Unit-norm Gaussian input photon sampled at the frequencies nu."""
    return PulseSpec(duration=duration).spectral_amplitude(nu)


def spectra_artifact(p, tmp_path, fmt):
    """Run the spectra subcommand on a 9-point grid; return the artifact."""
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"scenario": "spectra", "params": p.to_dict(),
                                  "grid": {"span": 1.0, "n": 9}}))
    path = tmp_path / f"eff.{fmt}"
    assert main(["spectra", "--config", str(config), "--out", str(path),
                 "--format", fmt]) == 0
    return path.read_text()


def with_c_pm(p, c_pm):
    """Rescale the pump so the photonic-molecule cooperativity hits c_pm."""
    f2 = math.sqrt(c_pm * p.kappa * p.collective_coupling / (2.0 * p.delta_in))
    return p.with_(f2=f2)


class TestBroadenedResponse:
    def test_resonant_value(self):
        assert broadened_response(0.0, 0.5) == pytest.approx(2.0 + 0.0j)

    @pytest.mark.parametrize("delta_in,delta", [
        (0.5, 0.0), (0.5, 0.3), (1.0, -1.7), (2.3, 5.0)])
    def test_closed_form_vs_quadrature(self, delta_in, delta):
        # dual route: the closed form against direct integration of the
        # regulated line integral, independently of any algebra above it
        ref = broadened_response_quadrature(delta, delta_in)
        got = broadened_response(delta, delta_in)
        assert abs(got - ref) <= 1e-4 * abs(ref)

    def test_far_wing(self):
        d_in = 0.5
        far = 100.0 * d_in
        assert abs(broadened_response(far, d_in)) * far == pytest.approx(
            1.0, rel=0.02)

    @given(delta=st.floats(min_value=-50, max_value=50),
           delta_in=st.floats(min_value=1e-3, max_value=10))
    def test_conjugate_symmetry(self, delta, delta_in):
        a = broadened_response(delta, delta_in)
        b = broadened_response(-delta, delta_in)
        assert b == pytest.approx(a.conjugate(), rel=1e-12)

    def test_quadrature_regulator_validation(self):
        with pytest.raises(ParameterError):
            broadened_response_quadrature(0.0, 0.5, epsilon=1.0)


class TestLorentzian:
    def test_normalization_dual_route(self):
        d_in = 0.5
        span = 1000.0 * d_in
        num, _ = quad(lambda nu: lorentzian_lineshape(nu, d_in), -span, span,
                      limit=400)
        exact = 2.0 / math.pi * math.atan(span / d_in)
        assert num == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(1.0, abs=1e-3)

    def test_peak_value(self):
        assert lorentzian_lineshape(0.0, 2.0) == pytest.approx(
            1.0 / (2.0 * math.pi))

    def test_rejects_bad_width(self):
        with pytest.raises(ParameterError):
            lorentzian_lineshape(0.0, 0.0)


class TestMatchedWindow:
    def test_identity_on_matched_params(self, matched):
        # the matched memory's efficiency IS the sixth-order window,
        # not just approximately: agreement at full double precision
        nu = np.linspace(-1.0, 1.0, 2001)
        delta = np.max(np.abs(spectral_efficiency(nu, matched)
                              - matched_window(nu, matched.kappa)))
        assert delta < 1e-12

    def test_value_at_kappa(self):
        assert matched_window(1.0, 1.0) == pytest.approx(1.0 / 65.0, rel=1e-14)

    def test_resonant_efficiency_matched(self, matched):
        assert abs(resonant_efficiency(matched) - 1.0) < 1e-9


class TestResonantEfficiency:
    def test_transfer_branch(self, matched):
        p = with_c_pm(matched, 2.0)
        assert resonant_efficiency(p) == pytest.approx(8.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("c_pm,c_atom", [
        (1.0, 30.0), (1.0, 300.0), (2.0, 10.0), (0.5, 5.0)])
    def test_blockade_branch_dual_route(self, matched, c_pm, c_atom):
        # full spectral formula at nu = 0 against the closed cooperativity
        # form 4*C_pm/(1 + C_pm + 4C)^2; both must give the same number
        p = with_c_pm(matched, c_pm).with_(
            g1=math.sqrt(c_atom * matched.kappa * matched.gamma))
        closed = 4.0 * c_pm / (1.0 + c_pm + 4.0 * c_atom) ** 2
        assert resonant_efficiency(p) == pytest.approx(closed, rel=1e-10)
        assert spectral_efficiency(0.0, p) == pytest.approx(closed, rel=1e-10)

    def test_blockade_suppression_values(self, blockade30):
        eps = resonant_efficiency(blockade30)
        assert eps == pytest.approx((1.0 + 2.0 * 30.0) ** -2, rel=1e-12)
        assert eps == pytest.approx(0.00026874496103198073, rel=1e-12)
        # agrees with the coarser two-digit figure to 5%
        assert eps == pytest.approx(2.6e-4, rel=0.05)

    def test_blockade_suppression_c300(self, matched):
        p = solve_matched_params(1.0, 300.0)
        eps = resonant_efficiency(p)
        assert eps == pytest.approx((1.0 + 2.0 * 300.0) ** -2, rel=1e-12)
        assert eps == pytest.approx(2.77e-6, rel=2e-3)

    def test_detuned_control_atom(self, matched):
        # off-resonant control: the dispersive shift enters through both
        # quadratures of the atom response; check the full formula against
        # a literal transcription evaluated here
        p = matched.with_(g1=math.sqrt(5.0), delta_c=0.7)
        lor = 0.7 ** 2 + 0.25
        x = 5.0 / lor
        y = 2.0 * 0.7 * 5.0 / lor
        expect = 4.0 / ((2.0 + x) ** 2 + y ** 2)
        assert resonant_efficiency(p) == pytest.approx(expect, rel=1e-12)
        assert spectral_efficiency(0.0, p) == pytest.approx(expect, rel=1e-10)

    @given(c_pm=st.floats(min_value=0.05, max_value=3.0),
           c_atom=st.floats(min_value=0.0, max_value=100.0),
           delta_c=st.floats(min_value=-2.0, max_value=2.0),
           nu=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=80)
    def test_passivity(self, matched, c_pm, c_atom, delta_c, nu):
        p = with_c_pm(matched, c_pm).with_(
            g1=math.sqrt(c_atom * matched.kappa * matched.gamma),
            delta_c=delta_c)
        eps = spectral_efficiency(nu, p)
        assert -1e-12 <= eps <= 1.0 + 1e-9


class TestStorageTransfer:
    @given(nu=st.floats(min_value=-5.0, max_value=5.0),
           c_atom=st.floats(min_value=0.0, max_value=50.0))
    def test_conjugate_symmetry_on_resonance(self, matched, nu, c_atom):
        p = matched.with_(g1=math.sqrt(c_atom * matched.kappa * matched.gamma))
        a = storage_transfer(nu, p)
        b = storage_transfer(-nu, p)
        assert b == pytest.approx(a.conjugate(), rel=1e-12, abs=1e-15)


class TestBlockadeReflection:
    def test_matched_transfer_absorbs_everything(self, matched):
        assert abs(blockade_reflection(0.0, matched)) < 1e-12

    def test_blockaded_bounce(self, blockade30):
        f = blockade_reflection(0.0, blockade30)
        assert f.real == pytest.approx(-60.0 / 61.0, rel=1e-12)
        assert abs(f.imag) < 1e-12
        assert abs(f) ** 2 == pytest.approx(0.9674818597151303, rel=1e-12)

    def test_narrowband_echo_probability(self, matched):
        p = with_c_pm(matched, 2.0)
        assert echo_probability_narrowband(p, 0.0) == pytest.approx(
            64.0 / 81.0, rel=1e-12)
        q = p.with_(t2=100.0)
        assert echo_probability_narrowband(q, 25.0) == pytest.approx(
            64.0 / 81.0 * math.exp(-1.0), rel=1e-12)
        with pytest.raises(ParameterError):
            echo_probability_narrowband(p, -1.0)


class TestGridAndSpectrum:
    def test_uniform_grid(self, matched, tmp_path, capsys):
        # the spectra grid: n points from center - span to center + span
        config = tmp_path / "g.json"
        config.write_text(json.dumps({
            "scenario": "spectra", "params": matched.to_dict(),
            "grid": {"span": 2.0, "n": 5, "center": 0.5}}))
        path = tmp_path / "g.json.out"
        assert main(["spectra", "--config", str(config), "--out", str(path),
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["nu"] == [-1.5, -0.5, 0.5, 1.5,
                                                       2.5]

    def test_grid_validation(self, tmp_path, capsys):
        # a grid whose points overflow or round onto each other is refused
        # while the config is read, at the line of "grid", and nothing
        # else reaches stderr (no numpy warning either)
        for grid, message in (
                ({"span": 1e-10, "n": 1201, "center": 1e10},
                 "'grid' points must strictly increase"),
                ({"span": 1e308, "n": 5, "center": 1e308},
                 "'grid' points must be finite")):
            text = "\n".join([
                "{", ' "scenario": "spectra",',
                ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
                f' "grid": {json.dumps(grid)}', "}"])
            with pytest.raises(ConfigError, match=message):
                parse_scenario_config(text)
            path = tmp_path / "bad.json"
            path.write_text(text)
            assert main(["spectra", "--config", str(path),
                         "--out", str(tmp_path / "s.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {path}:4: {message}")
            assert err.count("\n") == 1

    def test_gaussian_photon_norm(self):
        nu = np.linspace(-8.0, 8.0, 4096)
        norm = np.trapezoid(np.abs(photon(nu, duration=1.0)) ** 2, nu)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_efficiency_spectrum_csv(self, matched, tmp_path, capsys):
        # efficiency spectra reach files through the spectra artifact
        lines = spectra_artifact(matched, tmp_path, "csv").splitlines()
        capsys.readouterr()
        comments = [l for l in lines if l.startswith("#")]
        assert f"# params_sha256={params_digest(matched)}" in comments
        assert "# scenario=spectra" in comments
        rows = list(csv.reader(l for l in lines if not l.startswith("#")))
        assert rows[0][:2] == ["nu", "eps_transfer"]
        assert len(rows) == 1 + 9
        assert float(rows[5][1]) == pytest.approx(1.0, abs=1e-9)  # nu = 0

    def test_transfer_spectrum_json(self, matched, tmp_path, capsys):
        doc = json.loads(spectra_artifact(matched, tmp_path, "json"))
        capsys.readouterr()
        assert doc["scenario"] == "spectra"
        assert doc["params_sha256"] == params_digest(matched)
        assert len(doc["nu"]) == len(doc["eps_transfer"]) == 9
        assert doc["eps_transfer"] == spectral_efficiency(
            np.array(doc["nu"]), matched).tolist()

    def test_reflection_spectrum_runs(self, blockade30):
        nu = np.linspace(-1.0, 1.0, 33)
        values = blockade_reflection(nu, blockade30)
        mid = abs(values[16]) ** 2
        assert mid == pytest.approx((60.0 / 61.0) ** 2, rel=1e-9)


class TestEchoSpectrum:
    def test_total_probability_narrowband(self, matched):
        # dual route: spectral-overlap echo probability against the
        # closed narrowband law, valid once the pulse is much narrower
        # than the window (duration 40/kappa -> 0.05*kappa bandwidth)
        p = matched.with_(t2=1e4)
        nu = np.linspace(-0.5, 0.5, 4001)
        tau = 200.0
        out = echo_spectrum(nu, photon(nu, duration=40.0), p, p, tau)
        total = np.trapezoid(np.abs(out) ** 2, nu)
        narrow = echo_probability_narrowband(p, tau)
        assert total == pytest.approx(narrow, rel=5e-3)

    def test_requires_symmetric_grid(self, matched):
        asym = np.linspace(-1.0, 2.0, 65)
        with pytest.raises(ParameterError):
            echo_spectrum(asym, photon(asym, duration=40.0), matched,
                          matched, 1.0)

    def test_requires_unit_norm(self, matched):
        nu = np.linspace(-0.5, 0.5, 513)
        half = 0.5 * photon(nu, duration=40.0)
        with pytest.raises(ParameterError):
            echo_spectrum(nu, half, matched, matched, 1.0)
