import json
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from echoqram.cli import ConfigError, parse_scenario_config
from echoqram.params import (ParameterError, SystemParams, check_matching,
                             cooperativities, params_digest,
                             second_condition_target, solve_matched_params)


def make(**kw):
    base = dict(kappa=1.0, gamma=1.0, g1=0.0, g2=math.sqrt(0.125 / 1000),
                f2=0.5 ** 1.5, n_atoms=1000, delta_in=0.5)
    base.update(kw)
    return SystemParams(**base)


class TestCooperativities:
    def test_hand_example(self):
        # 2 * f2^2 * delta_in / (kappa * N g2^2) with every factor chosen
        # so the arithmetic is doable on paper: 2 * 0.25 * 0.5 / 0.25 = 1.
        p = make(g1=0.5, g2=math.sqrt(0.25 / 1000), f2=0.5)
        c = cooperativities(p)
        assert c.c_pm == pytest.approx(1.0, rel=1e-12)
        assert c.c_atom == pytest.approx(0.25, rel=1e-12)

    def test_zero_pump_rejected(self):
        with pytest.raises(ParameterError):
            cooperativities(make(g2=0.0))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           c_atom=st.floats(min_value=0.0, max_value=100.0))
    def test_scale_invariance(self, scale, c_atom):
        # Both cooperativities are ratios of rates, so rescaling every
        # frequency by the same factor must leave them unchanged.
        p = solve_matched_params(1.0, c_atom, t2=2e3)
        q = SystemParams(kappa=p.kappa * scale, gamma=p.gamma * scale,
                         g1=p.g1 * scale, g2=p.g2 * scale, f2=p.f2 * scale,
                         n_atoms=p.n_atoms, delta_in=p.delta_in * scale,
                         delta_c=p.delta_c * scale, t2=p.t2 / scale)
        a, b = cooperativities(p), cooperativities(q)
        assert b.c_pm == pytest.approx(a.c_pm, rel=1e-9)
        assert b.c_atom == pytest.approx(a.c_atom, rel=1e-9)


class TestMatching:
    def test_solved_anchor_values(self):
        p = solve_matched_params(1.0, 0.0)
        assert p.delta_in == pytest.approx(0.5, abs=1e-15)
        assert p.collective_coupling == pytest.approx(0.125, rel=1e-14)
        assert p.f2 == pytest.approx(0.3535533905932738, abs=1e-15)
        assert p.g2 == pytest.approx(0.011180339887498949, abs=1e-15)
        assert p.g1 == 0.0
        assert check_matching(p).all_matched

    def test_solved_with_atom(self):
        p = solve_matched_params(2.0, 10.0)
        assert p.g1 == pytest.approx(math.sqrt(10.0 * 2.0 * 2.0), rel=1e-14)
        assert cooperativities(p).c_atom == pytest.approx(10.0, rel=1e-12)
        assert check_matching(p).all_matched

    def test_second_condition_target(self):
        p = solve_matched_params(1.0, 0.0)
        assert second_condition_target(p) == pytest.approx(0.25, rel=1e-14)
        assert p.collective_coupling / p.delta_in == pytest.approx(
            0.25, rel=1e-14)

    def test_bandwidth_residual(self):
        p = solve_matched_params(1.0, 0.0).with_(delta_in=1.0)
        rep = check_matching(p)
        assert rep.third_condition_residual == pytest.approx(0.5, abs=1e-12)
        assert not rep.all_matched

    def test_pm_residual(self):
        p = solve_matched_params(1.0, 0.0)
        rep = check_matching(p.with_(f2=p.f2 * math.sqrt(2.0)))
        assert rep.c_pm_residual == pytest.approx(1.0, rel=1e-12)
        assert not rep.all_matched

    def test_report_dict_keys(self):
        d = check_matching(solve_matched_params(1.0, 0.0)).to_dict()
        for key in ("c_pm_residual", "second_condition_residual",
                    "third_condition_residual", "all_matched"):
            assert key in d

    @given(kappa=st.floats(min_value=1e-3, max_value=1e3),
           c_atom=st.floats(min_value=0.0, max_value=1e3))
    def test_solve_then_check(self, kappa, c_atom):
        assert check_matching(solve_matched_params(kappa, c_atom)).all_matched

    @pytest.mark.parametrize("kw", [
        dict(n_atoms=0), dict(n_atoms=-1.0), dict(n_atoms=2.5),
        dict(n_atoms=math.nan), dict(n_atoms=math.inf),
        dict(gamma=0.0), dict(gamma=-1.0), dict(gamma=math.nan),
    ])
    def test_solve_rejects_bad_inputs(self, kw):
        # each would otherwise reach a square root of a negative number
        # or the division by n_atoms
        with pytest.raises(ParameterError):
            solve_matched_params(1.0, 30.0, **kw)


class TestValidation:
    @pytest.mark.parametrize("kw", [
        dict(kappa=0.0), dict(kappa=-1.0), dict(gamma=0.0),
        dict(delta_in=0.0), dict(delta_in=-0.5), dict(g1=-0.1),
        dict(g2=-1e-3), dict(f2=-0.2), dict(n_atoms=0), dict(n_atoms=-5),
        dict(t2=0.0), dict(t2=-2.0), dict(kappa=math.nan),
        dict(delta_c=math.inf),
    ])
    def test_rejected(self, kw):
        with pytest.raises(ParameterError):
            make(**kw)

    @pytest.mark.parametrize("kw", [
        dict(n_atoms=math.inf), dict(n_atoms=math.nan), dict(kappa=math.inf),
        dict(gamma=math.inf), dict(delta_in=math.inf),
    ])
    def test_non_finite_refused(self, kw):
        # a count that int() cannot take, or a rate that makes c_pm inf
        with pytest.raises(ParameterError):
            make(**kw)

    def test_infinite_t2_allowed(self):
        assert math.isinf(make(t2=math.inf).t2)

    def test_frozen(self):
        p = make()
        with pytest.raises(AttributeError):
            p.kappa = 2.0

    def test_with_returns_new(self):
        p = make()
        q = p.with_(g1=0.25)
        assert q.g1 == 0.25 and p.g1 == 0.0 and q is not p

    def test_error_names_its_argument_and_pickles(self):
        # sweep workers raise it across a process boundary
        exc = pickle.loads(pickle.dumps(ParameterError("tau = 1 too small",
                                                       arg="tau")))
        assert (str(exc), exc.arg) == ("tau = 1 too small", "tau")
        assert ParameterError("bare").arg is None


def read_back(d: dict) -> SystemParams:
    """A parameter dict through the config reader, as a config's params."""
    text = json.dumps({"scenario": "check_matching", "params": d})
    return parse_scenario_config(text).params


class TestSerialization:
    """to_dict writes what a config's params object reads back."""

    def test_roundtrip_infinite_t2(self):
        p = solve_matched_params(1.0, 30.0)
        assert read_back(p.to_dict()) == p
        assert p.to_dict()["t2"] == "inf"

    def test_roundtrip_finite_t2(self):
        p = solve_matched_params(2.5, 3.0, t2=1e4, delta_c=0.3)
        assert read_back(p.to_dict()) == p

    def test_unknown_key_named(self):
        d = make().to_dict()
        d["zeta"] = 1.0
        with pytest.raises(ConfigError, match="zeta"):
            read_back(d)
        with pytest.raises(ConfigError, match="kappa"):
            # the error lists which keys would have been accepted
            read_back(d)

    def test_missing_key(self):
        d = make().to_dict()
        del d["kappa"]
        with pytest.raises(ConfigError, match="'params.kappa'"):
            read_back(d)

    def test_digest_stable_and_sensitive(self):
        p = make()
        assert params_digest(p) == params_digest(make())
        assert params_digest(p) != params_digest(make(g1=0.1))
        assert len(params_digest(p)) == 12

    def test_digest_of_an_integral_float_n_atoms(self):
        # equal parameter sets share one digest, however N was written
        p, q = make(n_atoms=1000), make(n_atoms=1000.0)
        assert p == q and hash(p) == hash(q)
        assert params_digest(p) == params_digest(q)
        assert type(q.n_atoms) is int
