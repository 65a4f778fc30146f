import builtins
import concurrent.futures
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from echoqram import __version__
from echoqram.cli import (_SCHEMA, _SUBCOMMANDS, ConfigError, Scenario,
                          ScenarioConfig, _dump, _key_lines, _listed, main,
                          parse_scenario_config, run_sweep)
from echoqram.dynamics import MIN_N_SIM, discretize_ensemble
from echoqram.params import (MAX_BINS, MAX_N_SIM, MAX_SAMPLES, ParameterError,
                             params_digest, solve_matched_params)

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

MATCHED = {"matched": {"kappa": 1.0, "c_atom": 0.0}}
# the matched parameters of MATCHED, spelled out
EXPLICIT = {"kappa": 1.0, "gamma": 1.0, "g1": 0.0, "g2": 0.011180339887498949,
            "f2": 0.3535533905932738, "n_atoms": 1000, "delta_in": 0.5}
#: the subcommand that runs each scenario
COMMAND = {s.value: name for name, (s, _) in _SUBCOMMANDS.items()}


def cfg_text(**doc):
    return json.dumps(doc, indent=1)


def indent_lines(value, path="", line=1, lines=None, ends=None):
    """First and last line of every key path in json.dumps(value, indent=1),
    where each key and list item starts a line of its own."""
    if lines is None:
        lines, ends = {}, {}
    lines[path] = line
    if isinstance(value, dict) and value:
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list) and value:
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        items = None
    if items:
        for item_path, item in items:
            indent_lines(item, item_path, ends.get(path, line) + 1, lines, ends)
            ends[path] = ends[item_path]
        ends[path] += 1                      # the closing bracket
    else:
        ends[path] = line
    return lines, ends


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_minimal_spectra(self):
        cfg = parse_scenario_config(cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 2.0, "n": 11}))
        assert cfg.scenario is Scenario.SPECTRA
        assert cfg.grid.span == 2.0
        assert cfg.params.delta_in == 0.5

    def test_one_field_per_top_level_key(self):
        # each top-level key builds its own value, and nothing else does
        assert ([f.name for f in dataclasses.fields(ScenarioConfig)]
                == [key.path for key in _SCHEMA if "." not in key.path])

    def test_committed_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = parse_scenario_config(path.read_text(), source=str(path))
            assert cfg.scenario is not None, path.name

    def test_explicit_params_with_inf_t2(self):
        cfg = parse_scenario_config(cfg_text(
            scenario="check_matching",
            params={"kappa": 1.0, "gamma": 1.0, "g1": 0.0,
                    "g2": 0.011180339887498949, "f2": 0.3535533905932738,
                    "n_atoms": 1000, "delta_in": 0.5, "delta_c": 0.0,
                    "t2": "inf"}))
        assert math.isinf(cfg.params.t2)


class TestParseErrors:
    def check(self, doc, needle):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_config(cfg_text(**doc), source="test.json")
        assert needle in str(exc.value)
        return exc.value

    def test_unknown_top_key_lists_accepted(self):
        err = self.check(dict(scenario="spectra", params=MATCHED,
                              grid={"span": 1.0, "n": 3}, shenanigans=1),
                         "shenanigans")
        assert "accepted here" in str(err)
        assert "scenario" in str(err)

    def test_bad_json_has_line_and_column(self):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_config('{"scenario": }', source="bad.json")
        msg = str(exc.value)
        assert msg.startswith("bad.json:1:")
        assert "invalid JSON" in msg

    def test_param_validation_is_anchored(self):
        text = cfg_text(scenario="spectra",
                        params={"matched": {"kappa": -1.0, "c_atom": 0.0}},
                        grid={"span": 1.0, "n": 3})
        with pytest.raises(ConfigError) as exc:
            parse_scenario_config(text, source="neg.json")
        msg = str(exc.value)
        assert "kappa" in msg
        assert "neg.json:" in msg

    def test_unknown_scenario(self):
        self.check(dict(scenario="warp"), "unknown scenario")

    def test_sweep_whitelist(self):
        err = self.check(dict(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0, sweep={"parameter": "n_atoms", "values": [1, 2]}),
            "not allowed")
        assert "pulse_duration" in str(err)

    def test_sweep_empty_values(self):
        self.check(dict(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0, sweep={"parameter": "tau", "values": []}),
            "nonempty")

    def test_curve_values_without_parameter(self):
        self.check(dict(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0, sweep={"parameter": "tau", "values": [25.0],
                             "curve_values": [1.0]}),
            "curve_values without curve_parameter")

    def test_pulse_duration_sweep_rejects_explicit_tau(self):
        self.check(dict(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0,
            sweep={"parameter": "pulse_duration", "values": [5.0]}),
            "remove the explicit 'tau'")

    def test_echo_requires_tau(self):
        self.check(dict(scenario="echo_cycle", params=MATCHED,
                        pulse={"duration": 5.0}),
                   "requires 'tau'")

    def test_blockade_requires_coupled_read_atom(self):
        self.check(dict(scenario="blockade", params=MATCHED,
                        read_params=MATCHED, pulse={"duration": 5.0},
                        tau=25.0),
                   "read_params")

    def test_address_from_dynamics_needs_params_and_tau(self):
        self.check(dict(
            scenario="address",
            address={"amplitudes": [[1.0, 0.0]]},
            efficiencies={"from_dynamics": True}),
            "from_dynamics")

    def test_bin_times_are_unknown_keys(self):
        # address.bin_spacing and address.bin_duration changed no result
        err = self.check(dict(scenario="address",
                              address={"amplitudes": [[1.0, 0.0]],
                                       "bin_spacing": 100.0}),
                         "unknown key 'address.bin_spacing'")
        assert "accepted here: amplitudes" in str(err)

    def test_unread_key_refused_at_its_line(self, tmp_path, capsys):
        # check_matching reads only params and output; the first key it
        # does not read is refused at its own line
        text = cfg_text(scenario="check_matching", params=MATCHED,
                        grid={"span": 0.5, "n": 3}, t_span=[5, 1],
                        pulse={"duration": 5.0})
        path = write(tmp_path, "m.json", text)
        assert main(["check-matching", "--config", str(path),
                     "--out", str(tmp_path / "m.csv")]) == 2
        line = indent_lines(json.loads(text))[0]["grid"]
        assert capsys.readouterr().err == (
            f"config error: {path}:{line}: 'grid' given but scenario is "
            "'check_matching', which does not read it\n")

    def test_needed_keys_are_read(self):
        for key in _SCHEMA:
            assert set(key.needed_by) <= set(key.read_by), key.path
            assert bool(key.read_by) == ("." not in key.path), key.path

    def test_sweep_key_on_other_scenario(self):
        self.check(dict(scenario="spectra", params=MATCHED,
                        grid={"span": 1.0, "n": 3},
                        sweep={"parameter": "tau", "values": [1.0]}),
                   "scenario is 'spectra'")

    @pytest.mark.parametrize("lines, anchor, message", [
        # "params" shadowed by the earlier "read_params"
        (['{',
          ' "scenario": "check_matching",',
          ' "read_params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "params": {"matched": {"kappa": "x", "c_atom": 0.0}}',
          '}'], 4, "'params.matched.kappa' must be a number, got 'x'"),
        # "grid.span" shadowed by a top-level "span"
        (['{',
          ' "scenario": "spectra",',
          ' "span": 10.0,',
          ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "grid": {"span": 0.0, "n": 5}',
          '}'], 5, "'grid.span' must be > 0, got 0.0"),
        # a missing key: at the object that lacks it
        (['{',
          ' "scenario": "spectra",',
          ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "grid": {',
          '  "span": 1.0',
          ' }',
          '}'], 4, "missing required key 'grid.n'"),
        # a scenario's requirement: at "scenario"
        (['{',
          ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "pulse": {"duration": 5.0},',
          ' "scenario": "echo_cycle"',
          '}'], 4, "scenario 'echo_cycle' requires 'tau'"),
        # a list item: at the item's own line
        (['{',
          ' "scenario": "sweep",',
          ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "pulse": {"duration": 5.0},',
          ' "tau": 25.0,',
          ' "sweep": {"parameter": "tau", "values": [',
          '  25.0,',
          '  "values"',
          ' ]}',
          '}'], 8, "'sweep.values[1]' must be a number, got 'values'"),
        # a library refusal: at the object the library refused
        (['{',
          ' "scenario": "echo_cycle",',
          ' "params": {"matched": {"kappa": 1.0, "c_atom": 0.0}},',
          ' "tau": 25.0,',
          ' "pulse": {',
          '  "duration": -5.0',
          ' }',
          '}'], 5, "'pulse': pulse duration must be positive"),
    ], ids=["params-after-read_params", "grid.span-after-span",
            "missing-grid.n", "scenario-requirement", "list-item",
            "library-refusal"])
    def test_anchor_is_the_key_path_line(self, lines, anchor, message):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_config("\n".join(lines), source="k.json")
        assert str(exc.value).startswith(f"k.json:{anchor}: {message}")


class TestMain:
    def test_scenario_subcommand_mismatch(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 3}))
        assert main(["echo", "--config", str(path)]) == 2
        assert "expects 'echo_cycle'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spectra", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"scenario": }')
        assert main(["spectra", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_spectra_artifact(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 41}))
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", str(path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# config_sha256=") for l in comments)
        assert any(l.startswith("# version=") for l in comments)
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == ["nu", "eps_transfer", "eps_transfer_db",
                                     "eps_blockade", "eps_blockade_db"]
        rows = [l.split(",") for l in lines
                if not l.startswith("#") and l != header]
        assert len(rows) == 41
        mid = rows[20]
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(1.0, abs=1e-9)

    def test_spectra_columns_match_scalar_path(self, tmp_path, capsys):
        # one vectorized call per curve gives the numbers of the
        # point-by-point evaluation
        from echoqram.params import solve_matched_params
        from echoqram.spectral import spectral_efficiency
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra",
            params={"matched": {"kappa": 1.0, "c_atom": 10.0}},
            grid={"span": 3.0, "n": 121}))
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        p = solve_matched_params(1.0, 10.0)
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert len(rows) == 121
        for nu, eps_t, _, eps_b, _ in rows:
            for got, expect in ((eps_t, spectral_efficiency(nu, p.with_(g1=0.0))),
                                (eps_b, spectral_efficiency(nu, p))):
                assert abs(got - expect) <= 1e-15 * abs(expect)

    def test_check_matching_json(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", cfg_text(
            scenario="check_matching", params=MATCHED))
        out = tmp_path / "m.json"
        assert main(["check-matching", "--config", str(path), "--out",
                     str(out), "--format", "json"]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["all_matched"] is True
        assert doc["c_pm"] == pytest.approx(1.0, rel=1e-12)
        assert "config_sha256" in doc

    def test_address_artifact(self, tmp_path, capsys):
        r = 1.0 / math.sqrt(3.0)
        path = write(tmp_path, "a.json", cfg_text(
            scenario="address",
            address={"amplitudes": [[r, 0.0], [r, 0.0], [r, 0.0]]}))
        out = tmp_path / "a_out.json"
        assert main(["address", "--config", str(path), "--out", str(out),
                     "--format", "json"]) == 0
        # like every other command: the summary and the artifact's path
        assert capsys.readouterr().out.splitlines() == [
            "address: 3 terms, norm 1.000000000000", f"wrote {out}"]
        doc = json.loads(out.read_text())
        assert doc["m"] == 3
        assert len(doc["terms"]) == 3
        for term in doc["terms"]:
            amp = complex(term["amplitude"]["re"], term["amplitude"]["im"])
            assert amp == pytest.approx(-r, rel=1e-12)
        assert doc["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_store_runs_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "st.json", cfg_text(
            scenario="store", params=MATCHED, pulse={"duration": 5.0},
            t_span=[-30.0, 30.0], n_sim=64))
        out = tmp_path / "store.csv"
        assert main(["store", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "# kind=storage"
        assert any(l.startswith("# config_sha256=") for l in lines)

    def test_default_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ECHOQRAM_OUT_DIR", str(tmp_path / "artifacts"))
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 5}))
        assert main(["spectra", "--config", str(path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "artifacts" / "spectra.csv").exists()

    def test_out_path_from_config(self, tmp_path, capsys):
        target = tmp_path / "from_config.json"
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 5},
            output={"path": str(target), "format": "json"}))
        assert main(["spectra", "--config", str(path)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert json.loads(target.read_text())["scenario"] == "spectra"

    def test_relative_out_path_lands_in_out_dir(self, tmp_path, capsys,
                                                monkeypatch):
        # bare filenames in committed configs must follow the env var,
        # absolute paths must not
        monkeypatch.setenv("ECHOQRAM_OUT_DIR", str(tmp_path / "artifacts"))
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 5},
            output={"path": "rel.json", "format": "json"}))
        assert main(["spectra", "--config", str(path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "artifacts" / "rel.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # exit-code contract for runtime numerics, exercised by stubbing
        # the scenario runner (real integrations are deliberately robust)
        from echoqram import cli as cli_mod
        from echoqram.dynamics import IntegrationError

        def boom(cfg):
            raise IntegrationError("synthetic blowup")

        monkeypatch.setitem(cli_mod._SUBCOMMANDS, "spectra", (Scenario.SPECTRA, boom))
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 5}))
        assert main(["spectra", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("center", [1e10, 1e12, 1e15])
    def test_far_center_fails_the_storage_ledger(self, tmp_path, capsys,
                                                 center):
        # a grid that resolves such a center still rounds its samples by
        # ulp(center): the storage ledger drifts past its 1e-8 bound, and
        # the run exits 3 with no artifact
        doc = json.loads((CONFIG_DIR / "echo_matched.json").read_text())
        doc["pulse"]["center"] = center
        path = write(tmp_path, "far.json", cfg_text(**doc))
        out = tmp_path / "far_echo.json"
        assert main(["echo", "--config", str(path), "--out", str(out)]) == 3
        assert "probability ledger violated on storage" in \
            capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def make_cfg(self, workers_note=""):
        return parse_scenario_config(cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            n_sim=64, span=10.0,
            sweep={"parameter": "tau", "values": [25.0, 40.0]}))

    def test_points_and_determinism(self):
        cfg = self.make_cfg()
        pts1 = run_sweep(cfg, workers=1)
        pts2 = run_sweep(cfg, workers=2)
        assert len(pts1) == 2
        assert [p["value"] for p in pts1] == [25.0, 40.0]
        for a, b in zip(pts1, pts2):
            assert a == b  # bit-identical across worker counts
        # T2 = inf: no decay between the two delays beyond the small
        # discretization noise of the 64-node ensemble
        assert pts1[0]["echo_probability"] == pytest.approx(
            pts1[1]["echo_probability"], rel=1e-4)

    def test_sweep_artifact(self, tmp_path, capsys):
        path = write(tmp_path, "sw.json", cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            n_sim=64, span=10.0,
            sweep={"parameter": "tau", "values": [25.0, 40.0]}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--workers", "2"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == ["tau", "p_echo", "fidelity",
                                     "storage_probability"]
        rows = [l for l in lines if not l.startswith("#") and l != header]
        assert len(rows) == 2

    def test_pulse_duration_sweep_sets_tau(self):
        cfg = parse_scenario_config(cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 1.0},
            n_sim=64, span=10.0,
            sweep={"parameter": "pulse_duration", "values": [4.0],
                   "tau_over_duration": 6.0}))
        pts = run_sweep(cfg, workers=1)
        assert pts[0]["tau"] == pytest.approx(24.0)


class TestBoundary:
    """Malformed values exit 2 with a file:line anchor, never a traceback."""

    ECHO = dict(scenario="echo_cycle", params=MATCHED,
                pulse={"duration": 5.0}, tau=25.0, n_sim=64)

    @pytest.mark.parametrize("change, needle", [
        ({"tau": "abc"}, "'tau' must be a number"),
        ({"tau": None}, "'tau' must be a number"),
        ({"n_sim": 100.7}, "'n_sim' must be an integer"),
        ({"solver_tol": 1e-9}, "unknown key 'solver_tol'"),
        ({"scheme": 5}, "unknown key 'scheme'"),
        ({"pulse": {"duration": "long"}}, "'pulse.duration' must be a number"),
        ({"params": {"matched": {"kappa": "1", "c_atom": 0.0}}},
         "'params.matched.kappa' must be a number"),
    ])
    def test_echo_values(self, tmp_path, capsys, change, needle):
        doc = {**self.ECHO, **change}
        path = write(tmp_path, "e.json", cfg_text(**doc))
        assert main(["echo", "--config", str(path)]) == 2
        # the error sits at the line of the key path its message quotes
        line = indent_lines(doc)[0][needle.split("'")[1]]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:{line}: ")
        assert needle in err
        # anchored at the line of the first key path inside the change
        key, node = "", change
        while isinstance(node, dict):
            name = next(iter(node))
            key, node = f"{key}.{name}" if key else name, node[name]
        assert f"{path}:{indent_lines(doc)[0][key]}: " in err

    ADDRESS = dict(scenario="address",
                   params={"matched": {"kappa": 1.0, "c_atom": 30.0}},
                   tau=50.0, efficiencies={"from_dynamics": True},
                   address={"amplitudes": [[1.0, 0.0]]})
    BLOCKADE = dict(scenario="blockade", params=MATCHED,
                    read_params=solve_matched_params(1.0, 30.0).to_dict(),
                    pulse={"duration": 5.0}, tau=25.0, n_sim=64)

    @pytest.mark.parametrize("command, doc, anchor, needle", [
        # the composition of the address branches from the dynamics
        ("address", dict(ADDRESS, tau=-1.0), "tau",
         "tau must be >= 0, got -1.0"),
        ("address", dict(ADDRESS, params={"matched": {"kappa": 1.0,
                                                      "c_atom": 0.0}}),
         "params", "blockade branch needs a coupled control atom"),
        ("address", dict(ADDRESS, params=dict(EXPLICIT, g1=1.0, f2=0.3)),
         "params", "addressing composition assumes impedance matching"),
        # the couplings that each runner divides by
        ("echo", dict(ECHO, params=dict(EXPLICIT, f2=0.0)),
         "params", "time-domain propagation needs coupled cavities"),
        ("echo", dict(ECHO, params=dict(EXPLICIT, g2=0.0)),
         "params", "time-domain propagation needs coupled cavities"),
        ("blockade", dict(BLOCKADE, read_params=dict(BLOCKADE["read_params"],
                                                     f2=0.0)),
         "read_params", "time-domain propagation needs coupled cavities"),
        ("spectra", dict(scenario="spectra", params=dict(EXPLICIT, f2=0.0)),
         "params", "spectral efficiency undefined for f2 = 0"),
        ("check-matching", dict(scenario="check_matching",
                                params=dict(EXPLICIT, g2=0.0)),
         "params", "c_pm undefined for g2 = 0"),
    ], ids=["address-tau", "address-c_atom", "address-unmatched", "echo-f2",
            "echo-g2", "blockade-read_f2", "spectra-f2", "check_matching-g2"])
    def test_composition_and_coupling_refused_at_their_line(
            self, tmp_path, capsys, command, doc, anchor, needle):
        # the parser runs the rules that the runner would, so each refusal
        # sits on the key that set what it refuses
        path = write(tmp_path, "c.json", cfg_text(**doc))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        line = indent_lines(doc)[0][anchor]
        assert capsys.readouterr().err.startswith(
            f"config error: {path}:{line}: {needle}")

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_committed_config_leaves_at_zero_and_below(self, tmp_path, capsys,
                                                       config):
        # every number of a committed config set to 0 and then to -1: each
        # run succeeds, fails numerically, or is refused at a line
        base = json.loads(config.read_text())
        if "n_sim" in base:
            base["n_sim"] = 64

        def leaves(node, at=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if isinstance(value, (dict, list)):
                    yield from leaves(value, (*at, key))
                elif isinstance(value, (int, float)) and value is not True:
                    yield (*at, key)

        path = tmp_path / config.name
        for at in leaves(base):
            for value in (0, -1):
                doc = json.loads(json.dumps(base))
                node = doc
                for key in at[:-1]:
                    node = node[key]
                node[at[-1]] = value
                path.write_text(cfg_text(**doc))
                code = main([COMMAND[doc["scenario"]], "--config", str(path),
                             "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert code in (0, 2, 3), (at, value)
                if code == 2:
                    assert re.match(rf"config error: {re.escape(str(path))}"
                                    r":\d+: ", err), err

    def test_grid_not_an_object(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid=5))
        assert main(["spectra", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'grid' must be an object" in err
        assert f"{path}:" in err

    def test_sweep_value_not_a_number(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0, sweep={"parameter": "tau", "values": [25.0, "x"]}))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'sweep.values[1]' must be a number" in err
        assert f"{path}:" in err

    SPECTRA = dict(scenario="spectra", params=MATCHED,
                   grid={"span": 1.0, "n": 5})

    @pytest.mark.parametrize("command, base, key, bad, ok, needle", [
        ("echo", ECHO, "n_sim", MIN_N_SIM - 1, MIN_N_SIM,
         f"'n_sim' must be >= {MIN_N_SIM}, got {MIN_N_SIM - 1}"),
        ("spectra", SPECTRA, "grid.n", 1, 2, "'grid.n' must be >= 2, got 1"),
        ("spectra", SPECTRA, "grid.span", 0.0, 1e-9,
         "'grid.span' must be > 0, got 0.0"),
    ])
    def test_minimum_refused_at_parse(self, tmp_path, capsys, command, base,
                                      key, bad, ok, needle):
        def doc(value):
            d = json.loads(json.dumps(base))
            node = d
            *outer, last = key.split(".")
            for k in outer:
                node = node[k]
            node[last] = value
            return cfg_text(**d)

        parse_scenario_config(doc(ok))
        text = doc(bad)
        path = write(tmp_path, "c.json", text)
        assert main([command, "--config", str(path)]) == 2
        line = next(i for i, l in enumerate(text.splitlines(), start=1)
                    if f'"{key.split(".")[-1]}"' in l)
        assert (capsys.readouterr().err
                == f"config error: {path}:{line}: {needle}\n")

    @pytest.mark.parametrize("change, ok, needle", [
        ({"span": 9.99}, {"span": 10.0}, "span 9.99 too small"),
        ({"tau": 24.9}, {"tau": 25.0}, "tau = 24.9 too small"),
    ])
    def test_library_refusal_names_config(self, tmp_path, capsys, change,
                                          ok, needle):
        # delta_in is 0.5 and the pulse duration 5: span >= 10, tau >= 25;
        # the parsed config decides both, so the refusal names the line
        path = write(tmp_path, "ok.json", cfg_text(**{**self.ECHO, **ok}))
        assert main(["echo", "--config", str(path),
                     "--out", str(tmp_path / "e.csv")]) == 0
        capsys.readouterr()
        text = cfg_text(**{**self.ECHO, **change})
        path = write(tmp_path, "e.json", text)
        assert main(["echo", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        (key,) = change
        line = next(i for i, l in enumerate(text.splitlines(), start=1)
                    if f'"{key}"' in l)
        assert err.startswith(f"config error: {path}:{line}: {needle}")

    SWEEP = dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
                 n_sim=64)

    @pytest.mark.parametrize("sweep, extra, anchor", [
        ({"parameter": "pulse_duration", "values": [5.0, 6.0],
          "tau_over_duration": 4.9}, {}, "tau_over_duration"),
        ({"parameter": "tau", "values": [25.0, 24.9]}, {}, "24.9"),
        ({"parameter": "t2", "values": [100.0]}, {"tau": 24.9}, "tau"),
        ({"parameter": "t2", "values": [100.0], "curve_parameter": "tau",
          "curve_values": [30.0, 20.0]}, {}, "20.0"),
    ])
    def test_sweep_delay_refused_at_its_line(self, tmp_path, capsys, sweep,
                                             extra, anchor):
        # the key that sets a point's delay last carries the line
        text = cfg_text(**self.SWEEP, **extra, sweep=sweep)
        path = write(tmp_path, "s.json", text)
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        line = next(i for i, l in enumerate(text.splitlines(), start=1)
                    if (f'"{anchor}"' if anchor.isalpha() else anchor) in l)
        assert err.startswith(f"config error: {path}:{line}: tau = ")
        assert "too small: need >= 5 pulse durations" in err

    @pytest.mark.parametrize("sweep, path, needle", [
        ({"parameter": "pulse_duration", "values": [5.0, -2.0]},
         "sweep.values[1]", "pulse duration must be positive, got -2.0"),
        ({"parameter": "pulse_duration", "values": [5.0],
          "curve_parameter": "t2", "curve_values": [100.0, -5.0]},
         "sweep.curve_values[1]", "t2 must be positive"),
    ])
    def test_sweep_value_refused_at_its_line(self, tmp_path, capsys, sweep,
                                             path, needle):
        # the library refuses the value when the point is built, at parse
        doc = dict(self.SWEEP, sweep=sweep)
        config = write(tmp_path, "neg.json", cfg_text(**doc))
        assert main(["sweep", "--config", str(config)]) == 2
        line = indent_lines(doc)[0][path]
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:{line}: {needle}")

    @pytest.mark.parametrize("change, needle", [
        ({"delta_in": 0.7}, "(delta_in, N*g2**2) = (0.7, "),
        ({"n_atoms": 2000}, "params carry (0.5, "),
    ])
    def test_read_params_on_another_ensemble(self, tmp_path, capsys, change,
                                             needle):
        # the read stage runs on the line and the ensemble that storage
        # discretized and loaded; delta_in 0.7 on a 0.5 line ran and
        # returned the matched config's numbers
        read = {**solve_matched_params(1.0, 30.0).to_dict(), **change}
        doc = dict(scenario="blockade", params=MATCHED, read_params=read,
                   pulse={"duration": 5.0}, tau=25.0, n_sim=64)
        path = write(tmp_path, "b.json", cfg_text(**doc))
        assert main(["blockade", "--config", str(path),
                     "--out", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err
        line = indent_lines(doc)[0]["read_params"]
        assert err.startswith(f"config error: {path}:{line}: 'read_params' "
                              "describes another ensemble")
        assert needle in err

    def test_read_params_within_rounding_pass(self):
        # the same line to 1e-9 relative, as a copied decimal gives it
        read = solve_matched_params(1.0, 30.0).to_dict()
        read["delta_in"] *= 1.0 + 5e-10
        cfg = parse_scenario_config(cfg_text(
            scenario="blockade", params=MATCHED, read_params=read,
            pulse={"duration": 5.0}, tau=25.0, n_sim=64))
        assert cfg.read_params.delta_in != cfg.params.delta_in

    def test_blockade_span_refused_at_its_line(self, tmp_path, capsys):
        text = cfg_text(scenario="blockade", params=MATCHED,
                        read_params={"matched": {"kappa": 1.0, "c_atom": 30.0}},
                        pulse={"duration": 5.0}, tau=25.0, span=5.0)
        path = write(tmp_path, "b.json", text)
        assert main(["blockade", "--config", str(path)]) == 2
        line = next(i for i, l in enumerate(text.splitlines(), start=1)
                    if '"span"' in l)
        assert capsys.readouterr().err.startswith(
            f"config error: {path}:{line}: span 5.0 too small")

    def test_storage_margin_refused_at_its_line(self, tmp_path, capsys):
        # a pulse of duration 5 at 0 needs the span to reach -25 and 25
        doc = dict(scenario="store", params=MATCHED, pulse={"duration": 5.0},
                   t_span=[-10.0, 30.0])
        path = write(tmp_path, "t.json", cfg_text(**doc))
        assert main(["store", "--config", str(path)]) == 2
        line = indent_lines(doc)[0]["t_span"]
        assert capsys.readouterr().err == (
            f"config error: {path}:{line}: pulse centered at 0.0 (duration "
            "5.0) needs >= 5 durations of margin inside span (-10.0, 30.0)\n")
        parse_scenario_config(cfg_text(**dict(doc, t_span=[-25.0, 25.0])))

    @pytest.mark.parametrize("doc, path", [
        (dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
              sweep={"parameter": "tau", "values": [25.0, 1e300]}),
         "sweep.values[1]"),
        (dict(scenario="store", params=MATCHED, pulse={"duration": 5.0},
              t_span=[-1e308, 1e308]), "t_span"),
        (dict(ECHO, tau=1e300), "tau"),
    ], ids=["swept-tau", "t_span", "tau"])
    def test_absurd_time_span_refused_at_its_line(self, tmp_path, capsys,
                                                   doc, path):
        # grids of 6e300 and of infinitely many steps: refused before any
        # array is made, at the key that sets the span
        config = write(tmp_path, "span.json", cfg_text(**doc))
        command = doc["scenario"].replace("echo_cycle", "echo")
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "out.csv")]) == 2
        line = indent_lines(doc)[0][path]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}:{line}: output grid over")
        assert f"at most {MAX_SAMPLES} samples" in err

    @pytest.mark.parametrize("center", [1e17, 1e300])
    @pytest.mark.parametrize("doc", [
        ECHO,
        dict(scenario="store", params=MATCHED, pulse={"duration": 5.0},
             n_sim=64),
        dict(SWEEP, sweep={"parameter": "pulse_duration",
                           "values": [5.0, 6.0]}),
    ], ids=["echo", "store", "sweep"])
    def test_far_center_refused_at_its_line(self, tmp_path, capsys, doc,
                                            center):
        # the output grid cannot resolve times around such a center, so
        # the center carries the line, not the keys that set the spans
        for near in (1e9, 1e12):
            parse_scenario_config(cfg_text(**dict(
                doc, pulse={"duration": 5.0, "center": near})))
        doc = dict(doc, pulse={"duration": 5.0, "center": center})
        config = write(tmp_path, "c.json", cfg_text(**doc))
        command = doc["scenario"].replace("echo_cycle", "echo")
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "out.csv")]) == 2
        line = indent_lines(doc)[0]["pulse.center"]
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:{line}: pulse center {center!r} rounds "
            "by ")

    @pytest.mark.parametrize("doc, path", [
        (dict(ECHO, pulse={"duration": 5e-324}), "pulse.duration"),
        (dict(SWEEP, sweep={"parameter": "pulse_duration",
                            "values": [5.0, 5e-324]}), "sweep.values[1]"),
    ], ids=["echo", "swept"])
    def test_unresolvable_duration_refused_at_its_line(self, tmp_path,
                                                       capsys, doc, path):
        # the output step duration/40 rounds to 0: the duration tips the
        # grid, not the delay
        config = write(tmp_path, "d.json", cfg_text(**doc))
        command = doc["scenario"].replace("echo_cycle", "echo")
        assert main([command, "--config", str(config)]) == 2
        line = indent_lines(doc)[0][path]
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:{line}: output grid over")

    @pytest.mark.parametrize("where", ["values", "curve_values"])
    @pytest.mark.parametrize("parameter, needle", [
        ("pulse_duration", "pulse duration must be positive, got inf"),
        ("tau", "needs inf steps"),
        ("g1", "g1 must be finite and >= 0"),
        ("delta_c", "delta_c must be finite"),
    ])
    def test_infinite_swept_value_refused_at_its_line(
            self, tmp_path, capsys, parameter, needle, where):
        # the library refuses each one while the point is built; only t2
        # may be infinite
        finite = 25.0 if parameter == "tau" else 5.0
        if where == "values":
            sweep = {"parameter": parameter, "values": [finite, "inf"]}
        else:
            sweep = {"parameter": "t2", "values": [100.0],
                     "curve_parameter": parameter,
                     "curve_values": [finite, "inf"]}
        doc = dict(self.SWEEP, sweep=sweep)
        if parameter not in ("tau", "pulse_duration"):
            doc["tau"] = 25.0
        config = write(tmp_path, "inf.json", cfg_text(**doc))
        assert main(["sweep", "--config", str(config)]) == 2
        line = indent_lines(doc)[0][f"sweep.{where}[1]"]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}:{line}: ")
        assert needle in err

    def test_tau_curve_on_duration_sweep_refused_at_its_line(
            self, tmp_path, capsys):
        # the swept duration sets every point's delay after the curve did,
        # so both curves ran at tau 25
        doc = dict(self.SWEEP, sweep={
            "parameter": "pulse_duration", "values": [5.0],
            "curve_parameter": "tau", "curve_values": [30.0, 1e9]})
        config = write(tmp_path, "tc.json", cfg_text(**doc))
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "tc.csv")]) == 2
        line = indent_lines(doc)[0]["sweep.curve_parameter"]
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:{line}: sweeping pulse_duration fixes "
            "tau = tau_over_duration * duration; a tau curve would be ignored")
        # a duration curve under swept delays sets each point's delay
        parse_scenario_config(cfg_text(**dict(self.SWEEP, sweep={
            "parameter": "tau", "values": [30.0, 40.0],
            "curve_parameter": "pulse_duration", "curve_values": [5.0, 6.0]})))

    def test_infinite_t2_sweeps(self):
        parse_scenario_config(cfg_text(**self.SWEEP, tau=25.0, sweep={
            "parameter": "t2", "values": [100.0, "inf"]}))

    def test_n_sim_bounded_at_parse(self, tmp_path, capsys):
        # a line of 10**9 nodes would need an 8 EB node operator
        doc = dict(self.ECHO, n_sim=10 ** 9)
        config = write(tmp_path, "n.json", cfg_text(**doc))
        assert main(["echo", "--config", str(config)]) == 2
        line = indent_lines(doc)[0]["n_sim"]
        assert capsys.readouterr().err == (
            f"config error: {config}:{line}: 'n_sim' must be <= {MAX_N_SIM}, "
            f"got {10 ** 9}\n")
        parse_scenario_config(cfg_text(**dict(self.ECHO, n_sim=MAX_N_SIM)))

    def test_address_bins_bounded_at_parse(self, tmp_path, capsys):
        # a register holds M**2 cell factors; the norm is 1 at any length
        def doc(m):
            return dict(scenario="address",
                        address={"amplitudes": [1.0] + [0.0] * (m - 1)})

        config = write(tmp_path, "a.json", cfg_text(**doc(10 ** 5)))
        assert main(["address", "--config", str(config)]) == 2
        line = indent_lines(doc(10 ** 5))[0]["address.amplitudes"]
        assert capsys.readouterr().err == (
            f"config error: {config}:{line}: 'address.amplitudes' must hold "
            f"at most {MAX_BINS} bins, got {10 ** 5}\n")
        assert parse_scenario_config(cfg_text(**doc(MAX_BINS))).address.m \
            == MAX_BINS

    def test_anchor_stops_at_its_key(self):
        # the line lookup records the key's ancestors and the key, not the
        # items of its list; a key spelled again later keeps its last line
        doc = dict(scenario="address", address={"amplitudes": [1.0, 0.0]})
        text = cfg_text(**doc)
        lines = _key_lines(text, "address.amplitudes")
        assert lines == {k: v for k, v in indent_lines(doc)[0].items()
                         if k in ("", "scenario", "address",
                                  "address.amplitudes")}
        assert _key_lines(text, "") == {"": 1}
        twice = '{"tau": 1.0,\n "n_sim": 64,\n "tau": 2.0}'
        assert _key_lines(twice, "tau")["tau"] == 3

    def test_long_register_refused_before_its_items(self):
        # the length is checked before any item converts, so a bad item
        # past the bound does not hide it
        text = cfg_text(scenario="address", address={
            "amplitudes": [1.0] + [0.0] * MAX_BINS + ["x"]})
        with pytest.raises(ConfigError, match=(
                f"'address.amplitudes' must hold at most {MAX_BINS} bins, "
                f"got {MAX_BINS + 2}")):
            parse_scenario_config(text)

    def test_config_not_utf8(self, tmp_path, capsys):
        # a 0xff byte on a line of its own after a config that parses,
        # its lines ended as on Windows
        text = cfg_text(scenario="check_matching", params=MATCHED)
        line = text.count("\n") + 2
        config = tmp_path / "bad.json"
        config.write_bytes(text.replace("\n", "\r\n").encode() + b"\r\n\xff")
        assert main(["check-matching", "--config", str(config),
                     "--out", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}:{line}: config is not UTF-8: byte 0xff "
            "(invalid start byte)\n")
        assert not (tmp_path / "c.json").exists()

    def test_library_checks_remain(self):
        with pytest.raises(ParameterError, match=f">= {MIN_N_SIM}"):
            discretize_ensemble(MIN_N_SIM - 1, 0.5)

    def test_workers_clamped(self, monkeypatch):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sweep imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cfg = parse_scenario_config(cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            n_sim=64, span=10.0,
            sweep={"parameter": "tau", "values": [25.0, 40.0]}))
        rows = run_sweep(cfg, workers=10_000)
        assert len(rows) == 2
        expect = min(2, os.cpu_count() or 1)
        assert seen == ([expect] if expect > 1 else [])

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_refused(self, tmp_path, capsys, workers):
        # --workers 0 used to run one worker without a word
        path = write(tmp_path, "sw.json", cfg_text(
            scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
            tau=25.0, n_sim=64, sweep={"parameter": "tau", "values": [25.0]}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path), "--workers", workers])
        assert exc.value.code == 2
        assert (f"argument --workers: must be an integer >= 1, got "
                f"{workers!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectra", "check-matching", "store",
                                         "echo", "blockade", "address"])
    def test_workers_only_on_sweep(self, capsys, command):
        # every other command runs in one process, and took the flag unread
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "c.json", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    # the keys a cross-key refusal anchors at when the fuzzed key moves
    # the other side: the line's span and the read stage's line against
    # delta_in = kappa/2, the delay and the storage span against the
    # pulse, the swept values as delays
    TIED = {"params.matched.kappa": ("span", "read_params"),
            "pulse.duration": ("tau", "sweep.tau_over_duration", "t_span"),
            "pulse.center": ("t_span",),
            "sweep.parameter": ("sweep.values",)}

    @given(st.sampled_from([
               "tau", "n_sim", "span", "scheme", "solver_tol", "t_span",
               "grid", "pulse", "params", "read_params", "output", "scenario",
               "pulse.duration", "pulse.shape", "pulse.center",
               "params.matched.kappa", "params.matched.c_atom",
               "params.matched.t2", "params.matched.n_atoms",
               "read_params.kappa", "read_params.n_atoms", "read_params.t2",
               "grid.span", "grid.n", "sweep.values", "sweep.curve_values",
               "sweep.tau_over_duration", "sweep.parameter",
               "address.amplitudes", "address.bin_spacing", "efficiencies",
               "efficiencies.transfer_amplitude", "output.path"]),
           st.one_of(st.none(), st.booleans(),
                     st.integers(min_value=-10 ** 400, max_value=10 ** 400),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.text(max_size=5),
                     st.lists(st.floats(allow_nan=True, allow_infinity=True),
                              max_size=3),
                     st.dictionaries(st.text(max_size=3), st.integers(),
                                     max_size=2)))
    @example("params.matched.n_atoms", 0)
    @example("params.matched.n_atoms", -1.0)
    @example("params.matched.kappa", 5e-324)   # delta_in = kappa/2 is 0
    @example("sweep.parameter", "t2")          # the curve's parameter
    @example("grid", {"a": 1})
    @example("grid.n", 10 ** 12)               # a grid no memory holds
    @example("pulse.duration", 6.0)            # tau = 25 below 5 durations
    @example("params.matched.kappa", 2.0)      # span 10 below 20*delta_in
    @example("sweep.parameter", "tau")         # the durations become delays
    @example("pulse.duration", 7.0)            # t_span short of 5 durations
    @example("pulse.center", 40.0)             # t_span ends 20 after it
    @example("pulse.center", 2.882303761517118e17)   # rounds by 64
    def test_fuzzed_scalars_raise_only_config_error(self, path, value):
        explicit = {"kappa": 1.0, "gamma": 1.0, "g1": 0.0,
                    "g2": 0.011180339887498949, "f2": 0.3535533905932738,
                    "n_atoms": 1000, "delta_in": 0.5}
        bases = [
            dict(self.ECHO, read_params=explicit, span=10.0,
                 output={"path": "x.json", "format": "json"}),
            dict(scenario="store", params=MATCHED, pulse={"duration": 5.0},
                 t_span=[-30.0, 60.0]),
            dict(scenario="spectra", params=MATCHED,
                 grid={"span": 1.0, "n": 5, "center": 0.0}),
            dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
                 sweep={"parameter": "pulse_duration", "values": [5.0],
                        "curve_parameter": "t2", "curve_values": [100.0],
                        "tau_over_duration": 5.0}),
            dict(scenario="address", address={"amplitudes": [[1.0, 0.0]]},
                 efficiencies={"transfer_amplitude": 1.0}),
        ]
        keys = path.split(".")
        for base in bases:
            doc = json.loads(json.dumps(base))
            node = doc
            for k in keys[:-1]:
                if not isinstance(node.get(k), dict):
                    break
                node = node[k]
            else:
                node[keys[-1]] = value
                try:
                    parse_scenario_config(json.dumps(doc, indent=1),
                                          source="fuzz.json")
                except ConfigError as exc:
                    # the error sits on a line of the fuzzed value or on
                    # the line of an object around it; a rule that ties
                    # two keys sits on the key whose value it refuses
                    lines, ends = indent_lines(doc)
                    allowed = set(range(lines[path], ends[path] + 1))
                    allowed.update(lines[".".join(keys[:i])]
                                   for i in range(len(keys)))
                    for tied in self.TIED.get(path, ()):
                        if tied in lines:
                            allowed.update(range(lines[tied], ends[tied] + 1))
                    anchor = re.match(r"fuzz\.json:(\d+): ", str(exc))
                    assert anchor and int(anchor[1]) in allowed, str(exc)


class TestArtifacts:
    """One writer: the same provenance in both formats, written atomically."""

    CONFIGS = {
        "spectra": dict(scenario="spectra", params=MATCHED,
                        grid={"span": 1.0, "n": 5}),
        "check-matching": dict(scenario="check_matching", params=MATCHED),
        "store": dict(scenario="store", params=MATCHED,
                      pulse={"duration": 5.0}, t_span=[-30.0, 30.0],
                      n_sim=64),
        "echo": dict(scenario="echo_cycle", params=MATCHED,
                     pulse={"duration": 5.0}, tau=25.0, n_sim=64),
        "blockade": dict(scenario="blockade", params=MATCHED,
                         read_params={"matched": {"kappa": 1.0,
                                                  "c_atom": 30.0}},
                         pulse={"duration": 5.0}, tau=25.0, n_sim=64),
        "address": dict(scenario="address",
                        params={"matched": {"kappa": 1.0, "c_atom": 30.0,
                                            "t2": 1e4}},
                        tau=50.0, efficiencies={"from_dynamics": True},
                        address={"amplitudes": [[0.6, 0.0], [0.0, 0.8]]}),
        "sweep": dict(scenario="sweep", params=MATCHED,
                      pulse={"duration": 5.0}, n_sim=64, span=10.0,
                      sweep={"parameter": "tau", "values": [25.0]}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_provenance_in_both_formats(self, tmp_path, capsys, command, fmt):
        text = cfg_text(**self.CONFIGS[command])
        path = write(tmp_path, "c.json", text)
        out = tmp_path / f"artifact.{fmt}"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--format", fmt]) == 0
        capsys.readouterr()
        cfg = parse_scenario_config(text)
        read_digest = (params_digest(cfg.read_params)
                       if cfg.read_params is not None else None)
        assert (read_digest is None) == (command != "blockade")
        assert read_digest != params_digest(cfg.params)
        expect = {"scenario": cfg.scenario.value, "version": __version__,
                  "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
                  "params_sha256": params_digest(cfg.params),
                  "read_params_sha256": read_digest}
        if fmt == "csv":
            # CSV writes a missing digest as None
            expect["read_params_sha256"] = str(read_digest)
            lines = out.read_text().splitlines()
            stamped = dict(line[2:].split("=", 1) for line in lines
                           if line.startswith("# "))
            table = list(csv.reader(l for l in lines if not l.startswith("#")))
            assert all(len(row) == len(table[0]) for row in table)
        else:
            stamped = json.loads(out.read_text())
        assert {k: stamped.get(k) for k in expect} == expect
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([path.name, out.name])

    def test_json_written_a_value_at_a_time(self):
        # string-keyed dicts stream entry by entry, any other dict and every
        # leaf through json.dumps: the bytes are json.dumps's
        import io
        import numpy as np
        doc = {"a": {"b": {}, "c": {1: "x", 2.5: [1, 2]}, "d": {"e": None}},
               "f": np.arange(3.0), "g": [{"h": 1}, {}], "i": "\u00e9\"",
               "j": {}, "k": {"l": {"m": np.array([[1.5, -0.0]])}}}
        buf = io.StringIO()
        _dump(buf, doc)
        assert buf.getvalue() == json.dumps(doc, default=_listed)

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_committed_json_artifacts_are_json_dumps(self, tmp_path, capsys,
                                                     monkeypatch, config):
        import echoqram.cli as cli
        docs, inner = [], cli._dump

        def recording(fh, value):
            docs.append(value)
            inner(fh, value)

        monkeypatch.setattr(cli, "_dump", recording)
        scenario = json.loads(config.read_text())["scenario"]
        out = tmp_path / "artifact.json"
        assert main([COMMAND[scenario], "--config", str(config),
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == json.dumps(docs[0], default=_listed) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_keeps_previous_artifact(self, tmp_path, capsys,
                                                  monkeypatch, fmt):
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 41}))
        out = tmp_path / f"spectra.{fmt}"
        out.write_bytes(b"previous artifact\n")
        real_open = builtins.open

        class FullDisk:
            """A file that takes half of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def __getattr__(self, name):
                return getattr(self.fh, name)

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and Path(file).parent == tmp_path:
                return FullDisk(fh)
            return fh

        monkeypatch.setattr(builtins, "open", open_on_full_disk)
        assert main(["spectra", "--config", str(path), "--out", str(out),
                     "--format", fmt]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            f"cannot write artifact {out}: No space left on device\n")
        assert out.read_bytes() == b"previous artifact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([path.name, out.name])
        # with room on the disk the next run replaces it
        assert main(["spectra", "--config", str(path), "--out", str(out),
                     "--format", fmt]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() in out.read_text()

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        path = write(tmp_path, "c.json",
                     cfg_text(**self.CONFIGS["check-matching"]))
        if where == "directory":
            # the artifact would replace an existing directory
            out = tmp_path / "taken"
            out.mkdir()
        else:
            # the artifact's parent directory cannot be made
            out = path / "report.csv"
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["check-matching", "--config", str(path),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write artifact {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert out.is_dir() == (where == "directory")
        assert path.read_text() == cfg_text(**self.CONFIGS["check-matching"])


class TestImportLayering:
    """Each command loads only the layers it runs, and no scipy.

    Every subcommand completes in a fresh interpreter where scipy cannot
    be imported.  LAYERS names which of numpy and the lazily run layers
    each case loads; a layer counts as loaded once its module is no longer
    the package's placeholder type, so asking does not load it.  No case
    loads the process-pool machinery, which only a sweep with more than
    one worker needs (the sweep case asks for one), nor numpy.ma, which
    costs a fresh interpreter 13-19 ms and which np.unique imports on its
    first call.

    Two cases at a time keep the class under three seconds.
    """

    SWEEP = dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
                 tau=25.0, n_sim=64,
                 sweep={"parameter": "tau", "values": [25.0, 30.0]})
    # g2 = 0 leaves C_pm undefined: the library refuses it once parsed
    NO_ENSEMBLE = dict(scenario="check_matching", params={
        "kappa": 1.0, "gamma": 1.0, "g1": 0.0, "g2": 0.0, "f2": 0.35,
        "n_atoms": 1000, "delta_in": 0.5})

    # case: (subcommand or None for a bare import, committed config name or
    # a config document, exit code, what it loads)
    DYNAMICS = ("numpy", "dynamics")
    CASES = {
        "import": (None, None, 0, ()),
        "check-matching": ("check-matching", "check_matching.json", 0, ()),
        "check-matching refused": ("check-matching", NO_ENSEMBLE, 2, ()),
        "spectra": ("spectra", "spectra_matched_c10.json", 0,
                    ("numpy", "spectral")),
        "address": ("address", "address_m4.json", 0, ("numpy", "addressing")),
        "store": ("store", "store_gaussian.json", 0, DYNAMICS),
        "echo": ("echo", TestBoundary.ECHO, 0, DYNAMICS),
        "blockade": ("blockade", "blockade_c30.json", 0, DYNAMICS),
        "sweep": ("sweep", SWEEP, 0, DYNAMICS),
    }

    SCRIPT = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from echoqram import cli\n"
        "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        "layers = ('spectral', 'dynamics', 'addressing')\n"
        "print(json.dumps({'code': code, 'loaded': [\n"
        "    m for m in ('numpy',) + layers\n"
        "    if m == 'numpy' and m in sys.modules or m in layers and\n"
        "    type(sys.modules['echoqram.' + m]).__name__ != '_Layer'],\n"
        "    'unwanted': sorted(m for m, mod in sys.modules.items()\n"
        "        if mod is not None and\n"
        "        (m == 'scipy' or m.startswith('scipy.')\n"
        "         or m == 'concurrent.futures.process'\n"
        "         or m == 'numpy.ma' or m.startswith('numpy.ma.')))}))\n"
    )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("layering")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

        def run(case):
            command, config, _, _ = self.CASES[case]
            argv = []
            if command is not None:
                cfg = (CONFIG_DIR / config if isinstance(config, str)
                       else write(tmp, f"{case}.json", cfg_text(**config)))
                argv = [command, "--config", str(cfg),
                        "--out", str(tmp / f"{case}.out")]
            if command == "sweep":
                argv += ["--workers", "1"]
            return subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                                  cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=60)

        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(self.CASES, pool.map(run, self.CASES)))

    def result(self, runs, case):
        run = runs[case]
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout.splitlines()[-1])
        assert got["code"] == self.CASES[case][2], run.stderr
        return got

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scipy_modules_loaded(self, runs, case):
        assert self.result(runs, case)["unwanted"] == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_layers_loaded(self, runs, case):
        assert self.result(runs, case)["loaded"] == list(self.CASES[case][3])


def fresh(script: str, *argv: str) -> str:
    """Run a script in a fresh interpreter on this checkout; its stdout."""
    run = subprocess.run([sys.executable, "-c", script, *argv],
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestLazyLayers:
    """The layers that run on first use behave as modules imported up front."""

    LAYERS = ("cli", "params", "spectral", "dynamics", "addressing")

    def test_moved_names_are_re_exported(self):
        from echoqram import addressing, dynamics, params
        assert dynamics.PulseShape is params.PulseShape
        assert dynamics.MIN_N_SIM == params.MIN_N_SIM
        assert dynamics.IntegrationError is params.IntegrationError
        assert addressing.ProtocolError is params.ProtocolError

    def test_every_layer_registered_by_import(self):
        out = fresh(
            "import sys, json, echoqram.cli, echoqram\n"
            f"names = {self.LAYERS!r}\n"
            "mods = [sys.modules.get('echoqram.' + n) for n in names]\n"
            "assert all(m is getattr(echoqram, n) for m, n in zip(mods, names))\n"
            "print('numpy' in sys.modules)\n")
        assert out.split() == ["False"]

    def test_rebound_cycle_sees_every_sweep_point(self, tmp_path):
        # a benchmark times each point of a sweep by rebinding the cycle
        path = write(tmp_path, "sweep.json",
                     cfg_text(**TestImportLayering.SWEEP))
        out = fresh(
            "import sys\n"
            "from echoqram import cli, dynamics\n"
            "cfg = cli.parse_scenario_config(open(sys.argv[1]).read())\n"
            "inner = cli.run_echo_cycle\n"
            "assert inner is dynamics.run_echo_cycle\n"
            "seen = []\n"
            "def counted(*args, **kwargs):\n"
            "    seen.append(args[4])\n"
            "    return inner(*args, **kwargs)\n"
            "cli.run_echo_cycle = counted\n"
            "rows = cli.run_sweep(cfg, workers=1)\n"
            "print(seen == [r['tau'] for r in rows], len(rows))\n",
            str(path))
        assert out.split() == ["True", "2"]

    @pytest.mark.parametrize("script", [
        "from echoqram import dynamics\n"
        "dynamics._CHECK = 7\n"
        "print(dynamics._CHECK == 7)\n",
        "from echoqram import cli, dynamics\n"
        "def cycle(*args):\n"
        "    pass\n"
        "dynamics.run_echo_cycle = cycle\n"
        "print(cli.run_echo_cycle is cycle)\n",
    ], ids=["constant", "cycle"])
    def test_write_before_first_use_is_kept(self, script):
        # the write runs the layer first, whose code would otherwise
        # overwrite it on the first read
        assert fresh("import sys\n" + script
                     + "print('numpy' in sys.modules)\n").split() == [
            "True", "True"]

    def test_star_import_binds_all(self):
        out = fresh(
            "import echoqram\n"
            "names = {}\n"
            "exec('from echoqram import *', names)\n"
            "missing = set(echoqram.__all__) - set(names)\n"
            "unlisted = set(echoqram.__all__) - set(dir(echoqram))\n"
            "print(sorted(missing), sorted(unlisted))\n")
        assert out.split() == ["[]", "[]"]

    def test_first_touch_from_four_threads(self):
        # before Python 3.12, LazyLoader hands the other threads the module
        # half run, and they fail on a name it has not defined yet
        out = fresh(
            "import sys, threading, echoqram\n"
            "from echoqram import cli\n"
            "sys.setswitchinterval(1e-6)\n"
            "touches = [lambda: echoqram.run_echo_cycle,\n"
            "           lambda: echoqram.PulseSpec(duration=1.0),\n"
            "           lambda: cli.run_echo_cycle,\n"
            "           lambda: echoqram.dynamics.cycle_grids]\n"
            "barrier = threading.Barrier(len(touches), timeout=30)\n"
            "errors = []\n"
            "def touch(get):\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        get()\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=touch, args=(t,))\n"
            "           for t in touches]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(30)\n"
            "print(errors, sum(t.is_alive() for t in threads))\n")
        assert out.split() == ["[]", "0"]
