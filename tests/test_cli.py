import builtins
import concurrent.futures
import csv
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
from echoqram.cli import (_SCHEMA, ConfigError, Scenario, main,
                          parse_scenario_config, run_sweep)
from echoqram.dynamics import MIN_N_SIM, discretize_ensemble
from echoqram.params import ParameterError, params_digest

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

MATCHED = {"matched": {"kappa": 1.0, "c_atom": 0.0}}


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
        assert cfg.grid_span == 2.0
        assert cfg.params.delta_in == 0.5

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
        seen = capsys.readouterr().out
        assert "norm" in seen  # the state table is printed
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

        monkeypatch.setitem(cli_mod._RUNNERS, Scenario.SPECTRA, boom)
        path = write(tmp_path, "s.json", cfg_text(
            scenario="spectra", params=MATCHED, grid={"span": 1.0, "n": 5}))
        assert main(["spectra", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


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
        ({"solver_tol": 1e-6}, "'solver_tol' must be in (0, 1e-8]"),
        ({"scheme": 5}, "unknown key 'scheme'"),
        ({"pulse": {"duration": "long"}}, "'pulse.duration' must be a number"),
        ({"params": {"matched": {"kappa": "1", "c_atom": 0.0}}},
         "'params.matched.kappa' must be a number"),
    ])
    def test_echo_values(self, tmp_path, capsys, change, needle):
        doc = {**self.ECHO, **change}
        path = write(tmp_path, "e.json", cfg_text(**doc))
        assert main(["echo", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert needle in err
        # anchored at the line of the first key path inside the change
        key, node = "", change
        while isinstance(node, dict):
            name = next(iter(node))
            key, node = f"{key}.{name}" if key else name, node[name]
        assert f"{path}:{indent_lines(doc)[0][key]}: " in err

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
        # delta_in is 0.5 and the pulse duration 5: span >= 10, tau >= 25
        path = write(tmp_path, "ok.json", cfg_text(**{**self.ECHO, **ok}))
        assert main(["echo", "--config", str(path),
                     "--out", str(tmp_path / "e.csv")]) == 0
        capsys.readouterr()
        path = write(tmp_path, "e.json", cfg_text(**{**self.ECHO, **change}))
        assert main(["echo", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ")
        assert needle in err

    def test_library_checks_remain(self):
        with pytest.raises(ParameterError, match=f">= {MIN_N_SIM}"):
            discretize_ensemble(MIN_N_SIM - 1, 0.5)

    def test_nan_solver_tol_exits_quickly(self, tmp_path, capsys):
        text = cfg_text(**self.ECHO, solver_tol=1e-9).replace("1e-09", "NaN")
        assert "NaN" in text
        path = write(tmp_path, "nan.json", text)
        t0 = time.perf_counter()
        assert main(["echo", "--config", str(path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "'solver_tol' must be finite" in capsys.readouterr().err

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
    def test_fuzzed_scalars_raise_only_config_error(self, path, value):
        explicit = {"kappa": 1.0, "gamma": 1.0, "g1": 0.0,
                    "g2": 0.011180339887498949, "f2": 0.3535533905932738,
                    "n_atoms": 1000, "delta_in": 0.5}
        bases = [
            dict(self.ECHO, read_params=explicit, span=10.0, solver_tol=1e-9,
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
                    # the line of an object around it
                    lines, ends = indent_lines(doc)
                    allowed = set(range(lines[path], ends[path] + 1))
                    allowed.update(lines[".".join(keys[:i])]
                                   for i in range(len(keys)))
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
    """The package runs on numpy alone: every subcommand completes in a
    fresh interpreter where scipy cannot be imported, and loads none of it.
    None loads the process-pool machinery either, which only a sweep with
    more than one worker needs; the sweep case asks for one.

    Two cases at a time keep the class under three seconds.
    """

    SWEEP = dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
                 tau=25.0, n_sim=64,
                 sweep={"parameter": "tau", "values": [25.0, 30.0]})

    # case: (subcommand or None for a bare import, committed config name or
    # a config document)
    CASES = {
        "import": (None, None),
        "check-matching": ("check-matching", "check_matching.json"),
        "spectra": ("spectra", "spectra_matched_c10.json"),
        "address": ("address", "address_m4.json"),
        "store": ("store", "store_gaussian.json"),
        "echo": ("echo", TestBoundary.ECHO),
        "blockade": ("blockade", "blockade_c30.json"),
        "sweep": ("sweep", SWEEP),
    }

    SCRIPT = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from echoqram import cli\n"
        "if len(sys.argv) > 1:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items()\n"
        "                        if mod is not None and\n"
        "                        (m == 'scipy' or m.startswith('scipy.')\n"
        "                         or m == 'concurrent.futures.process'))))\n"
    )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("layering")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

        def run(case):
            command, config = self.CASES[case]
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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scipy_modules_loaded(self, runs, case):
        run = runs[case]
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == []
