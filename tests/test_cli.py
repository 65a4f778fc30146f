import builtins
import csv
import errno
import hashlib
import json
import math
import os
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from echoqram import __version__
from echoqram.cli import (ConfigError, Scenario, main, parse_scenario_config,
                          run_sweep, serialize_config)
from echoqram.params import params_digest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MATCHED = {"matched": {"kappa": 1.0, "c_atom": 0.0}}


def cfg_text(**doc):
    return json.dumps(doc, indent=1)


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

    def test_serialize_roundtrip_is_fixed_point(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = parse_scenario_config(path.read_text(), source=str(path))
            canon = serialize_config(cfg)
            again = serialize_config(parse_scenario_config(canon))
            assert canon == again, path.name

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
            address={"amplitudes": [[1.0, 0.0]], "bin_spacing": 100.0,
                     "bin_duration": 1.0},
            efficiencies={"from_dynamics": True}),
            "from_dynamics")

    def test_sweep_key_on_other_scenario(self):
        self.check(dict(scenario="spectra", params=MATCHED,
                        grid={"span": 1.0, "n": 3},
                        sweep={"parameter": "tau", "values": [1.0]}),
                   "scenario is 'spectra'")


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
            address={"amplitudes": [[r, 0.0], [r, 0.0], [r, 0.0]],
                     "bin_spacing": 100.0, "bin_duration": 1.0}))
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
        ({"scheme": 5}, "'scheme' must be"),
        ({"pulse": {"duration": "long"}}, "'pulse.duration' must be a number"),
        ({"params": {"matched": {"kappa": "1", "c_atom": 0.0}}},
         "'params.matched.kappa' must be a number"),
    ])
    def test_echo_values(self, tmp_path, capsys, change, needle):
        path = write(tmp_path, "e.json", cfg_text(**{**self.ECHO, **change}))
        assert main(["echo", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert f"{path}:" in err

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

    def test_nan_solver_tol_exits_quickly(self, tmp_path, capsys):
        text = cfg_text(**self.ECHO, solver_tol=1e-9).replace("1e-09", "NaN")
        assert "NaN" in text
        path = write(tmp_path, "nan.json", text)
        t0 = time.perf_counter()
        assert main(["echo", "--config", str(path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "'solver_tol' must be finite" in capsys.readouterr().err

    def test_workers_clamped(self, monkeypatch):
        from echoqram import cli as cli_mod
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

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
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
    def test_fuzzed_scalars_raise_only_config_error(self, path, value):
        explicit = {"kappa": 1.0, "gamma": 1.0, "g1": 0.0,
                    "g2": 0.011180339887498949, "f2": 0.3535533905932738,
                    "n_atoms": 1000, "delta_in": 0.5}
        bases = [
            dict(self.ECHO, read_params=explicit, t_span=[-30.0, 60.0],
                 span=10.0, scheme="quantile", solver_tol=1e-9,
                 output={"path": "x.json", "format": "json"}),
            dict(scenario="spectra", params=MATCHED,
                 grid={"span": 1.0, "n": 5, "center": 0.0}),
            dict(scenario="sweep", params=MATCHED, pulse={"duration": 5.0},
                 sweep={"parameter": "pulse_duration", "values": [5.0],
                        "curve_parameter": "t2", "curve_values": [100.0],
                        "tau_over_duration": 5.0}),
            dict(scenario="address", address={
                "amplitudes": [[1.0, 0.0]], "bin_spacing": 100.0,
                "bin_duration": 1.0},
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
                    parse_scenario_config(json.dumps(doc), source="fuzz.json")
                except ConfigError:
                    pass


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
                        address={"amplitudes": [[0.6, 0.0], [0.0, 0.8]],
                                 "bin_spacing": 100.0, "bin_duration": 1.0}),
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
        expect = {"scenario": cfg.scenario.value, "version": __version__,
                  "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
                  "params_sha256": params_digest(cfg.params)}
        if fmt == "csv":
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
        with pytest.raises(OSError):
            main(["spectra", "--config", str(path), "--out", str(out),
                  "--format", fmt])
        monkeypatch.undo()
        capsys.readouterr()
        assert out.read_bytes() == b"previous artifact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([path.name, out.name])
        # with room on the disk the next run replaces it
        assert main(["spectra", "--config", str(path), "--out", str(out),
                     "--format", fmt]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() in out.read_text()
