"""Scenario runner: validates a JSON config, executes one scenario, and
writes figure-ready CSV or JSON artifacts.

Subcommands map one-to-one onto scenarios:

    spectra         transfer and blockade efficiency spectra on a grid
    check-matching  impedance-matching report for a parameter set
    store           single storage integration, full trace export
    echo            storage -> inversion -> retrieval cycle
    blockade        echo cycle with a blockaded read stage + phase check
    address         time-bin addressing protocol state
    sweep           echo-cycle parameter sweep (optionally two axes)

Exit codes: 0 success, 2 config error or an artifact that cannot be
written, 3 numerical failure.  Every artifact is stamped with the scenario,
the tool version, the sha256 of the raw config text and the digests of the
storage and read parameters, and is written atomically: a temporary file
beside the target is renamed over it.  All computation is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .params import (PARAM_KEYS, SystemParams, ParameterError,
                     check_matching, cooperativities, params_from_dict,
                     params_digest, solve_matched_params)
from .spectral import FrequencyGrid, spectral_efficiency
from .dynamics import (MIN_N_SIM, PulseSpec, IntegrationError,
                       ensemble_for_params, integrate_storage, run_echo_cycle,
                       blockade_phase_check)
from .addressing import (AddressSpec, BranchEfficiencies, run_addressing,
                         compose_with_dynamics, state_table, state_to_dict,
                         ProtocolError)

OUT_DIR_ENV = "ECHOQRAM_OUT_DIR"

SWEEP_PARAMETERS = ("pulse_duration", "tau", "t2", "g1", "delta_c")


class ConfigError(Exception):
    """Config rejected; carries a source anchor when one is known."""

    def __init__(self, message: str, source: str = "config",
                 line: int | None = None, col: int | None = None):
        self.message = message
        self.source = source
        self.line = line
        self.col = col
        anchor = source
        if line is not None:
            anchor += f":{line}"
            if col is not None:
                anchor += f":{col}"
        super().__init__(f"{anchor}: {message}")


class Scenario(str, Enum):
    SPECTRA = "spectra"
    CHECK_MATCHING = "check_matching"
    STORE = "store"
    ECHO_CYCLE = "echo_cycle"
    BLOCKADE = "blockade"
    ADDRESS = "address"
    SWEEP = "sweep"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    curve_parameter: str | None = None
    curve_values: tuple[float, ...] = ()
    tau_over_duration: float = 5.0


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    params: SystemParams | None = None
    read_params: SystemParams | None = None
    pulse: PulseSpec | None = None
    grid_span: float = 3.0
    grid_n: int = 1201
    grid_center: float = 0.0
    tau: float | None = None
    t_span: tuple[float, float] | None = None
    n_sim: int = 801
    span: float | None = None
    scheme: str = "quantile"
    solver_tol: float = 1e-9
    address: AddressSpec | None = None
    efficiencies: BranchEfficiencies | None = None
    eff_from_dynamics: bool = False
    out_path: str | None = None
    out_format: str | None = None
    sweep: SweepSpec | None = None


# -------------------------------------------------------------- config parsing

def _line_of_key(text: str, key: str) -> int | None:
    """Best-effort line anchor: first line that mentions the quoted key."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _check_keys(obj: dict, allowed: set[str], required: set[str],
                path: str, text: str, source: str) -> None:
    if not isinstance(obj, dict):
        name = path.rstrip(".")
        raise ConfigError(f"'{name}' must be an object", source,
                          _line_of_key(text, name.rsplit(".", 1)[-1]))
    unknown = set(obj) - allowed
    if unknown:
        k = sorted(unknown)[0]
        raise ConfigError(
            f"unknown key '{path}{k}' (accepted here: {', '.join(sorted(allowed))})",
            source, _line_of_key(text, k))
    missing = required - set(obj)
    if missing:
        raise ConfigError(
            f"missing required key '{path}{sorted(missing)[0]}'", source)


def _number(v, path: str, text: str, source: str, *,
            allow_inf: bool = False) -> float:
    """A JSON number (not a boolean), finite unless allow_inf."""
    def bad(what: str) -> ConfigError:
        key = path.rsplit(".", 1)[-1].split("[")[0]
        return ConfigError(f"'{path}' {what}", source, _line_of_key(text, key))

    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise bad(f"must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise bad("is out of range") from None
    if math.isnan(x) or (math.isinf(x) and not allow_inf):
        raise bad(f"must be finite, got {v!r}")
    return x


def _integer(v, path: str, text: str, source: str) -> int:
    """A JSON number with an integral value; 100.7 is refused, not cut."""
    x = _number(v, path, text, source)
    if x != math.floor(x):
        raise ConfigError(f"'{path}' must be an integer, got {v!r}", source,
                          _line_of_key(text, path.rsplit(".", 1)[-1]))
    return v if isinstance(v, int) else int(x)


def _param_value(key: str, v, path: str, text: str, source: str):
    """A parameter value: t2 may also be the string 'inf', n_atoms is an
    integer, every other rate a finite number."""
    if key == "t2":
        if isinstance(v, str) and v in ("inf", "Infinity"):
            return math.inf
        return _number(v, path, text, source, allow_inf=True)
    if key == "n_atoms":
        return _integer(v, path, text, source)
    return _number(v, path, text, source)


def _as_complex(v, path: str, text: str, source: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_number(v, path, text, source))
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], f"{path}[0]", text, source),
                       _number(v[1], f"{path}[1]", text, source))
    raise ConfigError(f"'{path}' must be a number or [re, im] pair", source)


def _build_params(obj, path: str, text: str, source: str) -> SystemParams:
    if not isinstance(obj, dict):
        raise ConfigError(f"'{path}' must be an object", source)
    if "matched" in obj:
        inner = obj["matched"]
        _check_keys(obj, {"matched"}, {"matched"}, path + ".", text, source)
        allowed = {"kappa", "c_atom", "gamma", "n_atoms", "delta_c", "t2"}
        _check_keys(inner, allowed, {"kappa", "c_atom"}, path + ".matched.",
                    text, source)
        kwargs = {k: _param_value(k, v, f"{path}.matched.{k}", text, source)
                  for k, v in inner.items()}
        try:
            return solve_matched_params(kwargs.pop("kappa"),
                                        kwargs.pop("c_atom"), **kwargs)
        except (ParameterError, OverflowError) as exc:
            raise ConfigError(f"'{path}.matched': {exc}", source,
                              _line_of_key(text, "matched")) from exc
    checked = {k: _param_value(k, v, f"{path}.{k}", text, source)
               if k in PARAM_KEYS else v for k, v in obj.items()}
    try:
        return params_from_dict(checked)
    except ParameterError as exc:
        # surface the offending key's line when the message names one
        line = None
        for k in obj:
            if f"'{k}'" in str(exc) or str(exc).startswith(k):
                line = _line_of_key(text, k)
                break
        raise ConfigError(f"'{path}': {exc}", source, line) from exc


def _build_pulse(obj, text: str, source: str) -> PulseSpec:
    allowed = {"shape", "duration", "center", "carrier_detuning"}
    _check_keys(obj, allowed, {"duration"}, "pulse.", text, source)
    kw = {k: _number(v, f"pulse.{k}", text, source)
          for k, v in obj.items() if k != "shape"}
    if "shape" in obj:
        if not isinstance(obj["shape"], str):
            raise ConfigError("'pulse.shape' must be a string", source,
                              _line_of_key(text, "shape"))
        kw["shape"] = obj["shape"]
    try:
        return PulseSpec(**kw)
    except (ParameterError, ValueError) as exc:
        raise ConfigError(f"'pulse': {exc}", source,
                          _line_of_key(text, "pulse")) from exc


def parse_scenario_config(text: str, source: str = "config") -> ScenarioConfig:
    """Validate raw JSON text into a ScenarioConfig.

    Unknown keys are rejected at every nesting level; messages carry the
    source name and, where determinable, a line anchor.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", source,
                          exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object", source)

    top_allowed = {"scenario", "params", "read_params", "pulse", "grid", "tau",
                   "t_span", "n_sim", "span", "scheme", "solver_tol",
                   "address", "efficiencies", "sweep", "output"}
    _check_keys(doc, top_allowed, {"scenario"}, "", text, source)

    try:
        scenario = Scenario(doc["scenario"])
    except ValueError:
        raise ConfigError(
            f"unknown scenario '{doc['scenario']}' (one of: "
            f"{', '.join(s.value for s in Scenario)})",
            source, _line_of_key(text, "scenario")) from None

    kw: dict = {"scenario": scenario}

    if "params" in doc:
        kw["params"] = _build_params(doc["params"], "params", text, source)
    if "read_params" in doc:
        kw["read_params"] = _build_params(doc["read_params"], "read_params",
                                          text, source)
    if "pulse" in doc:
        kw["pulse"] = _build_pulse(doc["pulse"], text, source)
    if "grid" in doc:
        _check_keys(doc["grid"], {"span", "n", "center"}, {"span", "n"},
                    "grid.", text, source)
        kw["grid_span"] = _number(doc["grid"]["span"], "grid.span", text, source)
        if kw["grid_span"] <= 0:
            raise ConfigError(f"'grid.span' must be > 0, got {kw['grid_span']}",
                              source, _line_of_key(text, "span"))
        kw["grid_n"] = _integer(doc["grid"]["n"], "grid.n", text, source)
        if kw["grid_n"] < 2:
            raise ConfigError(f"'grid.n' must be >= 2, got {kw['grid_n']}",
                              source, _line_of_key(text, "n"))
        kw["grid_center"] = _number(doc["grid"].get("center", 0.0),
                                    "grid.center", text, source)
    if "tau" in doc:
        kw["tau"] = _number(doc["tau"], "tau", text, source)
    if "t_span" in doc:
        ts = doc["t_span"]
        if not (isinstance(ts, list) and len(ts) == 2):
            raise ConfigError("'t_span' must be [t0, t1]", source,
                              _line_of_key(text, "t_span"))
        kw["t_span"] = tuple(_number(t, f"t_span[{i}]", text, source)
                             for i, t in enumerate(ts))
    if "n_sim" in doc:
        kw["n_sim"] = _integer(doc["n_sim"], "n_sim", text, source)
        if kw["n_sim"] < MIN_N_SIM:
            raise ConfigError(
                f"'n_sim' must be >= {MIN_N_SIM}, got {kw['n_sim']}", source,
                _line_of_key(text, "n_sim"))
    if "span" in doc:
        kw["span"] = _number(doc["span"], "span", text, source)
    if "scheme" in doc:
        if doc["scheme"] not in ("quantile", "uniform_weighted"):
            raise ConfigError(
                f"'scheme' must be 'quantile' or 'uniform_weighted', got "
                f"{doc['scheme']!r}", source, _line_of_key(text, "scheme"))
        kw["scheme"] = doc["scheme"]
    if "solver_tol" in doc:
        tol = _number(doc["solver_tol"], "solver_tol", text, source)
        if not (0 < tol <= 1e-8):
            raise ConfigError(f"'solver_tol' must be in (0, 1e-8], got {tol!r}",
                              source, _line_of_key(text, "solver_tol"))
        kw["solver_tol"] = tol
    if "address" in doc:
        _check_keys(doc["address"], {"amplitudes", "bin_spacing", "bin_duration"},
                    {"amplitudes"}, "address.", text, source)
        amps = doc["address"]["amplitudes"]
        if not isinstance(amps, list) or not amps:
            raise ConfigError("'address.amplitudes' must be a nonempty list",
                              source, _line_of_key(text, "amplitudes"))
        parsed = tuple(_as_complex(a, f"address.amplitudes[{i}]", text, source)
                       for i, a in enumerate(amps))
        try:
            kw["address"] = AddressSpec(
                parsed,
                bin_spacing=_number(doc["address"].get("bin_spacing", 1.0),
                                    "address.bin_spacing", text, source),
                bin_duration=_number(doc["address"].get("bin_duration", 0.05),
                                     "address.bin_duration", text, source))
        except ParameterError as exc:
            raise ConfigError(f"'address': {exc}", source,
                              _line_of_key(text, "address")) from exc
    if "efficiencies" in doc:
        eobj = doc["efficiencies"]
        if eobj == {"from_dynamics": True}:
            kw["eff_from_dynamics"] = True
        else:
            allowed = {"transfer_amplitude", "blockade_reflection_amplitude",
                       "leakage_amplitude"}
            _check_keys(eobj, allowed | {"from_dynamics"}, set(),
                        "efficiencies.", text, source)
            if "from_dynamics" in eobj:
                raise ConfigError(
                    "'efficiencies.from_dynamics' must be exactly "
                    '{"from_dynamics": true} with no other keys',
                    source, _line_of_key(text, "from_dynamics"))
            try:
                kw["efficiencies"] = BranchEfficiencies(**{
                    k: _as_complex(v, f"efficiencies.{k}", text, source)
                    for k, v in eobj.items()})
            except ParameterError as exc:
                raise ConfigError(f"'efficiencies': {exc}", source,
                                  _line_of_key(text, "efficiencies")) from exc
    if "output" in doc:
        _check_keys(doc["output"], {"path", "format"}, set(), "output.",
                    text, source)
        kw["out_path"] = doc["output"].get("path")
        if kw["out_path"] is not None and not isinstance(kw["out_path"], str):
            raise ConfigError("'output.path' must be a string", source,
                              _line_of_key(text, "path"))
        fmt = doc["output"].get("format")
        if fmt is not None and fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got '{fmt}'",
                              source, _line_of_key(text, "format"))
        kw["out_format"] = fmt

    if "sweep" in doc:
        sobj = doc["sweep"]
        allowed = {"parameter", "values", "curve_parameter", "curve_values",
                   "tau_over_duration"}
        _check_keys(sobj, allowed, {"parameter", "values"}, "sweep.",
                    text, source)
        parameter = sobj["parameter"]
        if not isinstance(parameter, str) or parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter '{parameter}' not allowed (whitelist: "
                f"{', '.join(SWEEP_PARAMETERS)})",
                source, _line_of_key(text, "parameter"))
        values = sobj["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a nonempty list", source,
                              _line_of_key(text, "values"))
        curve_parameter = sobj.get("curve_parameter")
        curve_values = sobj.get("curve_values", [])
        if not isinstance(curve_values, list):
            raise ConfigError("sweep.curve_values must be a list", source,
                              _line_of_key(text, "curve_values"))
        if curve_parameter is not None:
            if not isinstance(curve_parameter, str) or \
                    curve_parameter not in SWEEP_PARAMETERS:
                raise ConfigError(
                    f"sweep curve_parameter '{curve_parameter}' not allowed "
                    f"(whitelist: {', '.join(SWEEP_PARAMETERS)})",
                    source, _line_of_key(text, "curve_parameter"))
            if curve_parameter == parameter:
                raise ConfigError("sweep.curve_parameter must differ from "
                                  "sweep.parameter", source,
                                  _line_of_key(text, "curve_parameter"))
            if not curve_values:
                raise ConfigError("sweep.curve_values must be nonempty when "
                                  "curve_parameter is set", source,
                                  _line_of_key(text, "curve_parameter"))
        elif curve_values:
            raise ConfigError("sweep.curve_values without curve_parameter",
                              source, _line_of_key(text, "curve_values"))
        kw["sweep"] = SweepSpec(
            parameter=parameter,
            values=tuple(_param_value(parameter, v, f"sweep.values[{i}]",
                                      text, source)
                         for i, v in enumerate(values)),
            curve_parameter=curve_parameter,
            curve_values=tuple(
                _param_value(curve_parameter, v, f"sweep.curve_values[{i}]",
                             text, source)
                for i, v in enumerate(curve_values)),
            tau_over_duration=_number(sobj.get("tau_over_duration", 5.0),
                                      "sweep.tau_over_duration", text, source))
        if parameter == "pulse_duration" and "tau" in doc:
            raise ConfigError(
                "sweeping pulse_duration fixes tau = tau_over_duration * "
                "duration; remove the explicit 'tau'",
                source, _line_of_key(text, "tau"))

    cfg = ScenarioConfig(**kw)
    _validate_scenario_fields(cfg, text, source)
    return cfg


def _validate_scenario_fields(cfg: ScenarioConfig, text: str,
                              source: str) -> None:
    sc = cfg.scenario
    sweep = cfg.sweep
    need_params = sc in (Scenario.SPECTRA, Scenario.CHECK_MATCHING,
                         Scenario.STORE, Scenario.ECHO_CYCLE,
                         Scenario.BLOCKADE, Scenario.SWEEP)
    if need_params and cfg.params is None:
        raise ConfigError(f"scenario '{sc.value}' requires 'params'", source)
    if sc in (Scenario.STORE, Scenario.ECHO_CYCLE, Scenario.BLOCKADE,
              Scenario.SWEEP) and cfg.pulse is None:
        raise ConfigError(f"scenario '{sc.value}' requires 'pulse'", source)
    if sc in (Scenario.ECHO_CYCLE, Scenario.BLOCKADE) and cfg.tau is None:
        raise ConfigError(f"scenario '{sc.value}' requires 'tau'", source)
    if sc is Scenario.BLOCKADE:
        if cfg.read_params is None:
            raise ConfigError(
                "scenario 'blockade' requires 'read_params' with a coupled "
                "control atom (g1 > 0)", source)
        if cfg.read_params.g1 == 0:
            raise ConfigError("'read_params.g1' must be > 0 for a blockade run",
                              source, _line_of_key(text, "read_params"))
    if sc is Scenario.ADDRESS:
        if cfg.address is None:
            raise ConfigError("scenario 'address' requires 'address'", source)
        if cfg.eff_from_dynamics:
            if cfg.params is None or cfg.tau is None:
                raise ConfigError(
                    "efficiencies.from_dynamics needs 'params' and 'tau'",
                    source)
    if sc is Scenario.SWEEP and sweep is None:
        raise ConfigError("scenario 'sweep' requires 'sweep'", source)
    if sweep is not None and sc is not Scenario.SWEEP:
        raise ConfigError(f"'sweep' given but scenario is '{sc.value}'", source)
    if sweep is not None and cfg.tau is None \
            and sweep.parameter not in ("pulse_duration", "tau") \
            and sweep.curve_parameter not in ("pulse_duration", "tau"):
        raise ConfigError("sweep needs 'tau' unless pulse_duration or tau "
                          "is swept (those set the delay per point)", source)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON for a validated config; parse(serialize(x)) == x."""
    doc: dict = {"scenario": cfg.scenario.value}
    if cfg.params is not None:
        doc["params"] = cfg.params.to_dict()
    if cfg.read_params is not None:
        doc["read_params"] = cfg.read_params.to_dict()
    if cfg.pulse is not None:
        doc["pulse"] = {"shape": cfg.pulse.shape.value,
                        "duration": cfg.pulse.duration,
                        "center": cfg.pulse.center,
                        "carrier_detuning": cfg.pulse.carrier_detuning}
    if cfg.scenario is Scenario.SPECTRA:
        doc["grid"] = {"span": cfg.grid_span, "n": cfg.grid_n,
                       "center": cfg.grid_center}
    if cfg.tau is not None:
        doc["tau"] = cfg.tau
    if cfg.t_span is not None:
        doc["t_span"] = list(cfg.t_span)
    doc["n_sim"] = cfg.n_sim
    if cfg.span is not None:
        doc["span"] = cfg.span
    doc["scheme"] = cfg.scheme
    doc["solver_tol"] = cfg.solver_tol
    if cfg.address is not None:
        doc["address"] = {
            "amplitudes": [[a.real, a.imag] for a in cfg.address.amplitudes],
            "bin_spacing": cfg.address.bin_spacing,
            "bin_duration": cfg.address.bin_duration}
    if cfg.eff_from_dynamics:
        doc["efficiencies"] = {"from_dynamics": True}
    elif cfg.efficiencies is not None:
        e = cfg.efficiencies
        doc["efficiencies"] = {
            "transfer_amplitude": [complex(e.transfer_amplitude).real,
                                   complex(e.transfer_amplitude).imag],
            "blockade_reflection_amplitude": [
                complex(e.blockade_reflection_amplitude).real,
                complex(e.blockade_reflection_amplitude).imag],
            "leakage_amplitude": [complex(e.leakage_amplitude).real,
                                  complex(e.leakage_amplitude).imag]}
    sweep = cfg.sweep
    if sweep is not None:
        doc["sweep"] = {"parameter": sweep.parameter,
                        "values": list(sweep.values),
                        "tau_over_duration": sweep.tau_over_duration}
        if sweep.curve_parameter is not None:
            doc["sweep"]["curve_parameter"] = sweep.curve_parameter
            doc["sweep"]["curve_values"] = list(sweep.curve_values)
    if cfg.out_path is not None or cfg.out_format is not None:
        doc["output"] = {}
        if cfg.out_path is not None:
            doc["output"]["path"] = cfg.out_path
        if cfg.out_format is not None:
            doc["output"]["format"] = cfg.out_format
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ scenarios

@dataclass(frozen=True)
class _Artifact:
    """One scenario's result, ready for either artifact format.

    `meta` becomes leading `#` lines in CSV and top-level keys in JSON;
    `header` and `rows` are the CSV table, `body` the rest of the JSON
    document.  `summary` is the line printed on success.
    """

    summary: str
    header: list[str]
    rows: list
    body: dict
    meta: dict = field(default_factory=dict)


def _report(summary: str, doc: dict) -> _Artifact:
    """A flat scalar report: a key,value table in CSV, top-level in JSON."""
    return _Artifact(summary, ["key", "value"], list(doc.items()), doc)


def _write_artifact(out: Path, fmt: str, cfg: ScenarioConfig, cfg_text: str,
                    art: _Artifact) -> None:
    """The one artifact writer and the one place provenance is stamped.

    The text goes to a temporary file beside `out` that is then renamed
    over it, so a failed write leaves any earlier artifact untouched.
    """
    meta = {**art.meta,
            "scenario": cfg.scenario.value,
            "version": __version__,
            "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
            "params_sha256": (params_digest(cfg.params)
                              if cfg.params is not None else None),
            "read_params_sha256": (params_digest(cfg.read_params)
                                   if cfg.read_params is not None else None)}
    if fmt == "csv":
        buf = io.StringIO()
        for k, v in meta.items():
            v = json.dumps(v) if isinstance(v, (dict, list)) else v
            buf.write(f"# {k}={v}\n")
        table = csv.writer(buf, lineterminator="\n")
        table.writerow(art.header)
        table.writerows(art.rows)
        text = buf.getvalue()
    else:
        text = json.dumps({**meta, **art.body}) + "\n"
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _db(x: float) -> float:
    return 10.0 * math.log10(max(x, 1e-300))


def _run_spectra(cfg: ScenarioConfig) -> _Artifact:
    p = cfg.params
    grid = FrequencyGrid.uniform(span=cfg.grid_span, n=cfg.grid_n,
                                 center=cfg.grid_center)
    eps_t = spectral_efficiency(grid.points, p.with_(g1=0.0)).tolist()
    eps_b = spectral_efficiency(grid.points, p).tolist()
    cols = {"nu": grid.points.tolist(),
            "eps_transfer": eps_t, "eps_transfer_db": [_db(x) for x in eps_t],
            "eps_blockade": eps_b, "eps_blockade_db": [_db(x) for x in eps_b]}
    return _Artifact(f"spectra: {grid.points.size} points, peak transfer "
                     f"{max(eps_t):.6f}, peak blockade {max(eps_b):.6f}",
                     list(cols), list(zip(*cols.values())), cols)


def _run_check_matching(cfg: ScenarioConfig) -> _Artifact:
    report = check_matching(cfg.params)
    coop = cooperativities(cfg.params)
    return _report(f"check-matching: all_matched={report.all_matched} "
                   f"(c_pm={coop.c_pm:.6g}, c_atom={coop.c_atom:.6g})",
                   {**report.to_dict(), "c_atom": coop.c_atom,
                    "c_pm": coop.c_pm})


def _run_store(cfg: ScenarioConfig) -> _Artifact:
    p = cfg.params
    pulse = cfg.pulse
    span = cfg.t_span or (pulse.center - 6.0 * pulse.duration,
                          pulse.center + 6.0 * pulse.duration)
    ens = ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span,
                              scheme=cfg.scheme)
    trace = integrate_storage(p, ens, pulse, span, cfg.solver_tol,
                              store_ensemble=False)
    fields = {"alpha_in": trace.alpha_in, "alpha_out": trace.alpha_out,
              "cavity1": trace.cavity1, "control": trace.control,
              "cavity2": trace.cavity2}
    probabilities = {
        "p_cavity1": trace.p_cavity1, "p_control": trace.p_control,
        "p_cavity2": trace.p_cavity2, "p_ensemble": trace.p_ensemble,
        "out_flux_integral": trace.out_flux_integral,
        "control_loss_integral": trace.control_loss_integral,
        "t2_loss_integral": trace.t2_loss_integral,
        "in_flux_integral": trace.in_flux_integral,
        "ledger_residual": trace.ledger_residual}
    # long format: one row per (series, time), real series with im = 0
    times = trace.times.tolist()
    rows = []
    for name, arr in {**fields, **probabilities}.items():
        arr = np.asarray(arr, dtype=complex)
        rows.extend(zip(times, [name] * len(times), arr.real.tolist(),
                        arr.imag.tolist()))
    body = {"params": p.to_dict(), "times": times,
            "fields": {name: {"re": np.real(arr).tolist(),
                              "im": np.imag(arr).tolist()}
                       for name, arr in fields.items()},
            "probabilities": {name: np.asarray(arr).tolist()
                              for name, arr in probabilities.items()}}
    return _Artifact(f"store: probability {trace.ensemble.probability:.6f}, "
                     f"ledger residual {trace.max_ledger_residual:.2e}",
                     ["time", "series", "re", "im"], rows, body,
                     meta={"kind": trace.kind, "solver_tol": trace.solver_tol,
                           "initial_probability": trace.initial_probability})


def _echo_summary(res) -> dict:
    return {
        "storage_probability": res.storage_probability,
        "echo_probability": res.echo_probability,
        "fidelity_time_reversed": res.fidelity_time_reversed,
        "echo_window": list(res.echo_window),
        "tau": res.tau,
        "max_ledger_residual": res.max_ledger_residual,
    }


def _run_echo(cfg: ScenarioConfig) -> _Artifact:
    p = cfg.params
    p_read = cfg.read_params or p
    ens = ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span,
                              scheme=cfg.scheme)
    res = run_echo_cycle(p, p_read, ens, cfg.pulse, cfg.tau, cfg.solver_tol,
                         keep_traces=False)
    times = res.output_times.tolist()
    re = np.real(res.output_waveform).tolist()
    im = np.imag(res.output_waveform).tolist()
    return _Artifact(f"echo: P={res.echo_probability:.6f}, "
                     f"fidelity={res.fidelity_time_reversed:.6f}",
                     ["time", "alpha_out_re", "alpha_out_im"],
                     list(zip(times, re, im)),
                     {"output_times": times, "alpha_out_re": re,
                      "alpha_out_im": im},
                     meta=_echo_summary(res))


def _run_blockade(cfg: ScenarioConfig) -> _Artifact:
    p = cfg.params
    p_read = cfg.read_params
    ens = ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span,
                              scheme=cfg.scheme)
    res = run_echo_cycle(p, p_read, ens, cfg.pulse, cfg.tau, cfg.solver_tol,
                         keep_traces=False)
    chk = blockade_phase_check(p_read, res.ens_final, res.ens_stored, cfg.tau,
                               res.t_final - (cfg.pulse.center + cfg.tau))
    c = cooperativities(p_read).c_atom
    return _report(f"blockade: P_echo={res.echo_probability:.3e}, "
                   f"phase-pi={chk.phase - math.pi:+.4f}, "
                   f"|overlap|={chk.magnitude_ratio:.4f}",
                   {**_echo_summary(res),
                    "c_atom": c,
                    "leak_bound": (1.0 + 2.0 * c) ** -2,
                    "coherence_phase": chk.phase,
                    "coherence_phase_minus_pi": chk.phase - math.pi,
                    "coherence_magnitude_ratio": chk.magnitude_ratio,
                    "final_probability": res.ens_final.probability})


def _run_address(cfg: ScenarioConfig) -> _Artifact:
    if cfg.eff_from_dynamics:
        eff = compose_with_dynamics(cfg.params, cfg.tau)
    else:
        eff = cfg.efficiencies or BranchEfficiencies()
    state = run_addressing(cfg.address.m, cfg.address, eff)
    print(state_table(state))
    doc = state_to_dict(state)
    meta = {"norm": doc.pop("norm"), "losses": doc.pop("losses")}
    rows = [[t["amplitude"]["re"], t["amplitude"]["im"], t["control"],
             "".join(str(b) for b in t["occupied"]), ";".join(t["emitted"])]
            for t in doc["terms"]]
    return _Artifact(f"address: {len(state.terms)} terms, norm {state.norm:.12f}",
                     ["amplitude_re", "amplitude_im", "control", "occupied",
                      "emitted"], rows, doc, meta)


# ---------------------------------------------------------------------- sweep

def _apply_sweep_value(p_store: SystemParams, p_read: SystemParams,
                       pulse: PulseSpec, tau: float | None, name: str,
                       value: float, tau_over_duration: float):
    if name == "pulse_duration":
        pulse = PulseSpec(shape=pulse.shape, duration=value,
                          center=pulse.center,
                          carrier_detuning=pulse.carrier_detuning)
        tau = tau_over_duration * value
    elif name == "tau":
        tau = value
    elif name == "t2":
        p_store = p_store.with_(t2=value)
        p_read = p_read.with_(t2=value)
    elif name == "g1":
        p_read = p_read.with_(g1=value)
    elif name == "delta_c":
        p_read = p_read.with_(delta_c=value)
    else:
        raise ParameterError(f"unsupported sweep parameter '{name}'")
    return p_store, p_read, pulse, tau


def _sweep_point(task: tuple) -> tuple:
    """Worker: one echo cycle. Top-level so process pools can pickle it."""
    (idx, store_d, read_d, pulse_d, tau, n_sim, span, scheme, solver_tol) = task
    p_store = params_from_dict(store_d)
    p_read = params_from_dict(read_d)
    pulse = PulseSpec(**pulse_d)
    ens = ensemble_for_params(p_store, n_sim=n_sim, span=span, scheme=scheme)
    res = run_echo_cycle(p_store, p_read, ens, pulse, tau, solver_tol,
                         keep_traces=False)
    return idx, {"echo_probability": res.echo_probability,
                 "fidelity_time_reversed": res.fidelity_time_reversed,
                 "storage_probability": res.storage_probability,
                 "max_ledger_residual": res.max_ledger_residual}


def run_sweep(cfg: ScenarioConfig, workers: int = 1) -> list[dict]:
    """Echo-cycle sweep; rows ordered (curve, value) regardless of workers."""
    sweep = cfg.sweep
    p_read0 = cfg.read_params or cfg.params
    curves = (list(zip([sweep.curve_parameter] * len(sweep.curve_values),
                       sweep.curve_values))
              if sweep.curve_parameter else [(None, None)])
    tasks = []
    labels = []
    idx = 0
    for cname, cval in curves:
        for v in sweep.values:
            p_s, p_r, pulse, tau = cfg.params, p_read0, cfg.pulse, cfg.tau
            if cname is not None:
                p_s, p_r, pulse, tau = _apply_sweep_value(
                    p_s, p_r, pulse, tau, cname, cval, sweep.tau_over_duration)
            p_s, p_r, pulse, tau = _apply_sweep_value(
                p_s, p_r, pulse, tau, sweep.parameter, v,
                sweep.tau_over_duration)
            pulse_d = {"shape": pulse.shape.value, "duration": pulse.duration,
                       "center": pulse.center,
                       "carrier_detuning": pulse.carrier_detuning}
            tasks.append((idx, p_s.to_dict(), p_r.to_dict(), pulse_d, tau,
                          cfg.n_sim, cfg.span, cfg.scheme, cfg.solver_tol))
            labels.append({"curve_parameter": cname, "curve_value": cval,
                           "parameter": sweep.parameter, "value": v,
                           "tau": tau})
            idx += 1
    # more processes than points or cores only cost start-up and memory
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_sweep_point, tasks))
    else:
        results = dict(map(_sweep_point, tasks))
    return [{**labels[i], **results[i]} for i in range(idx)]


def _run_sweep_scenario(cfg: ScenarioConfig, workers: int) -> _Artifact:
    sweep = cfg.sweep
    rows = run_sweep(cfg, workers=workers)
    if sweep.curve_parameter:
        # wide table: one row per swept value, one column pair per curve
        per_curve: dict = {}
        for r in rows:
            per_curve.setdefault(r["curve_value"], {})[r["value"]] = r
        header = [sweep.parameter]
        for cv in sweep.curve_values:
            header += [f"p_echo[{sweep.curve_parameter}={cv:g}]",
                       f"fidelity[{sweep.curve_parameter}={cv:g}]"]
        table = []
        for v in sweep.values:
            row = [float(v)]
            for cv in sweep.curve_values:
                r = per_curve[cv][v]
                row += [r["echo_probability"], r["fidelity_time_reversed"]]
            table.append(row)
    else:
        # the delay column is redundant when tau is the swept axis
        with_tau = sweep.parameter != "tau"
        header = ([sweep.parameter] + (["tau"] if with_tau else [])
                  + ["p_echo", "fidelity", "storage_probability"])
        table = [[r["value"]] + ([r["tau"]] if with_tau else [])
                 + [r["echo_probability"], r["fidelity_time_reversed"],
                    r["storage_probability"]]
                 for r in rows]
    return _Artifact(f"sweep: {len(rows)} points written", header, table,
                     {"points": rows})


# ----------------------------------------------------------------------- main

_RUNNERS = {
    Scenario.SPECTRA: _run_spectra,
    Scenario.CHECK_MATCHING: _run_check_matching,
    Scenario.STORE: _run_store,
    Scenario.ECHO_CYCLE: _run_echo,
    Scenario.BLOCKADE: _run_blockade,
    Scenario.ADDRESS: _run_address,
}

_SUBCOMMANDS = {
    "spectra": Scenario.SPECTRA,
    "check-matching": Scenario.CHECK_MATCHING,
    "store": Scenario.STORE,
    "echo": Scenario.ECHO_CYCLE,
    "blockade": Scenario.BLOCKADE,
    "address": Scenario.ADDRESS,
    "sweep": Scenario.SWEEP,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoqram",
        description="Time-bin quantum RAM simulator: spectra, echo dynamics, "
                    "and addressing scenarios from JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, scenario in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=f"run the {scenario.value} scenario")
        sp.add_argument("--config", required=True, help="JSON scenario config")
        sp.add_argument("--out", default=None,
                        help="artifact path (default: config output.path, "
                             f"else ${OUT_DIR_ENV}/<scenario>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="artifact format (overrides config)")
        sp.add_argument("--workers", type=int, default=1,
                        help="parallel workers (sweep only)")
    return parser


def _cannot_write(out: Path, exc: OSError) -> int:
    print(f"cannot write artifact {out}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    expected = _SUBCOMMANDS[args.command]
    cfg_path = Path(args.config)
    try:
        try:
            cfg_text = cfg_path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", str(cfg_path))
        cfg = parse_scenario_config(cfg_text, source=str(cfg_path))
        if cfg.scenario is not expected:
            raise ConfigError(
                f"config declares scenario '{cfg.scenario.value}' but the "
                f"'{args.command}' subcommand expects '{expected.value}'",
                str(cfg_path), _line_of_key(cfg_text, "scenario"))
        fmt = args.format or cfg.out_format or "csv"
        out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
        if args.out is not None:
            # explicit command-line path wins and is taken literally
            out = Path(args.out)
        elif cfg.out_path is not None:
            # relative config paths land in the default output directory
            out = Path(cfg.out_path)
            if not out.is_absolute():
                out = out_dir / out
        else:
            out = out_dir / f"{cfg.scenario.value}.{fmt}"
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(out, exc)

        if cfg.scenario is Scenario.SWEEP:
            art = _run_sweep_scenario(cfg, max(1, args.workers))
        else:
            art = _RUNNERS[cfg.scenario](cfg)
        try:
            _write_artifact(out, fmt, cfg, cfg_text, art)
        except OSError as exc:
            return _cannot_write(out, exc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, ProtocolError) as exc:
        # the library refused a parsed config: name the file it came from
        print(f"config error: {cfg_path}: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(art.summary)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
