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
beside the target is renamed over it.  All computation is deterministic
at a given BLAS thread count, whatever the number of sweep workers.

The config schema is the table `_SCHEMA` in this module: one row per key
with its path, kind, bound, default and the scenarios that need and read
it. `parse_scenario_config` walks a document against it and anchors every
error at the line of the key path it names.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

# the layers are modules whose code runs on their first use (see the
# package), so a command loads numpy and a layer only when it runs them
from . import __version__, addressing, dynamics, spectral
from .params import (MAX_BINS, MAX_N_SIM, MAX_SAMPLES, MIN_N_SIM, SOLVER_TOL,
                     IntegrationError, ParameterError, ProtocolError,
                     PulseShape, SystemParams, check_matching,
                     cooperativities, params_digest, solve_matched_params)

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
class GridSpec:
    span: float = 3.0
    n: int = 1201
    center: float = 0.0


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
    grid: GridSpec = GridSpec()
    tau: float | None = None
    t_span: tuple[float, float] | None = None
    n_sim: int = 801
    span: float | None = None
    address: AddressSpec | None = None
    efficiencies: BranchEfficiencies | None = None
    sweep: SweepSpec | None = None
    output: tuple[str | None, str | None] = (None, None)   # (path, format)
    # not a field: the ledger tolerance of every run, which no config sets
    solver_tol = SOLVER_TOL


# --------------------------------------------------------------- config schema
#
# Every config key is one row of _SCHEMA, and _Walker reads the rows: it has
# no code for any one key.  The keys of a parameter object sit under
# "params." and serve "read_params" too.  The README's config table lists
# the same paths, and tests/test_readme.py holds the two together.

_NUM = "number"
_INF = "number or 'inf'"
_INT = "integer"
_STR = "string"
_CHOICE = "choice"
_COMPLEX = "number or [re, im]"
_LIST = "nonempty list"
_PAIR = "[t0, t1]"
_OBJECT = "object"
_PARAMS = "params object"


@dataclass(frozen=True)
class _Key:
    """One config key.

    kind       one of the kinds above; `item` is the kind of a list's items
    choices    the values a choice accepts
    bound      (text, test) sides that a number, or a list's length before
               its items convert, must pass; the first that fails is reported
    default    the value taken when the key is absent; None passes nothing
    required   the key must be present whenever its object is
    needed_by  the scenarios that need this top-level key
    read_by    the scenarios whose runner reads this top-level key; the
               others refuse it
    alone      the key must be the only one in its object, and its value
               stands for the object
    build      makes what the config holds from the checked value, or from
               an object's values by key name
    """

    path: str
    kind: str
    item: str | None = None
    choices: tuple = ()
    bound: tuple[tuple[str, Callable[[float], bool]], ...] = ()
    default: object = None
    required: bool = False
    needed_by: tuple[Scenario, ...] = ()
    read_by: tuple[Scenario, ...] = ()
    alone: bool = False
    build: Callable | None = None


def _matched(kappa: float, c_atom: float, **rest) -> SystemParams:
    """`params.matched`: the config's c_atom is the solver's c_atom_target."""
    return solve_matched_params(kappa, c_atom, **rest)


_S = Scenario
_ANY = tuple(Scenario)
_CYCLES = (_S.ECHO_CYCLE, _S.BLOCKADE, _S.SWEEP)
_DYNAMICS = (_S.STORE, *_CYCLES)
_SCHEMA = (
    _Key("scenario", _CHOICE, choices=tuple(s.value for s in Scenario),
         required=True, build=Scenario, read_by=_ANY),
    _Key("params", _PARAMS, build=SystemParams,
         needed_by=(_S.SPECTRA, _S.CHECK_MATCHING, *_DYNAMICS), read_by=_ANY),
    _Key("read_params", _PARAMS, build=SystemParams, needed_by=(_S.BLOCKADE,),
         read_by=_CYCLES),
    _Key("pulse", _OBJECT, build=lambda **v: dynamics.PulseSpec(**v),
         needed_by=_DYNAMICS, read_by=_DYNAMICS),
    _Key("pulse.shape", _CHOICE, choices=tuple(s.value for s in PulseShape),
         default=PulseShape.GAUSSIAN.value),
    _Key("pulse.duration", _NUM, required=True),
    _Key("pulse.center", _NUM, default=0.0),
    _Key("pulse.carrier_detuning", _NUM, default=0.0),
    _Key("grid", _OBJECT, build=GridSpec, read_by=(_S.SPECTRA,)),
    _Key("grid.span", _NUM, bound=(("> 0", lambda x: x > 0),), required=True),
    _Key("grid.n", _INT, required=True,
         bound=((">= 2", lambda x: x >= 2),
                (f"<= {MAX_SAMPLES}", lambda x: x <= MAX_SAMPLES))),
    _Key("grid.center", _NUM, default=0.0),
    _Key("tau", _NUM, needed_by=(_S.ECHO_CYCLE, _S.BLOCKADE),
         read_by=(*_CYCLES, _S.ADDRESS)),
    _Key("t_span", _PAIR, read_by=(_S.STORE,)),
    # a stage's node operator holds 8 n_sim**2 bytes or more
    _Key("n_sim", _INT, bound=((f">= {MIN_N_SIM}", lambda x: x >= MIN_N_SIM),
                               (f"<= {MAX_N_SIM}", lambda x: x <= MAX_N_SIM)),
         default=801, read_by=_DYNAMICS),
    _Key("span", _NUM, read_by=_DYNAMICS),
    _Key("address", _OBJECT, build=lambda **v: addressing.AddressSpec(**v),
         needed_by=(_S.ADDRESS,), read_by=(_S.ADDRESS,)),
    # an address register holds M**2 cell factors
    _Key("address.amplitudes", _LIST, item=_COMPLEX, required=True,
         bound=((f"at most {MAX_BINS} bins", lambda m: m <= MAX_BINS),)),
    _Key("efficiencies", _OBJECT,
         build=lambda **v: addressing.BranchEfficiencies(**v),
         read_by=(_S.ADDRESS,)),
    _Key("efficiencies.transfer_amplitude", _COMPLEX, default=1.0),
    _Key("efficiencies.blockade_reflection_amplitude", _COMPLEX, default=-1.0),
    _Key("efficiencies.leakage_amplitude", _COMPLEX, default=0.0),
    # composed by the parser from params and tau
    _Key("efficiencies.from_dynamics", _CHOICE, choices=(True,), alone=True),
    _Key("sweep", _OBJECT, build=SweepSpec, needed_by=(_S.SWEEP,),
         read_by=(_S.SWEEP,)),
    _Key("sweep.parameter", _CHOICE, choices=SWEEP_PARAMETERS, required=True),
    _Key("sweep.values", _LIST, item=_INF, required=True),
    _Key("sweep.curve_parameter", _CHOICE, choices=SWEEP_PARAMETERS),
    _Key("sweep.curve_values", _LIST, item=_INF, default=()),
    _Key("sweep.tau_over_duration", _NUM, default=5.0),
    _Key("output", _OBJECT, build=lambda path=None, format=None: (path, format),
         read_by=_ANY),
    _Key("output.path", _STR),
    _Key("output.format", _CHOICE, choices=("csv", "json")),
    _Key("params.kappa", _NUM, required=True),
    _Key("params.gamma", _NUM, required=True),
    _Key("params.g1", _NUM, required=True),
    _Key("params.g2", _NUM, required=True),
    _Key("params.f2", _NUM, required=True),
    _Key("params.n_atoms", _INT, required=True),
    _Key("params.delta_in", _NUM, required=True),
    _Key("params.delta_c", _NUM, default=0.0),
    _Key("params.t2", _INF, default=math.inf),
    _Key("params.matched", _OBJECT, alone=True, build=_matched),
    _Key("params.matched.kappa", _NUM, required=True),
    _Key("params.matched.c_atom", _NUM, required=True),
    _Key("params.matched.gamma", _NUM),
    _Key("params.matched.n_atoms", _INT, default=1000),
    _Key("params.matched.delta_c", _NUM, default=0.0),
    _Key("params.matched.t2", _INF, default=math.inf),
)


def _group(schema: tuple[_Key, ...]) -> dict[str, dict[str, _Key]]:
    """Rows by the path of their object ('' for the top level), then name."""
    groups: dict[str, dict[str, _Key]] = {}
    for key in schema:
        parent, _, name = key.path.rpartition(".")
        groups.setdefault(parent, {})[name] = key
    return groups


_CHILDREN = _group(_SCHEMA)

#: the key path that sets each argument a library rule may name
_ARG_PATHS = {"span": "span", "t_span": "t_span", "tau": "tau",
              "duration": "pulse.duration", "center": "pulse.center",
              "params": "params"}

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}\[\],:]|[^\s{}\[\],:"]+')


def _key_lines(text: str, find: str) -> dict[str, int]:
    """The line of every key path in JSON text that json.loads accepted,
    up to the path `find`.

    "grid.span" is the key "span" inside "grid", "sweep.values[1]" the
    second item of that list and "" the document itself.  A path's
    ancestors are recorded before it, and the scan stops once `find` is
    recorded, unless its key is spelled again later in the text: a
    repeated key keeps its last line, as json.loads keeps its last value.
    """
    lines: dict[str, int] = {}
    containers: list[list] = []   # open: [path, next item index or None]
    path, want_key = "", False
    line, pos = 1, 0
    for m in _TOKEN.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        tok = m.group()
        if tok == ":":
            continue
        if tok in ("}", "]"):
            containers.pop()
            want_key = False
        elif tok == ",":
            if containers[-1][1] is None:
                want_key = True
            else:
                containers[-1][1] += 1
        elif want_key:
            parent = containers[-1][0]
            name = json.loads(tok)
            path = f"{parent}.{name}" if parent else name
            lines[path] = line
            if path == find and text.find(tok, m.end()) < 0:
                return lines
            want_key = False
        else:
            # a value: an object's value sits on its key's line already
            if not containers or containers[-1][1] is not None:
                if containers:
                    path = f"{containers[-1][0]}[{containers[-1][1]}]"
                lines[path] = line
                if path == find:
                    return lines
            if tok in ("{", "["):
                containers.append([path, None if tok == "{" else 0])
                want_key = tok == "{"
    return lines


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


class _Walker:
    """Checks a config document against _SCHEMA and converts its values.

    An error is anchored at the line of the key path it names, or of the
    nearest enclosing key that the document has; the lines are found only
    then, so a valid config does not pay for them.
    """

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    def error(self, path: str, message: str) -> ConfigError:
        lines = _key_lines(self.text, path)
        while path not in lines:
            path = path[:max(path.rfind("."), path.rfind("["), 0)]
        return ConfigError(message, self.source, lines[path])

    def object(self, node, path: str, schema: str) -> dict:
        """The values of one object's keys by name, defaults filled in."""
        if not isinstance(node, dict):
            raise self.error(path, f"'{path}' must be an object" if path
                             else "top level must be a JSON object")
        keys = _CHILDREN[schema]
        for name in node:
            here = _join(path, name)
            if name not in keys:
                raise self.error(here, f"unknown key '{here}' (accepted here: "
                                       f"{', '.join(sorted(keys))})")
            if keys[name].alone and len(node) > 1:
                raise self.error(here, f"'{here}' must be the only key in "
                                       f"'{path}'")
        alone = any(keys[name].alone for name in node)
        values = {}
        for name, key in keys.items():
            if name in node:
                values[name] = self.value(node[name], _join(path, name), key)
            elif key.required and not alone:
                raise self.error(path, "missing required key "
                                       f"'{_join(path, name)}'")
            elif key.default is not None and not alone:
                values[name] = key.default
        return values

    def value(self, v, path: str, key: _Key):
        """What the config holds for one present key."""
        if key.kind in (_OBJECT, _PARAMS):
            schema = "params" if key.kind == _PARAMS else key.path
            values = self.object(v, path, schema)
            alone = [name for name in v if _CHILDREN[schema][name].alone]
            if alone:
                return values[alone[0]]
            try:
                return key.build(**values)
            except (ParameterError, ArithmeticError) as exc:
                raise self.error(path, f"'{path}': {exc}") from exc
        x = self.scalar(v, path, key.kind, key)
        if key.kind != _LIST:
            self.bounded(x, path, key)
        return key.build(x) if key.build else x

    def bounded(self, x, path: str, key: _Key) -> None:
        """Refuse x, a value or a list's length, at its first failed side."""
        for text, test in key.bound:
            if not test(x):
                verb = "hold" if key.kind == _LIST else "be"
                raise self.error(path, f"'{path}' must {verb} {text}, got {x!r}")

    def scalar(self, v, path: str, kind: str, key: _Key):
        """A value that is not an object, checked and converted by kind."""
        if kind == _LIST:
            if not isinstance(v, list) or not v:
                raise self.error(path, f"'{path}' must be a nonempty list")
            self.bounded(len(v), path, key)
            return tuple(self.scalar(x, f"{path}[{i}]", key.item, key)
                         for i, x in enumerate(v))
        if kind == _PAIR:
            if not (isinstance(v, list) and len(v) == 2):
                raise self.error(path, f"'{path}' must be [t0, t1]")
            return tuple(self.number(x, f"{path}[{i}]") for i, x in enumerate(v))
        if kind == _COMPLEX:
            if isinstance(v, list) and len(v) == 2:
                return complex(self.number(v[0], f"{path}[0]"),
                               self.number(v[1], f"{path}[1]"))
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                return complex(self.number(v, path))
            raise self.error(path, f"'{path}' must be a number or [re, im] pair")
        if kind == _CHOICE:
            if not any(type(v) is type(c) and v == c for c in key.choices):
                raise self.error(path, f"unknown {path} {v!r} not allowed: "
                                       f"'{path}' must be one of "
                                       + ", ".join(map(json.dumps, key.choices)))
            return v
        if kind == _STR:
            if not isinstance(v, str):
                raise self.error(path, f"'{path}' must be a string")
            return v
        if kind == _INF and v in ("inf", "Infinity"):
            return math.inf
        x = self.number(v, path, allow_inf=kind == _INF)
        if kind == _INT:
            if x != math.floor(x):
                raise self.error(path, f"'{path}' must be an integer, got {v!r}")
            return v if isinstance(v, int) else int(x)
        return x

    def number(self, v, path: str, allow_inf: bool = False) -> float:
        """A JSON number (not a boolean), finite unless allow_inf."""
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise self.error(path, f"'{path}' must be a number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:
            raise self.error(path, f"'{path}' is out of range") from None
        if math.isnan(x) or (math.isinf(x) and not allow_inf):
            raise self.error(path, f"'{path}' must be finite, got {v!r}")
        return x


def parse_scenario_config(text: str, source: str = "config") -> ScenarioConfig:
    """Validate raw JSON text into a ScenarioConfig.

    _SCHEMA gives every key, its kind, bounds and default and the
    scenarios that need it; the checks after the walk tie two keys
    together.  Every message names the source and the line of the key
    path it is about: for a library rule, the key that set its argument.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", source,
                          exc.lineno, exc.colno) from exc
    w = _Walker(text, source)
    cfg = ScenarioConfig(**w.object(doc, "", ""))
    sc, sweep = cfg.scenario, cfg.sweep
    for name in doc:
        if sc not in _CHILDREN[""][name].read_by:
            raise w.error(name, f"'{name}' given but scenario is "
                                f"'{sc.value}', which does not read it")
    for key in _SCHEMA:
        if sc in key.needed_by and key.path not in doc:
            raise w.error("scenario", f"scenario '{sc.value}' requires "
                                      f"'{key.path}'")
    if sc is Scenario.SPECTRA:
        import numpy as np
        # linspace overflows to inf or nan where center +- span does
        with np.errstate(all="ignore"):
            nu = _grid_points(cfg.grid)
            rising = bool(np.all(np.diff(nu) > 0))
        if not np.all(np.isfinite(nu)):
            raise w.error("grid", "'grid' points must be finite: center +- "
                                  "span overflows")
        if not rising:
            raise w.error("grid", "'grid' points must strictly increase: "
                                  "span is below the rounding of center")
    if sc is Scenario.BLOCKADE and cfg.read_params.g1 == 0:
        raise w.error("read_params",
                      "'read_params.g1' must be > 0 for a blockade run")
    # the read stage runs on the ensemble that the store stage loaded
    store, read = ((p.delta_in, p.collective_coupling) if p else None
                   for p in (cfg.params, cfg.read_params))
    if read and not all(r == s or abs(r - s) <= 1e-9 * abs(s)
                        for r, s in zip(read, store)):
        raise w.error("read_params", "'read_params' describes another ensemble"
                      f": (delta_in, N*g2**2) = {read}, params carry {store}")
    # the library's refusals of line, storage span, delay and output grids
    paths = dict(_ARG_PATHS, t_span="t_span" if cfg.t_span else "pulse.duration")
    if cfg.span is not None:
        _anchored(w, paths, dynamics.check_span, cfg.span, cfg.params.delta_in)
    if sc is Scenario.STORE:
        _anchored(w, paths, dynamics.storage_grid, cfg.pulse, cfg.t_span)
    if sc in (Scenario.ECHO_CYCLE, Scenario.BLOCKADE):
        _anchored(w, paths, dynamics.cycle_grids, cfg.pulse, cfg.tau)
    if cfg.efficiencies is True and (cfg.params is None or cfg.tau is None):
        raise w.error("efficiencies.from_dynamics",
                      "efficiencies.from_dynamics needs 'params' and 'tau'")
    # the couplings the runner divides by, refused at the parameters lacking one
    if sc in _DYNAMICS or sc is Scenario.SPECTRA:
        coupled = (dynamics if sc in _DYNAMICS else spectral).check_coupled
    elif sc is Scenario.CHECK_MATCHING or cfg.efficiencies is True:
        coupled = cooperativities
    else:
        coupled = None
    for name, p in (("params", cfg.params), ("read_params", cfg.read_params)):
        if coupled and p is not None:
            _anchored(w, {None: name}, coupled, p)
    if cfg.efficiencies is True:
        cfg = replace(cfg, efficiencies=_anchored(
            w, paths, addressing.compose_with_dynamics, cfg.params, cfg.tau))
    if sweep is None:
        return cfg
    if sweep.curve_parameter == sweep.parameter:
        raise w.error("sweep", "sweep.curve_parameter must differ from "
                               "sweep.parameter")
    if sweep.curve_values and sweep.curve_parameter is None:
        raise w.error("sweep.curve_values",
                      "sweep.curve_values without curve_parameter")
    if sweep.curve_parameter is not None and not sweep.curve_values:
        raise w.error("sweep.curve_parameter",
                      "sweep.curve_parameter needs sweep.curve_values")
    if sweep.parameter == "pulse_duration":
        fixed = ("sweeping pulse_duration fixes tau = tau_over_duration * "
                 "duration")
        if cfg.tau is not None:
            raise w.error("tau", f"{fixed}; remove the explicit 'tau'")
        if sweep.curve_parameter == "tau":
            raise w.error("sweep.curve_parameter",
                          f"{fixed}; a tau curve would be ignored")
    axes = (sweep.parameter, sweep.curve_parameter)
    if cfg.tau is None and "pulse_duration" not in axes and "tau" not in axes:
        raise w.error("sweep.parameter",
                      "sweep needs 'tau' unless pulse_duration or tau is "
                      "swept (those set the delay per point)")
    # each point as run_sweep builds it, its refusals at their lines
    for _, (_, _, pulse, tau), paths in _sweep_points(cfg, w):
        _anchored(w, paths, dynamics.cycle_grids, pulse, tau)
    return cfg


def _anchored(w: _Walker | None, paths: dict, rule: Callable, *args, **kw):
    """rule(*args, **kw); with a walker, a refusal sits on paths[exc.arg]."""
    try:
        return rule(*args, **kw)
    except ParameterError as exc:
        if w is None:
            raise
        raise w.error(paths.get(exc.arg, ""), str(exc)) from exc


# ------------------------------------------------------------------ scenarios

@dataclass(frozen=True)
class _Artifact:
    """One scenario's result, ready for either artifact format.

    `meta` becomes leading `#` lines in CSV and top-level keys in JSON;
    `header` and `rows` are the CSV table, `body` the rest of the JSON
    document.  `rows` may be an iterator, which only a CSV write runs,
    and `body` may hold numpy arrays, which only a JSON write lists, one
    at a time.  With `text` set, `rows` yields the table's lines as
    strings, written as they are.  `summary` is the line printed on
    success.
    """

    summary: str
    header: list[str]
    rows: Iterable
    body: dict
    meta: dict = field(default_factory=dict)
    text: bool = False


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
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            if fmt == "csv":
                for k, v in meta.items():
                    v = json.dumps(v) if isinstance(v, (dict, list)) else v
                    fh.write(f"# {k}={v}\n")
                table = csv.writer(fh, lineterminator="\n")
                table.writerow(art.header)
                if art.text:
                    fh.writelines(art.rows)
                else:
                    table.writerows(art.rows)
            else:
                _dump(fh, {**meta, **art.body})
                fh.write("\n")
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump(fh, value) -> None:
    """Write json.dumps(value, default=_listed) to fh, a dict whose keys
    are all strings an entry at a time, so that no one string holds the
    document: each leaf goes through json.dumps, any other dict too."""
    if not (isinstance(value, dict) and all(isinstance(k, str) for k in value)):
        fh.write(json.dumps(value, default=_listed))
        return
    for i, (key, item) in enumerate(value.items()):
        fh.write(f"{', ' if i else '{'}{json.dumps(key)}: ")
        _dump(fh, item)
    fh.write("}" if value else "{}")


def _listed(value):
    """The JSON encoder's fallback: a numpy array as its list."""
    if not hasattr(value, "tolist"):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return value.tolist()


def _db(x: float) -> float:
    return 10.0 * math.log10(max(x, 1e-300))


def _grid_points(grid: GridSpec):
    """The spectra frequency grid: n points over center +- span."""
    import numpy as np
    return np.linspace(grid.center - grid.span, grid.center + grid.span, grid.n)


def _run_spectra(cfg: ScenarioConfig) -> _Artifact:
    p = cfg.params
    nu = _grid_points(cfg.grid)
    eps_t = spectral.spectral_efficiency(nu, p.with_(g1=0.0)).tolist()
    eps_b = spectral.spectral_efficiency(nu, p).tolist()
    cols = {"nu": nu.tolist(),
            "eps_transfer": eps_t, "eps_transfer_db": [_db(x) for x in eps_t],
            "eps_blockade": eps_b, "eps_blockade_db": [_db(x) for x in eps_b]}
    return _Artifact(f"spectra: {nu.size} points, peak transfer "
                     f"{max(eps_t):.6f}, peak blockade {max(eps_b):.6f}",
                     list(cols), list(zip(*cols.values())), cols)


def _run_check_matching(cfg: ScenarioConfig) -> _Artifact:
    report = check_matching(cfg.params)
    coop = cooperativities(cfg.params)
    return _report(f"check-matching: all_matched={report.all_matched} "
                   f"(c_pm={coop.c_pm:.6g}, c_atom={coop.c_atom:.6g})",
                   {**report.to_dict(), "c_atom": coop.c_atom,
                    "c_pm": coop.c_pm})


#: samples per run of the store's CSV lines, which are joined a run at a
#: time
_CSV_RUN = 4096


def _run_store(cfg: ScenarioConfig) -> _Artifact:
    import numpy as np
    p = cfg.params
    ens = dynamics.ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span)
    trace = dynamics.integrate_storage(p, ens, cfg.pulse, cfg.t_span)
    fields = {"alpha_in": trace.alpha_in, "alpha_out": trace.alpha_out,
              "cavity1": trace.cavity1, "control": trace.control,
              "cavity2": trace.cavity2}
    probabilities = {
        "p_cavity1": trace.p_cavity1, "p_control": trace.p_control,
        "p_cavity2": trace.p_cavity2, "p_ensemble": trace.p_ensemble,
        "out_flux_integral": trace.out_flux_integral,
        "control_loss_integral": trace.control_loss_integral,
        "t2_loss_integral": trace.t2_loss_integral,
        "in_flux_integral": trace.in_flux_integral}

    def reprs(values: np.ndarray, form: str = "{}") -> list:
        """The repr of each float, put in `form`; a run that holds one
        value bit for bit puts its repr in once."""
        bits = np.ascontiguousarray(values).view(np.int64)
        if np.all(bits == bits[0]):
            return [form.format(float.__repr__(float(values[0])))] * values.size
        strs = map(float.__repr__, values.tolist())
        return list(strs if form == "{}" else map(form.format, strs))

    def rows():
        # long format: one line per (series, time), real series with im =
        # 0, the ledger residual at its checkpoints only, in the bytes that
        # csv.writer writes for their rows.  Each time's repr is taken
        # once, and a run of samples of one series is joined from its
        # columns: time, ",series,", re and ",im" with the newline
        times = list(map(float.__repr__, trace.times.tolist()))
        series = {name: (times, arr) for name, arr in {**fields, **probabilities}.items()}
        series["ledger_residual"] = (list(map(float.__repr__, trace.ledger_times.tolist())),
                                     trace.ledger_residual)
        for name, (at, arr) in series.items():
            arr = np.asarray(arr, dtype=complex)
            for lo in range(0, arr.size, _CSV_RUN):
                part = arr[lo:lo + _CSV_RUN]
                cols = [f",{name},"] * (4 * part.size)
                cols[0::4] = at[lo:lo + part.size]
                cols[2::4] = reprs(part.real)
                cols[3::4] = reprs(part.imag, ",{}\n")
                yield "".join(cols)

    body = {"params": p.to_dict(), "times": trace.times,
            "fields": {name: {"re": arr.real, "im": arr.imag}
                       for name, arr in fields.items()},
            "probabilities": probabilities,
            "ledger": {"times": trace.ledger_times, "residual": trace.ledger_residual}}
    return _Artifact(f"store: probability {trace.ensemble.probability:.6f}, "
                     f"ledger residual {trace.max_ledger_residual:.2e}",
                     ["time", "series", "re", "im"], rows(), body,
                     meta={"kind": trace.kind, "solver_tol": SOLVER_TOL,
                           "initial_probability": trace.initial_probability},
                     text=True)


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
    ens = dynamics.ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span)
    res = dynamics.run_echo_cycle(p, p_read, ens, cfg.pulse, cfg.tau)
    times = res.output_times.tolist()
    re = res.output_waveform.real.tolist()
    im = res.output_waveform.imag.tolist()
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
    ens = dynamics.ensemble_for_params(p, n_sim=cfg.n_sim, span=cfg.span)
    res = dynamics.run_echo_cycle(p, p_read, ens, cfg.pulse, cfg.tau)
    chk = dynamics.blockade_phase_check(
        p_read, res.ens_final, res.ens_stored, cfg.tau,
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
    eff = cfg.efficiencies or addressing.BranchEfficiencies()
    state = addressing.run_addressing(cfg.address.m, cfg.address, eff)
    doc = addressing.state_to_dict(state)
    meta = {"norm": doc.pop("norm"), "losses": doc.pop("losses")}
    rows = [[t["amplitude"]["re"], t["amplitude"]["im"], t["control"],
             "".join(str(b) for b in t["occupied"]), ";".join(t["emitted"])]
            for t in doc["terms"]]
    return _Artifact(f"address: {len(rows)} terms, norm {state.norm:.12f}",
                     ["amplitude_re", "amplitude_im", "control", "occupied",
                      "emitted"], rows, doc, meta)


# ---------------------------------------------------------------------- sweep

def _apply_sweep_value(point: tuple, paths: dict, name: str, value: float,
                       path: str, tau_over_duration: float):
    """Point (p_store, p_read, pulse, tau) with `name` set to the value at
    `path`, and `paths` with the key path that now sets its delay."""
    p_store, p_read, pulse, tau = point
    if name == "pulse_duration":
        pulse, tau = replace(pulse, duration=value), tau_over_duration * value
        paths = {**paths, "tau": "sweep.tau_over_duration", "duration": path}
    elif name == "tau":
        tau, paths = value, {**paths, "tau": path}
    elif name == "t2":
        p_store = p_store.with_(t2=value)
        p_read = p_read.with_(t2=value)
    elif name == "g1":
        p_read = p_read.with_(g1=value)
    elif name == "delta_c":
        p_read = p_read.with_(delta_c=value)
    return (p_store, p_read, pulse, tau), paths


def _sweep_points(cfg: ScenarioConfig, w: _Walker | None = None):
    """Each sweep point in (curve, value) order: its label, its (p_store,
    p_read, pulse, tau) and the key paths that set its rules' arguments.
    With a walker, a swept value the library refuses is at its line."""
    sweep = cfg.sweep
    start = (cfg.params, cfg.read_params or cfg.params, cfg.pulse, cfg.tau)
    for j, cval in enumerate(sweep.curve_values or (None,)):
        for i, v in enumerate(sweep.values):
            point, paths = start, _ARG_PATHS
            for name, value, path in (
                    (sweep.curve_parameter, cval, f"sweep.curve_values[{j}]"),
                    (sweep.parameter, v, f"sweep.values[{i}]")):
                if name is not None:
                    point, paths = _anchored(
                        w, {None: path}, _apply_sweep_value, point, paths,
                        name, value, path, sweep.tau_over_duration)
            yield ({"curve_parameter": sweep.curve_parameter,
                    "curve_value": cval, "parameter": sweep.parameter,
                    "value": v, "tau": point[3]}, point, paths)


def __getattr__(name: str):
    # cli.run_echo_cycle reads the dynamics layer's until it is rebound here
    if name == "run_echo_cycle":
        return dynamics.run_echo_cycle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_CLI = sys.modules[__name__]


def _sweep_point(task: tuple) -> dict:
    """Worker: one echo cycle. Top-level so process pools can pickle it.

    The cycle is looked up on this module at each call, so rebinding
    cli.run_echo_cycle reaches every point of a sweep."""
    cfg, p_store, p_read, pulse, tau = task
    ens = dynamics.ensemble_for_params(p_store, n_sim=cfg.n_sim, span=cfg.span)
    res = _CLI.run_echo_cycle(p_store, p_read, ens, pulse, tau)
    return {"echo_probability": res.echo_probability,
            "fidelity_time_reversed": res.fidelity_time_reversed,
            "storage_probability": res.storage_probability,
            "max_ledger_residual": res.max_ledger_residual}


def run_sweep(cfg: ScenarioConfig, workers: int = 1) -> list[dict]:
    """Echo-cycle sweep; rows ordered (curve, value) regardless of workers."""
    points = list(_sweep_points(cfg))
    tasks = [(cfg, *point) for _, point, _ in points]
    # more processes than points or cores only cost start-up and memory
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the process pool machinery costs every other
        # command 20-25 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = list(map(_sweep_point, tasks))
    return [{**label, **res} for (label, _, _), res in zip(points, results)]


def _run_sweep_scenario(cfg: ScenarioConfig, workers: int) -> _Artifact:
    sweep = cfg.sweep
    rows = run_sweep(cfg, workers=workers)
    if sweep.curve_parameter:
        # wide table: one row per swept value, one column pair per curve;
        # rows[i::n] are value i's, the rows being in (curve, value) order
        header = [sweep.parameter]
        for cv in sweep.curve_values:
            header += [f"p_echo[{sweep.curve_parameter}={cv:g}]",
                       f"fidelity[{sweep.curve_parameter}={cv:g}]"]
        n = len(sweep.values)
        table = [[float(v)] + [x for r in rows[i::n] for x in
                               (r["echo_probability"], r["fidelity_time_reversed"])]
                 for i, v in enumerate(sweep.values)]
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

#: each subcommand's scenario and runner, which a sweep also gives --workers
_SUBCOMMANDS = {
    "spectra": (Scenario.SPECTRA, _run_spectra),
    "check-matching": (Scenario.CHECK_MATCHING, _run_check_matching),
    "store": (Scenario.STORE, _run_store),
    "echo": (Scenario.ECHO_CYCLE, _run_echo),
    "blockade": (Scenario.BLOCKADE, _run_blockade),
    "address": (Scenario.ADDRESS, _run_address),
    "sweep": (Scenario.SWEEP, _run_sweep_scenario),
}


def _workers(text: str) -> int:
    """--workers: a whole number of processes, at least one."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoqram",
        description="Time-bin quantum RAM simulator: spectra, echo dynamics, "
                    "and addressing scenarios from JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (scenario, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=f"run the {scenario.value} scenario")
        sp.add_argument("--config", required=True, help="JSON scenario config")
        sp.add_argument("--out", default=None,
                        help="artifact path (default: config output.path, "
                             f"else ${OUT_DIR_ENV}/<scenario>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="artifact format (overrides config)")
        if scenario is Scenario.SWEEP:
            sp.add_argument("--workers", type=_workers, default=1,
                            help="parallel worker processes")
    return parser


def _cannot_write(out: Path, exc: OSError) -> int:
    print(f"cannot write artifact {out}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _read_config(path: Path) -> str:
    """The config's text with universal newlines, as a text-mode read gives
    it; a file that is not UTF-8 is refused at the line of its first bad
    byte."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    try:
        text, bad = raw.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = raw[:exc.start].decode("utf-8"), exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if bad is not None:
        raise ConfigError(f"config is not UTF-8: byte 0x{raw[bad.start]:02x} "
                          f"({bad.reason})", str(path), text.count("\n") + 1)
    return text


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    expected, runner = _SUBCOMMANDS[args.command]
    cfg_path = Path(args.config)
    try:
        cfg_text = _read_config(cfg_path)
        cfg = parse_scenario_config(cfg_text, source=str(cfg_path))
        if cfg.scenario is not expected:
            raise ConfigError(
                f"config declares scenario '{cfg.scenario.value}' but the "
                f"'{args.command}' subcommand expects '{expected.value}'",
                str(cfg_path), _key_lines(cfg_text, "scenario")["scenario"])
        path, fmt = cfg.output
        fmt = args.format or fmt or "csv"
        out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
        if args.out is not None:
            # explicit command-line path wins and is taken literally
            out = Path(args.out)
        elif path is not None:
            # a relative config path lands in the default output directory,
            # which an absolute one replaces
            out = out_dir / path
        else:
            out = out_dir / f"{cfg.scenario.value}.{fmt}"
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(out, exc)

        art = (runner(cfg, args.workers) if expected is Scenario.SWEEP
               else runner(cfg))
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
