"""The three benchmark workloads: seeded inputs, one pass, output checks.

Each workload has the same four steps:

    make_inputs(seed, smoke)  -> inputs   pure Python, no echoqram import
    setup(inputs)             -> context  config parse, matched solve, inputs
    run_pass(context, work, tracer, meter) -> Pass  the timed operations
    (checks)                              applied to every operation's output

With a ``meter`` (hostspeed.Meter) every operation is also timed at the
reference host speed.

Seed 0 is exactly the committed input; other seeds jitter the swept pulse
durations (echo_sweep) or draw new address amplitudes (cli_configs,
address_register).  echoqram only ever sees the generated configs and
inputs.  ``smoke`` shrinks every workload for the quick self-test.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# BLAS/OpenMP pools are pinned to one thread: every workload is one client
# in one process, and the vectors involved are far too small to split.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# Criterion 9: every integration keeps its ledger within 10 x solver_tol.
LEDGER_FACTOR = 10.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or configs)."""


@dataclass
class Op:
    """One timed operation and the verdict of its output check."""

    name: str
    seconds: float
    ok: bool = True
    detail: str = ""
    ref_key: str | None = None
    outputs: dict = field(default_factory=dict)
    dynamics: bool = False      # outputs come from the time-domain solver
    scaled_s: float | None = None   # at the reference host speed

    @property
    def scaled(self) -> float:
        """Latency at the reference host speed (raw without a meter)."""
        return self.seconds if self.scaled_s is None else self.scaled_s

    def fail(self, why: str) -> None:
        self.ok = False
        self.detail = f"{self.detail}; {why}" if self.detail else why


@dataclass
class Pass:
    ops: list[Op]
    wall: float                   # sum of the operations' raw latencies
    peak_rss_kb: int = 0          # child processes only (cli_configs)
    write_bytes: int = 0          # artifact bytes written by the cli
    child_import_s: float = 0.0   # summed over traced child drivers
    dumps: list = field(default_factory=list)


def require_sources() -> None:
    if not (SRC / "echoqram" / "__init__.py").is_file():
        raise BenchError(f"no echoqram sources under {SRC}")


def load_echoqram() -> float:
    """Import echoqram.cli from this checkout's sources; return seconds."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import echoqram.cli  # noqa: F401
    return time.perf_counter() - t0


def read_config(name: str) -> str:
    path = CONFIGS / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing committed config {path}")
    return path.read_text()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["outputs"]


def environment() -> dict:
    """What a result depends on besides the seed: machine, versions, code."""
    from importlib import metadata
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "echoqram").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **versions,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, int]:
    """Run a child to completion; return (exit code, wall seconds, maxrss KB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class _Stopwatch:
    """The Meter's begin/end without kernels: raw seconds only."""

    def begin(self) -> None:
        self._t0 = time.perf_counter()

    def end(self) -> tuple[float, None]:
        return time.perf_counter() - self._t0, None


def _random_amplitudes(rng: random.Random, m: int) -> list[tuple[float, float]]:
    raw = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(m)]
    norm = math.sqrt(sum(re * re + im * im for re, im in raw))
    return [(re / norm, im / norm) for re, im in raw]


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


# ------------------------------------------------------------ address check

def check_address_doc(op: Op, doc: dict, alphas: list[complex],
                      c_atom: float, t2: float, tau: float) -> None:
    """Closed form of the addressed register (state_to_dict layout).

    Branch n has amplitude -alpha_n * t * |b|**(M-1), cell n empty and every
    bystander cell at -1, with t = exp(-2 tau/T2) and |b| = 2C/(1+2C); the
    norm plus the loss ledger is 1.
    """
    m = len(alphas)
    t = 1.0 if math.isinf(t2) else math.exp(-2.0 * tau / t2)
    b = 2.0 * c_atom / (1.0 + 2.0 * c_atom)
    terms = doc["terms"]
    if len(terms) != m:
        op.fail(f"{len(terms)} terms, expected {m}")
        return
    seen = set()
    worst_amp = worst_cell = 0.0
    for term in terms:
        empty = [i for i, occ in enumerate(term["occupied"], start=1) if not occ]
        if len(empty) != 1:
            op.fail(f"term empties cells {empty}")
            return
        k = empty[0]
        seen.add(k)
        amp = complex(term["amplitude"]["re"], term["amplitude"]["im"])
        expect = -alphas[k - 1] * t * b ** (m - 1)
        worst_amp = max(worst_amp, abs(amp - expect))
        for i, c in enumerate(term["cells"], start=1):
            if i != k:
                worst_cell = max(worst_cell, abs(complex(c["re"], c["im"]) + 1.0))
        if f"psi_in[{k}]" not in term["emitted"]:
            op.fail(f"branch {k} did not emit its payload")
    ledger = doc["norm"] + sum(doc["losses"].values())
    if seen != set(range(1, m + 1)):
        op.fail("branches do not cover every cell")
    if worst_amp > 1e-12:
        op.fail(f"branch amplitude off the closed form by {worst_amp:.2e}")
    if worst_cell > 1e-12:
        op.fail(f"bystander cell off -1 by {worst_cell:.2e}")
    if abs(ledger - 1.0) > 1e-10:
        op.fail(f"norm + losses = {ledger!r}")
    op.outputs.update(norm=doc["norm"], losses=sum(doc["losses"].values()))


# ------------------------------------------------------------- echo_sweep

class EchoSweep:
    """run_sweep on configs/echo_sweep_t2.json in process; op = one echo cycle."""

    name = "echo_sweep"
    in_process = True
    CONFIG = "echo_sweep_t2"
    JITTER = 0.01   # swept durations move by at most 1% for seeds other than 0

    def make_inputs(self, seed: int, smoke: bool) -> tuple[str, bool]:
        """Config text, and whether it is the committed sweep unchanged."""
        text = read_config(self.CONFIG)
        if seed == 0 and not smoke:
            return text, True
        doc = json.loads(text)
        values = doc["sweep"]["values"]
        if smoke:
            values = values[:3]
        if seed != 0:
            rng = random.Random(seed)
            values = [v * math.exp(rng.uniform(-self.JITTER, self.JITTER))
                      for v in values]
        doc["sweep"]["values"] = values
        return json.dumps(doc, indent=2) + "\n", False

    def setup(self, inputs):
        from echoqram import cli
        text, committed = inputs
        return cli.parse_scenario_config(text, source=f"{self.name}.json"), committed

    def run_pass(self, ctx, work: Path, tracer=None, meter=None) -> Pass:
        """An operation's latency runs from the end of the previous cycle
        (or the start of the sweep) to the end of its own, so the sweep's
        per-point work is in it; the last one also carries the sweep's
        wrap-up after its final cycle."""
        from echoqram import cli
        cfg, committed = ctx
        times: list[tuple[float, float | None]] = []
        inner = cli.run_echo_cycle
        clock = meter or _Stopwatch()

        def timed_cycle(*args, **kwargs):
            out = inner(*args, **kwargs)
            times.append(clock.end())
            clock.begin()
            return out

        cli.run_echo_cycle = timed_cycle
        gc.collect()
        clock.begin()
        try:
            rows = cli.run_sweep(cfg, workers=1)
        finally:
            cli.run_echo_cycle = inner
        tail = clock.end()
        if len(times) != len(rows):
            raise RuntimeError(f"{len(rows)} sweep points but {len(times)} "
                               "echo cycles observed")
        ops = []
        for row, (raw, scaled) in zip(rows, times):
            ops.append(Op(name=f"t2={row['curve_value']:g},dt={row['value']:.4g}",
                          seconds=raw, scaled_s=scaled, dynamics=True,
                          ref_key=f"{self.name}/t2={row['curve_value']!r}/"
                                  f"dt={row['value']!r}",
                          outputs={k: row[k] for k in
                                   ("storage_probability", "echo_probability",
                                    "fidelity_time_reversed")}))
        if ops:
            ops[-1].seconds += tail[0]
            if meter is not None:
                ops[-1].scaled_s += tail[1]
        self.check(cfg, committed, rows, ops)
        return Pass(ops=ops, wall=sum(op.seconds for op in ops))

    def check(self, cfg, committed: bool, rows: list[dict], ops: list[Op]) -> None:
        tol = cfg.solver_tol
        slack = LEDGER_FACTOR * tol
        for row, op in zip(rows, ops):
            if row["max_ledger_residual"] > slack:
                op.fail(f"ledger residual {row['max_ledger_residual']:.2e} > {slack:g}")
            pe, ps, f = (row["echo_probability"], row["storage_probability"],
                         row["fidelity_time_reversed"])
            if not (-slack <= pe <= ps + slack and ps <= 1.0 + slack):
                op.fail(f"probabilities out of order: P_echo={pe!r} P_store={ps!r}")
            if not f <= 1.0 + 1e-9:
                op.fail(f"fidelity {f!r} > 1")
        # criterion 8: a longer T2 never gives a lower echo at the same duration
        curves: dict = {}
        for row, op in zip(rows, ops):
            curves.setdefault(row["curve_value"], []).append((row["value"], row, op))
        order = sorted(curves)
        for lo, hi in zip(order, order[1:]):
            for (_, a, _), (_, b, op) in zip(sorted(curves[lo], key=lambda x: x[0]),
                                             sorted(curves[hi], key=lambda x: x[0])):
                if b["echo_probability"] < a["echo_probability"] - 1e-9:
                    op.fail(f"T2={hi:g} below T2={lo:g} at dt={b['value']:.4g}")
        if committed:
            # criterion 8 on the committed grid: interior peak, P > 0.9 at dt=10
            shortest = sorted(curves[order[0]], key=lambda x: x[0])
            probs = [r["echo_probability"] for _, r, _ in shortest]
            i_max = probs.index(max(probs))
            if not 0 < i_max < len(probs) - 1:
                shortest[i_max][2].fail("T2=100 curve does not peak inside the grid")
            for v, r, op in curves[order[-1]]:
                if v == 10.0 and not r["echo_probability"] > 0.9:
                    op.fail(f"P(T2={order[-1]:g}, dt=10) = {r['echo_probability']:.4f}"
                            " <= 0.9")


# ------------------------------------------------------------- cli_configs

# (committed config, subcommand); order is the order of a pass
CLI_CONFIGS = (("check_matching", "check-matching"),
               ("spectra_matched_c10", "spectra"),
               ("store_gaussian", "store"),
               ("echo_matched", "echo"),
               ("blockade_c30", "blockade"),
               ("address_m4", "address"))
CLI_SMOKE = ("check_matching", "store_gaussian", "address_m4")
DYNAMICS_CONFIGS = ("store_gaussian", "echo_matched", "blockade_c30")

# Tolerances of the reference comparison: the acceptance criterion's where
# one exists, else 1e-9 relative for closed-form numbers.
CLI_REF_TOL = {
    ("check_matching", "c_pm"): 1e-9,
    ("spectra_matched_c10", "peak_transfer"): 1e-9,
    ("spectra_matched_c10", "peak_blockade"): 1e-9,
    ("store_gaussian", "storage_probability"): 0.01,    # criterion 5
    ("echo_matched", "storage_probability"): 0.01,      # criterion 5
    ("echo_matched", "echo_probability"): 0.02,         # criterion 6
}


def parse_artifact(path: Path, fmt: str) -> tuple[dict, list[str], list[list[str]]]:
    """Return (metadata, header, rows); JSON artifacts return (doc, [], [])."""
    text = path.read_text()
    if fmt == "json":
        return json.loads(text), [], []
    meta: dict = {}
    header: list[str] = []
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta.setdefault(key, value)
        elif not header:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


class CliConfigs:
    """The six single-run committed configs, each through a fresh
    ``python -m echoqram.cli``; op = one command."""

    name = "cli_configs"
    in_process = False
    reference: dict | None = None   # loaded on first use

    def make_inputs(self, seed: int, smoke: bool) -> list[tuple[str, str, str]]:
        chosen = [(n, s) for n, s in CLI_CONFIGS if not smoke or n in CLI_SMOKE]
        out = []
        for name, sub in chosen:
            text = read_config(name)
            if seed != 0 and name == "address_m4":
                doc = json.loads(text)
                m = len(doc["address"]["amplitudes"])
                doc["address"]["amplitudes"] = [
                    list(a) for a in _random_amplitudes(random.Random(seed), m)]
                text = json.dumps(doc, indent=2) + "\n"
            out.append((name, sub, text))
        return out

    def setup(self, inputs):
        from echoqram import cli
        for name, _, text in inputs:
            cli.parse_scenario_config(text, source=f"{name}.json")
        return inputs

    def run_pass(self, inputs, work: Path, tracer=None, meter=None) -> Pass:
        """With a tracer, each command runs under the traced child driver
        and its spans come back in Pass.dumps."""
        if self.reference is None:
            self.reference = load_reference()
        ref = self.reference
        ops, dumps = [], []
        peak = write_bytes = 0
        import_s = 0.0
        for name, sub, text in inputs:
            cfg_path = work / f"{name}.json"
            cfg_path.write_text(text)
            fmt = json.loads(text).get("output", {}).get("format", "csv")
            out = work / f"{name}.out.{fmt}"
            dump = work / f"{name}.trace.json"
            args = [sub, "--config", str(cfg_path), "--out", str(out)]
            if tracer is not None:
                argv = [sys.executable, str(HERE / "child.py"), "cli",
                        str(dump), *args]
            else:
                argv = [sys.executable, "-m", "echoqram.cli", *args]
            if meter is not None:
                meter.begin()
            rc, wall, rss = run_child(argv, work / f"{name}.stdout",
                                      work / f"{name}.stderr")
            op = Op(name=name, seconds=wall, ref_key=f"{self.name}/{name}",
                    dynamics=name in DYNAMICS_CONFIGS)
            if meter is not None:
                # the child's own spawn-to-exit time, scaled by the kernels
                # around it (the parent only waits, so nothing is cut inside)
                raw, scaled = meter.end()
                op.scaled_s = scaled * wall / raw
            peak = max(peak, rss)
            ops.append(op)
            if rc != 0:
                err = (work / f"{name}.stderr").read_text()[-300:]
                op.fail(f"exit {rc}: {err.strip()}")
                continue
            write_bytes += out.stat().st_size
            if tracer is not None:
                d = json.loads(dump.read_text())
                import_s += d["import_s"]
                dumps.append(d)
            try:
                self.check(name, text, out, fmt, op, ref.get(op.ref_key))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                op.fail(f"unreadable artifact: {exc!r}")
            out.unlink()
        return Pass(ops=ops, wall=sum(op.seconds for op in ops), peak_rss_kb=peak,
                    write_bytes=write_bytes, child_import_s=import_s,
                    dumps=dumps)

    def check(self, name: str, text: str, out: Path, fmt: str, op: Op,
              ref: dict | None) -> None:
        meta, header, rows = parse_artifact(out, fmt)
        sha = hashlib.sha256(text.encode()).hexdigest()
        if meta.get("config_sha256") != sha:
            op.fail("artifact does not carry the config's sha256")
        cfg = json.loads(text)
        tol = cfg.get("solver_tol", 1e-9)
        o = op.outputs
        if name == "check_matching":
            if meta.get("all_matched") is not True:
                op.fail("matching conditions not all met")
            o.update(c_pm=meta["c_pm"], c_atom=meta["c_atom"])
        elif name == "spectra_matched_c10":
            col = {h: i for i, h in enumerate(header)}
            nu = [float(r[col["nu"]]) for r in rows]
            eps_t = [float(r[col["eps_transfer"]]) for r in rows]
            eps_b = [float(r[col["eps_blockade"]]) for r in rows]
            if len(rows) != cfg["grid"]["n"]:
                op.fail(f"{len(rows)} spectrum rows, expected {cfg['grid']['n']}")
            kappa = cfg["params"]["matched"]["kappa"]
            # criterion 2: flat window 1/(1 + (nu/(kappa/2))**6) within 0.02
            dev = max(abs(e - 1.0 / (1.0 + (x / (kappa / 2.0)) ** 6))
                      for x, e in zip(nu, eps_t) if abs(x) <= kappa)
            if dev > 0.02:
                op.fail(f"transfer window off by {dev:.3g} > 0.02")
            o.update(peak_transfer=max(eps_t), peak_blockade=max(eps_b),
                     window_dev=dev)
        elif name == "store_gaussian":
            col = {h: i for i, h in enumerate(header)}
            resid = [abs(float(r[col["re"]])) for r in rows
                     if r[col["series"]] == "ledger_residual"]
            p_ens = [float(r[col["re"]]) for r in rows
                     if r[col["series"]] == "p_ensemble"]
            worst = max(resid)
            if worst > LEDGER_FACTOR * tol:
                op.fail(f"ledger residual {worst:.2e}")
            o.update(storage_probability=p_ens[-1])
        elif name == "echo_matched":
            if meta["max_ledger_residual"] > LEDGER_FACTOR * tol:
                op.fail(f"ledger residual {meta['max_ledger_residual']:.2e}")
            if not meta["fidelity_time_reversed"] >= 0.99:        # criterion 6
                op.fail(f"fidelity {meta['fidelity_time_reversed']:.6f} < 0.99")
            o.update({k: meta[k] for k in ("storage_probability", "echo_probability",
                                          "fidelity_time_reversed")})
        elif name == "blockade_c30":
            if meta["max_ledger_residual"] > LEDGER_FACTOR * tol:
                op.fail(f"ledger residual {meta['max_ledger_residual']:.2e}")
            # criterion 7
            if not meta["echo_probability"] < 2.3e-3:
                op.fail(f"blockade P_echo {meta['echo_probability']:.3e} >= 2.3e-3")
            if not abs(meta["coherence_phase_minus_pi"]) <= 0.1:
                op.fail(f"phase off pi by {meta['coherence_phase_minus_pi']:.3f}")
            if not meta["coherence_magnitude_ratio"] >= 0.95:
                op.fail(f"magnitude ratio {meta['coherence_magnitude_ratio']:.4f}")
            o.update({k: meta[k] for k in ("storage_probability", "echo_probability",
                                          "coherence_phase",
                                          "coherence_magnitude_ratio")})
        elif name == "address_m4":
            matched = cfg["params"]["matched"]
            alphas = [complex(re, im) for re, im in cfg["address"]["amplitudes"]]
            check_address_doc(op, meta, alphas, matched["c_atom"],
                              float(matched.get("t2", math.inf)), cfg["tau"])
        if ref is not None:
            for key, value in ref.items():
                limit = CLI_REF_TOL.get((name, key))
                if limit is not None and rel_err(o[key], value) > limit:
                    op.fail(f"{key} = {o[key]!r}, reference {value!r}")


# -------------------------------------------------------- address_register

class AddressRegister:
    """run_addressing + state_to_dict + JSON text for M in 32..256;
    op = one register."""

    name = "address_register"
    in_process = True
    SIZES = (32, 64, 128, 256)
    SMOKE_SIZES = (8, 16)
    # the efficiencies of configs/address_m4.json: C = 30, T2 = 1e4, tau = 50
    C_ATOM, T2, TAU = 30.0, 1e4, 50.0

    def make_inputs(self, seed: int, smoke: bool) -> dict[int, list]:
        rng = random.Random(seed)
        return {m: _random_amplitudes(rng, m)
                for m in (self.SMOKE_SIZES if smoke else self.SIZES)}

    def setup(self, inputs):
        from echoqram import addressing, params
        p = params.solve_matched_params(1.0, self.C_ATOM, t2=self.T2)
        specs = {m: addressing.AddressSpec(
                     amplitudes=tuple(complex(re, im) for re, im in amps))
                 for m, amps in inputs.items()}
        return p, specs

    def run_pass(self, ctx, work: Path, tracer=None, meter=None) -> Pass:
        from echoqram import addressing
        p, specs = ctx
        ops = []
        clock = meter or _Stopwatch()
        for m, spec in specs.items():
            # every register starts from the same heap, as in a fresh command,
            # rather than paying for the previous register's garbage
            gc.collect()
            clock.begin()
            eff = addressing.compose_with_dynamics(p, self.TAU)
            state = addressing.run_addressing(m, spec, eff)
            doc = addressing.state_to_dict(state)
            with tracer.span("addressing", "state_json") if tracer else \
                    contextlib.nullcontext():
                text = json.dumps(doc, indent=2)
            raw, scaled = clock.end()
            op = Op(name=f"M={m}", seconds=raw, scaled_s=scaled,
                    ref_key=f"{self.name}/M={m}")
            ops.append(op)
            check_address_doc(op, json.loads(text), list(spec.amplitudes),
                              self.C_ATOM, self.T2, self.TAU)
            op.outputs["json_bytes"] = len(text)
        return Pass(ops=ops, wall=sum(op.seconds for op in ops))


WORKLOADS = {w.name: w for w in (EchoSweep(), CliConfigs(), AddressRegister())}
