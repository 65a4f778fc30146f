"""Span tracing of the echoqram layers, installed from outside the package.

Every public module-level function of the five layer modules is replaced by
a wrapper that records a span (name, layer, start, end, parent) in memory.
A wrapper is installed under every name that points at the original in any
loaded ``echoqram`` module, so a call is traced wherever its caller looks
the function up (``echoqram.cli.run_echo_cycle`` as well as
``echoqram.dynamics.run_echo_cycle``).  ``echoqram.dynamics.solve_ivp`` is
wrapped to count solves, right-hand-side evaluations and failed solves.

Spans are plain lists so that a child process can dump them as JSON and the
parent can merge them before computing the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = ("cli", "params", "spectral", "dynamics", "addressing")

# Per-layer metrics: name -> (unit, better).  The order is the report order.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.write_bytes": ("B", "lower"),
    "params.solve_s": ("s", "lower"),
    "params.calls": ("count", "lower"),
    "spectral.eval_s": ("s", "lower"),
    "spectral.calls": ("count", "lower"),
    "spectral.points_per_call": ("points/call", "higher"),
    "dynamics.discretize_s": ("s", "lower"),
    "dynamics.storage_s": ("s", "lower"),
    "dynamics.retrieval_s": ("s", "lower"),
    "dynamics.invert_s": ("s", "lower"),
    "dynamics.cycle_self_s": ("s", "lower"),
    "dynamics.phase_check_s": ("s", "lower"),
    "dynamics.solves": ("count", "lower"),
    "dynamics.nfev": ("count", "lower"),
    "dynamics.failed_solves": ("count", "lower"),
    "dynamics.max_ledger_residual": ("1", "lower"),
    "dynamics.ref_rel_err": ("1", "lower"),
    "addressing.absorb_s": ("s", "lower"),
    "addressing.rephase_s": ("s", "lower"),
    "addressing.reset_s": ("s", "lower"),
    "addressing.compose_s": ("s", "lower"),
    "addressing.serialize_s": ("s", "lower"),
    "addressing.peak_terms": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span indices in a span record [name, layer, start, end, parent, points].
NAME, LAYER, START, END, PARENT, POINTS = range(6)

# Counters: solver calls, RHS evaluations and failures are summed across
# processes; the largest state and ledger residual are maxima.
SUMMED = ("solves", "nfev", "failed_solves")
MAXED = ("peak_terms", "max_ledger_residual")


def public_functions(layer: str) -> dict:
    """The public module-level functions defined in ``echoqram.<layer>``."""
    mod = sys.modules[f"echoqram.{layer}"]
    return {name: obj for name, obj in vars(mod).items()
            if callable(obj) and not name.startswith("_")
            and getattr(obj, "__module__", None) == mod.__name__
            and not isinstance(obj, type)}


def patch_everywhere(originals: dict) -> list[tuple[object, str, object]]:
    """Install ``originals[id(f)] = (f, wrapper)`` under every name that
    points at ``f`` in any loaded echoqram module; return what to restore."""
    patched = []
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "echoqram" or n.startswith("echoqram."))]
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((mod, name, obj))
                setattr(mod, name, hit[1])
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for mod, name, obj in reversed(patched):
        setattr(mod, name, obj)
    patched.clear()


def _points(args) -> int:
    """Grid points in a spectral call: the size of its first argument."""
    if not args:
        return 1
    return int(getattr(args[0], "size", 1))


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(SUMMED + MAXED, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            for name, obj in public_functions(layer).items():
                originals[id(obj)] = (obj, self._wrap(layer, name, obj))
        dyn = sys.modules["echoqram.dynamics"]
        if hasattr(dyn, "solve_ivp"):
            originals[id(dyn.solve_ivp)] = (dyn.solve_ivp,
                                            self._wrap_solver(dyn.solve_ivp))
        self._patched = patch_everywhere(originals)

    def uninstall(self) -> None:
        restore(self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def span(self, layer: str, name: str, points: int = 0):
        """Record one span; also used around benchmark code that does a
        layer's job, such as encoding a layer's output dict as JSON text."""
        rec = [name, layer, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, points]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ wrappers
    def _wrap(self, layer: str, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name,
                           _points(args) if layer == "spectral" else 0):
                out = fn(*args, **kwargs)
            terms = getattr(out, "terms", None)
            if isinstance(terms, tuple):
                counts["peak_terms"] = max(counts["peak_terms"], len(terms))
            resid = getattr(out, "max_ledger_residual", None)
            if isinstance(resid, float):
                counts["max_ledger_residual"] = max(
                    counts["max_ledger_residual"], resid)
            return out

        return traced

    def _wrap_solver(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["solves"] += 1
            try:
                sol = fn(*args, **kwargs)
            except Exception:
                counts["failed_solves"] += 1
                raise
            counts["nfev"] += int(getattr(sol, "nfev", 0))
            if getattr(sol, "status", 0) < 0:
                counts["failed_solves"] += 1
            return sol

        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------- metrics

def merge(dumps: list[dict]) -> dict:
    """Concatenate span dumps from several processes, re-basing parents."""
    spans: list[list] = []
    counts = dict.fromkeys(SUMMED + MAXED, 0)
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            spans.append(s)
        c = d["counts"]
        for k in SUMMED:
            counts[k] += c[k]
        for k in MAXED:
            counts[k] = max(counts[k], c[k])
    return {"spans": spans, "counts": counts}


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics from spans; harness-measured ones are left out."""
    spans = dump["spans"]
    counts = dump["counts"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def outermost(names=None, layer=None):
        """Spans in the set with no ancestor in the same set."""
        def member(s):
            return (names is None or s[NAME] in names) and \
                   (layer is None or s[LAYER] == layer)
        out = []
        for s in spans:
            if not member(s):
                continue
            p = s[PARENT]
            while p >= 0 and not member(spans[p]):
                p = spans[p][PARENT]
            if p < 0:
                out.append(s)
        return out

    def incl(names=None, layer=None):
        return sum(s[END] - s[START] for s in outermost(names, layer))

    def self_time(names):
        return sum(s[END] - s[START] - child_time[i]
                   for i, s in enumerate(spans) if s[NAME] in names)

    spec_top = outermost(layer="spectral")
    spec_calls = len(spec_top)
    cli_names = {s[NAME] for s in spans
                 if s[LAYER] == "cli" and s[NAME] != "parse_scenario_config"}
    return {
        "cli.parse_s": incl({"parse_scenario_config"}),
        "cli.self_s": self_time(cli_names),
        "params.solve_s": incl(layer="params"),
        "params.calls": len(outermost(layer="params")),
        "spectral.eval_s": incl(layer="spectral"),
        "spectral.calls": spec_calls,
        "spectral.points_per_call": (sum(s[POINTS] for s in spec_top) / spec_calls
                                     if spec_calls else 0.0),
        "dynamics.discretize_s": incl({"discretize_ensemble", "ensemble_for_params"}),
        "dynamics.storage_s": incl({"integrate_storage"}),
        "dynamics.retrieval_s": incl({"integrate_retrieval"}),
        "dynamics.invert_s": incl({"invert_detunings"}),
        "dynamics.cycle_self_s": self_time({"run_echo_cycle"}),
        "dynamics.phase_check_s": incl({"blockade_phase_check"}),
        "dynamics.solves": counts["solves"],
        "dynamics.nfev": counts["nfev"],
        "dynamics.failed_solves": counts["failed_solves"],
        "dynamics.max_ledger_residual": counts["max_ledger_residual"],
        "addressing.absorb_s": incl({"absorb_address_bin"}),
        "addressing.rephase_s": incl({"rephase_cell"}),
        "addressing.reset_s": incl({"reset_control"}),
        "addressing.compose_s": incl({"compose_with_dynamics"}),
        "addressing.serialize_s": incl({"state_to_dict", "state_table", "save_state",
                                        "state_json"}),
        "addressing.peak_terms": counts["peak_terms"],
    }
