"""Child processes started by perfbench/run.py.

    child.py setup <workload> <seed> [--smoke]
        Set the workload up in this fresh interpreter (import echoqram,
        generate and parse the inputs, solve the matched parameters), print
        one JSON line and exit.  The parent times spawn-to-line as setup_s.

    child.py cli <dump.json> <echoqram cli arguments...>
        Import echoqram.cli, install the layer tracer, run ``cli.main`` on
        the arguments, write the spans and counters to dump.json and exit
        with main's code: the traced form of ``python -m echoqram.cli``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def setup(workload: str, seed: str, *flags: str) -> int:
    t0 = time.perf_counter()
    import_s = workloads.load_echoqram()
    w = workloads.WORKLOADS[workload]
    w.setup(w.make_inputs(int(seed), "--smoke" in flags))
    print(json.dumps({"import_s": import_s,
                      "in_child_s": time.perf_counter() - t0}), flush=True)
    return 0


def cli(dump: str, *argv: str) -> int:
    import_s = workloads.load_echoqram()
    from echoqram import cli as echo_cli
    tracer = Tracer()
    with tracer:
        try:
            rc = echo_cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    Path(dump).write_text(json.dumps({"import_s": import_s, **tracer.dump()}))
    return rc


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": cli}[mode](*rest))
