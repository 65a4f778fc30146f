#!/usr/bin/env python3
"""Write perfbench/reference.json: the seed-0 outputs of every workload.

    python3 perfbench/make_reference.py

Runs one untimed pass of each workload on its seed-0 inputs (the committed
configs) through the same code the benchmark times, and records every
operation's summary numbers under the key the benchmark looks them up by.
The cli_configs checks compare against these values within the acceptance
tolerances; dynamics.ref_rel_err reports the worst relative deviation from
them.  Refuses to write when any operation fails its own checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    for var in wl.THREAD_VARS:
        os.environ[var] = str(wl.THREADS)
    wl.load_echoqram()
    outputs = {}
    failures = []
    (wl.HERE / "_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=wl.HERE / "_work")
    try:
        for workload in wl.WORKLOADS.values():
            if isinstance(workload, wl.CliConfigs):
                workload.reference = {}    # do not compare against the old file
            ctx = workload.setup(workload.make_inputs(0, smoke=False))
            for op in workload.run_pass(ctx, Path(work)).ops:
                outputs[op.ref_key] = op.outputs
                if not op.ok:
                    failures.append(f"{op.ref_key}: {op.detail}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    doc = {"about": "seed-0 outputs of every workload; regenerate with "
                    "python3 perfbench/make_reference.py",
           "env": wl.environment(), "outputs": outputs}
    wl.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} entries to {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
