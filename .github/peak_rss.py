"""Run `python -m echoqram.cli ARGS` with BLAS on one thread and fail when
its peak RSS exceeds CAP megabytes.

    python .github/peak_rss.py CAP -- ARGS...

The command runs from this small launcher, so that the child's ru_maxrss
is its own and not inherited from a larger parent.  Exits with the
command's own code when it fails, 1 when it peaks above CAP, else 0.
"""

import os
import sys

cap, sep, *args = sys.argv[1:]
if sep != "--":
    sys.exit(__doc__)
env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
argv = [sys.executable, "-m", "echoqram.cli", *args]
pid = os.posix_spawn(sys.executable, argv, env)
_, status, usage = os.wait4(pid, 0)
peak = usage.ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB")
sys.exit(os.waitstatus_to_exitcode(status) or peak > float(cap))
