"""One workload, run in the fresh interpreter that run.py starts for it.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR [--setup-only]

``subguard`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH). The first thing done is to time ``import subguard``, so only
``sys`` and ``time`` are imported before it. Prints one JSON object.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    before = len(sys.modules)
    import subguard  # noqa: F401
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before

    import harness
    sys.exit(harness.main(sys.argv[1:], import_s, modules_loaded))
