"""One benchmark invocation in a fresh interpreter.

Usage: python3 child.py JOB_JSON

JOB_JSON holds ``simulate`` (argv for ``qvotes simulate``, or null for an
import-only run), ``fits`` (a list of argv lists for ``qvotes fit``) and
``timings`` (where to write the result).  The result records the
``time.monotonic()`` stamp at which ``import qvotes.cli`` returned, so the
parent can compute set-up time from its own spawn stamp on the same clock,
the wall and CPU (all threads) time of the simulate call, the wall time of
all fit calls, and the wall and CPU times of the host-speed kernel
(``calibrate.py``) run just before and just after the simulate call.  Exits 1 if any ``qvotes`` call returned nonzero.
"""

import json
import sys
import time

import qvotes.cli

imported_at = time.monotonic()

import calibrate  # noqa: E402  (after the set-up stamp: not part of set-up)

job = json.loads(sys.argv[1])
codes = []
sweep_s = sweep_cpu_s = fit_s = None
calib = [calibrate.timed()]
if job["simulate"] is not None:
    t0, c0 = time.perf_counter(), time.process_time()
    codes.append(qvotes.cli.main(job["simulate"]))
    sweep_s, sweep_cpu_s = time.perf_counter() - t0, time.process_time() - c0
    calib.append(calibrate.timed())
    t0 = time.perf_counter()
    for argv in job["fits"]:
        codes.append(qvotes.cli.main(argv))
    fit_s = time.perf_counter() - t0

with open(job["timings"], "w", encoding="utf-8") as fh:
    json.dump({"imported_at": imported_at, "sweep_s": sweep_s, "sweep_cpu_s": sweep_cpu_s,
               "fit_s": fit_s, "exit_codes": codes, "calib": calib}, fh)
sys.exit(1 if any(codes) else 0)
