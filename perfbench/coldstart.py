"""One cold start of the package, run in a fresh interpreter by run.py.

    python3 -I perfbench/coldstart.py SRC_DIR WORKLOAD TRACE

Imports `fiverank.cli`, builds the t = 4 specialization and the sieve
data, then does the rest of the workload's warm-up (the per-parameter
curve setup on oracle-scan), timing each phase.  With TRACE = 1 the
tracer wraps the package after the import, so the set-up spans
(`isogeny.five_division_kernel`, `curves.minimal_model`) are recorded.
Prints one JSON object of phase times in milliseconds.
"""

import contextlib
import json
import os
import sys
import time

t0 = time.perf_counter()
src, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

import fiverank.cli  # noqa: E402

t1 = time.perf_counter()
phases = {"cli.import_ms": (t1 - t0) * 1e3}

import tracer  # noqa: E402
import workloads  # noqa: E402
from fiverank import classgroup, sieve  # noqa: E402
from fiverank.family import specialize  # noqa: E402

rec = tracer.Recorder()
with tracer.traced(rec) if trace else contextlib.nullcontext():
    t = time.perf_counter()
    specialize()
    phases["family.specialize.cold_ms"] = (time.perf_counter() - t) * 1e3
    t = time.perf_counter()
    sieve.sieve_data()
    phases["sieve.sieve_data.cold_ms"] = (time.perf_counter() - t) * 1e3
    t = time.perf_counter()
    if workload == workloads.Oracle.name:
        for u in workloads.FOCUS_U + workloads.OTHER_U:
            classgroup._single_curve_setup(u)
    phases["classgroup.curve_setup.cold_ms"] = (time.perf_counter() - t) * 1e3

summary = rec.summary()
for name in ("isogeny.five_division_kernel", "curves.minimal_model"):
    phases[f"{name}.cold_ms"] = summary.get(name, {}).get("ms", 0.0)
print(json.dumps(phases))
