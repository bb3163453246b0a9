"""fiverank benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload certify-1e1000 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` in
this process (no CLI subprocesses, no workers), and each operation is
timed as the CLI runs it: the call plus the canonical JSON line of its
record.  The loop is closed: one caller, the next operation starts when
the previous one has returned.

--trace 0 prints the end-to-end metrics: cold-start set-up time (median
of several fresh interpreters), throughput, latency p50/p90, the share
of operations that reached a verdict and peak resident memory.
--trace 1 runs the same inputs twice, untraced and then with spans
around the package's public functions, and prints the per-layer metrics
and the tracing overhead.  Either way the last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Times: on a shared cloud VM, other tenants slow a core by up to about
1.6x for seconds to minutes at a time.  A short fixed loop is
timed between operations, and every end-to-end time is rescaled to a
reference core on which that loop takes a fixed time; raw totals are
kept in the details file (see probe_seconds).  Runs end on a round
boundary, so each keeps its workload's mix.

Correctness: every record is checked against facts derived outside the
code under test (see workloads.py), and the SHA-256 of the first
records of a run is compared with digests.json for the default seed.
The traced pass must reproduce the untraced records byte for byte.
Details, spans and machine info go to .perfbench-out/ at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
COLD_STARTS = 5
PROBE_EVERY = 0.02           # seconds of operations between probes
LAYERS = ("exact", "curves", "isogeny", "family", "sieve", "splitting", "classgroup", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); "<span>.calls_per_op" style names are filled from spans
PER_LAYER = (
    ("family.radicand.calls_per_op", "calls/op"),
    ("family.radicand.ms_per_op", "ms/op"),
    ("family.specialize.cold_ms", "ms"),
    ("sieve.check_z.ms_per_op", "ms/op"),
    ("sieve.admissible_z.ms_per_op", "ms/op"),
    ("sieve.sieve_data.cold_ms", "ms"),
    ("sieve.pass_ratio", "ratio"),
    ("splitting.splitting_pattern.ms_per_op", "ms/op"),
    ("splitting.frobenius_order_in_L.calls_per_op", "calls/op"),
    ("splitting.frobenius_order_in_L.ms_per_op", "ms/op"),
    ("splitting.prime_split_in_K.ms_per_op", "ms/op"),
    ("splitting.verify_instance.admissible_p50_ms", "ms"),
    ("splitting.verify_instance.arbitrary_p50_ms", "ms"),
    ("exact.splitting_profile.calls_per_op", "calls/op"),
    ("exact.splitting_profile.ms_per_op", "ms/op"),
    ("exact.Poly.primitive_integer.calls_per_op", "calls/op"),
    ("exact.Poly.primitive_integer.ms_per_op", "ms/op"),
    ("exact.jacobi.calls_per_op", "calls/op"),
    ("exact.valuation.calls_per_op", "calls/op"),
    ("exact.valuation.ms_per_op", "ms/op"),
    ("exact.squarefree_part.ms_per_op", "ms/op"),
    ("isogeny.preimage_quintic.calls_per_op", "calls/op"),
    ("isogeny.preimage_quintic.ms_per_op", "ms/op"),
    ("isogeny.five_division_kernel.cold_ms", "ms"),
    ("curves.minimal_model.cold_ms", "ms"),
    ("classgroup.enumerate_reduced.calls_per_decided", "calls/verdict"),
    ("classgroup.enumerate_reduced.ms_per_decided", "ms/verdict"),
    ("classgroup.group_structure.ms_per_decided", "ms/verdict"),
    ("classgroup.compose.calls_per_decided", "calls/verdict"),
    ("classgroup.form_pow.calls_per_decided", "calls/verdict"),
    ("classgroup.curve_setup.cold_ms", "ms"),
    ("classgroup.skip.over_budget", "count"),
    ("classgroup.skip.extension", "count"),
    ("classgroup.skip.other", "count"),
    ("cli.import_ms", "ms"),
    ("cli.emit.ms_per_op", "ms/op"),
    *((f"{layer}.self_ms_per_op", "ms/op") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)

COLD_METRICS = ("cli.import_ms", "family.specialize.cold_ms", "sieve.sieve_data.cold_ms",
                "isogeny.five_division_kernel.cold_ms", "curves.minimal_model.cold_ms",
                "classgroup.curve_setup.cold_ms")


class Pass:
    """Outcome of one pass over a workload's input stream."""

    def __init__(self, prefix: int, probe: str):
        self.prefix = prefix
        self.probe_kind = probe
        self.categories: list[str] = []
        self.seconds = array("d")
        self.failures: list[str] = []
        self.probes: list[tuple[int, float]] = []   # (operations before it, seconds)
        self.rounds = 0
        self.reports = 0
        self.reports_passed = 0
        self._prefix_hash = hashlib.sha256()
        self._hash = hashlib.sha256()

    def add(self, category: str, seconds: float, line: str) -> None:
        data = (line + "\n").encode()
        if len(self.seconds) < self.prefix:
            self._prefix_hash.update(data)
        self._hash.update(data)
        self.categories.append(category)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.seconds)

    @property
    def prefix_digest(self) -> str:
        return self._prefix_hash.hexdigest()

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def probe(self) -> None:
        self.probes.append((len(self.seconds), probe_seconds(self.probe_kind)))

    def normalized_seconds(self) -> array:
        """Operation times on the reference core (see probe_seconds).

        Each time is multiplied by the kernel's reference time over the
        mean of the probes taken just before and just after the operation.
        """
        reference = PROBES[self.probe_kind][1]
        out, j = array("d"), 0
        for i, seconds in enumerate(self.seconds):
            while j + 1 < len(self.probes) and self.probes[j + 1][0] <= i:
                j += 1
            before = self.probes[j][1]
            after = self.probes[j + 1][1] if j + 1 < len(self.probes) else before
            out.append(seconds * reference / ((before + after) / 2))
        return out

    def decided(self, values) -> list[float]:
        return [v for c, v in zip(self.categories, values) if is_decided(c)]

    def count(self, category: str) -> int:
        return self.categories.count(category)


def is_decided(category: str) -> bool:
    return not category.startswith("skip.") and category != "error"


def _integer_kernel() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def _fraction_kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)


# kernel name -> (kernel, its quiet time on a 2-vCPU cloud VM under CPython 3.11)
PROBES = {"integer": (_integer_kernel, 0.0014), "fraction": (_fraction_kernel, 0.00122)}


def probe_seconds(kind: str) -> float:
    """Time of a fixed pure-Python kernel: how fast this core runs right now.

    On a shared 2-vCPU cloud VM, other tenants slow a core by up to about
    1.6x, in phases lasting seconds to minutes, and raw run-to-run spreads
    of throughput and latency reach 10-35%.  Probing between operations
    measures that slowdown, and end-to-end times are reported on a
    reference core, one that runs the kernel in its PROBES time
    (Pass.normalized_seconds).  Code slows by different factors, so each
    workload names the kernel whose slowdown tracks its own: integer
    arithmetic for certify and oracle, allocation-heavy Fraction
    arithmetic for the sieve.  Raw totals stay in the details file.
    """
    kernel, _ = PROBES[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def run_pass(wl, seconds: float, rounds: int | None = None, rec=None) -> Pass:
    """Time whole rounds of operations from a fresh input stream.

    With `rounds`, runs exactly that many.  Otherwise, once the digest
    prefix is complete, stops at the round boundary nearest to `seconds`,
    so every run keeps the workload's mix (a round is one certify block,
    one sieve batch or one oracle deck).
    """
    from workloads import emit_line

    span = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
    out = Pass(wl.prefix, wl.probe)
    out.probe()
    begin = last_probe = time.perf_counter()
    for batch in wl.rounds():
        for item in batch:
            if time.perf_counter() - last_probe >= PROBE_EVERY:
                out.probe()
                last_probe = time.perf_counter()
            t0 = time.perf_counter()
            try:
                with span("op"):
                    record = wl.call(item)
                    with span("cli.emit"):
                        line = emit_line(record)
            except Exception as exc:  # every input must give a record; count, don't stop
                out.add("error", time.perf_counter() - t0, f"error {type(exc).__name__}: {exc}")
                out.failures.append(f"{item!r:.200}: {type(exc).__name__}: {exc}")
                continue
            out.add(wl.category(item, record), time.perf_counter() - t0, line)
            problem = wl.check(item, record)
            if problem:
                out.failures.append(f"{item!r:.200}: {problem}")
            for report in wl.sieve_reports(record):
                out.reports += 1
                out.reports_passed += report.passed
        out.rounds += 1
        if rounds is not None:
            if out.rounds >= rounds:
                break
            continue
        elapsed = time.perf_counter() - begin
        if len(out) >= wl.prefix and elapsed + elapsed / out.rounds - seconds >= seconds - elapsed:
            break
    out.probe()
    return out


def cold_starts(workload: str, probe: str, trace: bool) -> tuple[list[float], list[dict]]:
    """Wall seconds (on the reference core) and phase times of fresh interpreters."""
    walls, phases = [], []
    cmd = [sys.executable, "-I", str(HERE / "coldstart.py"), str(SRC), workload,
           "1" if trace else "0"]
    for _ in range(COLD_STARTS):
        before = probe_seconds(probe)
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        scale = PROBES[probe][1] * 2 / (before + probe_seconds(probe))
        if done.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{done.stderr}")
        walls.append(wall * scale)
        phase_ms = json.loads(done.stdout.strip().splitlines()[-1])
        phases.append({name: ms * scale for name, ms in phase_ms.items()})
    return walls, phases


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def band_percentile(values: list[float], q: int, half_width: int = 5) -> float:
    """The q-th percentile, smoothed: the mean of the samples between the
    (q - half_width)-th and (q + half_width)-th percentiles.

    oracle-scan has about 80 verdicts per run whose costs spread over two
    orders of magnitude, so neighbouring order statistics sit 10-20% apart
    and a plain percentile jumps between them; with thousands of samples
    the band mean equals the percentile.
    """
    lo, hi = quantile(values, q - half_width), quantile(values, q + half_width)
    band = [v for v in values if lo <= v <= hi]
    return statistics.fmean(band) if band else quantile(values, q)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(timed: Pass, walls: list[float], rss_mb: float) -> tuple[dict, dict]:
    times = timed.normalized_seconds()
    decided = timed.decided(times)
    values = {
        "setup_s": statistics.median(walls),
        "throughput_ops_per_s": len(decided) / sum(times),
        "latency_p50_ms": band_percentile(decided, 50) * 1e3,
        "latency_p90_ms": band_percentile(decided, 90) * 1e3,
        "decided_ratio": len(decided) / len(timed),
        "peak_rss_mb": rss_mb,
    }
    samples = {"setup_s": len(walls), "throughput_ops_per_s": len(timed),
               "latency_p50_ms": len(decided), "latency_p90_ms": len(decided),
               "decided_ratio": len(timed)}
    return values, samples


def per_layer(plain: Pass, traced: Pass, rec, spans: dict, phases: list[dict]) -> dict:
    ops = len(traced)
    decided = len(traced.decided(traced.seconds))
    # span times on the reference core, at the traced pass's median probe
    scale = PROBES[traced.probe_kind][1] / statistics.median(s for _, s in traced.probes)

    def total(name, key):
        row = spans.get(name, {})
        return row.get(key, 0) * (scale if key.endswith("ms") else 1)

    def per(value, n):
        return value / n if n else 0.0

    values = {}
    for metric, _ in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls_per_op":
            values[metric] = per(total(stem, "calls"), ops)
        elif kind == "ms_per_op":
            values[metric] = per(total(stem, "ms"), ops)
        elif kind == "calls_per_decided":
            values[metric] = per(total(stem, "calls"), decided)
        elif kind == "ms_per_decided":
            values[metric] = per(total(stem, "ms"), decided)
    for layer in LAYERS:
        self_ms = scale * sum(row["self_ms"] for name, row in spans.items()
                              if name.startswith(layer + "."))
        values[f"{layer}.self_ms_per_op"] = per(self_ms, ops)
    for metric in COLD_METRICS:
        values[metric] = statistics.median(p[metric] for p in phases)
    verify = [ms * scale for ms in rec.durations_ms("splitting.verify_instance")]
    for kind in ("admissible", "arbitrary"):
        by_kind = [ms for ms, c in zip(verify, traced.categories) if c == kind]
        values[f"splitting.verify_instance.{kind}_p50_ms"] = (
            statistics.median(by_kind) if len(verify) == ops and by_kind else 0.0)
    values["sieve.pass_ratio"] = per(traced.reports_passed, traced.reports)
    for reason in ("over_budget", "extension", "other"):
        values[f"classgroup.skip.{reason}"] = traced.count(f"skip.{reason}")
    values["trace.overhead_ratio"] = sum(plain.normalized_seconds()) / sum(traced.normalized_seconds())
    for metric, _ in PER_LAYER:
        values.setdefault(metric, 0.0)
    return values


def machine_info() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            revision = done.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "git_revision": revision}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one core for this process and its cold starts, so probes see their core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](args.seed)
    walls, phases = cold_starts(wl.name, wl.probe, bool(args.trace))
    wl.warm()
    failures, notes = [], []
    if args.trace:
        import tracer
        plain = run_pass(wl, args.seconds / 2)
        rec = tracer.Recorder()
        with tracer.traced(rec):
            traced = run_pass(wl, 0, rounds=plain.rounds, rec=rec)
        if traced.digest != plain.digest:
            notes.append("traced records differ from untraced records")
        passes = (plain, traced)
        spans = rec.summary()
        values = per_layer(plain, traced, rec, spans, phases)
        units, samples = dict(PER_LAYER), {}
    else:
        plain = run_pass(wl, args.seconds)
        rss_mb = peak_rss_mb()
        passes = (plain,)
        values, samples = end_to_end(plain, walls, rss_mb)
        units = dict(END_TO_END)

    for p in passes:
        failures.extend(p.failures)
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())["prefix_sha256"].get(wl.name)
        if plain.prefix_digest != expected:
            notes.append(f"record digest {plain.prefix_digest} != recorded {expected}")
    attempted = sum(len(p) for p in passes)
    result = {
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    info = machine_info()
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    details = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "machine": info, "prefix_records": wl.prefix,
               "prefix_sha256": plain.prefix_digest, "records_sha256": plain.digest,
               "samples": samples, "cold_start_wall_s": walls, "cold_start_phases": phases,
               "raw_op_seconds_total": sum(plain.seconds), "probe_seconds": plain.probes,
               "failures": failures[:100], "notes": notes, "result": result}
    if args.trace:
        details["spans"] = spans
        rec.write(OUT / f"{tag}.spans.csv")
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")

    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"git={info['git_revision']}")
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} operation={wl.unit}")
    print(f"records: first {wl.prefix} sha256={plain.prefix_digest}")
    failed_ratio = len(failures) / attempted
    skip_ratio = 1 - len(plain.decided(plain.seconds)) / len(plain)
    print(f"  {'failed_ratio':<48} {failed_ratio:.6g} ratio (n={attempted})")
    if not args.trace:
        print(f"  {'skip_ratio':<48} {skip_ratio:.6g} ratio (n={len(plain)})")
    for name, metric in result["metrics"].items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}{n}")
    for line in (failures[:5] + notes):
        print(f"FAILED: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "fiverank" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.exit(main())
