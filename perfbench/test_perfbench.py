"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import hashlib
import itertools
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fiverank import exact, splitting  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)

INPUTS_DIGEST = """
import hashlib, itertools, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
wl = workloads.WORKLOADS[{name!r}]({seed})
print(hashlib.sha256(repr(list(itertools.islice(wl.rounds(), 3))).encode()).hexdigest())
"""


def _flat(wl):
    return itertools.chain.from_iterable(wl.rounds())


def _in_fresh_process(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def _record_digest(name: str, seed: int) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return re.search(r"sha256=([0-9a-f]{64})", done.stdout).group(1)


def test_same_seed_same_inputs_in_two_processes():
    for name in NAMES:
        code = {seed: INPUTS_DIGEST.format(src=str(ROOT / "src"), here=str(HERE),
                                           name=name, seed=seed) for seed in (7, 8)}
        first, second = _in_fresh_process(code[7]), _in_fresh_process(code[7])
        assert first == second, name
        assert first != _in_fresh_process(code[8]), name


def test_same_seed_same_record_digest_in_two_processes():
    for name in NAMES:
        assert _record_digest(name, 7) == _record_digest(name, 7), name


def test_tracer_leaves_records_unchanged():
    originals = (splitting.splitting_profile, exact.Poly.primitive_integer)
    for name in NAMES:
        wl = workloads.WORKLOADS[name](3)
        wl.warm()
        first = next(wl.rounds())[:wl.prefix]
        wl.rounds = lambda: itertools.repeat(first)
        plain = run.run_pass(wl, 0, rounds=1)
        rec = tracer.Recorder()
        with tracer.traced(rec):
            traced = run.run_pass(wl, 0, rounds=1, rec=rec)
        assert traced.digest == plain.digest, name
        assert not plain.failures and not traced.failures, name
        assert rec.summary()["op"]["calls"] == len(first)
    assert (splitting.splitting_profile, exact.Poly.primitive_integer) == originals


def test_self_time_is_duration_minus_children():
    rec = tracer.Recorder()
    with rec.span("a"):
        with rec.span("b"):
            with rec.span("a"):
                pass
        with rec.span("c"):
            pass
    # a: 0..100 holds b: 10..40 (holding a: 20..30) and c: 50..60
    rec.start[:] = type(rec.start)("q", [0, 10, 20, 50])
    rec.end[:] = type(rec.end)("q", [100, 40, 30, 60])
    ms = {name: {k: round(v * 1e6) for k, v in row.items() if k != "calls"}
          for name, row in rec.summary().items()}
    assert ms["a"] == {"ms": 100, "self_ms": 60 + 10}
    assert ms["b"] == {"ms": 30, "self_ms": 20}
    assert ms["c"] == {"ms": 10, "self_ms": 10}


def test_generators_keep_to_the_paper_congruences_and_contracts():
    certify = list(itertools.islice(_flat(workloads.Certify(1)), 400))
    kinds = [kind for kind, _ in certify]
    assert kinds.count("admissible") == 300 and kinds.count("arbitrary") == 100
    for kind, z in certify:
        assert 10 ** 1000 <= abs(z) < 10 ** 1001 + workloads.CLASS_MOD
        if kind == "admissible":
            assert z % (11 * 19 * 29) == 0 and z % (163 * 701 * 1277) == 1
            assert z % 419 not in (86, 333)
    assert {z > 0 for _, z in certify} == {True, False}

    for start, _, z in itertools.islice(_flat(workloads.Sieve(1)), 300):
        assert 10 ** 12 <= start < 10 ** 13 and abs(z) >= start
        assert z % (11 * 19 * 29) == 0 and z % (163 * 701 * 1277) == 1
        assert z % 419 not in (86, 333)

    oracle = list(itertools.islice(_flat(workloads.Oracle(1)), 2 * len(workloads.X_GRID)))
    assert all(workloads.oracle_accepts(u) for u, _ in oracle)
    assert not any(workloads.oracle_accepts(u) for u in (Fraction(4, 3), Fraction(6, 7)))
    focus = sum(u in workloads.FOCUS_U for u, _ in oracle)
    assert 0.35 < focus / len(oracle) < 0.65
    assert all(abs(x.numerator) <= 60 and x.denominator in (1, 2, 3) for _, x in oracle)


def test_sieve_expected_stream_matches_the_program_on_small_starts():
    from fiverank.sieve import admissible_z
    for start in (0, 1, 10 ** 12, 3 * 10 ** 12 + 17):
        assert workloads.class_members_by_size(start, 40) == list(
            admissible_z(start=start, count=40, sign="both"))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS.values()]
    for entry in spec["workloads"]:
        why = workloads.WORKLOADS[entry["name"]].why
        assert entry["why"] == why
        assert "\n" not in why and len(why) <= 200
        assert why.endswith(".") and why.count(". ") == 0, "one sentence"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    digests = json.loads(run.DIGESTS.read_text())
    assert digests["seed"] == run.DEFAULT_SEED
    assert sorted(digests["prefix_sha256"]) == NAMES
    assert hashlib.sha256(b"").hexdigest() not in digests["prefix_sha256"].values()
