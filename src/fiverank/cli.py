"""Command-line front end.

Subcommands: derive, sieve, verify, classgroup, oracle, paper-check.
All outputs are JSON or JSONL with decimal-string integers, no
timestamps, and canonical key order, so identical configurations produce
byte-identical output.  Configuration comes from an optional key=value
file (FIVERANK_CONFIG environment variable or --config), overridden by
flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .classgroup import (
    DEFAULT_DISC_BOUND,
    RADICAND_TRIAL_BOUND,
    group_structure,
    oracle_scan,
)
from .curves import is_semistable
from .errors import FiverankError
from .family import CONSTANTS, specialize
from .sieve import admissible_z, check_z, sieve_data, singular_abscissa
from .splitting import EXPECTED_PATTERN, SPLIT, verify_instance

SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    trial_bound: int = RADICAND_TRIAL_BOUND
    disc_bound: int = DEFAULT_DISC_BOUND
    sieve_count: int = 10
    sieve_sign: str = "both"
    sieve_start: int = 0
    output: str = "-"
    workers: int = 1

    def validate(self) -> "RunConfig":
        if self.trial_bound <= 0 or self.disc_bound <= 0:
            raise ValueError("bounds must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        if self.sieve_sign not in ("pos", "neg", "both"):
            raise ValueError("sign must be pos, neg or both")
        return self


_CONFIG_KEYS = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config(path: str | None) -> RunConfig:
    """key = value lines; # starts a comment; unknown keys are an error."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get("FIVERANK_CONFIG")
    if not path:
        return cfg
    updates = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            updates[key] = _CONFIG_KEYS[key](value.strip("\"'"))
    return replace(cfg, **updates)


def _emit(fh, record: dict) -> None:
    fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _error_record(exc: Exception) -> dict:
    return {"record": "error", "schema": SCHEMA,
            "error": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def specialization_dump() -> dict:
    sp = specialize()
    data = sieve_data()
    constants = {}
    for key, value in sorted(CONSTANTS.items()):
        if key == "t":
            constants[key] = str(value)
        else:
            constants[key] = json.loads(json.dumps(value, default=str))
    return {
        "record": "specialization",
        "schema": SCHEMA,
        "constants": constants,
        "t": str(sp.t),
        "u": [str(ui) for ui in sp.u],
        "torsion_curves": [m.to_json() for m in sp.E_models],
        "quotient_curves": [m.to_json() for m in sp.F_models],
        "isogenies": [phi.to_json() for phi in sp.isogenies],
        "model_poly": sp.f_model.to_json(),
        "scale": str(sp.scale),
        "x_of_z": sp.x_of_z.to_json(),
        "v_of_z": sp.v_of_z.to_json(),
        "w_of_z": sp.w_of_z.to_json(),
        "minimal_models": [d.minimal.to_json() for d in data],
        "five_component_primes": [[str(p) for p in d.five_primes] for d in data],
        "singular_abscissae": [
            {str(d.congruence_prime): str(singular_abscissa(d, d.congruence_prime))}
            for d in data],
    }


def cmd_derive(args, cfg: RunConfig):
    sp = specialize()
    results = sp.verify_identities()
    failures = [name for name, ok in results.items() if not ok]
    for name in sorted(results):
        yield {"record": "identity", "schema": SCHEMA,
               "name": name, "pass": results[name]}
    if args.emit:               # a file main opened before the first record
        json.dump(specialization_dump(), args.emit, indent=2, sort_keys=True)
        args.emit.write("\n")
    if failures:
        yield {"record": "summary", "schema": SCHEMA, "pass": False,
               "failed": failures}
        return 1
    yield {"record": "summary", "schema": SCHEMA, "pass": True}
    return 0


# ---------------------------------------------------------------------------
# sieve / verify
# ---------------------------------------------------------------------------

def cmd_sieve(args, cfg: RunConfig):
    ok = True
    for z in admissible_z(start=cfg.sieve_start, count=cfg.sieve_count,
                          sign=cfg.sieve_sign):
        report = check_z(z)
        ok = ok and report.passed
        yield report.to_json()
    return 0 if ok else 1


def _certificate_record(z: int) -> dict:
    # a worker returns the record, so the radicand's decimal string, about
    # half the cost of a certificate at |z| ~ 1e1000, is built in parallel
    return verify_instance(z).to_json()


def _certificate_records(args, cfg: RunConfig):
    """Certificate records in z order, each yielded as soon as it is ready."""
    if args.batch is None:
        yield _certificate_record(args.z)
        return
    zs = admissible_z(start=cfg.sieve_start, count=args.batch,
                      sign=cfg.sieve_sign)
    if cfg.workers > 1 and args.batch > 1:
        # imported only here: it is about a quarter of every command's cold start
        from concurrent.futures import ProcessPoolExecutor
        # workers started by spawn or forkserver do not inherit the lifted
        # digit limit
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=_lift_int_str_limit) as pool:
            yield from pool.map(_certificate_record, zs, chunksize=4)
    else:
        yield from map(_certificate_record, zs)


def cmd_verify(args, cfg: RunConfig):
    ok = True
    for record in _certificate_records(args, cfg):
        ok = ok and record["conclusion"]
        yield record
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# classgroup / oracle
# ---------------------------------------------------------------------------

def cmd_classgroup(args, cfg: RunConfig):
    try:
        st = group_structure(args.disc, disc_bound=cfg.disc_bound)
    except ValueError as exc:           # not a negative discriminant
        yield _error_record(exc)
        return 1
    record = st.to_json()
    record.update({
        "record": "classgroup",
        "schema": SCHEMA,
        "p_ranks": {str(p): st.p_rank(p) for p in (2, 3, 5, 7)},
    })
    yield record
    return 0


def cmd_oracle(args, cfg: RunConfig):
    failed = False
    for outcome in oracle_scan(args.count, trial_bound=cfg.trial_bound,
                               disc_bound=cfg.disc_bound):
        if outcome.status == "skip" and not args.include_skips:
            continue
        failed = failed or outcome.status == "fail"
        yield outcome.to_json()
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# paper-check
# ---------------------------------------------------------------------------

def paper_check_records() -> list[dict]:
    """Every externally-sourced constant of the construction, re-verified."""
    sp = specialize()
    records = []

    def add(name, passed, detail=""):
        records.append({"record": "paper-check", "schema": SCHEMA,
                        "name": name, "pass": bool(passed), "detail": detail})

    add("parameter-triple", sp.u == (Fraction(19, 21), Fraction(-29, 21),
                                     Fraction(-11, 21)),
        "u = (19/21, -29/21, -11/21)")
    for name, ok in sorted(sp.verify_identities().items()):
        add(f"identity/{name}", ok)

    data = sieve_data()
    expected_five = CONSTANTS["five_component_primes"]
    for d, exp in zip(data, expected_five):
        add(f"five-component-primes/curve-{d.index}", d.five_primes == exp,
            f"{sorted(d.five_primes)}")
        add(f"singular-abscissa/curve-{d.index}",
            singular_abscissa(d, d.congruence_prime) == d.excluded_residue,
            f"x = {d.excluded_residue} mod {d.congruence_prime}")

    for i, model in enumerate(sp.E_models + sp.F_models, 1):
        add(f"semistability/model-{i}", is_semistable(model.curve()))

    # the per-z records read the certificate that verify emits
    for sign in ("pos", "neg"):
        cert = verify_instance(next(iter(admissible_z(sign=sign))))
        z, pattern = cert.z, cert.pattern
        add(f"extension-conditions/z={z}", cert.sieve_report.passed,
            "valuations, congruences and node avoidance")
        add(f"splits-in-K/z={z}",
            pattern is not None and pattern.k_verdicts == (SPLIT,) * 3)
        add(f"splitting-pattern/z={z}",
            pattern is not None and pattern.entries == EXPECTED_PATTERN)
        add(f"independence/z={z}", cert.independence)

    add("sign-near-zero/positive", sp.radicand(Fraction(1, 10)) < 0,
        "small z > 0 gives an imaginary field")
    add("sign-near-zero/negative", sp.radicand(Fraction(-1, 10)) > 0,
        "small z < 0 gives a real field")
    return records


def cmd_paper_check(args, cfg: RunConfig):
    records = paper_check_records()
    yield from records
    ok = all(r["pass"] for r in records)
    yield {"record": "summary", "schema": SCHEMA, "pass": ok,
           "checks": len(records)}
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiverank",
        description="build, sieve and verify the quadratic fields whose "
                    "class group gains three independent order-5 quotients")
    parser.add_argument("--config", help="key=value config file "
                        "(or FIVERANK_CONFIG)")
    parser.add_argument("--output", "-o", help="output path (default stdout)")
    parser.add_argument("--workers", type=int, help="worker processes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="replay the symbolic identity suite")
    p.add_argument("--emit", help="write specialization.json here")
    p.set_defaults(func=cmd_derive)

    # a flag that overrides a config key stores under the key's name.  A
    # sub-command's --emit is set only when given, so it wins over -o
    # instead of a sub-parser default overwriting -o
    def add_emit(p):
        p.add_argument("--emit", dest="output", metavar="EMIT",
                       default=argparse.SUPPRESS,
                       help="JSONL output path (alias of --output)")

    p = sub.add_parser("sieve", help="stream admissible z with condition reports")
    p.add_argument("--count", type=int, dest="sieve_count", metavar="COUNT")
    p.add_argument("--sign", choices=("pos", "neg", "both"), dest="sieve_sign")
    p.add_argument("--start", type=int, dest="sieve_start", metavar="START")
    add_emit(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("verify", help="emit field certificates")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--z", type=int)
    which.add_argument("--batch", type=int)
    p.add_argument("--sign", choices=("pos", "neg", "both"), dest="sieve_sign")
    p.add_argument("--start", type=int, dest="sieve_start", metavar="START")
    add_emit(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classgroup", help="class group of one discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("oracle", help="small-instance class-number suite")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--bound", type=int, dest="disc_bound", metavar="BOUND",
                   help="|D| budget")
    p.add_argument("--include-skips", action="store_true")
    add_emit(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-check", help="re-verify every sourced constant")
    p.set_defaults(func=cmd_paper_check)
    return parser


def _merge_config(args) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items()
                 if key in _CONFIG_KEYS and value is not None}
    return replace(load_config(args.config), **overrides).validate()


def _lift_int_str_limit() -> None:
    # certificates at |z| ~ 1e1000 carry radicands of ~12,000 digits, over
    # CPython's default 4,300-digit limit on int <-> str conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def main(argv=None) -> int:
    _lift_int_str_limit()
    parser = build_parser()
    args = parser.parse_args(argv)
    fh = sys.stdout
    try:
        with ExitStack() as files:
            # a bad config or an unwritable output path is a usage error,
            # raised before any record is written
            try:
                cfg = _merge_config(args)
                if getattr(args, "emit", None):     # derive's specialization file
                    args.emit = files.enter_context(
                        open(args.emit, "w", encoding="utf-8"))
                if cfg.output not in ("-", ""):
                    fh = files.enter_context(open(cfg.output, "w", encoding="utf-8"))
            except (ValueError, OSError) as exc:
                parser.error(str(exc))
            # each command yields its records and returns its exit code; a
            # FiverankError ends the stream with an error record and exit code 1
            records = args.func(args, cfg)
            try:
                while True:
                    _emit(fh, next(records))
            except StopIteration as done:
                code = done.value
            except FiverankError as exc:
                _emit(fh, _error_record(exc))
                code = 1
            fh.flush()                  # a failed write raises here, not at exit
            return code
    except OSError as exc:              # a closed pipe or a full disk
        if fh is sys.stdout:            # or the flush at exit fails once more
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):    # a closed reader is no error
            print(f"fiverank: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
