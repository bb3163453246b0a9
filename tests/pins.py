"""Every SHA-256 pin of the package's records, each defined once.

A pin is a run of canonical lines, their count and the SHA-256 of their
text, each line ending in a newline.  The lines come from a generator, or
they are the stdout of fiverank.cli.main on given arguments, which must
return a given exit code.  check(name) raises ArithmeticError on any
difference, never asserts, so the pins hold under python -O.  Tier-1
checks every pin (tests/test_pins.py); as a script,

    python -O tests/pins.py [NAME ...]

checks the named pins, or all of them, prints one line per pin and exits
1 if any differs.

The comment beside an entry says what it covers and, where it matters,
the earlier engine its digest was recorded on.  A deliberate record
change re-records its pin here and nowhere else.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from fiverank.classgroup import SCAN_U, _single_curve_setup, class_number, group_structure
from fiverank.cli import main as fiverank
from fiverank.errors import FiverankError
from fiverank.family import five_isogeny
from fiverank.splitting import verify_instance


@dataclass(frozen=True)
class Pin:
    """lines yields the canonical lines; without it they are the stdout of
    fiverank.cli.main on each (argv, exit code) of calls in turn, with
    config, if set, written to a file passed as --config."""
    name: str
    count: int
    sha256: str
    lines: Callable[[], Iterable[str]] | None = None
    calls: tuple = ()
    config: str | None = None


def _cli(name, count, sha256, *argv, code=0, config=None) -> Pin:
    return Pin(name, count, sha256, calls=((argv, code),), config=config)


def _stdout(argv, code: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = fiverank(list(argv))
    if got != code:
        raise ArithmeticError(f"fiverank {' '.join(argv)[:60]} exited {got}, not {code}")
    return out.getvalue()


def _canonical(record: dict) -> str:
    """One JSON line as the CLI writes it: sorted keys, no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _certificates(zs) -> Iterable[str]:
    for z in zs:
        yield _canonical(verify_instance(z).to_json())


# 300 arbitrary z, none admissible: 257 records carry a
# ProtocolViolationError from a test prime inert in K, 31 fail
# independence, 11 carry a RamifiedPrimeError and 1 an
# InvalidCertificateError
ARBITRARY_Z = range(10 ** 15 + 1141, 10 ** 15 + 1441)

# z = r mod 29^5 with 11 r = 29: v_29(z) = 1 in a 29-adic class that no
# depth decides, so check_z takes the direct route far above sign_bound()
OPEN_CLASS_R = 29 * pow(11, -1, 29 ** 5) % 29 ** 5
OPEN_CLASS_Z = [b + (OPEN_CLASS_R - b) % 29 ** 5 for b in (10 ** 12, 10 ** 100, 10 ** 1000)]

# z = +-1 ... +-17 on both sides of sign_bound() = 3, then 11850 and the
# open 29-adic classes: 10 of the 38 certificates take check_z's direct route
ROUTE_Z = [z for z in range(-17, 18) if z] + [11850] + OPEN_CLASS_Z

# Row l of the pattern depends on z only through z mod l wherever the
# class condition holds (the splitting module docstring).  It fails on
# these residues: den(z) vanishes mod l, at 0 among others, or
# f_int(x(z)) does.
UNFIXED = {163: (0, 10, 43, 120, 136), 701: (0, 73, 322, 357, 385, 480, 528),
           1277: (0, 43, 467)}

# every unfixed residue at 1e12, -1e12, 1e100 and 1e1000: each certificate
# computes at least one row on z itself
FALLBACK_Z = [b + (r - b) % l for b in (10 ** 12, -10 ** 12, 10 ** 100, 10 ** 1000)
              for l, rs in UNFIXED.items() for r in rs]

# the five arbitrary z, then tiny z.  Reporting "not all primes split in
# K" instead of a profile violation at inert primes will change this pin
# on purpose (ROADMAP item 1)
VERIFY_Z = ([(10 ** 15 + k, 1) for k in range(1141, 1147)]
            + [(1, 0), (-7, 1), (2, 1), (10 ** 1000 + 7, 1)])


def _scan_facts() -> Iterable[str]:
    """What the oracle derives of each u in SCAN_U: from
    _single_curve_setup the quotient model, its minimal model, the
    five-component primes, every reduction and the map onto minimal
    coordinates, and the isogeny that a verdict reads, built here for
    every u; the error's class and message where the setup raises."""
    for u in SCAN_U:
        try:
            F_model, data = _single_curve_setup.__wrapped__(u)
            phi = five_isogeny.__wrapped__(u)
        except FiverankError as exc:
            line = {"u": str(u), "error": type(exc).__name__, "message": str(exc)}
        else:
            line = {"u": str(u), "model": F_model.to_json(),
                    "minimal": data.minimal.to_json(),
                    "five_primes": list(data.five_primes),
                    "reductions": [[r.prime, r.component_count, r.singular_x]
                                   for r in data.reductions.values()],
                    "minimal_map": list(data.minimal_map), "phi": phi.to_json()}
        yield _canonical(line)


def _discriminants(top: int, bottom: int) -> Iterable[int]:
    """Every D = 0, 1 mod 4 from top down to bottom."""
    return (D for D in range(top, bottom - 1, -1) if D % 4 in (0, 1))


def _specialization_file() -> Iterable[str]:
    """The file derive --emit writes; its stdout is derive's own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "specialization.json")
        compare(PINS["derive"], _stdout(("derive", "--emit", path), 0))
        with open(path, encoding="utf-8", newline="") as fh:
            yield from fh.read().split("\n")[:-1]


PINS = {pin.name: pin for pin in (
    # classgroup records recorded while group_structure still read the
    # invariant factors off a power table of every reduced form: C5,
    # C2 x C2, C5 x C5, C25 x C5 (h = 250), the non-fundamental -64 and
    # -2832, and the over-budget error record
    _cli("classgroup/-47", 1,
         "54689808ccdc57feb29a84c10e11b216049194bd8af35530a736f4db23cdcf84",
         "classgroup", "--disc", "-47"),
    _cli("classgroup/-84", 1,
         "059017b155f7aabaa6253a61714251d44f003b5a7c92296d98919eb0d9b9acf1",
         "classgroup", "--disc", "-84"),
    _cli("classgroup/-12451", 1,
         "6486507e874528dbcad2743323efd37e794a4518a52b6cc663ec15630b59da05",
         "classgroup", "--disc", "-12451"),
    _cli("classgroup/-50783", 1,
         "55b6c20f236a166fc0a15d2adac7ff57be328de9b6a731441aa07f108d407f34",
         "classgroup", "--disc", "-50783"),
    _cli("classgroup/-64", 1,
         "83fed74c08f7bc0ae4faec487d10545b8f1432ce772cb8bea430b9339e9213ec",
         "classgroup", "--disc", "-64"),
    _cli("classgroup/-2832", 1,
         "cf6846bb578dbe28c0d87ed89307148e866b3f02d86bfd372585a0d415326cde",
         "classgroup", "--disc", "-2832"),
    _cli("classgroup/over-budget", 1,
         "cbb2ca13bb7da6fe726dfc42b362f5f23d95f64df0de390e7fb715c26b2eea60",
         "classgroup", "--disc", str(-(10 ** 7 + 7) * 4), code=1),
    # sieve records of the Fraction-arithmetic sieve that preceded the
    # integer evaluation
    _cli("sieve/1e12", 200,
         "d1b7a7e63df309f01c5169a68336ff51eedf718a81e2a7a0c36a2262e556964b",
         "sieve", "--start", str(10 ** 12), "--count", "200", "--sign", "both", code=1),
    _cli("sieve/1e100", 20,
         "ad4aefa725b96baab07e32b825ea28a619eb3cf8e77e0231fd04c300d220aada",
         "sieve", "--start", str(10 ** 100), "--count", "20", "--sign", "both", code=1),
    # recorded while every report still evaluated x(z) and the radicand
    # form for its sign; at this size the class route takes the sign from
    # z and evaluates no polynomial
    _cli("sieve/1e1000", 50,
         "5f5f035ffdd849072ba537fabceb9e0ee50260b99c7321c2765ed82755e01b1b",
         "sieve", "--start", str(10 ** 1000), "--count", "50", "--sign", "both", code=1),
    # oracle records recorded while the oracle still took h and the 5-rank
    # from full enumeration (group_structure): the whole default grid has
    # 82 verdicts among its records, skips included
    _cli("oracle/20", 132,
         "3d298d766ebc674714133affaafc534ce8fa3721a7841b97b23a72e1f990390d",
         "oracle", "--count", "20", "--include-skips"),
    _cli("oracle/grid", 6786,
         "338fa89c75a697d4f39c3afe13cb1d8b58c90ce05dbc18a77714bdbb9ed9fc17",
         "oracle", "--count", "100000", "--include-skips"),
    # trial_bound = 1000 leaves 95 radicands unfactored, so the grid goes
    # through trial_factor's cofactor tests and squarefree_part's perfect
    # powers; recorded before trial division read a prime table
    _cli("oracle/grid-trial-bound-1000", 6786,
         "0d3ce011cd41f160377fb113bc3ac73521900baa9fc9033d2be07b0340e9ff1b",
         "oracle", "--count", "100000", "--include-skips",
         config="trial_bound = 1000\n"),
    _cli("verify/batch-50", 50,
         "ee93ccd80e9a132474914a96f2453a8e375f3c28f71ab24cd7024b98c1846e5c",
         "verify", "--batch", "50", code=1),
    # the radicand's digits and the gcd of x(z) rest on checks that raise
    _cli("verify/1e1000", 5,
         "bca5f5f63e0c2b607263773cb5eb5445728a1b3ecccbd019f12b101b4165449e",
         "verify", "--batch", "5", "--start", str(10 ** 1000), code=1),
    Pin("verify/z", len(VERIFY_Z),
        "cc5dbef93202fc2b540af690f7314ec5d571668e49caf05069cc3f36937a553a",
        calls=tuple((("verify", "--z", str(z)), code) for z, code in VERIFY_Z)),
    # radicands of about 48,000 digits, whose digits split from
    # P_7 = 10^38400 down, deeper than any other pin reaches
    _cli("verify/1e4000", 5,
         "eae2a4d9ea79356346e5570989a209485f8160114d13926818a77ef1bb286969",
         "verify", "--batch", "5", "--start", str(10 ** 4000), code=1),
    # paper-check and derive records and derive's --emit file, recorded
    # before the symbolic kernel and abscissa became closed forms
    _cli("paper-check", 35,
         "c79b1c5f8d44ddb4d34fc07519ec93cf909067290ead0059316e461037fc7820",
         "paper-check"),
    _cli("derive", 12,
         "4359386858c81c31c90dcf825d4c658f886b831097ff13d6391fe28348c7f122",
         "derive"),
    Pin("derive/emit", 498,
        "cac00b8aef14891da3da99f93f7fbd474482522abb58c325fa8d63156a13a5bb",
        lines=_specialization_file),
    # certificates as the CLI writes them
    Pin("certificates/arbitrary", len(ARBITRARY_Z),
        "f443887d8fb67c25b1be8b5146eedd43d39e1f4b8599aa1948c681cbe0be9147",
        lines=lambda: _certificates(ARBITRARY_Z)),
    Pin("certificates/routes", len(ROUTE_Z),
        "b277f1f711304f891a431703328c9a47c48b2142a8f965f35b210a3749c664e9",
        lines=lambda: _certificates(ROUTE_Z)),
    Pin("certificates/fallback-rows", len(FALLBACK_Z),
        "b4f23282ce370732dcceb93084050853657ac24fb853107ba6f4430b13a5366d",
        lines=lambda: _certificates(FALLBACK_Z)),
    Pin("scan-facts", len(SCAN_U),
        "daf1e27932caa3822a78b710348a3a390f8c33a3ef150cba251a5c42b33aa98b",
        lines=_scan_facts),
    # group_structure on every discriminant from -3 down to -40,000
    Pin("class-groups", 20_000,
        "8326e6ab123ee5cc711ed72de5d5170276ade8182218bff5426d37ad30d9ce19",
        lines=lambda: (_canonical(group_structure(D).to_json())
                       for D in _discriminants(-3, -40_000))),
    # class_number from -9,996,000 down to -10,000,000: there the band
    # 4a^2 > |D| and the prime list are full, and the non-fundamental D
    # list roots that can give imprimitive forms
    Pin("class-numbers", 2001,
        "2f738443a95cacdb39ca05f88a13c48e6fbcd9ba6403553c4a00e318b05cbb72",
        lines=lambda: (f"{D} {class_number(D)}"
                       for D in _discriminants(-9_996_000, -10_000_000))),
)}


def text(pin: Pin) -> str:
    """The text pin hashes: its lines, each ending in a newline."""
    if pin.lines is not None:
        return "".join(line + "\n" for line in pin.lines())
    with tempfile.TemporaryDirectory() as tmp:
        config = ()
        if pin.config is not None:
            config = ("--config", os.path.join(tmp, "fiverank.conf"))
            with open(config[1], "w", encoding="utf-8") as fh:
                fh.write(pin.config)
        return "".join(_stdout(config + argv, code) for argv, code in pin.calls)


def compare(pin: Pin, out: str) -> None:
    count, digest = out.count("\n"), hashlib.sha256(out.encode()).hexdigest()
    if (count, digest) != (pin.count, pin.sha256):
        raise ArithmeticError(f"{pin.name}: {count} lines with SHA-256 {digest}, "
                              f"not {pin.count} lines with {pin.sha256}")


def check(name: str) -> None:
    """Raise ArithmeticError unless the pin's lines reproduce its count
    and SHA-256."""
    compare(PINS[name], text(PINS[name]))


def run(names) -> int:
    """The script: check each named pin, or every pin, and print one line
    per pin; 1 if any differs, 2 on an unknown name."""
    unknown = [name for name in names if name not in PINS]
    if unknown:
        print(f"unknown pins {unknown}; the pins are {list(PINS)}", file=sys.stderr)
        return 2
    failed = 0
    for name in names or PINS:
        start = time.perf_counter()
        try:
            check(name)
        except ArithmeticError as exc:
            failed += 1
            print(f"FAIL {exc}", flush=True)
        else:
            print(f"ok   {name}: {PINS[name].count} lines, "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
