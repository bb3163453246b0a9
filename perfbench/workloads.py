"""The benchmark's workloads: seeded inputs, the timed operation, checks.

Each workload drives public functions of the package in-process and
times an operation the way the CLI runs it: the call plus the canonical
JSON line the CLI writes for its record.  Inputs come from the seed
alone and are derived from the paper's congruences, never from the
package's own generators, so a generator defect shows up as a failed
check instead of a changed input.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

from fiverank import classgroup, sieve, splitting
from fiverank.family import specialize

# The admissible class, straight from the paper's congruences:
# z = 0 mod 11*19*29, z = 1 mod 163*701*1277, z != +-86 mod 419.
ZERO_MOD = 11 * 19 * 29
ONE_MOD = 163 * 701 * 1277
CLASS_MOD = ZERO_MOD * ONE_MOD
CLASS_RESIDUE = ZERO_MOD * pow(ZERO_MOD, -1, ONE_MOD)
EXCLUDED_MOD_419 = (86, 419 - 86)


def is_admissible(z: int) -> bool:
    return (z % ZERO_MOD == 0 and z % ONE_MOD == 1
            and z % 419 not in EXCLUDED_MOD_419)


def class_member_at_or_above(target: int) -> int:
    """Least admissible z >= target."""
    z = target + (CLASS_RESIDUE - target) % CLASS_MOD
    while z % 419 in EXCLUDED_MOD_419:
        z += CLASS_MOD
    return z


def class_members_by_size(start: int, count: int) -> list[int]:
    """The first `count` admissible z with |z| >= start, in increasing |z|."""
    pos = start + (CLASS_RESIDUE - start) % CLASS_MOD
    neg = -start - (-start - CLASS_RESIDUE) % CLASS_MOD
    out = []
    while len(out) < count:
        if pos <= -neg:
            z, pos = pos, pos + CLASS_MOD
        else:
            z, neg = neg, neg - CLASS_MOD
        if z % 419 not in EXCLUDED_MOD_419:
            out.append(z)
    return out


def emit_line(record) -> str:
    """The line `fiverank` writes for a record (cli._emit)."""
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))


def _warm_specialization() -> None:
    specialize()
    sieve.sieve_data()


class Certify:
    name = "certify-1e1000"
    why = ("Certificates at |z| ~ 1e1000, 3 in 4 admissible and 1 in 4 arbitrary: "
           "big-integer x(z), radicand and mod-l factoring dominate, and the "
           "arbitrary share guards the non-admissible path.")
    unit = "certificate"
    probe = "integer"     # run.PROBES kernel that slows like this work
    prefix = 16           # records in the per-seed digest
    digits = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def warm(self) -> None:
        # A radicand at this size has about 12,000 digits, over CPython's
        # default 4,300-digit limit for int-to-str; the CLI runs under
        # PYTHONINTMAXSTRDIGITS=0 at this size, and this is the same.
        sys.set_int_max_str_digits(0)
        _warm_specialization()

    def rounds(self):
        """Blocks of four: three admissible z and one arbitrary z, shuffled."""
        rng = random.Random(self.seed)
        lo, hi = 10 ** self.digits, 10 ** (self.digits + 1)
        while True:
            block = []
            for kind in ("admissible", "admissible", "admissible", "arbitrary"):
                target = rng.choice((1, -1)) * rng.randrange(lo, hi)
                z = class_member_at_or_above(target) if kind == "admissible" else target
                block.append((kind, z))
            rng.shuffle(block)
            yield block

    def call(self, item):
        return splitting.verify_instance(item[1])

    def category(self, item, cert) -> str:
        return item[0]

    def check(self, item, cert) -> str | None:
        kind, z = item
        if cert.z != z:
            return f"certificate for {cert.z}, asked for {z}"
        if cert.conclusion != (not cert.failures):
            return "conclusion disagrees with the failure list"
        report = cert.sieve_report
        if report.verbatim_passed() != report.general_rule_passed():
            return "verbatim criterion and general rule disagree"
        if kind == "admissible":
            if not is_admissible(z):
                return "generator emitted a z outside the admissible class"
            if report.passed and not (cert.conclusion and cert.pattern is not None
                                      and cert.pattern.entries == splitting.EXPECTED_PATTERN):
                return "admissible z passed the sieve but was not certified"
        return None

    def sieve_reports(self, cert):
        return (cert.sieve_report,)


class Sieve:
    name = "sieve-1e12"
    why = ("Sieve reports from a seeded start in [1e12, 1e13): small-integer work in "
           "sieve and exact.valuation, with splitting and classgroup idle.")
    unit = "sieve report"
    probe = "fraction"
    prefix = 64
    batch = 50            # `fiverank sieve --start S --count 50 --sign both`

    def __init__(self, seed: int):
        self.seed = seed
        self._stream = None

    def warm(self) -> None:
        _warm_specialization()

    def rounds(self):
        """One batch per round: (S, k, expected z) for its k-th report."""
        rng = random.Random(self.seed)
        while True:
            start = rng.randrange(10 ** 12, 10 ** 13)
            yield [(start, k, z)
                   for k, z in enumerate(class_members_by_size(start, self.batch))]

    def call(self, item):
        start, k, _ = item
        if k == 0:
            self._stream = sieve.admissible_z(start=start, count=self.batch, sign="both")
        return sieve.check_z(next(self._stream))

    def category(self, item, report) -> str:
        return "report"

    def check(self, item, report) -> str | None:
        _, _, expected = item
        if not is_admissible(report.z):
            return f"admissible_z gave {report.z}, outside the admissible class"
        if report.z != expected:
            return f"admissible_z gave {report.z}, the class gives {expected}"
        if report.verbatim_passed() != report.general_rule_passed():
            return "verbatim criterion and general rule disagree"
        return None

    def sieve_reports(self, report):
        return (report,)


# oracle_scan's default parameters; only these two reach a verdict
FOCUS_U = (Fraction(2, 3), Fraction(-3, 2))
DEFAULT_U = [Fraction(a, b) for a, b in
             ((2, 3), (-3, 2), (-2, 3), (3, 2), (-1, 4), (1, 4),
              (4, 3), (-4, 3), (6, 7), (-6, 7))]
DEFAULT_U += [Fraction(v) for v in
              (4, -4, 6, -6, 9, -9, 11, -11, 14, -14, 16, -16, 19,
               21, -21, 24, -24, 26, -26, 29)]


def oracle_accepts(u: Fraction) -> bool:
    """small_instance_oracle's contract: u = +-1 mod 5 (else ValueError)."""
    return u.denominator % 5 != 0 and u.numerator * pow(u.denominator, -1, 5) % 5 in (1, 4)


OTHER_U = tuple(u for u in DEFAULT_U if u not in FOCUS_U and oracle_accepts(u))
X_GRID = tuple(Fraction(n, d) for n in range(-60, 61) for d in (1, 2, 3)
               if math.gcd(abs(n), d) == 1)


class Oracle:
    name = "oracle-scan"
    why = ("Single-curve oracle instances from oracle_scan's default grid, half on the "
           "two u that reach verdicts: form enumeration and composition dominate.")
    unit = "decided verdict"
    probe = "integer"
    prefix = 40

    def __init__(self, seed: int):
        self.seed = seed

    def warm(self) -> None:
        _warm_specialization()
        for u in FOCUS_U + OTHER_U:
            classgroup._single_curve_setup(u)

    def rounds(self):
        """Shuffled decks: the whole grid of both verdict-reaching u, plus as
        many draws on the other u.  Verdict costs spread over two orders of
        magnitude, so a deck holds every costly instance once and runs of
        different seeds do the same work in a different order."""
        rng = random.Random(self.seed)
        focus = [(u, x) for u in FOCUS_U for x in X_GRID]
        while True:
            deck = focus + [(rng.choice(OTHER_U), rng.choice(X_GRID)) for _ in focus]
            rng.shuffle(deck)
            yield deck

    def call(self, item):
        return classgroup.small_instance_oracle(*item)

    def category(self, item, outcome) -> str:
        if outcome.status != "skip":
            return "decided"
        if "over budget" in outcome.reason:
            return "skip.over_budget"
        if outcome.reason == "extension conditions not met":
            return "skip.extension"
        return "skip.other"

    def check(self, item, outcome) -> str | None:
        if (outcome.u, outcome.x) != item:
            return f"outcome for {(outcome.u, outcome.x)}, asked for {item}"
        if outcome.status not in ("pass", "fail", "skip"):
            return f"unknown status {outcome.status!r}"
        if outcome.status == "fail":
            return f"5 does not divide h(D) for D = {outcome.fundamental_d}"
        return None

    def sieve_reports(self, outcome):
        return ()


WORKLOADS = {w.name: w for w in (Certify, Sieve, Oracle)}
