"""Frobenius data for the three degree-5 extensions and the certificates.

For an admissible z, each test prime l in {163, 701, 1277} splits in
K = Q(sqrt(radicand)) as two conjugate primes.  Their behavior in the
degree-5 extension L_j = K(preimage abscissas of the j-th quotient
point) is read off from the factorization profile of the rational
preimage quintic mod l: all-linear means split, irreducible means inert.
The two primes above l share one verdict because their Frobenius
elements are conjugate in the Galois closure and conjugation preserves
order in the cyclic quotient; no arithmetic over K itself is ever
needed.  The certificate asserts the class-group consequence only when
the sieve conditions, the full splitting pattern and the independence
test all hold.

The verdict at l depends on z only through the image of the long-form
abscissa X = a/b (lowest terms) in P^1(F_l): the residue a/b mod l, or
infinity when l | b.  Write the x-map of the isogeny as N0/D0 with
jointly primitive integer polynomials, deg N0 = 5 and deg D0 = 4.  The
primitive integer form of the preimage quintic is +-(b N0 - a D0)/g
with g its content, so mod l it is a unit times (b N0 - a D0) whenever
l does not divide g.  That holds when l does not divide lc(N0) and D0 is
not 0 mod l: g divides the leading coefficient b lc(N0), and when l | b
the reduction is -a D0 with a a unit.  Under that precondition the
verdict on any abscissa, or the error with its message, equals the one
on a small representative of its class: the residue itself, or 1/l for
infinity.

One memo holds these verdicts for the certificates and for the
class-group oracle's witness search: _class_verdict, keyed by the
integers of the curve parameter u, the prime l and the point (None for
infinity), so that no lookup hashes a Fraction.  A miss checks the
precondition on the x-map of five_isogeny(u), whose integer form
_x_map_form finds once per u under the same integer key, then runs
frobenius_order_in_L on the representative's preimage quintic.  The
verdict is stored, and so is any FiverankError of that path, as its
class and message: class_verdict raises a fresh error of that class and
message on every lookup, so an erroring class is computed once too.  The
memo is bounded at 8192 keys, which holds every class of the three
curves here at the three test primes, 3 (164 + 702 + 1278) = 6,432; the
oracle's steady state needs about a hundred.

A certificate does integer arithmetic only on the long numbers of a
large z, and none of it divides one long number by another.  The sieve
report records no number but z: verify_instance takes x(z) = n/d, the
integer form H of the radicand and d^k from sieve.x_and_radicand_form,
held by check_z's report on the direct route and called on the class
route, and sieve.reduced_radicand gives the radicand as an integer pair
in lowest terms; both gcds are bounded by constants, so each is taken on
residues.  is_square refuses almost every non-square by residues, and
the record writes its digits by exact.decimal_string, which splits them
at cached powers of 10 by multiplying with cached reciprocals.

The splitting pattern reads no long number at all on an admissible z.
Row l of the pattern, the K verdict at l and the three L_j verdicts
there, depends on z only through r = z mod l when the class condition
holds at r: with x(z) = num(z)/den(z) by sieve.x_pair and f_int = s f
as in sieve.radicand_form, den(r) and f_int(num(r)/den(r)) are l-units,
and so are s and the numerator and denominator of each quotient model's
lead.  For then every z = r mod l has x(z) = n/d with d dividing den(z),
so d is an l-unit and n/d = xbar = num(r)/den(r) mod l; each entry reads
lead * xbar mod l; and H = d^k f_int(n/d) = d^k f_int(xbar) mod l, so the
radicand H / (s d^k) is an l-unit and its Legendre symbol is that of
s f_int(xbar).  _row computes a row on one x and its radicand, neither
needed in lowest terms, its entries up to the first error, the one
splitting_pattern raises; _class_row(l, r) runs it once per class on the
representative z = r, as _class_verdict decides an abscissa class on a
small representative, and stores its entries as _class_verdict does,
errors as class and message.  It returns None where the condition fails,
and splitting_pattern then runs _row on the z at hand.  That happens on
15 of the 163 + 701 + 1277 = 2,141 residues, never on an admissible z
(r = 1, where xbar is 67, 127 and 197): den vanishes at 0, 10 and 136
mod 163, at 0, 385 and 528 mod 701 and at 0, 43 and 467 mod 1277, and
f_int(xbar) at 43 and 120 mod 163 and at 73, 322, 357 and 480 mod 701.
The memo holds at most those 2,141 keys and fills as certificates meet
their classes, so the cold start does none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadReductionError,
    FieldCollapseError,
    FiverankError,
    InvalidCertificateError,
    PoleError,
    ProtocolViolationError,
    RamifiedPrimeError,
)
from .exact import (
    Ratio,
    int_valuation,
    integer_coefficients,
    is_probable_prime,
    is_square,
    jacobi,
    splitting_profile,
    valuation_and_residue,
)
from .family import CONSTANTS, five_isogeny, specialize
from .isogeny import IsogenyMap, preimage_quintic
from .sieve import (
    SieveReport,
    check_z,
    radicand_form,
    reduced_radicand,
    x_and_radicand_form,
    x_pair,
)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


def prime_split_in_K(l: int, radicand: Fraction | Ratio) -> str:
    """Behavior of l in Q(sqrt(radicand)): split, inert or ramified."""
    if l == 2 or not is_probable_prime(l):
        raise ValueError("only odd primes are supported")
    if radicand.numerator == 0:
        raise ValueError("zero radicand")
    # v_l and the unit part mod l of numerator and denominator, taken
    # apart instead of on their (possibly huge) product; neither needs
    # lowest terms
    v, unit = 0, 1
    for n in (radicand.numerator, radicand.denominator):
        e = int_valuation(n, l)
        if e:
            n //= l ** e
            v += e
        unit = unit * (n % l) % l
    if v % 2:
        return RAMIFIED
    return SPLIT if jacobi(unit, l) == 1 else INERT


def frobenius_order_in_L(ints: list[int], l: int) -> str:
    """Split/inert verdict for a prime (split in K) in the quintic field,
    from the quintic's primitive integer form ints (lowest degree first).

    Requires l unramified: l must not divide the discriminant or leading
    coefficient of ints.  Any profile other than five linears or one
    quintic contradicts a cyclic degree-5 Galois action and raises
    ProtocolViolationError.
    """
    if ints[-1] % l == 0:
        raise RamifiedPrimeError(f"leading coefficient vanishes mod {l}")
    # the integer form has a unit leading coefficient mod l, so the
    # profile's only refusal is a repeated factor mod l
    try:
        profile = splitting_profile(ints, l)
    except BadReductionError as exc:
        raise RamifiedPrimeError(f"{l} divides the quintic discriminant") from exc
    if profile == [1, 1, 1, 1, 1]:
        return SPLIT
    if profile == [5]:
        return INERT
    raise ProtocolViolationError(
        f"profile {profile} mod {l} is impossible for a cyclic quintic")


@dataclass(frozen=True)
class SplittingPattern:
    """3x3 matrix entry(i, j) = behavior of l_i in L_j, plus K-verdicts."""

    primes: tuple[int, int, int]
    entries: tuple[tuple[str, str, str], ...]    # entries[i][j]
    k_verdicts: tuple[str, str, str]

    def validate(self) -> None:
        if any(v != SPLIT for v in self.k_verdicts):
            raise InvalidCertificateError(
                f"not all primes split in K: {self.k_verdicts}")
        for j in range(3):
            if not any(self.entries[i][j] == INERT for i in range(3)):
                raise InvalidCertificateError(
                    f"no inert prime for extension {j + 1}")

    def to_json(self):
        return {
            "primes": [str(p) for p in self.primes],
            "k_split": list(self.k_verdicts),
            "matrix": [list(row) for row in self.entries],
        }


def independence_certificate(pattern: SplittingPattern) -> bool:
    """Whether the pattern forces three independent order-5 characters.

    For each extension j there must be a prime inert in L_j and split in
    both others: evaluating a vanishing linear combination of the three
    characters at the Frobenius of that prime kills the j-th coefficient.
    """
    pattern.validate()
    for j in range(3):
        witness = False
        for i in range(3):
            if (pattern.entries[i][j] == INERT
                    and all(pattern.entries[i][k] == SPLIT
                            for k in range(3) if k != j)):
                witness = True
                break
        if not witness:
            return False
    return True


# the pattern items (ii)-(iv) of the construction assert for admissible z
EXPECTED_PATTERN = (
    (SPLIT, INERT, SPLIT),
    (SPLIT, SPLIT, INERT),
    (INERT, SPLIT, SPLIT),
)


@dataclass(frozen=True)
class FieldCertificate:
    z: int
    radicand: Ratio                      # f(x(z)) in lowest terms
    sign: int
    sieve_report: SieveReport
    pattern: SplittingPattern | None
    independence: bool
    conclusion: bool                     # 5-rank of Cl(K) >= 3 certified
    failures: tuple[str, ...] = field(default=())

    def to_json(self):
        return {
            "record": "field-certificate",
            "schema": 1,
            "z": str(self.z),
            "radicand": str(self.radicand),
            "sign": self.sign,
            "sieve": self.sieve_report.to_json(),
            "pattern": None if self.pattern is None else self.pattern.to_json(),
            "independence": self.independence,
            "conclusion": self.conclusion,
            "failures": list(self.failures),
        }


@lru_cache(maxsize=64)
def _x_map_form(num: int, den: int) -> tuple[IsogenyMap, int, tuple[int, ...]]:
    """(five_isogeny(u), lc(N0), the coefficients of D0) for u = num/den,
    N0/D0 its x-map in jointly primitive integer polynomials: what the
    residue precondition reads of u, found once per u and keyed like
    _class_verdict."""
    phi = five_isogeny(Fraction(num, den))
    N0, D0 = integer_coefficients(phi.x_map.num, phi.x_map.den)
    content = math.gcd(*N0, *D0)
    return phi, N0[-1] // content, tuple(c // content for c in D0)


# every class of the three curves at the three test primes: 6,432 keys
@lru_cache(maxsize=8192)
def _class_verdict(num: int, den: int, l: int,
                   point: int | None) -> str | tuple[type, str]:
    """frobenius_order_in_L at l for every abscissa over `point` in
    P^1(F_l) on curve u = num/den, or the class and message of the
    FiverankError its path raises (see the module docstring).

    The precondition's BadReductionError names u and l; each error class
    of the path takes its message as its one argument.
    """
    phi, lead, D0 = _x_map_form(num, den)
    u = Fraction(num, den)
    try:
        if lead % l == 0:
            raise BadReductionError(
                f"{l} divides the leading coefficient of the x-map numerator of u = {u}")
        if all(c % l == 0 for c in D0):
            raise BadReductionError(f"the x-map denominator of u = {u} vanishes mod {l}")
        X = Fraction(1, l) if point is None else Fraction(point)
        return frobenius_order_in_L(preimage_quintic(phi, X).primitive_integer(), l)
    except FiverankError as exc:
        return type(exc), str(exc)


def class_verdict(u: Fraction, l: int, point: int | None) -> str:
    """The verdict of _class_verdict at (u, l, point), or a fresh error
    of the class and message it stored."""
    return _unstored(_class_verdict(u.numerator, u.denominator, l, point))


def _unstored(verdict: str | tuple[type, str]) -> str:
    """A stored verdict, or a fresh error of the class and message stored
    in its place."""
    if type(verdict) is str:
        return verdict
    error, message = verdict
    raise error(message)


def _row(l: int, x: Fraction | Ratio, radicand: Fraction | Ratio):
    """Row l of the pattern at x = x(z) and its radicand f(x): the K
    verdict, then the L_j entries as _class_verdict gives them, a verdict
    or the class and message of its error, up to the first error.

    Neither ratio needs lowest terms; each entry reads the long-form
    abscissa lead * x mod l off the integer pair.
    """
    k_verdict = prime_split_in_K(l, radicand)
    n, d = x.numerator, x.denominator
    sp = specialize()
    entries = []
    for u, model in zip(sp.u, sp.F_models):
        lead = model.lead
        point = valuation_and_residue(lead.numerator * n, lead.denominator * d, l)[1]
        entries.append(_class_verdict(u.numerator, u.denominator, l, point))
        if type(entries[-1]) is not str:
            break           # splitting_pattern raises it; no later entry is read
    return k_verdict, tuple(entries)


# keyed by (l, z mod l) at the three test primes: 163 + 701 + 1277 = 2,141 keys
@lru_cache(maxsize=None)
def _class_row(l: int, r: int):
    """_row at l for every integer z = r mod l, computed on the
    representative z = r, or None when the class condition fails there
    (see the module docstring)."""
    try:
        n, d = x_pair(r)
    except PoleError:           # den(r) = 0, as at r = 0
        return None
    H, dk, s = radicand_form(n, d)
    leads = [model.lead for model in specialize().F_models]
    units = (d, H, s, *(c for lead in leads for c in (lead.numerator, lead.denominator)))
    if any(c % l == 0 for c in units):
        return None
    return _row(l, Ratio(n, d), Ratio(H, s * dk))


def splitting_pattern(z: int, x: Fraction | Ratio,
                      radicand: Fraction | Ratio) -> SplittingPattern:
    """Compute the full 3x3 pattern for one z from x = x(z) and f(x).

    Both are read as numerator and denominator, the radicand in lowest
    terms.  Row l, the K verdict at l and the three L_j verdicts there,
    is read from _class_row(l, z mod l), a memo of at most 2,141 keys,
    whenever the class condition holds at z mod l: den(z) and f_int(x(z))
    are l-units, and so are s and the numerator and denominator of each
    quotient model's lead (see the module docstring).  It fails on 15
    residues and never on an admissible z; there _row computes the row
    on x and the radicand themselves.  The non-square test runs first,
    as its message names z; then the rows in order of l, the first error
    stored in their entries raised afresh.  A K verdict raises nothing
    once the radicand is a nonzero non-square, so no error comes out of
    the order of all three K verdicts, then the entries row by row.
    """
    primes = CONSTANTS["z_one_mod"]
    if is_square(radicand):
        raise FieldCollapseError(f"radicand at z={z} is a rational square")
    rows = []
    for l in primes:
        row = _class_row(l, z % l) or _row(l, x, radicand)
        for entry in row[1]:
            _unstored(entry)
        rows.append(row)
    return SplittingPattern(primes, tuple(entries for _, entries in rows),
                            tuple(k for k, _ in rows))


def verify_instance(z: int) -> FieldCertificate:
    """Assemble the complete certificate for one z.

    All sub-errors are folded into a failed certificate with reasons;
    the conclusion flag is set only when everything holds.
    """
    failures = []
    report = check_z(z)
    x, form, dk = report.evaluation or x_and_radicand_form(z)
    r = reduced_radicand(form, dk)
    if not report.passed:
        failures.append("sieve conditions failed")
    pattern = None
    independence = False
    try:
        pattern = splitting_pattern(z, x, r)
        independence = independence_certificate(pattern)
        if not independence:
            failures.append("splitting pattern does not force independence")
    except FiverankError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    conclusion = not failures
    return FieldCertificate(
        z=z, radicand=r, sign=report.radicand_sign, sieve_report=report,
        pattern=pattern, independence=independence,
        conclusion=conclusion, failures=tuple(failures))


def fields_distinct(r1: Fraction, r2: Fraction) -> bool:
    """Whether two radicands define distinct quadratic fields."""
    prod = Fraction(r1) * Fraction(r2)
    return not is_square(prod)
