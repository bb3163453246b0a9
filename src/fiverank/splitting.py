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
residues.  The long-form abscissa's residue mod l is read off the
unreduced pair (lead numerator * n, lead denominator * d); is_square
refuses almost every non-square by residues; the K verdicts read the
radicand's numerator and denominator apart; and the record writes its
digits by exact.decimal_string, which splits them at cached powers of
10 by multiplying with cached reciprocals.
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
from .sieve import SieveReport, check_z, reduced_radicand, x_and_radicand_form

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
    verdict = _class_verdict(u.numerator, u.denominator, l, point)
    if type(verdict) is str:
        return verdict
    error, message = verdict
    raise error(message)


def splitting_pattern(z: int, x: Fraction | Ratio,
                      radicand: Fraction | Ratio) -> SplittingPattern:
    """Compute the full 3x3 pattern for one z from x = x(z) and f(x).

    Both are read as numerator and denominator, the radicand in lowest
    terms.  The L_j verdicts come from the residue-class memo on the
    curves of the distinguished specialization; each reads the
    long-form abscissa lead * x mod l off the integer pair.
    """
    primes = CONSTANTS["z_one_mod"]
    if is_square(radicand):
        raise FieldCollapseError(f"radicand at z={z} is a rational square")
    k_verdicts = tuple(prime_split_in_K(l, radicand) for l in primes)
    n, d = x.numerator, x.denominator
    sp = specialize()
    curves = [(u, model.lead) for u, model in zip(sp.u, sp.F_models)]
    entries = tuple(
        tuple(class_verdict(u, l, valuation_and_residue(
                  lead.numerator * n, lead.denominator * d, l)[1])
              for u, lead in curves)
        for l in primes)
    return SplittingPattern(primes, entries, k_verdicts)


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
