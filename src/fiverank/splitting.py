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
the reduction is -a D0 with a a unit.  Under that precondition
(check_residue_precondition), checked once per isogeny and prime, the
verdict on any abscissa, or the error with its message, equals the one
on a small representative of its class (class_representative: the
residue itself, or 1/l for infinity).  So each of the at most l + 1
verdicts per isogeny and prime is computed once and reused: for every z
on the three curves here, and for every abscissa of one curve in the
class-group oracle's witness search.

A certificate does integer arithmetic only on the long numbers of a
large z, and none of it divides one long number by another.  The sieve
report holds no number but z: verify_instance takes x(z) = n/d, the
integer form H of the radicand and d^k from sieve.x_and_radicand_form,
and sieve.reduced_radicand gives the radicand as an integer pair in
lowest terms; both gcds are bounded by constants, so each is taken on
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
from .family import CONSTANTS, specialize
from .isogeny import preimage_quintic
from .sieve import (SieveReport, _direct_report, _direct_route, check_z, reduced_radicand,
                    x_and_radicand_form)

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


def check_residue_precondition(x_map, l: int, name: str) -> None:
    """Refuse l unless the verdicts at l of the isogeny with this x-map
    are a function of the abscissa's image in P^1(F_l).

    See the module docstring: the x-map N0/D0 must keep degree 5 mod l
    (l does not divide lc(N0)) and D0 must not vanish mod l.  `name`
    names the isogeny in the BadReductionError.
    """
    num, den = integer_coefficients(x_map.num, x_map.den)
    content = math.gcd(*num, *den)
    if num[-1] // content % l == 0:
        raise BadReductionError(
            f"{l} divides the leading coefficient of the x-map numerator of {name}")
    if all(c // content % l == 0 for c in den):
        raise BadReductionError(f"the x-map denominator of {name} vanishes mod {l}")


def class_representative(point: int | None, l: int) -> Fraction:
    """The small abscissa whose verdict at l stands for its class
    `point` in P^1(F_l) (None is infinity): the residue, or 1/l."""
    return Fraction(1, l) if point is None else Fraction(point)


@lru_cache(maxsize=None)
def _check_residue_precondition(j: int, l: int) -> None:
    """check_residue_precondition for curve j of the specialization."""
    check_residue_precondition(specialize().isogenies[j].x_map, l, f"curve {j + 1}")


@lru_cache(maxsize=None)
def _frobenius_verdict(j: int, l: int, point: int | None) -> str:
    """frobenius_order_in_L for every abscissa of curve j over `point`.

    `point` is the image of the long-form abscissa in P^1(F_l) (None is
    infinity); the verdict is computed once, on its class_representative.
    Errors are not cached.
    """
    _check_residue_precondition(j, l)
    quintic = preimage_quintic(specialize().isogenies[j], class_representative(point, l))
    return frobenius_order_in_L(quintic.primitive_integer(), l)


def splitting_pattern(z: int, x: Fraction | Ratio,
                      radicand: Fraction | Ratio) -> SplittingPattern:
    """Compute the full 3x3 pattern for one z from x = x(z) and f(x).

    Both are read as numerator and denominator, the radicand in lowest
    terms.  The L_j verdicts come from the isogenies of the
    distinguished specialization, cached per residue class; each reads
    the long-form abscissa lead * x mod l off the integer pair.
    """
    primes = CONSTANTS["z_one_mod"]
    if is_square(radicand):
        raise FieldCollapseError(f"radicand at z={z} is a rational square")
    k_verdicts = tuple(prime_split_in_K(l, radicand) for l in primes)
    n, d = x.numerator, x.denominator
    leads = [model.lead for model in specialize().F_models]
    entries = tuple(
        tuple(_frobenius_verdict(j, l, valuation_and_residue(
                  lead.numerator * n, lead.denominator * d, l)[1])
              for j, lead in enumerate(leads))
        for l in primes)
    return SplittingPattern(primes, entries, k_verdicts)


def verify_instance(z: int) -> FieldCertificate:
    """Assemble the complete certificate for one z.

    All sub-errors are folded into a failed certificate with reasons;
    the conclusion flag is set only when everything holds.
    """
    failures = []
    x, form, dk = x_and_radicand_form(z)
    report = _direct_report(z, x, form) if _direct_route(z) else check_z(z)
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
