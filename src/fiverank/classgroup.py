"""Imaginary quadratic class groups through binary quadratic forms.

Serves as the independent oracle of the package: on small fundamental
discriminants it recomputes the class number h, the square roots of D
mod 4a summed over the leading coefficients a of the reduced forms, by
byte counts over a table of omega(a) below sqrt|D|/2, struck where an a
can have no primitive form, and by listing them above, joined by CRT
along a plan of each a; those tables, the plans and the square-root
tables of the primes are one value that every D shares, built whole and
replaced whole when a count outgrows it.  It finds the 5-rank from the
5-Sylow subgroup that the reduced forms span under Gauss composition,
then checks the 5-divisibility that the single-curve construction
predicts; its irreducibility witness reads each split prime's verdict,
or the error it raises, from the splitting module's residue-class memo,
which the certificates share.  The facts of a curve parameter u (u =
+-1 mod 5, the curve setup and the integer coefficients of the quotient
cubic with their common scale s) are found once per u, and an
instance's radicand g_u(n/d) is H / (s d^3), H = d^3 s g_u(n/d) by one
integer Horner pass.  The setup builds no isogeny: the Velu 5-isogeny E -> F of a u is
built and certified once, as family.five_isogeny(u), on the first
witness lookup that reads it, so a u that reaches no verdict builds
none.  group_structure, behind `classgroup --disc`, takes the same
route for any D < 0: the counted h, then the span of each Sylow
subgroup, whose layer counts give the invariant factors.  A span walks
the bare reduced triples with a > 1 and b >= 0, raises no ambiguous form
to a power at an odd q, and its layers come from the q-th powers of the
generators that grew it, not of every class.  Everything is exact.  The
form engine uses only the exact-arithmetic substrate and works on bare
(a, b, c) triples, the identity included, each composed triple checked
as BinaryQuadraticForm checks a form, which reduce_form, compose and
form_pow validate at the public boundary.  Powers and spans compose no
triple with the identity; a coprime product and a square with gcd(a, b)
= 1 take one builtin inverse each, and any other square one extended-gcd
step.  The oracle that feeds it builds its instances from the family,
isogeny, sieve, splitting and curve modules.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import (
    BadReductionError,
    FiverankError,
    IdentityCheckError,
    OutOfBudgetError,
    RamifiedPrimeError,
)
from .exact import (
    factor_completely,
    homogeneous_value,
    integer_coefficients,
    is_probable_prime,
    rational_mod,
    squarefree_part,
    valuation_and_residue,
)
from .family import (
    five_division_kernel,  # noqa: F401  (the traced benchmark wraps this binding)
    five_isogeny,
    kubert_curve,
    quotient_cubic,
)
from .isogeny import preimage_quintic
from .sieve import reduction_data_for_model, singular_avoidance_passes
from .splitting import INERT, SPLIT, class_verdict, frobenius_order_in_L, prime_split_in_K

DEFAULT_DISC_BOUND = 10**7
# trial-division bound for the oracle radicand's squarefree part
RADICAND_TRIAL_BOUND = 10**6
# a count within the default budget reaches the primes up to this bound,
# and reads square roots modulo each odd one from a table (_square_roots)
ROOT_TABLE_BOUND = math.isqrt(DEFAULT_DISC_BOUND // 3)
# class_number's byte marks (r(a) = 0; a listed) and the translations that write them
_STRUCK, _LISTED = 255, 254
_DROP_ONE = bytes(1) + bytes(range(_LISTED - 1)) + bytes([_LISTED, _STRUCK])
_TO_LISTED = bytes([_LISTED]) * _STRUCK + bytes([_STRUCK])
_IS_LISTED, _UNSTRUCK = bytes(_LISTED) + b"\1\0", b"\1" * _STRUCK + b"\0"


class _CountTables(NamedTuple):
    """What class_number shares between discriminants, for 0 <= k < N =
    len(spf): spf[k], the smallest prime factor of k; the primes below N;
    rest[k], k with the powers of spf[k] divided out; omega[k], the
    number of distinct primes of k; roots, p -> p's root table
    (_square_roots), None at p = 2, for each prime p <= ROOT_TABLE_BOUND
    in order; plans[a], the CRT plan (_crt_plan) of each 0 < a <=
    ROOT_TABLE_BOUND; and struck, a row of N STRUCK bytes."""
    spf: list[int]
    primes: list[int]
    rest: list[int]
    omega: bytearray
    roots: dict[int, array | None]
    plans: list[tuple | None]
    struck: memoryview


_tables: _CountTables | None = None     # built by the first count (_count_tables)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant() >= 0:
            raise ValueError("form must have negative discriminant")
        if self.a <= 0:
            raise ValueError("form must be positive definite")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise ValueError("form must be primitive")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def inverse(self) -> "BinaryQuadraticForm":
        return reduce_form(BinaryQuadraticForm(self.a, -self.b, self.c))


def identity_form(D: int) -> BinaryQuadraticForm:
    _check_discriminant(D)
    return BinaryQuadraticForm(*_identity(D))


def _identity(D: int) -> tuple[int, int, int]:
    """The principal form of D as a bare triple."""
    return 1, D % 2, (D % 2 - D) // 4


def _check_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")


def reduce_form(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The unique reduced representative of the class of f."""
    return BinaryQuadraticForm(*_reduce(f.a, f.b, f.c))


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
            continue
        if b < 0 and (b == -a or a == c):
            b = -b
            continue
        return a, b, c


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition, returned reduced."""
    D = f.discriminant()
    if g.discriminant() != D:
        raise ValueError("forms have different discriminants")
    return BinaryQuadraticForm(*_compose((f.a, f.b, f.c), (g.a, g.b, g.c), D))


def _compose(f: tuple, g: tuple, D: int) -> tuple[int, int, int]:
    """compose on triples of discriminant D, checking the product inline.

    At coprime a1, a2 (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 5.4.7 with d = 1) the product has a3 = a1 a2 and
    the b3 mod 2 a3 with b3 = b1 (mod 2 a1) and b3 = b2 (mod 2 a2), by
    one builtin inverse of a1 mod a2.  A square f = g has d = gcd(a, b),
    since gcd(a, a) = a: with d = 1, a3 = a^2 and b3 = b + 2ak with b3^2
    = D (mod 4a^2), that is c + bk = 0 (mod a): k = -c b^-1 mod a, one
    builtin inverse; with d > 1, one extended-gcd step u a + v b = d
    gives a3 = (a/d)^2 and b3 = (u a b + v (b^2 + D)/2) / d.  Otherwise
    d = gcd(a1, a2, (b1 + b2)/2) comes from two extended-gcd steps.  c3 =
    (b3^2 - D) / 4 a3 must be exact before the product is reduced, since
    a wrong b3 would make a triple of another, possibly positive,
    discriminant, on which the reduction need not end; the reduced
    product is then checked as BinaryQuadraticForm checks a form."""
    (a1, b1, c1), (a2, b2, c2) = f, g
    if a1 == 1:
        a, b, c = _reduce(*g)
    elif a2 == 1:
        a, b, c = _reduce(*f)
    else:
        if math.gcd(a1, a2) == 1:
            a3 = a1 * a2
            b3 = b1 + 2 * a1 * ((b2 - b1) // 2 * pow(a1, -1, a2) % a2)
        elif f != g:
            s = (b1 + b2) // 2
            d1, u1, v1 = _xgcd(a1, a2)
            d, u2, v2 = _xgcd(d1, s)
            a3 = (a1 * a2) // (d * d)
            b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
        elif math.gcd(a1, b1) == 1:
            a3 = a1 * a1
            b3 = b1 - 2 * a1 * (c1 * pow(b1, -1, a1) % a1)
        else:
            d, u, v = _xgcd(a1, b1)
            a3 = (a1 // d) ** 2
            b3 = (u * a1 * b1 + v * (b1 * b1 + D) // 2) // d
        b3 %= 2 * a3
        c3, r = divmod(b3 * b3 - D, 4 * a3)
        if r:
            raise ValueError(f"{(a3, b3)} has no integral c of discriminant {D}")
        a, b, c = _reduce(a3, b3, c3)
    if b * b - 4 * a * c != D or a <= 0 or math.gcd(a, b, c) != 1:
        raise ValueError(f"{(a, b, c)} is no primitive positive definite form of {D}")
    return a, b, c


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def form_pow(f: BinaryQuadraticForm, n: int) -> BinaryQuadraticForm:
    D = f.discriminant()
    if n < 0:
        f, n = f.inverse(), -n
    f = reduce_form(f)
    return BinaryQuadraticForm(*_pow((f.a, f.b, f.c), n, D, _identity(D)))


def _pow(f: tuple, n: int, D: int, ident: tuple) -> tuple[int, int, int]:
    """f^n, n >= 0, by binary powering from f itself; ident is the
    identity triple of D, returned when f^n is the identity.  No
    composition takes the identity (the one reduced form with a = 1): a
    product that reaches it starts the result afresh at the next factor,
    and once a square reaches it, so has every later one."""
    out = None
    while n and f[0] > 1:
        if n & 1:
            out = f if out is None else _compose(out, f, D)
            if out[0] == 1:
                out = None
        n >>= 1
        if n:
            f = _compose(f, f, D)
    return ident if out is None else out


def enumerate_reduced(D: int) -> Iterator[BinaryQuadraticForm]:
    """The reduced primitive positive definite forms of discriminant D, in
    increasing a and then b, each built only when the caller takes it, so
    a caller that stops early pays only for the a it has reached."""
    _check_discriminant(D)
    return _reduced_forms(D)


def _reduced_forms(D: int) -> Iterator[BinaryQuadraticForm]:
    for a in range(1, math.isqrt(-D // 3) + 1):
        # b^2 = D (mod 4) needs b = D (mod 2)
        for b in range(-a + 2 - (a + D) % 2, a + 1, 2):
            c, r = divmod(b * b - D, 4 * a)
            if r or c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                yield BinaryQuadraticForm(a, b, c)


def _reduced_triples(D: int) -> Iterator[tuple[int, int, int]]:
    """The reduced forms of D with a > 1 and b >= 0, as bare triples in
    the order of enumerate_reduced: all the classes but the principal
    one, each with or without its inverse (a, -b, c)."""
    for a in range(2, math.isqrt(-D // 3) + 1):
        for b in range(D & 1, a + 1, 2):
            c, r = divmod(b * b - D, 4 * a)
            if r or c < a:
                continue
            if math.gcd(a, b, c) == 1:
                yield a, b, c


def class_number(D: int) -> int:
    """Number of reduced forms of discriminant D, counted without the
    O(|D|) scan of enumerate_reduced, in O(sqrt|D|) steps up to
    logarithmic factors (Cohen, A Course in Computational Algebraic
    Number Theory, 5.3-5.4; Buell, Binary Quadratic Forms, ch. 4).

    The reduced forms are the primitive (a, b, c = (b^2 - D)/4a) with
    a <= amax = sqrt(|D|/3), b in (-a, a], b^2 = D (mod 4a), c >= a, and
    b >= 0 when a = c.  For a <= top = sqrt(|D|/4), c >= a, with c = a
    only at b = 0, which the tie admits, so a adds r(a) = #{b in (-a, a]
    : b^2 = D mod 4a}.  By CRT, r(a) is the product over p^k || a of the
    roots mod p^k at an odd p, and of half those mod 4 * 2^k at p = 2
    (b^2 mod 4a depends on b mod 2a only).  That local count is
      2 at every k for a split p: an odd p with (D/p) = 1 (Hensel), or
        p = 2 with D = 1 mod 8 (4 roots mod every 2^(k+2) >= 8);
      0 for an inert p: (D/p) = -1, or p = 2 with D = 5 mod 8;
      1 at k = 1 and 0 at k >= 2 for a ramified p: an odd p || D (p | b,
        so p^2 | b^2 - D fails), or 4 | D with D/4 = 2, 3 mod 4 (b = 2b'
        with b'^2 = D/4 has one root mod 2 and none mod 4).
    So r(a) = 2^s(a), s(a) the number of split primes of a, unless an
    inert p or the square of a ramified p divides a, and then r(a) = 0.
    A prime dividing a, b and c has p^2 | D = b^2 - 4ac with D/p^2 a
    discriminant: one of the remaining primes, odd p with p^2 | D and
    p = 2 with D/4 = 0, 1 mod 4.  Such a p with p || a leaves a no
    primitive form: p | D gives p | b, so p^2 | b^2 - D = 4ac and p | c
    (at p = 2, b = 2b' and ac = b'^2 - D/4 = 0 mod 4, since b'^2 and
    D/4 are both 0 or 1 mod 4 and of one parity).  So those a are
    struck, and only the multiples of p^2, and the band top < a <= amax,
    where c >= a needs b itself, go to _listed_count, which joins the
    roots of each along a's CRT plan, a fact of a alone.

    The count below the band reads one byte per a (_log_root_counts):
    s(a), STRUCK (255) where r(a) = 0, or LISTED (254).  Each entry
    starts as omega(a), the number of primes of a, at most log2(a) since
    2^omega(a) <= a: at most 8 below 10^7, and never a mark.  So the
    a <= top add sum_v 2^v times the number of entries v, exactly, one
    byte count for each v < bit_length(top).  A D that no prime divides
    to a square (every fundamental D) lists only the band.  Every table
    that depends on no D comes from one value, _count_tables(amax)."""
    _check_discriminant(D)
    amax = math.isqrt(-D // 3)
    top = math.isqrt(-D // 4)               # the largest a with 4a^2 <= |D|
    tables = _count_tables(amax)
    logs = _log_root_counts(D, amax, tables)
    low = logs[1:top + 1]
    count = sum(low.count(v) << v for v in range(top.bit_length()))
    listed = (list(itertools.compress(range(1, top + 1), low.translate(_IS_LISTED)))
              if _LISTED in low else [])
    listed += itertools.compress(range(top + 1, amax + 1), logs[top + 1:].translate(_UNSTRUCK))
    return count + _listed_count(D, listed, logs, tables)


def _count_tables(n: int) -> _CountTables:
    """class_number's shared tables (_CountTables), built whole on the
    first count to cover 0..max(n, ROOT_TABLE_BOUND), and built whole
    again, at least twice as large, when a count needs more: the global
    is only ever replaced, so its parts cannot fall out of step.  No root
    table or plan exists above the bound, so those never grow with a
    raised budget: the 280 odd primes' tables, 2p bytes each, take about
    0.47 MB in all."""
    global _tables
    if _tables is None or len(_tables.spf) <= n:
        spf = list(range(max(n, ROOT_TABLE_BOUND, 2 * len(_tables.spf) if _tables else 0) + 1))
        for p in range(2, math.isqrt(len(spf)) + 1):
            if spf[p] == p:
                for k in range(p * p, len(spf), p):
                    if spf[k] == k:
                        spf[k] = p
        rest, omega = [1] * len(spf), bytearray(len(spf))
        for k in range(2, len(spf)):
            m = k // spf[k]
            rest[k] = b = rest[m] if spf[m] == spf[k] else m
            omega[k] = omega[b] + 1
        primes = [p for p in range(2, len(spf)) if spf[p] == p]
        roots = {p: _square_roots(p) if p > 2 else None
                 for p in primes[:bisect.bisect_right(primes, ROOT_TABLE_BOUND)]}
        plans = [None] + [_crt_plan(a, spf, rest, roots) for a in range(1, ROOT_TABLE_BOUND + 1)]
        _tables = _CountTables(spf, primes, rest, omega, roots, plans,
                               memoryview(bytes([_STRUCK]) * len(spf)))
    return _tables


def _log_root_counts(D: int, amax: int, tables: _CountTables) -> bytearray:
    """Entry a <= amax is log2 r(a), STRUCK or LISTED, as class_number
    reads them: a copy of omega with, at each prime p <= amax, the
    multiples of an inert p (one entry when 2p > amax), of a ramified p^2
    and of every other p dividing D struck, one taken from the multiples
    of a ramified p, and the multiples of p^2 of those other p marked
    LISTED; a struck entry stays struck, so the order of the primes does
    not matter.  Up to ROOT_TABLE_BOUND, as far as any D within the
    default budget reaches, Euler's criterion is one read of p's root
    table; above it a builtin pow."""
    logs = tables.omega[:amax + 1]
    primes, struck = tables.primes, tables.struck
    half = amax // 2
    tabled = bisect.bisect_right(primes, min(amax, ROOT_TABLE_BOUND))
    above = primes[tabled:bisect.bisect_right(primes, amax)]
    for p, table in itertools.chain(itertools.islice(tables.roots.items(), tabled),
                                    zip(above, itertools.repeat(None))):
        n = D % p
        if n:                               # split or inert
            if table is not None:
                split = table[n]
            elif p == 2:
                split = D % 8 == 1
            else:
                split = pow(n, (p - 1) // 2, p) == 1
            if split:
                continue
            if p > half:
                logs[p] = _STRUCK
            else:
                logs[p::p] = struck[:amax // p]
        elif D // 4 % 4 > 1 if p == 2 else D % (p * p):    # ramified
            logs[p * p::p * p] = struck[:amax // (p * p)]
            logs[p::p] = logs[p::p].translate(_DROP_ONE)
        else:
            squares = logs[p * p::p * p].translate(_TO_LISTED)
            logs[p::p] = struck[:amax // p]
            logs[p * p::p * p] = squares
    return logs


def _listed_count(D: int, listed: list[int], logs: bytearray, tables: _CountTables) -> int:
    """The reduced forms with a leading coefficient in listed, each b
    tested: the roots mod 2a are joined by CRT, along a's plan
    (_crt_plan), from those mod 2^(k+1), for 2^k || a, and mod the odd
    prime powers of a, so each b in (-a, a] comes once.  At an odd prime
    p || a with p <= ROOT_TABLE_BOUND the roots are (r, p - r) from p's
    root table, or 0 when p | D; the roots mod a power of 2, mod p^k
    with k >= 2 and mod a larger p come from _prime_power_roots, one memo
    of them serving every a.  c >= a is b^2 >= 4a^2 + D, tested before c
    is built; primitivity is tested only where a prime p | a may divide
    the form (logs[a] is LISTED)."""
    roots = {}                              # p^k -> roots of x^2 = D mod p^k
    spf, rest, root_tables, plans = tables.spf, tables.rest, tables.roots, tables.plans
    count = 0
    for a in listed:
        two, steps = plans[a] if a <= ROOT_TABLE_BOUND else _crt_plan(a, spf, rest, root_tables)
        # b^2 mod 2 * two depends on b mod two only
        found = ([D & 1] if two == 2 else
                 [x for x in _prime_power_roots(D, 2, 2 * two, roots) if x < two])
        for p, q, mod, inv, table in steps:
            if table is None:
                local = _prime_power_roots(D, p, q, roots)
            else:
                n = D % p
                r = table[n]
                local = (r, p - r) if r else () if n else (0,)
            found = [x + mod * ((s - x) * inv % q) for x in found for s in local]
        bound = 4 * a * a + D
        imprimitive = logs[a] == _LISTED
        for b in found:
            if b > a:
                b -= 2 * a
            bb = b * b
            if bb < bound or (bb == bound and b < 0):
                continue
            if imprimitive and math.gcd(a, b, (bb - D) // (4 * a)) != 1:
                continue
            count += 1
    return count


def _crt_plan(a: int, spf: list[int], rest: list[int], roots: dict) -> tuple[int, tuple]:
    """How _listed_count joins the roots mod 2a, a fact of a alone: the
    modulus 2^(k+1) of the 2-part, 2^k || a, and for each odd prime power
    q = p^k || a in turn (p, q, the modulus m of the roots joined so far,
    m^-1 mod q, p's root table from roots when k = 1 and p has one, else
    None).  _count_tables keeps the plans of a <= ROOT_TABLE_BOUND; above
    it a plan is built on every call."""
    n = rest[a] if a % 2 == 0 else a
    mod = two = 2 * (a // n)
    steps = []
    while n > 1:
        p, m = spf[n], rest[n]
        q = n // m
        steps.append((p, q, mod, pow(mod, -1, q), roots.get(q)))
        mod *= q
        n = m
    return two, tuple(steps)


def _prime_power_roots(D: int, p: int, q: int, roots: dict) -> list[int]:
    """The roots of x^2 = D modulo the power q of the prime p, memoized in
    roots: a root r mod q/p lifts to the r + t*q/p, 0 <= t < p, that are
    roots mod q.  _sqrt_mod_prime runs only at an odd p that does not
    divide D."""
    if q not in roots:
        if q == p:
            n = D % p
            roots[q] = [n] if p == 2 or n == 0 else _sqrt_mod_prime(D, p)
        else:
            low = q // p
            roots[q] = [x for r in _prime_power_roots(D, p, low, roots)
                        for x in range(r, q, low) if (x * x - D) % q == 0]
    return roots[q]


def _square_roots(p: int) -> array:
    """The square roots modulo an odd prime p: entry n is the root r of
    r^2 = n (mod p) with 0 < r <= p/2 when n is a nonzero square, else 0."""
    table = array("H", bytes(2 * p))
    for r in range(1, (p + 1) // 2):
        table[r * r % p] = r
    return table


def _sqrt_mod_prime(D: int, p: int) -> list[int]:
    """The roots of x^2 = D mod an odd prime p that does not divide D: one
    read of p's root table up to ROOT_TABLE_BOUND, and above it
    Tonelli-Shanks after Euler's criterion with the builtin pow, which at
    p = 3 mod 4 (s = 1) is the one power r = n^((p+1)/4)."""
    n = D % p
    if p <= ROOT_TABLE_BOUND:
        r = _count_tables(p).roots[p][n]
        return [r, p - r] if r else []
    if pow(n, (p - 1) // 2, p) != 1:
        return []
    s, odd = 0, p - 1
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, odd, p), pow(n, odd, p), pow(n, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return [r, p - r]


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassGroupStructure:
    discriminant: int
    class_number: int
    invariant_factors: tuple[int, ...]     # d1 | d2 | ... | dk, all > 1

    def p_rank(self, p: int) -> int:
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def to_json(self):
        return {
            "discriminant": str(self.discriminant),
            "class_number": str(self.class_number),
            "invariant_factors": [str(d) for d in self.invariant_factors],
        }


def group_structure(D: int, disc_bound: int = DEFAULT_DISC_BOUND) -> ClassGroupStructure:
    """Invariant factors of the class group from its Sylow subgroups.

    h = class_number(D), and for each prime q | h sylow_layers gives the
    layer counts m_k(q) = #{cyclic q-factors of exponent >= k}; the i-th
    largest invariant factor is the product of q^#{k : m_k(q) > i}.  The
    spans may scan every reduced form, so the discriminant budget is
    enforced.
    """
    _check_discriminant(D)
    if -D > disc_bound:
        raise OutOfBudgetError(f"|{D}| exceeds enumeration bound {disc_bound}")
    h = class_number(D)
    layers = {q: sylow_layers(D, h, q) for q in factor_completely(h, 10**6)}
    rank = max((m[0] for m in layers.values()), default=0)
    factors = sorted(
        math.prod(q ** sum(1 for mk in m if mk > i) for q, m in layers.items())
        for i in range(rank))
    if math.prod(factors) != h:
        raise IdentityCheckError(
            f"invariant factors {factors} do not multiply to h = {h}")
    return ClassGroupStructure(D, h, tuple(factors))


def _int_log(n: int, q: int) -> int:
    k = 0
    while n > 1:
        if n % q:
            raise ArithmeticError("inconsistent torsion counts")
        n //= q
        k += 1
    return k


def sylow_layers(D: int, h: int, q: int) -> list[int]:
    """The layer counts m_k(q) = #{cyclic q-factors of exponent >= k} of
    the class group of D, given its class number h, from its q-Sylow
    subgroup alone: one count for each k up to the log of that subgroup's
    exponent, so m_1(q) is the q-rank and [] means q does not divide h.

    With h = q^e * m, f -> f^m maps the group onto its q-Sylow subgroup.
    Every class has a reduced form, so the images of the reduced forms
    span it, for any D; they are taken in increasing a until the span
    holds q^e classes, as the bare triples of _reduced_triples: every
    reduced form but the principal one and those with b < 0, whose
    inverses (a, -b, c) are listed too.  At an odd q the ambiguous forms
    (b = 0, b = a or a = c) are skipped as well: each is its own inverse,
    of order 2 when not principal, so its image in a subgroup of odd order
    is the identity when h is even, and when h is odd it is the form
    itself, which fails the order check without a power.  At q = 2 they
    are the 2-torsion and are taken.  An image already in the span has
    order dividing q^e, so only a new one needs the order check, and only
    a new one is kept as a generator.  g -> g^q is a homomorphism, so the
    subgroup of q-th powers of the span is the span of the generators'
    q-th powers: one power per generator, not per class.  The kernel of
    the k-th step has q^m_k(q) classes; a subgroup of exactly q classes is
    cyclic, so its one layer, 1, needs no power.  A form with f^h != 1, a
    span beyond q^e classes or reduced forms that never reach q^e mean h
    is wrong: IdentityCheckError.
    """
    _check_discriminant(D)
    if h < 1:
        raise ValueError(f"class number {h} is not positive")
    e, m = 0, h
    while m % q == 0:
        m //= q
        e += 1
    order = q ** e
    ident = _identity(D)
    span, gens = {ident}, []
    forms = _reduced_triples(D)
    while len(span) < order:
        f = next(forms, None)
        if f is None:
            raise IdentityCheckError(
                f"reduced forms of {D} span {len(span)} classes of order a "
                f"power of {q}, short of {q}^{e} for h = {h}")
        a, b, c = f
        if q > 2 and (b == 0 or b == a or a == c):
            if h % 2:
                raise IdentityCheckError(
                    f"{BinaryQuadraticForm(*f)} does not have order dividing h = {h}")
            continue
        g = _pow(f, m, D, ident)
        if g in span:
            continue
        if _pow(g, order, D, ident) != ident:
            raise IdentityCheckError(
                f"{BinaryQuadraticForm(*f)} does not have order dividing h = {h}")
        span = _grow(span, g, D)
        gens.append(g)
        if len(span) > order:
            raise IdentityCheckError(
                f"reduced forms of {D} span more than {q}^{e} classes for h = {h}")
    layers = []
    while len(span) > 1:
        if len(span) == q:                  # a group of prime order q is cyclic
            layers.append(1)
            break
        powers, kept = {ident}, []
        for g in gens:
            g = _pow(g, q, D, ident)
            if g not in powers:
                powers = _grow(powers, g, D)
                kept.append(g)
        layers.append(_int_log(len(span) // len(powers), q))
        span, gens = powers, kept
    if any(a < b for a, b in zip(layers, layers[1:])):
        raise ArithmeticError("torsion layer counts must be non-increasing")
    return layers


def _grow(span: set, g: tuple, D: int) -> set:
    """The subgroup that the finite subgroup span and g generate: the
    cosets g^i span, i = 0, 1, ..., up to the first power of g in span.
    Each step g^i is added as it is and composed only with the classes of
    span that are not the identity, so no composition takes the identity."""
    grown, step = set(span), g
    others = [s for s in span if s[0] > 1]
    while step not in span:
        grown.add(step)
        grown.update(_compose(step, s, D) for s in others)
        step = _compose(step, g, D)
    return grown


def fundamental_discriminant(s: int) -> int:
    """Fundamental discriminant of Q(sqrt(s)) for squarefree s."""
    return s if s % 4 == 1 else 4 * s


# ---------------------------------------------------------------------------
# the single-curve oracle
# ---------------------------------------------------------------------------

# the irreducibility witness is searched among the primes up to this bound
WITNESS_BOUND = 500

# oracle_scan's grid, every entry +-1 mod 5 as small_instance_oracle
# requires.  Parameters whose quotient model has unit leading coefficient
# at the five-component primes come first: their node-avoidance is a
# congruence, so small abscissas stay in the discriminant budget.
SCAN_U = tuple(
    [Fraction(a, b) for a, b in
     ((2, 3), (-3, 2), (-2, 3), (3, 2), (-1, 4), (1, 4))]
    + [Fraction(v) for v in
       (4, -4, 6, -6, 9, -9, 11, -11, 14, -14, 16, -16, 19,
        21, -21, 24, -24, 26, -26, 29)])
SCAN_X_RANGE = 60


@dataclass(frozen=True)
class OracleOutcome:
    status: str                  # "pass" | "fail" | "skip"
    reason: str
    u: Fraction
    x: Fraction
    radicand: Fraction | None = None
    fundamental_d: int | None = None
    class_number: int | None = None
    five_rank: int | None = None
    witness_prime: int | None = None

    def to_json(self):
        return {
            "record": "oracle-outcome",
            "schema": 1,
            "status": self.status,
            "reason": self.reason,
            "u": str(self.u),
            "x": str(self.x),
            "radicand": None if self.radicand is None else str(self.radicand),
            "fundamental_d": None if self.fundamental_d is None else str(self.fundamental_d),
            "class_number": None if self.class_number is None else str(self.class_number),
            "five_rank": self.five_rank,
            "witness_prime": self.witness_prime,
        }


@lru_cache(maxsize=64)
def _single_curve_setup(u: Fraction):
    """(F_model, reduction data of F) for the curve pair E -> F at u.

    The family curve E is built first, so a singular u raises
    DegenerateParameterError here.  The reduction data classifies every
    bad prime of F and raises UnsupportedReductionError on additive
    reduction.  No isogeny is built: only a verdict reads one, and it
    certifies it on that first read (_split_prime_verdict).
    """
    kubert_curve(u).curve()
    F_model = quotient_cubic(u)
    return F_model, reduction_data_for_model(F_model)


@lru_cache(maxsize=64)
def _oracle_curve(num: int, den: int):
    """(F_model, reduction data of F, g, s) for u = num/den: what
    small_instance_oracle reads of u, found once per u and keyed by the
    integers of u, so that no lookup hashes a Fraction.  g is the integer
    form s * F_model.poly of the radicand's cubic, s the least common
    denominator of its coefficients.  Raises ValueError unless u = +-1
    mod 5; lru_cache stores no error, so every call with such a u raises
    it again.
    """
    u = Fraction(num, den)
    if den % 5 == 0 or rational_mod(u, 5) not in (1, 4):
        raise ValueError("u must be +-1 mod 5 for a semistable pair")
    F_model, data = _single_curve_setup(u)
    g, = integer_coefficients(F_model.poly)
    return F_model, data, tuple(g), int(g[-1] / F_model.lead)


def _radicand(g: tuple[int, ...], scale: int, x: Fraction) -> Fraction:
    """g_u(x), for the integer form g = scale * g_u of _oracle_curve:
    H / (scale d^3) for x = n/d, with H = d^3 scale g_u(n/d) by integer
    Horner, so one gcd where CubicModel.rhs takes one per Fraction step."""
    H, d3 = homogeneous_value(g, x.numerator, x.denominator)
    return Fraction(H, scale * d3)


def small_instance_oracle(u, x, trial_bound: int = RADICAND_TRIAL_BOUND,
                          disc_bound: int = DEFAULT_DISC_BOUND) -> OracleOutcome:
    """Check 5 | h(K) for one single-curve instance.

    The instance is (u, x) with u = +-1 mod 5: the quotient-curve point
    with abscissa x over K = Q(sqrt(g_u(x))) lifts to the open subgroup
    scheme of the Neron model when it misses the node at every
    five-component prime, and then the preimage field is an unramified
    degree-5 abelian extension as soon as the quintic stays irreducible
    over K (certified through an auxiliary split prime with an
    irreducible profile).  Budget or factorization problems produce
    skips, never verdicts.

    The facts of u (the congruence, the curve setup, and the cubic's
    integer form g = s g_u with its scale s) come from _oracle_curve,
    once per u.  The radicand g_u(n/d) is H / (s d^3), with H = d^3 s
    g_u(n/d) by integer Horner on g (_radicand): the value that
    F_model.rhs(x) gives.
    """
    if type(u) is not Fraction:
        u = Fraction(u)
    if type(x) is not Fraction:
        x = Fraction(x)
    F_model, data, g, scale = _oracle_curve(u.numerator, u.denominator)
    if not singular_avoidance_passes(data, x):
        return OracleOutcome("skip", "extension conditions not met", u, x)
    r = _radicand(g, scale, x)
    if r.numerator == 0:
        return OracleOutcome("skip", "point is 2-torsion", u, x, r)
    if r.numerator > 0:
        return OracleOutcome("skip", "real field (outside oracle scope)", u, x, r)
    s, complete = squarefree_part(r.numerator * r.denominator, trial_bound)
    if not complete:
        return OracleOutcome("skip", "radicand not factored within bound", u, x, r)
    D = fundamental_discriminant(s)
    if -D > disc_bound:
        return OracleOutcome("skip", f"|D| = {-D} over budget", u, x, r, D)
    witness = _irreducibility_witness(u, F_model.to_long_x(x), r)
    if witness is None:
        return OracleOutcome("skip", "no quintic irreducibility witness", u, x, r, D)
    h = class_number(D)
    if h % 5:
        return OracleOutcome("fail", "5 does not divide the class number", u, x,
                             r, D, h, 0, witness)
    return OracleOutcome("pass", "5 divides the class number", u, x, r, D,
                         h, sylow_layers(D, h, 5)[0], witness)


def _irreducibility_witness(u: Fraction, X: Fraction, radicand) -> int | None:
    """A prime l <= WITNESS_BOUND split in K where the preimage quintic of
    the long-form abscissa X on curve u is irreducible mod l.

    Ramified primes are passed over.  Any other profile at a split prime
    contradicts the cyclic preimage extension, so the
    ProtocolViolationError reaches the caller.  The verdict at l depends
    on X only through its image in P^1(F_l), so it is read from the
    splitting module's residue-class memo (splitting.class_verdict);
    only where curve u fails that argument's precondition at l does the
    instance's own quintic decide.
    """
    for l in range(3, WITNESS_BOUND + 1, 2):
        if is_probable_prime(l):
            try:
                if prime_split_in_K(l, radicand) == SPLIT:
                    if _split_prime_verdict(u, X, l) == INERT:
                        return l
            except RamifiedPrimeError:
                pass
    return None


def _split_prime_verdict(u: Fraction, X: Fraction, l: int) -> str:
    """frobenius_order_in_L at l on the preimage quintic of X on curve u.

    Every verdict reads the one certified isogeny E -> F of u,
    family.five_isogeny(u): class_verdict's first miss on u builds it,
    and the precondition fallback reads it from that memo.  That is also
    where E is found semistable: F is, since its reduction data built in
    the curve setup, isogenous curves have the same conductor, and a
    curve is semistable exactly when its conductor is squarefree.
    """
    try:
        return class_verdict(u, l, valuation_and_residue(X.numerator, X.denominator, l)[1])
    except BadReductionError:       # only the residue precondition raises it
        return frobenius_order_in_L(preimage_quintic(five_isogeny(u), X).primitive_integer(), l)


def oracle_scan(count: int, trial_bound: int = RADICAND_TRIAL_BOUND,
                disc_bound: int = DEFAULT_DISC_BOUND):
    """Yield oracle outcomes until `count` non-skip verdicts accumulate.

    Deterministic scan over SCAN_U and the abscissas num/den with
    |num| <= SCAN_X_RANGE, den in (1, 2, 3); skips are yielded too so
    callers can report them, but only pass/fail counts toward the target.
    A count <= 0 yields nothing.
    """
    if count <= 0:
        return
    decided = 0
    for u in SCAN_U:
        try:
            _single_curve_setup(u)
        except FiverankError:           # singular or unsupported curve pair
            continue
        for num in range(-SCAN_X_RANGE, SCAN_X_RANGE + 1):
            for den in (1, 2, 3):
                if math.gcd(abs(num), den) != 1:
                    continue
                outcome = small_instance_oracle(
                    u, Fraction(num, den), trial_bound=trial_bound,
                    disc_bound=disc_bound)
                yield outcome
                if outcome.status != "skip":
                    decided += 1
                    if decided >= count:
                        return
