"""Exact arithmetic substrate: rationals, polynomials, rational functions,
p-adic residues, and the modular toolkit used by the rest of the package.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Polynomials store their coefficients lowest degree first;
the zero polynomial has an empty coefficient tuple.  Coefficients may be
``Fraction`` or any field-like object with the usual operators
(``RatFunc`` instances are used as coefficients when working over Q(u)).

Polynomials over Q multiply and divide on one integer scale: each operand
becomes integer numerators over its least common denominator, the product
is an integer convolution, division is integer pseudo-division, and each
output coefficient becomes one Fraction.  ``%``, ``//`` and ``divides``
go through the same division.  Only polynomials with a coefficient that
is not a Fraction (over Q(u), ``RatFunc``) take the generic
coefficient-by-coefficient loops.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BadReductionError,
    FactorizationIncompleteError,
    PoleError,
)

INF = math.inf


# ---------------------------------------------------------------------------
# primality / factoring helpers (trial division only, per the module scope)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with these bases is deterministic below 3.317e24.
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, cached: the package asks again and
    again about the same few primes.

    Deterministic for n < 3.317e24; above that, 64 fixed extra bases are
    used, which is overwhelming for the sizes this package ever meets.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = list(_SMALL_PRIMES)
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(0xF1BE5)
        bases += [rng.randrange(2, n - 1) for _ in range(64)]
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the odd primes >= 5 up to _prime_limit, in order, grown on demand, and
# the product of each run of _BLOCK of them (the last run may be short)
_primes = array("I")
_prime_limit = 4
_BLOCK = 64
_block_products: list[int] = []


def _grow_primes(hi: int) -> None:
    """Raise _prime_limit to hi <= 2 * _prime_limit, sieving the new
    segment by the primes up to its square root, all of which the table
    (or 3) already holds."""
    global _prime_limit
    lo = _prime_limit + 1 | 1
    size = (hi - lo) // 2 + 1               # the odd numbers lo, lo + 2, ..., <= hi
    sieve = bytearray([1]) * size
    for p in itertools.chain((3,), _primes):
        if p * p > hi:
            break
        first = max(p * p, -(-lo // p) * p)
        if first % 2 == 0:
            first += p
        start = (first - lo) // 2
        sieve[start::p] = bytes(len(range(start, size, p)))
    _primes.extend(itertools.compress(range(lo, hi + 1, 2), sieve))
    _prime_limit = hi
    del _block_products[len(_block_products) - 1:]     # the last run may have been short
    for i in range(len(_block_products) * _BLOCK, len(_primes), _BLOCK):
        _block_products.append(math.prod(_primes[i:i + _BLOCK]))


def _divide_table_primes(n: int, bound: int, factors: dict[int, int], cube: bool) -> int:
    """Divide out of n every table prime p <= bound with p^2 <= n, n the
    cofactor left at p, counting them in factors; returns the cofactor.
    With cube, a cofactor n <= bound^2 is divided only by the p with p^3
    <= n."""
    top = _trial_top(n, bound, cube)
    i = 0
    while True:
        if i == len(_primes):
            # every prime up to _prime_limit is tried; the next one exceeds it
            if _prime_limit >= top:
                return n
            _grow_primes(min(2 * _prime_limit, bound))
            continue
        p = _primes[i]
        if p > top:
            return n
        block, offset = divmod(i, _BLOCK)
        run = _primes[i:(block + 1) * _BLOCK]
        # the rest of a run begun before the table grew is tried prime by prime
        g = n if offset else math.gcd(n, _block_products[block])
        if g != 1:
            for p in run:
                if p > top:
                    return n
                if g % p == 0:
                    while n % p == 0:
                        factors[p] = factors.get(p, 0) + 1
                        n //= p
                    top = _trial_top(n, bound, cube)
        i += len(run)


def _trial_top(n: int, bound: int, cube: bool) -> int:
    """The largest prime that trial division of the cofactor n tries: up
    to the bound and the square root of n, or, with cube and n <= bound^2,
    up to the cube root of n."""
    if cube and n <= bound * bound:
        return integer_nth_root(n, 3)
    return min(bound, math.isqrt(n))


def _primes_up_to(m: int):
    """The primes <= m in increasing order, read from the table."""
    while _prime_limit < m:
        _grow_primes(min(2 * _prime_limit, m))
    return itertools.takewhile(m.__ge__, itertools.chain((2, 3), _primes))


def trial_factor(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Factor |n| by trial division up to ``bound``.

    Returns (factors, cofactor) where cofactor collects whatever is left;
    a cofactor of 1 means the factorization is complete.  A prime cofactor
    (Miller-Rabin) is folded into the factor dict.

    After 2 and 3, the candidates are the table of odd primes >= 5, taken
    in runs of _BLOCK: one gcd of n with a run's product passes over the
    whole run when it is 1 (Bernstein, How to find small factors of
    integers, 2002), and only a run that shares a factor with n is tried
    prime by prime.  Either way the primes tried are those p <= bound
    with p^2 <= n for the cofactor n left at p, as by plain trial
    division.  The table grows only when the loop has used up every
    prime in it and the next one could still be needed, and then its
    limit doubles, capped at the bound: so it never holds a prime beyond
    the largest bound asked for, nor beyond twice the largest prime a
    call has needed.
    """
    factors, n = _small_factors(n, bound, False)
    if n > 1:
        if n <= bound * bound or is_probable_prime(n):
            # any remaining n <= bound^2 with no divisor <= bound is prime
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n


def _small_factors(n: int, bound: int, cube: bool) -> tuple[dict[int, int], int]:
    """(factors, cofactor) of |n| by trial division: 2 and 3, then the
    table primes as _divide_table_primes takes them."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors, _divide_table_primes(n, bound, factors, cube)


def factor_completely(n: int, bound: int) -> dict[int, int]:
    factors, cofactor = trial_factor(n, bound)
    if cofactor != 1:
        raise FactorizationIncompleteError(
            f"unfactored cofactor {cofactor} beyond trial bound {bound}")
    return factors


# squares modulo 64, 63, 65 and 11; one reduction mod their product feeds
# all four tables (Cohen, A Course in Computational Algebraic Number
# Theory, Algorithm 1.7.3)
_SQUARE_MODULUS = 64 * 63 * 65 * 11
_SQUARE_TABLES = tuple((m, frozenset(i * i % m for i in range(m)))
                       for m in (64, 63, 65, 11))


def _square_residues(n: int) -> bool:
    """Whether n >= 0 is a square modulo each of 64, 63, 65 and 11."""
    r = n % _SQUARE_MODULUS
    return all(r % m in squares for m, squares in _SQUARE_TABLES)


def is_square(q) -> bool:
    """True when the rational (or integer) q is a perfect square.

    A Ratio is taken as given: in lowest terms, positive denominator.
    A residue outside a table of squares proves a non-square, so the
    exact square roots are taken only when both numerator and
    denominator pass; fewer than 1 in 100 non-squares get that far.
    """
    if not isinstance(q, Ratio):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    if n < 0 or not (_square_residues(n) and _square_residues(d)):
        return False
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def rational_sqrt(q) -> Fraction:
    q = Fraction(q)
    if not is_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def integer_nth_root(n: int, e: int) -> int:
    """Floor of the e-th root of a nonnegative integer: below 2^52, where
    a float holds n exactly, the float root is within one of it; above,
    Newton on big ints.  Either way it is then corrected to the floor."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or e == 1:
        return n
    if n < 1 << 52:
        r = int(n ** (1 / e))
    else:
        r = 1 << ((n.bit_length() + e - 1) // e)
        while True:
            nr = ((e - 1) * r + n // r ** (e - 1)) // e
            if nr >= r:
                break
            r = nr
    while r ** e > n:
        r -= 1
    while (r + 1) ** e <= n:
        r += 1
    return r


def squarefree_part(n: int, trial_bound: int = 10**6) -> tuple[int, bool]:
    """Squarefree kernel of n by trial division.

    Returns (s, complete).  When complete, s is squarefree, sign(s) =
    sign(n) and n/s is a perfect square.  Otherwise s is the best-effort
    kernel (all square factors detectable below the bound removed) and the
    flag reports the failure honestly.

    Once the cofactor m left by trial division is at most trial_bound^2,
    division stops at the cube root of m: an m with no prime factor up to
    its cube root has at most two, so it is 1, p, p^2 or pq, and one
    isqrt tells p^2 (kernel 1) from p and pq (kernel m), which division
    up to sqrt(m) would have split.  A cofactor above trial_bound^2 is
    divided up to the bound and its square root, as by trial_factor.
    """
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    factors, cofactor = _small_factors(n, trial_bound, True)
    s = -1 if n < 0 else 1
    for p, e in factors.items():
        if e % 2:
            s *= p
    if cofactor <= trial_bound * trial_bound:
        # 1, p, p^2 or pq
        root = math.isqrt(cofactor)
        return (s if root * root == cofactor else s * cofactor), True
    if is_probable_prime(cofactor):
        return s * cofactor, True
    # The cofactor's prime factors all exceed the bound; a perfect power is
    # still recognizable without factoring it.  Its least exponent is
    # prime, since r^(ab) = (r^a)^b, so only prime e are tried.
    for e in _primes_up_to(cofactor.bit_length()):
        root = integer_nth_root(cofactor, e)
        if root ** e == cofactor:
            if e % 2 == 0:
                return s, True
            sub, complete = squarefree_part(root, trial_bound)
            return s * sub, complete
    return s * cofactor, False


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n.

    The plain-integer core of every valuation in the package; p >= 2 is
    the caller's to guarantee (it is not tested for primality here).
    """
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(r, p: int):
    """p-adic valuation of a rational; +inf for zero.

    Raises ValueError when p is not prime.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    r = Fraction(r)
    if r == 0:
        return INF
    return int_valuation(r.numerator, p) - int_valuation(r.denominator, p)


def valuation_and_residue(n: int, d: int, p: int):
    """v_p(n/d) (+inf for n = 0) and, when it is >= 0, n/d mod p (else None).

    n/d need not be in lowest terms: v_p(n) - v_p(d) is exact either way,
    and dividing p^v_p(d) out of both leaves a denominator prime to p.
    The residue is the image of n/d in P^1(F_p), None standing for
    infinity.
    """
    if n == 0:
        return INF, 0
    vd = int_valuation(d, p)
    v = int_valuation(n, p) - vd
    if v < 0:
        return v, None
    if vd:
        q = p ** vd
        n, d = n // q, d // q
    return v, n % p * pow(d, -1, p) % p


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def rational_mod(q, m: int) -> int:
    """Residue of a rational mod m; requires the denominator invertible."""
    q = Fraction(q)
    if math.gcd(q.denominator, m) != 1:
        raise BadReductionError(f"denominator of {q} not invertible mod {m}")
    return q.numerator * pow(q.denominator, -1, m) % m


class Ratio(NamedTuple):
    """The rational numerator/denominator as a bare integer pair.

    The maker vouches for lowest terms and a positive denominator,
    usually by a gcd bounded in advance, so long integers never pay for
    the gcd a Fraction takes.  str() gives Fraction's text, its digits
    by decimal_string.
    """

    numerator: int
    denominator: int

    def __str__(self):
        n = decimal_string(self.numerator)
        return n if self.denominator == 1 else f"{n}/{decimal_string(self.denominator)}"


# decimal_string splits at P_j = 10^(_DECIMAL_LEAF * 2^j) and writes leaves
# of _DECIMAL_LEAF digits with str(); _DECIMAL_POWERS[j] is (P_j, b_j, R_j)
# with b_j = P_j.bit_length() and R_j = floor(4^b_j / P_j)
_DECIMAL_LEAF = 300
_DECIMAL_POWERS: list[tuple[int, int, int]] = []
_DECIMAL_CORRECTIONS = 2     # the most steps _decimal_divmod's estimate may fall short


def _decimal_power(j: int) -> tuple[int, int, int]:
    while len(_DECIMAL_POWERS) <= j:
        P = _DECIMAL_POWERS[-1][0] ** 2 if _DECIMAL_POWERS else 10 ** _DECIMAL_LEAF
        b = P.bit_length()
        _DECIMAL_POWERS.append((P, b, (1 << 2 * b) // P))
    return _DECIMAL_POWERS[j]


def _decimal_divmod(n: int, j: int) -> tuple[int, int]:
    """divmod(n, P_j) for 0 <= n < 4^b_j, by the cached reciprocal R_j.

    Write P = P_j, b = b_j, Q = floor(n / P), m = floor(n / 2^(b-1)) and
    q = floor(m R / 2^(b+1)), the estimate.  P is a power of 10, so
    2^(b-1) < P < 2^b, and R = floor(4^b / P) lies in (4^b/P - 1, 4^b/P].
    From above, m R / 2^(b+1) <= (n / 2^(b-1)) (4^b / P) / 2^(b+1) = n/P,
    so q <= Q.  From below, m > n / 2^(b-1) - 1 and R > 4^b/P - 1 > 0, so
    m R / 2^(b+1) > n/P - n/4^b - 2^(b-1)/P > n/P - 2 when n < 4^b, and
    q >= Q - 2.  Hence n - q P lies in [0, 3P), and at most
    _DECIMAL_CORRECTIONS = 2 subtractions of P leave it in [0, P).  A
    remainder outside [0, P) after them means a broken precondition or
    reciprocal, and raises ArithmeticError rather than loop on or return
    a wrong quotient.

    A short n needs fewer bits of R: m has B - b + 1 bits for
    B = n.bit_length(), and R's low bits cannot reach the quotient.  So
    the estimate is q = floor(m floor(R / 2^c) / 2^(b+1-c)) with the cut
    c = min(2b - B - 9, b) when B <= 2b - 10, a product of two factors of
    about B - b bits, and the estimate above otherwise.  From above,
    floor(R / 2^c) <= R / 2^c, so q is at most the full estimate, at
    most Q.  From below, floor(R / 2^c) > R / 2^c - 1 loses less than
    m / 2^(b+1-c) < 2^(B-2b+c) <= 2^-9, and n/4^b < 2^(B-2b) <= 2^-10
    where the cut applies, so m R / 2^(b+1) less that loss exceeds
    n/P - 1 - 2^-10 - 2^-9 > n/P - 2, and q still falls short of Q by at
    most two.

    The remainder is n - q P in full, so the check above refuses a wrong
    reciprocal whatever its bits.  P = 10^e = 5^e 2^e with e = L 2^j for
    the leaf L = _DECIMAL_LEAF, so q P is the shifted product
    (q 5^e) 2^e, against a factor 5^e = P >> e some 30 % shorter than P;
    5^e is read off P on each call, so no second cache can disagree with
    it.
    """
    P, b, R = _decimal_power(j)
    B = n.bit_length()
    if B <= 2 * b - 10:
        cut = min(2 * b - B - 9, b)
        q = ((n >> (b - 1)) * (R >> cut)) >> (b + 1 - cut)
    else:
        q = ((n >> (b - 1)) * R) >> (b + 1)
    e = _DECIMAL_LEAF << j
    r = n - ((q * (P >> e)) << e)
    for _ in range(_DECIMAL_CORRECTIONS):
        if r < P:
            break
        q, r = q + 1, r - P
    if not 0 <= r < P:
        raise ArithmeticError(
            f"quotient by 10^{e} off by more than {_DECIMAL_CORRECTIONS}")
    return q, r


def decimal_string(n: int) -> str:
    """str(n), by halving long integers (Brent and Zimmermann, Modern
    Computer Arithmetic, section 1.7), each split a multiplication by a
    cached reciprocal (Barrett's reduction, ibid. section 2.4.1).

    CPython's str() of an int, like its long division, takes time
    quadratic in the length, while its multiplication is Karatsuba,
    O(b^1.585) on b bits.  A split of an n of B bits at P_j (b bits)
    costs two multiplications in _decimal_divmod, for the estimate q, on
    about B - b bits of R when n is short, and the product q 5^e of
    q P = (q 5^e) 2^e, plus a shift and at most two subtractions, where
    divmod would pay for a schoolbook division, quadratic in b.  The
    halves go on down to leaves of _DECIMAL_LEAF digits that str()
    writes.  Under CPython 3.11 on a 2-vCPU cloud VM, a split at
    b = 32,000 took about 0.4 of the division's time, for n of 40,000
    bits and of 2b bits alike, and the radicand of a certificate near
    z = 10^1000 (12,000 digits over 9,000) took 1.4-1.5 ms, against
    2.3-2.4 ms by divmod and 3.4-3.6 ms by str().

    The split sizes are fixed, so a few powers of 10 and their
    reciprocals are kept whatever the inputs, and str() meets no more
    than about 600 digits at a time, far under CPython's 4,300-digit
    limit.  The splits keep _decimal_divmod's precondition n < 4^b_j,
    under which its estimate falls short of the quotient by at most two:
    here n splits at the least j with B = n.bit_length() <= 2 b_j, and
    b_j < B there (b_0 < B by the test for a leaf, b_j <= 2 b_(j-1) <
    B above it), so P_j < n < 4^b_j and the high part is nonzero;
    _padded_decimal splits n < P_j = P_(j-1)^2 < 4^b_(j-1) at P_(j-1).
    """
    if n < 0:
        return "-" + decimal_string(-n)
    bits = n.bit_length()
    if bits <= 2 * _decimal_power(0)[1]:
        return str(n)
    j = 0
    while 2 * _decimal_power(j)[1] < bits:
        j += 1
    high, low = _decimal_divmod(n, j)
    return decimal_string(high) + _padded_decimal(low, j)


def _padded_decimal(n: int, j: int) -> str:
    """n < 10^(L 2^j) as exactly L 2^j digits, leading zeros kept."""
    if j == 0:
        return str(n).zfill(_DECIMAL_LEAF)
    high, low = _decimal_divmod(n, j - 1)
    return _padded_decimal(high, j - 1) + _padded_decimal(low, j - 1)


# ---------------------------------------------------------------------------
# polynomials over a field
# ---------------------------------------------------------------------------

def _coerce(c):
    return Fraction(c) if isinstance(c, int) else c


class Poly:
    """Univariate polynomial; coefficients lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots):
        out = cls.const(1)
        for r in roots:
            out = out * cls((-_coerce(r), 1))
        return out

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __getitem__(self, i):
        return self.c[i] if 0 <= i < len(self.c) else Fraction(0)

    def leading(self):
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == Poly((other,)).c
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        terms = [f"{c}*X^{i}" for i, c in enumerate(self.c) if c]
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------------
    def __neg__(self):
        return Poly([-a for a in self.c])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.c), len(other.c))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly((-_coerce(other),)))

    def __rsub__(self, other):
        return Poly((other,)) - self

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.c or not other.c:
                return Poly()
            f = _integer_scale(self.c)
            g = f and _integer_scale(other.c)
            if g:
                (F, df), (G, dg) = f, g
                out = [0] * (len(F) + len(G) - 1)
                for i, a in enumerate(F):
                    if a:
                        for j, b in enumerate(G):
                            out[i + j] += a * b
                return _from_integers(out, df * dg)
            out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                if not a:
                    continue
                for j, b in enumerate(other.c):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([a * _coerce(other) for a in self.c])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _coerce(scalar)
        return Poly([a / scalar for a in self.c])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.c[0] * 0 + 1 if self.c else 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, Poly) or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dq = other.degree
        if self.degree < dq:
            return Poly(), self
        f = _integer_scale(self.c)
        g = f and _integer_scale(other.c)
        if g:
            (F, df), (G, dg) = f, g
            Q, R, scale = _int_pseudo_divmod(F, G)
            # lc(G)^m F = Q G + R, so f = (Q dg / (lc^m df)) g + R / (lc^m df)
            return _from_integers(Q, df * scale, dg), _from_integers(R, df * scale)
        rem = list(self.c)
        lead = other.c[-1]
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - dq - 1, -1, -1):
            f = rem[i + dq] / lead
            if f:
                quot[i] = f
                for j, b in enumerate(other.c):
                    rem[i + j] = rem[i + j] - f * b
        return Poly(quot), Poly(rem[:dq])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        return (other % self).is_zero()

    # -- calculus / helpers --------------------------------------------------
    def derivative(self):
        return Poly([i * a for i, a in enumerate(self.c)][1:])

    def monic(self):
        if self.is_zero():
            return self
        return self / self.c[-1]

    def __call__(self, x):
        """Evaluate by Horner; x may live in any commutative ring extension."""
        if not self.c:
            return x * 0
        acc = self.c[-1] + x * 0
        for a in reversed(self.c[:-1]):
            acc = acc * x + a
        return acc

    def gcd(self, other):
        a, b = self, other
        if a.is_zero():
            return b.monic() if not b.is_zero() else b
        if b.is_zero():
            return a.monic()
        if (all(isinstance(c, Fraction) for c in a.c)
                and all(isinstance(c, Fraction) for c in b.c)):
            return _gcd_primitive_prs(a, b)
        while not b.is_zero():
            a, b = b, (a % b)
            if not b.is_zero():
                b = b.monic()      # tame coefficient growth over towers
        return a.monic()

    def primitive_integer(self) -> list[int]:
        """Integer coefficients with content removed, positive leading."""
        ints, = integer_coefficients(self)
        g = 0
        for a in ints:
            g = math.gcd(g, abs(a))
        if g:
            ints = [a // g for a in ints]
        if ints and ints[-1] < 0:
            ints = [-a for a in ints]
        return ints

    def to_json(self):
        return [str(a) for a in self.c]


def _integer_scale(c) -> tuple[list[int], int] | None:
    """The rational coefficients c as integer numerators over their least
    common denominator d, with d; None when one is not a Fraction."""
    for a in c:
        if type(a) is not Fraction:
            return None
    d = math.lcm(*[a.denominator for a in c])
    if d == 1:
        return [a.numerator for a in c], 1
    return [a.numerator * (d // a.denominator) for a in c], d


def _from_integers(nums: list[int], d: int, k: int = 1) -> Poly:
    """The Poly with coefficients k nums[i] / d, each one Fraction."""
    while nums and not nums[-1]:
        nums.pop()
    p = Poly.__new__(Poly)
    p.c = tuple(Fraction(k * n, d) for n in nums)
    return p


def _int_pseudo_divmod(F: list[int], G: list[int]) -> tuple[list[int], list[int], int]:
    """(Q, R, lc^m) with lc^m F = Q G + R and deg R < deg G, for integer
    coefficient lists with deg F >= deg G, lc = G[-1] and m = deg F -
    deg G + 1 (pseudo-division; Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).

    Step i scales the remainder by lc and takes c X^i G off it, c its
    coefficient of degree i + deg G; the steps after it scale c by
    lc^i.  A step that leaves that coefficient nonzero raises
    ArithmeticError.
    """
    R = list(F)
    dg = len(G) - 1
    lc = G[-1]
    m = len(F) - dg
    Q = [0] * m
    for i in range(m - 1, -1, -1):
        c = R[i + dg]
        Q[i] = c
        top = i + dg + 1
        if lc != 1:
            R[:top] = [r * lc for r in R[:top]]
        if c:
            for j, b in enumerate(G):
                R[i + j] -= c * b
        if R[i + dg]:
            raise ArithmeticError(f"pseudo-division step {i} leaves {R[i + dg]}")
    if lc != 1:
        Q = [c * lc ** i for i, c in enumerate(Q)]
    return Q, R[:dg], lc ** m


def integer_coefficients(*polys: Poly) -> list[list[int]]:
    """Coefficients of the polynomials times their least common denominator.

    One positive scale serves all of them, so ratios such as num/den of a
    rational function are unchanged.
    """
    coeffs = [[Fraction(a) for a in f.c] for f in polys]
    scale = math.lcm(*(a.denominator for cs in coeffs for a in cs))
    return [[a.numerator * (scale // a.denominator) for a in cs] for cs in coeffs]


def homogeneous_value(coeffs, n, d):
    """d^k c(n/d) and d^k for the degree-k polynomial c with coefficients
    coeffs (lowest degree first), by Horner: integers n and d give
    integers, and Poly n and d the homogenized form."""
    acc, dk = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return acc, dk


def _gcd_primitive_prs(a: "Poly", b: "Poly") -> "Poly":
    """Polynomial gcd over Q via the primitive pseudo-remainder sequence."""
    A = a.primitive_integer()
    B = b.primitive_integer()
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        R = pm_trim(_int_pseudo_divmod(A, B)[1])
        if not R:
            return Poly(B).monic()
        g = 0
        for c in R:
            g = math.gcd(g, abs(c))
        A, B = B, [c // g for c in R]
    return Poly.const(Fraction(1))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of two polynomials, kept with gcd 1 and monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly((num,))
        if den is None:
            den = Poly((1,))
        elif isinstance(den, (int, Fraction)):
            den = Poly((den,))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly((1,))
            return
        if den.degree > 0 and num.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            num, den = num / lead, den / lead
        self.num, self.den = num, den

    # -- structure -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    # -- analysis ----------------------------------------------------------------
    def __call__(self, z):
        dz = self.den(z)
        if isinstance(dz, (int, Fraction)) and dz == 0:
            raise PoleError(f"evaluation at pole z={z}")
        return self.num(z) / dz

    def is_pole(self, z) -> bool:
        return self.den(z) == 0

    def degree_pair(self) -> tuple[int, int]:
        return self.num.degree, self.den.degree

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _as_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFunc(value if isinstance(value, Poly) else Poly((value,)))
    return NotImplemented


def ratfunc_substitute(f: Poly, s: RatFunc) -> RatFunc:
    """Compose f(s(z)) as a normalized rational function."""
    return _as_ratfunc(f(s))


# ---------------------------------------------------------------------------
# polynomials over F_p (plain int lists, lowest degree first)
# ---------------------------------------------------------------------------

def pm_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def pm_sub(f, g, p):
    n = max(len(f), len(g))
    return pm_trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
                    for i in range(n)])


def pm_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return pm_trim(out)


def pm_divmod(f, g, p):
    """Quotient and remainder of f by g mod p, both reduced into [0, p).

    The one mod-p polynomial division of the package: f and g may carry
    unreduced integer coefficients, and g need not be monic (its leading
    coefficient must be a unit mod p).
    """
    if not g:
        raise ZeroDivisionError("mod-p polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    if len(f) <= dg:
        return [], pm_trim([c % p for c in f])
    q = [0] * (len(f) - dg)
    for i in range(len(f) - dg - 1, -1, -1):
        c = f[i + dg] * inv % p
        if c:
            q[i] = c
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
    return pm_trim(q), pm_trim([c % p for c in f[:dg]])


def pm_mod(f, g, p):
    return pm_divmod(f, g, p)[1]


def pm_gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, pm_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pm_pow_mod(base, e: int, mod, p):
    result = [1]
    base = pm_mod(base, mod, p)
    while e:
        if e & 1:
            result = pm_mod(pm_mul(result, base, p), mod, p)
        base = pm_mod(pm_mul(base, base, p), mod, p)
        e >>= 1
    return result


def pm_derivative(f, p):
    return pm_trim([i * a % p for i, a in enumerate(f)][1:])


def pm_distinct_degree(f, p):
    """Distinct-degree split of a squarefree f: list of (d, product).

    The leading coefficient of f must be a unit mod p.
    """
    out = []
    h = [0, 1]  # X
    g = list(f)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = pm_pow_mod(h, p, g, p)
        gd = pm_gcd(pm_sub(h, [0, 1], p), g, p)
        if len(gd) > 1:
            out.append((d, gd))
            g = pm_divmod(g, gd, p)[0]
            h = pm_mod(h, g, p)
    if len(g) > 1:
        out.append((len(g) - 1, g))
    return out


def splitting_profile(f: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors mod p of an integer polynomial
    (coefficient list, lowest degree first), sorted.

    Distinct-degree factorization of the reduction of f, which must be
    squarefree: a repeated factor mod p raises BadReductionError.
    Requires p an odd prime not dividing the leading coefficient.
    """
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if not any(f):
        raise ValueError("zero polynomial has no profile")
    if f[-1] % p == 0:
        raise BadReductionError(f"leading coefficient vanishes mod {p}")
    fm = [a % p for a in f]
    if len(pm_gcd(fm, pm_derivative(fm, p), p)) > 1:
        raise BadReductionError(f"repeated factor mod {p}")
    return sorted(d for d, prod in pm_distinct_degree(fm, p)
                  for _ in range((len(prod) - 1) // d))
