"""Class numbers of negative discriminants by Dirichlet's class number
formula, sharing no step with the form engine of fiverank.classgroup: a
reference for class_number.

For a fundamental D < 0 with w units and chi = (D/.) the Kronecker
symbol, Dirichlet's formula summed over half a period reads

    h(D) = w / (2 (2 - chi(2))) * sum_{0 < r < |D|/2} chi(r)

(Davenport, Multiplicative Number Theory, ch. 6).  chi is completely
multiplicative, so chi(r) = chi(p) chi(r/p) for the smallest prime p of
r, read from a smallest-prime-factor sieve, and only chi at a prime
takes Euler's criterion.  For D = D0 f^2, with D0 fundamental, Cox,
Primes of the Form x^2 + ny^2, Theorem 7.24, gives

    h(D) = h(D0) f / [O_K^* : O^*] * prod_{p | f} (1 - chi_D0(p) / p).

Every check raises ArithmeticError, so the module holds under python -O.

reference_class_number is a second reference, the per-a route: it adds
the root count r(a) of every leading coefficient a one by one, where
class_number counts the a below sqrt|D|/2 in bytes.  It reads only the
factor tables of fiverank.classgroup.

check_dirichlet and check_reference hold class_number to the two
references.  Tier-1 runs them on 36 grid D and 200 log-uniform D; run as
a script, the module checks every D that the default oracle grid decides
and 20 seeded random fundamental D off it by Dirichlet's formula, and
COUNT seeded log-uniform D (200 by default) against the per-a reference:

    python -O tests/class_number_formula.py [COUNT]
"""

import math
import random
import sys
from array import array

from fiverank import classgroup

_spf = array("i")  # smallest prime factor of each k < len(_spf), grown on demand


def smallest_prime_factors(n: int) -> array:
    """spf[k] for 0 <= k <= n (spf[0] = 0, spf[1] = 1): the multiples of
    each prime p up to sqrt(n) from p^2 on are stamped p, the primes in
    decreasing order, so the smallest prime stamps last."""
    global _spf
    if len(_spf) <= n:
        spf = array("i", range(n + 1))
        small = [p for p in range(2, math.isqrt(n) + 1)
                 if all(p % q for q in range(2, math.isqrt(p) + 1))]
        for p in reversed(small):
            start = p * p
            spf[start::p] = array("i", [p]) * len(range(start, n + 1, p))
        _spf = spf
    return _spf


def kronecker_at_prime(D: int, p: int) -> int:
    """(D/p) for a prime p: from D mod 8 at p = 2, Euler's criterion
    otherwise."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    e = pow(D % p, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def units(D: int) -> int:
    return {-3: 6, -4: 4}.get(D, 2)


def fundamental_class_number(D: int) -> int:
    """h(D) for a fundamental D < 0 by the half-period sum."""
    n = (-D - 1) // 2                    # the r with 0 < r < |D|/2
    spf = smallest_prime_factors(n)
    chi = array("b", bytes(n + 1))
    chi[1] = total = 1 if n else 0
    for r in range(2, n + 1):
        p = spf[r]
        c = chi[p] * chi[r // p] if p != r else kronecker_at_prime(D, r)
        chi[r] = c
        total += c
    num, den = units(D) * total, 2 * (2 - kronecker_at_prime(D, 2))
    if num % den or num <= 0:
        raise ArithmeticError(f"Dirichlet's sum for {D} gives {num}/{den}")
    return num // den


def fundamental_part(D: int) -> tuple[int, int]:
    """(D0, f) with D = D0 f^2 and D0 fundamental, by trial division."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ArithmeticError(f"{D} is not a negative discriminant")
    m, f, p = -D, 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            f *= p
        p += 1
    D0 = -m if -m % 4 == 1 else -4 * m
    if D0 != -m:                          # D0 = 4 D/f^2: f carries one 2 less
        f //= 2
    if D0 * f * f != D:
        raise ArithmeticError(f"{D} = {D0} * {f}^2 fails")
    return D0, f


def dirichlet_class_number(D: int) -> int:
    """h(D) for any discriminant D < 0: Dirichlet's formula at D0 and
    Cox, Theorem 7.24, for the conductor f."""
    D0, f = fundamental_part(D)
    h = fundamental_class_number(D0)
    if f == 1:
        return h
    num, den = h * f, units(D0) // 2   # O^* = {+-1} for f > 1
    p, rest = 2, f
    while rest > 1:
        if rest % p == 0:
            num *= p - kronecker_at_prime(D0, p)
            den *= p
            while rest % p == 0:
                rest //= p
        p += 1
    if num % den:
        raise ArithmeticError(f"Cox 7.24 for {D} gives {num}/{den}")
    return num // den


def reference_class_number(D):
    """h(D) as fiverank.classgroup counted it before its root tables and
    byte counts: r(a) for each a <= sqrt(|D|/3) in turn, a product of
    local counts along the smallest-prime-factor tables, with Euler's
    criterion by the builtin pow at every prime, and the b of the listed
    a tested one by one, their roots by one power at p = 3 mod 4 and
    Tonelli-Shanks otherwise.  It shares only the factor tables with
    class_number."""
    amax = math.isqrt(-D // 3)
    top = math.isqrt(-D // 4)
    spf, primes, rest, _ = classgroup._smallest_prime_factors(amax)
    roots, local = {}, {}
    has_roots = bytearray([0]) + bytearray([1]) * amax
    listed = bytearray(top + 1) + bytearray([1]) * (amax - top)
    for p in (p for p in primes if p <= amax):
        q = p
        if p > 2 and D % p:
            if pow(D % p, (p - 1) // 2, p) == 1:
                while q <= amax:
                    local[q] = 2
                    q *= p
        else:
            while q <= amax:
                n = len(reference_prime_power_roots(D, p, 4 * q if p == 2 else q, roots))
                if not n:
                    break
                local[q] = n // 2 if p == 2 else n
                q *= p
            if D % (p * p) == 0 and (p > 2 or D // 4 % 4 < 2):
                listed[p::p] = b"\2" * (amax // p)
        if q <= amax:
            has_roots[q::q] = bytes(amax // q)
    r = [0] * (amax + 1)
    r[1] = count = 1
    for a in range(2, amax + 1):
        if not has_roots[a]:
            continue
        b = rest[a]
        r[a] = n = r[b] * local[a // b]
        if not listed[a]:
            count += n
            continue
        n = rest[a] if a % 2 == 0 else a
        mod = 2 * (a // n)
        found = ([D & 1] if mod == 2 else
                 [x for x in reference_prime_power_roots(D, 2, 2 * mod, roots) if x < mod])
        while n > 1:
            m = rest[n]
            q = n // m
            inv = pow(mod, -1, q)
            found = [x + mod * ((s - x) * inv % q)
                     for x in found for s in reference_prime_power_roots(D, spf[n], q, roots)]
            mod *= q
            n = m
        for b in found:
            b = b - mod if b > a else b
            c, bb = (b * b - D) // (4 * a), b * b
            if bb < 4 * a * a + D or (bb == 4 * a * a + D and b < 0):
                continue
            if listed[a] == 2 and math.gcd(a, b, c) != 1:
                continue
            count += 1
    return count


def reference_prime_power_roots(D, p, q, roots):
    if q not in roots:
        if q == p:
            n = D % p
            roots[q] = [n] if p == 2 or n == 0 else reference_sqrt_mod_prime(D, p)
        else:
            low = q // p
            roots[q] = [x for r in reference_prime_power_roots(D, p, low, roots)
                        for x in range(r, q, low) if (x * x - D) % q == 0]
    return roots[q]


def reference_sqrt_mod_prime(D, p):
    n = D % p
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return [r, p - r] if r * r % p == n else []
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


def decided_grid() -> dict[int, int]:
    """D -> h for every discriminant the default oracle grid decides."""
    return {o.fundamental_d: o.class_number
            for o in classgroup.oracle_scan(100_000) if o.status != "skip"}


def random_fundamental(count: int, seed: int, exclude) -> list[int]:
    """count seeded fundamental D in [-1e7, -1e6], none in exclude or in
    the pinned class-number range [-10,000,000, -9,996,000], descending."""
    rng = random.Random(seed)
    found = set()
    while len(found) < count:
        D = -rng.randrange(10**6, 10**7 + 1)
        if (D % 4 in (0, 1) and fundamental_part(D)[1] == 1
                and D not in exclude and D > -9996000):
            found.add(D)
    return sorted(found, reverse=True)


def check_dirichlet(discs, known: dict) -> None:
    """class_number(D), and known[D] where known has D, against
    Dirichlet's formula for each D."""
    for D in discs:
        h = dirichlet_class_number(D)
        if classgroup.class_number(D) != h or known.get(D, h) != h:
            raise ArithmeticError(f"h({D}) = {h} by Dirichlet's formula, "
                                  f"{classgroup.class_number(D)} counted")


def log_uniform_discriminants(count: int, seed: int) -> list[int]:
    """count seeded D = 0, 1 mod 4 with |D| log-uniform in [3, 1e9],
    fundamental or not."""
    rng = random.Random(seed)
    discs = []
    while len(discs) < count:
        D = -round(math.exp(rng.uniform(math.log(3), math.log(10**9))))
        if D % 4 in (0, 1):
            discs.append(D)
    return discs


def check_reference(discs) -> None:
    """class_number against reference_class_number for each D, whose
    largest a, sqrt(|D|/3), must lie on both sides of ROOT_TABLE_BOUND
    among them."""
    sides = {math.isqrt(-D // 3) > classgroup.ROOT_TABLE_BOUND for D in discs}
    if sides != {False, True}:
        raise ArithmeticError("the discriminants miss one side of ROOT_TABLE_BOUND")
    for D in discs:
        h = classgroup.class_number(D)
        if h != reference_class_number(D):
            raise ArithmeticError(f"h({D}) = {h} counted, "
                                  f"{reference_class_number(D)} by the per-a reference")


def main(count: int) -> None:
    decided = decided_grid()
    if len(decided) != 72:
        raise ArithmeticError(f"{len(decided)} decided discriminants, not 72")
    others = random_fundamental(20, 20261020, decided)
    check_dirichlet(sorted(decided, reverse=True) + others, decided)
    check_reference(log_uniform_discriminants(count, 20261020))
    print(f"Dirichlet's formula on {len(decided)} grid D and {len(others)} random "
          f"fundamental D; the per-a reference on {count} log-uniform D")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
