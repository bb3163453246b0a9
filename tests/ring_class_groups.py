"""Class groups of imaginary quadratic orders whose structure is known in
advance: a reference for class_number, sylow_layers and group_structure
on discriminants with large square factors, sharing no step with the
form engine of fiverank.classgroup.

Let D0 be a fundamental discriminant with h(D0) = 1 and f a product of
distinct odd primes p that do not divide D0.  The order of conductor f
has discriminant D = D0 f^2 and class group

    (O_K / f O_K)^* / ((Z / f Z)^* O_K^*),

and (O_K / f O_K)^* / (Z / f Z)^* = prod_{p | f} C_{p - chi(p)}, chi =
(D0/.), since by the CRT each p contributes F_p^* when it splits and
F_{p^2}^* / F_p^* when it is inert, both cyclic (Cox, Primes of the Form
x^2 + ny^2, Theorem 7.24 and its proof; Neukirch, Algebraic Number
Theory, I.12).  For D0 < -4 the units are +-1, which already lie in
(Z / f Z)^*: h(D) is the product of the p - chi(p), the 5-rank is the
number of p with 5 | p - chi(p), and the invariant factors follow by the
CRT.  For D0 = -3 and -4 the units add a subgroup of the unit index
[O_K^* : O^*] = w/2 = 3 and 2, a prime, by which Theorem 7.24 divides
h(D).  A quotient by a group of prime order l changes only the l-Sylow
subgroup, so h, the 5-rank and the invariant factors with their l-part
divided out are still exact; where the units land in the l-part is not
predicted, and there only the order h is checked.

Every check raises ArithmeticError, so the module holds under python -O.
Run as a script, it checks every case that ring_class_groups yields, or
the one case D0, p1, p2, ... given as arguments, and prints a line each:

    python -O tests/ring_class_groups.py [D0 p1 p2 ...]
"""

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator

from fiverank.classgroup import class_number, group_structure, sylow_layers

from class_number_formula import kronecker_at_prime, units

# the fundamental discriminants with class number 1
CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


@dataclass(frozen=True)
class RingClassGroup:
    """The predicted class group of discriminant D = D0 f^2, f the product
    of primes: its order h, its 5-rank and its invariant factors, each
    with the factors of unit_index divided out when unit_index > 1."""
    D0: int
    primes: tuple[int, ...]
    D: int
    h: int
    five_rank: int
    invariant_factors: tuple[int, ...]
    unit_index: int

    def five_layers(self) -> list[int]:
        """The layer counts m_k(5) = #{invariant factors divisible by 5^k}
        for k = 1, 2, ... while nonzero, as sylow_layers gives them."""
        layers = []
        for k in itertools.count(1):
            m = sum(1 for d in self.invariant_factors if d % 5**k == 0)
            if not m:
                return layers
            layers.append(m)


def cyclic_invariants(orders) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of the product of the cyclic
    groups of the given orders, by the CRT: C_a x C_b = C_gcd x C_lcm, taken
    over every pair until each order divides the ones after it."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(n for n in d if n > 1)


def prime_to(factors, index: int) -> tuple[int, ...]:
    """The invariant factors with every factor of the unit index (1, 2
    or 3) divided out and those left at 1 dropped."""
    out = []
    for d in factors:
        while index > 1 and d % index == 0:
            d //= index
        out.append(d)
    return tuple(d for d in out if d > 1)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def predict(D0: int, primes) -> RingClassGroup:
    """The class group of D0 (prod primes)^2 as the module docstring
    predicts it."""
    primes = tuple(primes)
    if D0 not in CLASS_NUMBER_ONE:
        raise ArithmeticError(f"{D0} is not a fundamental discriminant with h = 1")
    if len(set(primes)) != len(primes) or not all(
            p % 2 and D0 % p and _is_prime(p) for p in primes):
        raise ArithmeticError(f"{primes} are not distinct odd primes prime to {D0}")
    orders = [p - kronecker_at_prime(D0, p) for p in primes]
    index = units(D0) // 2 if primes else 1
    h, r = divmod(math.prod(orders), index)
    if r:
        raise ArithmeticError(f"the unit index {index} does not divide {math.prod(orders)}")
    return RingClassGroup(D0, primes, D0 * math.prod(primes) ** 2, h,
                          sum(1 for n in orders if n % 5 == 0),
                          prime_to(cyclic_invariants(orders), index), index)


def ring_class_groups(max_abs_d: int, max_rank: int) -> Iterator[RingClassGroup]:
    """For each D0 of CLASS_NUMBER_ONE and each 5-rank r <= max_rank: the
    conductor of its r smallest odd primes p with 5 | p - chi(p), alone
    and times its smallest odd prime with 5 not dividing p - chi(p), each
    case with f > 1 and |D| <= max_abs_d."""
    for D0 in CLASS_NUMBER_ONE:
        odd = [p for p in range(3, math.isqrt(max_abs_d // -D0) + 1, 2)
               if D0 % p and _is_prime(p)]
        fives = [p for p in odd if (p - kronecker_at_prime(D0, p)) % 5 == 0]
        other = next(p for p in odd if (p - kronecker_at_prime(D0, p)) % 5)
        for r in range(min(max_rank, len(fives)) + 1):
            for extra in ((), (other,)):
                primes = tuple(sorted(fives[:r] + list(extra)))
                case = predict(D0, primes)
                if primes and -case.D <= max_abs_d:
                    yield case


def check(case: RingClassGroup) -> tuple[int, ...]:
    """class_number, sylow_layers at 5 and group_structure on case.D
    against the prediction; returns the invariant factors found."""
    D = case.D
    h = class_number(D)
    if h != case.h:
        raise ArithmeticError(f"h({D}) = {h} counted, {case.h} predicted")
    layers = sylow_layers(D, h, 5)
    if layers != case.five_layers():
        raise ArithmeticError(f"5-Sylow layers of {D}: {layers}, "
                              f"{case.five_layers()} predicted")
    factors = group_structure(D, disc_bound=-D).invariant_factors
    if prime_to(factors, case.unit_index) != case.invariant_factors or math.prod(factors) != h:
        raise ArithmeticError(f"invariant factors of {D}: {factors}, "
                              f"{case.invariant_factors} predicted prime to {case.unit_index}")
    return factors


def main(argv: list[str]) -> None:
    if argv:
        cases = [predict(int(argv[0]), map(int, argv[1:]))]
    else:
        cases = list(ring_class_groups(2 * 10**9, 3))
    for case in cases:
        factors = check(case)
        print(f"D = {case.D} = {case.D0} * {math.prod(case.primes)}^2: h = {case.h}, "
              f"5-rank {case.five_rank}, invariant factors {factors}")


if __name__ == "__main__":
    main(sys.argv[1:])
