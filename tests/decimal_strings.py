"""fiverank.exact.decimal_string against str(), on seeded integers and on
both sides of every split size.

decimal_string splits at P_j = 10^(L 2^j), L = _DECIMAL_LEAF, by
reciprocal estimates whose every remainder is checked by a test that
raises, never an assert.  The cases of decimal_string_cases(seed, bits,
levels) are random integers of both signs up to `bits` bits, 10^k - 1,
10^k, 10^k + 1 and -10^k at and next to every split size k = L 2^j,
j < levels, and n in [P_j^2, 10 P_j^2) together with the largest n below
4^b, b = P_j.bit_length(), that splits at P_j.

check raises ArithmeticError, so the module holds under python -O.
Tier-1 checks decimal_string_cases(10^9 + 7, 200,000, 8); run as a
script, it checks decimal_string_cases(20261020, 10^6, 10), sizes past
the benchmark's, under CPython's default int-to-str digit limit.
"""

import random
import sys

from fiverank.exact import _DECIMAL_LEAF, decimal_string


def unlimited_str(n) -> str:
    """str(n) with CPython's int-to-str digit limit lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def decimal_string_cases(seed: int, bits: int, levels: int) -> list[int]:
    """The integers of the module docstring: first 10 of alternating sign
    with lengths drawn from [bits/10, bits) and two of `bits` bits, then
    0, +-1 and 150 of random sign and length below 2,000 bits."""
    rng = random.Random(seed)
    lengths = [rng.randrange(bits // 10, bits) for _ in range(10)] + [bits, bits]
    ints = [(-1) ** i * rng.getrandbits(b) for i, b in enumerate(lengths)]
    ints += [0, 1, -1]
    ints += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(2000)) for _ in range(150)]
    sizes = [_DECIMAL_LEAF << j for j in range(levels)]
    for k in sorted({k + dk for k in sizes for dk in (-1, 0, 1)}):
        ints += [10 ** k - 1, 10 ** k, 10 ** k + 1, -10 ** k]
    for size in sizes:
        k = 2 * size
        for n in (rng.randrange(10 ** k, 10 ** (k + 1)), 10 ** k + 1, 10 ** (k + 1) - 1,
                  10 ** (k + 1) + 1, 4 ** (10 ** size).bit_length() - 1):
            ints += [n, -n]
    return ints


def check(ints) -> None:
    for n in ints:
        if decimal_string(n) != unlimited_str(n):
            raise ArithmeticError(f"decimal_string differs from str() on a "
                                  f"{n.bit_length()}-bit integer")


if __name__ == "__main__":
    cases = decimal_string_cases(20261020, 10 ** 6, 10)
    check(cases)
    print(f"decimal_string equals str() on {len(cases)} integers, "
          f"up to {max(n.bit_length() for n in cases)} bits")
