import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fiverank.errors import BadReductionError
from fiverank.exact import (
    INF,
    Poly,
    RatFunc,
    Ratio,
    decimal_string,
    factor_completely,
    int_valuation,
    integer_coefficients,
    integer_nth_root,
    is_probable_prime,
    is_square,
    jacobi,
    pm_divmod,
    pm_gcd,
    pm_mul,
    pm_sub,
    rational_mod,
    rational_sqrt,
    ratfunc_substitute,
    splitting_profile,
    squarefree_part,
    trial_factor,
    valuation,
    valuation_and_residue,
)

import decimal_strings
from decimal_strings import unlimited_str

nonzero_rationals = st.fractions(min_value=-1000, max_value=1000).filter(lambda q: q != 0)


# ---------------------------------------------------------------- valuation

def test_valuation_examples():
    assert valuation(F(1, 242), 11) == -2          # 242 = 2 * 11^2
    assert valuation(F(19, 21), 19) == 1
    assert valuation(0, 7) == INF


def test_valuation_rejects_composite():
    # the primality verdict is cached per p, a rejection included
    for _ in range(2):
        with pytest.raises(ValueError):
            valuation(F(1, 2), 10)
        with pytest.raises(ValueError):
            valuation(3, 1)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=200)
def test_valuation_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_int_valuation_examples():
    assert int_valuation(242, 11) == 2
    assert int_valuation(-29 ** 6 * 7, 29) == 6
    assert int_valuation(13, 11) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 7)


@given(st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(1, 10 ** 4), st.sampled_from([3, 11, 163, 1277]))
@settings(max_examples=200)
def test_valuation_and_residue_of_an_unreduced_pair(q, scale, p):
    # (n, d) = scale * (num, den) is any representative of q
    v, res = valuation_and_residue(q.numerator * scale, q.denominator * scale, p)
    assert v == valuation(q, p)
    if q.denominator % p:
        assert res == rational_mod(q, p)
    else:
        assert res is None


def test_integer_coefficients_share_one_scale():
    num, den = integer_coefficients(Poly([F(1, 2), F(2, 3)]), Poly([F(5, 4)]))
    assert num == [6, 8] and den == [15]
    assert integer_coefficients(Poly([3, -4])) == [[3, -4]]


# ------------------------------------------------------------------- jacobi

def test_jacobi_examples():
    assert jacobi(2, 7) == 1
    assert jacobi(3, 9) == 0
    assert jacobi(2, 15) == 1   # (2/3)(2/5) = (-1)(-1)


def test_jacobi_matches_legendre_on_primes():
    for p in [3, 5, 7, 11, 13, 17, 19, 163, 701, 1277]:
        for a in range(1, min(p, 40)):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
            assert jacobi(a, p) == expected


def test_jacobi_requires_odd():
    with pytest.raises(ValueError):
        jacobi(3, 8)


# -------------------------------------------------------- squarefree / roots

def test_squarefree_part_examples():
    assert squarefree_part(-48, 100) == (-3, True)
    assert squarefree_part(9261, 100) == (21, True)     # 21^3
    p, q = 1000003, 1000033
    s, complete = squarefree_part(p * p * q, 100)
    assert not complete
    assert s == p * p * q


def test_squarefree_part_square_cofactor():
    p = 1000003
    assert squarefree_part(p * p, 100) == (1, True)
    assert squarefree_part(-p * p * 12, 100) == (-3, True)


def test_squarefree_part_zero():
    with pytest.raises(ValueError):
        squarefree_part(0, 100)


def _reference_squarefree_part(n, trial_bound):
    """squarefree_part with the perfect-power test run on every exponent e,
    prime or not."""
    sign = -1 if n < 0 else 1
    factors, cofactor = trial_factor(n, trial_bound)
    s = sign
    for p, e in factors.items():
        if e % 2:
            s *= p
    if cofactor == 1:
        return s, True
    for e in range(2, cofactor.bit_length() + 1):
        root = integer_nth_root(cofactor, e)
        if root ** e == cofactor:
            if e % 2 == 0:
                return s, True
            sub, complete = _reference_squarefree_part(root, trial_bound)
            return s * sub, complete
    return s * cofactor, False


def test_squarefree_part_tries_prime_exponents_only():
    # q^e m with q above the bound: the cofactor q^e (times whatever of m
    # is left) is a perfect power whose least exponent is prime
    for q in (1009, 1013, 65537, 1000003):
        for e in range(2, 13):
            for m in (1, -1, 2, -12, 1019, 1019 * 1021, 7 * 1031 ** 3):
                n = q ** e * m
                assert squarefree_part(n, 1000) == _reference_squarefree_part(n, 1000), \
                    (q, e, m)
    assert squarefree_part(1009 ** 12, 1000) == (1, True)
    assert squarefree_part(-(1009 ** 9), 1000) == (-1009, True)


def test_squarefree_part_matches_the_full_trial_division_path(fresh_prime_table):
    # once its cofactor is at most bound^2, n is divided only up to the
    # cube root of the cofactor, and its kernel and flag must be the full
    # path's: seeded n up to 1e15, p q with p the least prime above the
    # cube root and q the greatest prime below p^2, p^3, p^2 q and p r s
    # near the cube root, p^2 and p q for primes p, q around the bound,
    # and cofactors above bound^2, which are divided up to the bound
    exact = fresh_prime_table
    rng = random.Random(20261020)
    cases = {10 ** 6: [], 1000: []}
    for bound, ns in cases.items():
        ns += [rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.randrange(1, 16))
               for _ in range(300)]
        ns += [rng.randrange(1, 10 ** 15) for _ in range(100)]
        for k in (5, 8, 20, 60, 90, 700, 9000):
            if k ** 3 > bound * bound:
                continue
            p = _straddling_primes([k])[1]
            q = _straddling_primes([p * p])[0]
            r = _straddling_primes([p])[1]
            s = _straddling_primes([r])[1]
            assert p ** 3 > p * q and p ** 3 <= p * r * s
            ns += [p * q, -12 * p * q, 25 * p * q, p ** 3, -p * p * q, p * r * s]
        below, above = _straddling_primes([bound])
        ns += [below, -above, 4 * below, below * below, -above * above, below * above,
               12 * below * below, above * _straddling_primes([above])[1],
               above ** 3, -2 * above * above, 7 * below * above * above]
    cube = fallback = incomplete = 0
    for bound, ns in cases.items():
        for n in ns:
            got = squarefree_part(n, bound)
            assert got == _reference_squarefree_part(n, bound), (n, bound)
            cofactor = exact._small_factors(n, bound, True)[1]
            cube += 1 < cofactor <= bound * bound
            fallback += cofactor > bound * bound
            incomplete += not got[1]
    assert cube > 300 and fallback > 100 and incomplete > 50


def test_integer_nth_root():
    assert integer_nth_root(10**18, 3) == 10**6
    assert integer_nth_root(2**401 - 1, 401) == 1
    for n in [0, 1, 5, 63, 64, 65]:
        assert integer_nth_root(n, 2) == math.isqrt(n)
    # the float root below 2^52 and Newton above, at k^e and its
    # neighbours, where a float root may land just below k
    for e in (2, 3, 5, 7, 13):
        for k in [2, 3, 10, 1000, 65537, 10 ** 6, 10 ** 8, 3 ** 20, 10 ** 20]:
            for n in (k ** e - 1, k ** e, k ** e + 1):
                r = integer_nth_root(n, e)
                assert r ** e <= n < (r + 1) ** e, (n, e)
    for n in ((1 << 52) - 1, 1 << 52, (1 << 52) + 1):
        assert integer_nth_root(n, 2) == math.isqrt(n)
        assert integer_nth_root(n, 4) == math.isqrt(math.isqrt(n))


def test_is_square_and_sqrt():
    assert is_square(F(9, 4)) and rational_sqrt(F(9, 4)) == F(3, 2)
    assert not is_square(F(-4))
    assert not is_square(F(8, 9))


def _is_square_reference(q):
    q = F(q)
    return q >= 0 and all(math.isqrt(m) ** 2 == m for m in (q.numerator, q.denominator))


def test_is_square_residue_screen_matches_isqrt():
    # the screen refuses by residues mod 64, 63, 65 and 11 and calls
    # isqrt only on what passes; the answer must stay the exact one
    rng = random.Random(64636511)
    ints = [0, 1, 2, 3, 4, -1, -4, -9]
    for digits in list(range(1, 60)) + [rng.randrange(60, 6001) for _ in range(40)] + [6000]:
        m = rng.randrange(10 ** (digits - 1), 10 ** digits)    # m^2 up to 12,000 digits
        ints += [m * m, m * m + 1, m * m - 1, m, -m * m]
        ints += [m * m * k for k in (2, 3, 5, 6, 7, 10, 11, 13)]
    ints += list(range(-50, 3000))
    for n in ints:
        assert is_square(n) == _is_square_reference(n), n
    short = [n for n in ints if n.bit_length() < 4000]
    squares = [n for n in short if _is_square_reference(n)]
    for _ in range(300):
        num, den = rng.choice(squares), rng.choice(short[8:])
        for q in (F(num, den), F(den, num or 1), F(-num, den or 1)):
            if q.denominator != 1 or q.numerator != 0:
                assert is_square(q) == _is_square_reference(q), q
                assert is_square(Ratio(q.numerator, q.denominator)) == is_square(q), q
    assert {is_square(n) for n in ints} == {True, False}
    assert rational_sqrt(F(4 * 10 ** 2000, 9)) == F(2 * 10 ** 1000, 3)
    with pytest.raises(ValueError):
        rational_sqrt(F(2 * 10 ** 2000, 9))


# ----------------------------------------------------------- decimal strings

@pytest.fixture
def default_digit_limit():
    """CPython's default 4,300-digit int-to-str limit, whatever ran before."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_string_equals_str(default_digit_limit):
    # the cases of tests/decimal_strings.py at the benchmark's sizes; the
    # CI runs them to 10^6 bits and j = 9
    decimal_strings.check(decimal_strings.decimal_string_cases(10 ** 9 + 7, 200_000, 8))


def test_decimal_divmod_estimate_falls_short_by_at_most_two():
    # the estimate floor(floor(n / 2^(b-1)) R / 2^(b+1)) over 0 <= n < 4^b,
    # the range the splits pass in: its ends, multiples of P and random n
    # of every length
    from fiverank import exact

    rng = random.Random(22)
    for j in range(6):
        P, b, R = exact._decimal_power(j)
        ns = [0, 1, P - 1, P, 2 * P - 1, (4 ** b - 1) // P * P, 4 ** b - 1]
        ns += [rng.randrange(4 ** b) for _ in range(50)]
        ns += [rng.randrange(4 ** b >> k) for k in range(0, 2 * b, max(1, b // 20))]
        short = set()
        for n in ns:
            q = ((n >> (b - 1)) * R) >> (b + 1)
            short.add(n // P - q)
            assert exact._decimal_divmod(n, j) == divmod(n, P), (j, n)
        assert short <= {0, 1, 2}, (j, short)


def test_decimal_divmod_cut_estimate_falls_short_by_at_most_two():
    # n of every bit length B from 1 to 2b in strides of at most b/200, with
    # the lengths where the cut c = min(2b - B - 9, b) switches on (B = 2b - 10)
    # and off (2b - 9) and where it is capped at b (B <= b - 9), and kP - 1,
    # kP and kP + P - 1 next to each: the estimate by floor(R / 2^c), or by
    # R itself where no cut applies, never exceeds the quotient and falls
    # short by at most two, over 0 <= n < 4^b
    from fiverank import exact

    rng = random.Random(33)
    for j in range(7):
        P, b, R = exact._decimal_power(j)
        edges = {2 * b - 11, 2 * b - 10, 2 * b - 9, 2 * b, b - 10, b - 9, b - 8, b, b + 1, 1}
        short, cuts = set(), set()
        for B in sorted(set(range(1, 2 * b + 1, max(1, b // 200))) | edges):
            n = 1 << (B - 1) | rng.getrandbits(B - 1)
            k, s = divmod(n, P)
            cases = {n: (k, s)}
            if k:
                cases.update({k * P - 1: (k - 1, P - 1), k * P: (k, 0),
                              k * P + P - 1: (k, P - 1)})
            if B in edges:
                cases.update({m: divmod(m, P) for m in (1 << (B - 1), (1 << B) - 1)})
            for m, quotient_remainder in cases.items():
                if m >> 2 * b:                 # beyond the splits' precondition, n < 4^b
                    continue
                length = m.bit_length()
                cut = min(2 * b - length - 9, b) if length <= 2 * b - 10 else 0
                cuts.add(cut)
                q = ((m >> (b - 1)) * (R >> cut)) >> (b + 1 - cut)
                short.add(quotient_remainder[0] - q)
                assert exact._decimal_divmod(m, j) == quotient_remainder, (j, length)
        assert short <= {0, 1, 2}, (j, short)
        assert {0, 1, b} <= cuts, j


def test_decimal_string_refuses_a_wrong_reciprocal(monkeypatch, default_digit_limit):
    # a wrong cached reciprocal raises ArithmeticError after at most
    # _DECIMAL_CORRECTIONS steps: no hang and no wrong digits
    from fiverank import exact

    assert exact._DECIMAL_CORRECTIONS == 2
    n = 10 ** 12_000 - 1                       # splits at P_5, then P_4 down to P_0
    powers = [exact._decimal_power(j) for j in range(6)]
    for j in (0, 3, 5):
        P, b, R = powers[j]
        for wrong in (R // 2, 2 * R, R + (R >> 8)):
            monkeypatch.setattr(exact, "_DECIMAL_POWERS",
                                powers[:j] + [(P, b, wrong)] + powers[j + 1:])
            with pytest.raises(ArithmeticError, match=rf"10\^{exact._DECIMAL_LEAF << j} "):
                decimal_string(n)
    # with the estimate forced to 0, a quotient of 2 is still corrected and
    # one of 3 is refused
    P, b, _ = powers[0]
    monkeypatch.setattr(exact, "_DECIMAL_POWERS", [(P, b, 0)] + powers[1:])
    assert exact._decimal_divmod(2 * P + 5, 0) == (2, 5)
    with pytest.raises(ArithmeticError, match="off by more than 2"):
        exact._decimal_divmod(3 * P + 5, 0)
    monkeypatch.undo()
    assert decimal_string(n) == unlimited_str(n)


def test_decimal_string_keeps_a_few_powers(default_digit_limit):
    from fiverank import exact

    rng = random.Random(200)
    for _ in range(200):
        n = rng.getrandbits(rng.choice((64, 2000, 13_000, 40_000, rng.randrange(200_000))))
        assert decimal_string(n) == unlimited_str(n)
    # powers and reciprocals are one cache of a few entries, the reciprocal
    # of each power floor(4^b / P), one bit longer than P
    assert len(exact._DECIMAL_POWERS) <= 10
    for j, (P, b, R) in enumerate(exact._DECIMAL_POWERS):
        assert P == 10 ** (exact._DECIMAL_LEAF << j) and b == P.bit_length()
        assert R == 4 ** b // P and R.bit_length() == b + 1
    assert str(Ratio(-7 * 10 ** 5000, 3)) == unlimited_str(F(-7 * 10 ** 5000, 3))
    assert str(Ratio(10 ** 5000, 1)) == unlimited_str(10 ** 5000)


def _reference_trial_factor(n, bound):
    """trial_factor by plain trial division over 5, 7, 11, 13, ... (6k +- 1)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    factors = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    step = 2
    while p <= bound and p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        if n <= bound * bound or is_probable_prime(n):
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n


@pytest.fixture
def fresh_prime_table(monkeypatch):
    """An empty prime table, grown from scratch by the test."""
    from array import array

    from fiverank import exact

    monkeypatch.setattr(exact, "_primes", array("I"))
    monkeypatch.setattr(exact, "_prime_limit", 4)
    monkeypatch.setattr(exact, "_block_products", [])
    return exact


def _straddling_primes(points):
    """The two primes on either side of each point."""
    out = []
    for m in points:
        below = m - 1
        while not is_probable_prime(below):
            below -= 1
        above = m + 1
        while not is_probable_prime(above):
            above += 1
        out += [below, above]
    return out


def test_trial_factor_matches_plain_trial_division(fresh_prime_table):
    # the table grows while this runs, so calls meet it at every size:
    # runs of primes tried whole, tried in part after a growth, and cut
    # short by the bound or by p^2 > n
    rng = random.Random(20261019)
    small_bounds = list(range(1, 41)) + [1000]
    big_bounds = [10 ** 6, 10 ** 7]
    cases = []
    for _ in range(300):
        cases.append((rng.choice((1, -1)) * rng.randrange(1, 2 ** 64), small_bounds))
    for _ in range(20):
        cases.append((rng.randrange(1, 2 ** 40), small_bounds + big_bounds))
    # prime squares and products straddling the bounds and the points
    # where the table's limit doubles (powers of 2, capped at the bound)
    points = [2 ** k for k in range(3, 18)] + [10, 20, 30, 40, 1000]
    near = _straddling_primes(points)
    for p in near:
        cases.append((p * p, small_bounds + big_bounds))
        cases.append((-12 * p * p * p, small_bounds))
    for p, q in zip(near[::2], near[1::2]):
        cases.append((p * q, small_bounds + big_bounds))
        cases.append((5 * 7 * p * q * q, small_bounds))
    p, q = _straddling_primes([10 ** 6])
    cases.append((p * q, small_bounds + big_bounds))
    for n in (1, -1, 2, 3, 4, 25, 35, 49, 2 ** 61 - 1, 3 ** 40, (2 ** 31 - 1) ** 2):
        cases.append((n, small_bounds + big_bounds))
    for n, bounds in cases:
        for bound in bounds:
            got = trial_factor(n, bound)
            want = _reference_trial_factor(n, bound)
            # the same factors, found in the same order
            assert got == want and list(got[0]) == list(want[0]), (n, bound)
    for bound in small_bounds + big_bounds:
        with pytest.raises(ValueError):
            trial_factor(0, bound)
    exact = fresh_prime_table
    limit, block = exact._prime_limit, exact._BLOCK
    assert limit <= 10 ** 7
    sieve = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    assert list(exact._primes) == [p for p in range(5, limit + 1) if sieve[p]]
    assert len(exact._block_products) == -(-len(exact._primes) // block)
    for k, product in enumerate(exact._block_products):
        assert product == math.prod(exact._primes[k * block:(k + 1) * block])


def _largest_prime_tried(n, bound):
    """The largest prime that plain trial division of n up to bound tries."""
    n = abs(n)
    for p in (2, 3):
        while n % p == 0:
            n //= p
    p, step, largest = 5, 2, 3
    while p <= bound and p * p <= n:
        if is_probable_prime(p):
            largest = p
        while n % p == 0:
            n //= p
        p += step
        step = 6 - step
    return largest


def test_prime_table_grows_only_as_far_as_needed(fresh_prime_table, monkeypatch):
    # curve setup factors discriminants with bound 10^7, yet needs only
    # small primes: the table must not be sieved up to the bound or to
    # sqrt(n) ahead of the loop
    from fiverank import classgroup, curves, sieve
    from fiverank.classgroup import SCAN_U
    from fiverank.errors import FiverankError

    exact = fresh_prime_table
    calls = []
    real = exact.trial_factor

    def recorded(n, bound):
        calls.append((n, bound))
        return real(n, bound)

    monkeypatch.setattr(exact, "trial_factor", recorded)
    monkeypatch.setattr(curves, "trial_factor", recorded)
    # the functions behind the caches, so that the cached values stay put
    sieve.sieve_data.__wrapped__()
    for u in SCAN_U:
        try:
            classgroup._single_curve_setup.__wrapped__(u)
        except FiverankError:
            pass
    assert any(bound == 10 ** 7 for _, bound in calls)
    prime_60 = 2 ** 60 - 93
    assert is_probable_prime(prime_60)
    assert exact.trial_factor(prime_60, 1000) == ({prime_60: 1}, 1)
    needed = max(_largest_prime_tried(n, bound) for n, bound in calls)
    assert needed == 997
    assert exact._primes[-1] <= 2 * needed


def test_trial_factor_prime_cofactor():
    n = 2**3 * 10000019
    factors, cofactor = trial_factor(n, 100)
    assert cofactor == 1 and factors == {2: 3, 10000019: 1}
    assert factor_completely(360, 100) == {2: 3, 3: 2, 5: 1}


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(1277)
    assert not is_probable_prime(1) and not is_probable_prime(561)
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime(2**128 + 1)


# ----------------------------------------------------------------- residues

def test_rational_mod():
    assert rational_mod(F(1, 3), 5) == 2
    with pytest.raises(BadReductionError):
        rational_mod(F(1, 5), 5)


def test_serialization_round_trip():
    assert Poly([F(1, 2), 0, 3]).to_json() == ["1/2", "0", "3"]


# -------------------------------------------------------------- polynomials

def test_poly_basic_arithmetic():
    x = Poly.x()
    f = (x - 1) * (x + 2)
    assert f == Poly([-2, 1, 1])
    q, r = divmod(f, x - 1)
    assert q == x + 2 and r.is_zero()
    assert f(3) == 10
    assert f.derivative() == Poly([1, 2])
    assert (x ** 3).degree == 3
    assert Poly().is_zero() and Poly().degree == -1


def test_poly_gcd_and_resultant():
    x = Poly.x()
    f = (x - 1) ** 2 * (x + 3)
    g = (x - 1) * (x - 5)
    assert f.gcd(g) == x - 1


def test_poly_from_roots_and_divides():
    k = Poly.from_roots([F(2), F(-1, 3)])
    f = k * Poly([1, 0, 1])
    assert k.divides(f)
    assert not (Poly.x() - 7).divides(f)


def test_poly_primitive_integer():
    f = Poly([F(1, 2), F(-3, 4), F(5, 6)])
    assert f.primitive_integer() == [6, -9, 10]
    assert (Poly([F(-2), F(-4)])).primitive_integer() == [1, 2]


# -------------------------------------------------------- rational functions

def test_ratfunc_normalization_and_idempotence():
    x = Poly.x()
    r = RatFunc((x * x - 1) * 3, (x - 1) * 6)
    assert r.num == Poly([F(1, 2), F(1, 2)]) and r.den == Poly([1])
    again = RatFunc(r.num, r.den)
    assert again == r
    assert RatFunc(x - 1, x + 1).den.leading() == 1


def test_ratfunc_substitute_examples():
    x = Poly.x()
    s = RatFunc(x + 1, x)                     # (z+1)/z
    out = ratfunc_substitute(x * x, s)
    assert out == RatFunc((x + 1) * (x + 1), x * x)
    c = F(5, 7)
    assert ratfunc_substitute(x - c, RatFunc(Poly([c]))).is_zero()


def test_ratfunc_arithmetic_and_poles():
    x = Poly.x()
    r = RatFunc(Poly([1]), x)                 # 1/z
    assert (r + r) == RatFunc(Poly([2]), x)
    assert r * x == 1
    assert r.is_pole(F(0))
    with pytest.raises(Exception):
        r(F(0))


@given(st.lists(st.fractions(min_value=-9, max_value=9), min_size=1, max_size=4),
       st.lists(st.fractions(min_value=-9, max_value=9), min_size=1, max_size=4))
@settings(max_examples=60)
def test_ratfunc_renormalization_idempotent(nc, dc):
    num, den = Poly(nc), Poly(dc)
    if den.is_zero():
        return
    r = RatFunc(num, den)
    assert RatFunc(r.num, r.den) == r
    if not r.is_zero():
        assert r.num.gcd(r.den).degree == 0
        assert r.den.leading() == 1


small_polys = st.lists(st.fractions(min_value=-6, max_value=6),
                       min_size=0, max_size=4).map(Poly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80)
def test_poly_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f - g) + g == f
    if not g.is_zero():
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_poly_gcd_divides_both(f, g):
    if f.is_zero() and g.is_zero():
        return
    d = f.gcd(g)
    if d.is_zero():
        return
    assert (f % d).is_zero() and (g % d).is_zero()


# reference arithmetic: the coefficient-by-coefficient loops over any field

def _trimmed(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _reference_product(f, g):
    if not f or not g:
        return []
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return _trimmed(out)


def _reference_divmod(f, g):
    rem, dg = list(f), len(g) - 1
    quot = [F(0)] * max(len(f) - dg, 0)
    for i in range(len(f) - dg - 1, -1, -1):
        c = rem[i + dg] / g[-1]
        quot[i] = c
        for j, b in enumerate(g):
            rem[i + j] = rem[i + j] - c * b
    return _trimmed(quot), _trimmed(rem[:dg])


def _random_rational(rng):
    bound = rng.choice((1, 9, 10 ** 6, 10 ** 40))
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def _random_coefficients(rng, degree):
    """degree + 1 rationals, the leading one nonzero and rarely 1 (an empty
    list for degree -1, the zero polynomial)."""
    cs = [_random_rational(rng) for _ in range(degree + 1)]
    if cs and not cs[-1]:
        cs[-1] = F(-7, 3)
    return cs


def test_integer_scale_arithmetic_matches_the_fraction_loop():
    # every pair of degrees from -1 (zero) to 14, so dividends of lower
    # degree than their divisors too, with numerators and denominators up
    # to 1e40 and leading coefficients of either sign
    rng = random.Random(2626)
    for df in range(-1, 15):
        for dg in range(-1, 15):
            f, g = _random_coefficients(rng, df), _random_coefficients(rng, dg)
            P, G = Poly(f), Poly(g)
            product = P * G
            assert product.c == tuple(_reference_product(f, g)), (df, dg)
            assert all(type(c) is F for c in product.c)
            if not g:
                with pytest.raises(ZeroDivisionError):
                    divmod(P, G)
                continue
            q, r = divmod(P, G)
            ref_q, ref_r = _reference_divmod(f, g)
            assert q.c == tuple(ref_q) and r.c == tuple(ref_r), (df, dg)
            assert all(type(c) is F for c in q.c + r.c)
            assert q * G + r == P and r.degree < G.degree
            assert P // G == q and P % G == r and G.divides(P) == r.is_zero()
    # exact quotients leave no remainder
    for _ in range(20):
        f = _random_coefficients(rng, rng.randint(0, 7))
        g = _random_coefficients(rng, rng.randint(0, 7))
        assert divmod(Poly(f) * Poly(g), Poly(g)) == (Poly(f), Poly())


def test_poly_over_rational_functions_multiplies_and_divides():
    # the generic loop: coefficients in Q(u), and Q times Q(u)
    u = RatFunc(Poly.x())
    rng = random.Random(26)
    for _ in range(12):
        f = [u ** rng.randint(0, 3) * _random_rational(rng) + rng.randint(-3, 3)
             for _ in range(rng.randint(1, 5))]
        g = [_random_rational(rng) * u + 1 for _ in range(rng.randint(1, 3))]
        rational = _random_coefficients(rng, rng.randint(0, 3))
        for a, b in ((f, g), (rational, g), (f, rational)):
            P, G = Poly(a), Poly(b)
            assert (P * G).c == tuple(_reference_product(list(P.c), list(G.c)))
            if G:
                q, r = divmod(P, G)
                ref_q, ref_r = _reference_divmod(list(P.c), list(G.c))
                assert q.c == tuple(ref_q) and r.c == tuple(ref_r)
                assert q * G + r == P and r.degree < G.degree


# ----------------------------------------------------------- mod-p machinery

def test_splitting_profile_examples():
    assert splitting_profile([-1, 0, 0, 0, 0, 1], 11) == [1, 1, 1, 1, 1]   # x^5 - 1
    assert splitting_profile([-1, 0, 0, 0, 0, 1], 7) == [1, 4]
    assert splitting_profile([1, 0, 1], 3) == [2]                          # x^2 + 1


def test_splitting_profile_sums_to_degree():
    for p in [3, 5, 13, 163]:
        f = [-1, 1, -3, 0, 0, 0, 1]                 # x^6 - 3x^2 + x - 1
        assert sum(splitting_profile(f, p)) == 6


def test_splitting_profile_repeated_factors():
    # a repeated factor mod p is bad reduction, also when f itself is
    # squarefree: x^2 - 2x + 6 = (x - 1)^2 mod 5, irreducible mod 11
    x = Poly.x()
    f = (x - 1) ** 2 * (x * x + 1)
    for p in (5, 7):
        with pytest.raises(BadReductionError):
            splitting_profile(f.primitive_integer(), p)
    with pytest.raises(BadReductionError):
        splitting_profile([6, -2, 1], 5)
    assert splitting_profile([6, -2, 1], 11) == [2]
    # p-th power: (x^2+1)^3 mod 3 has derivative 0
    with pytest.raises(BadReductionError):
        splitting_profile(((x * x + 1) ** 3).primitive_integer(), 3)


def test_splitting_profile_bad_reduction():
    with pytest.raises(BadReductionError, match="leading coefficient vanishes mod 7"):
        splitting_profile([1, 0, 7], 7)                   # 7x^2 + 1
    with pytest.raises(ValueError):
        splitting_profile([1, 1], 2)
    with pytest.raises(ValueError):
        splitting_profile([1, 1], 9)
    with pytest.raises(ValueError):
        splitting_profile([0, 0], 7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 163, 10007]),
       st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=12),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6))
def test_pm_divmod_unreduced_integers_non_monic_divisor(p, f, g):
    # pm_divmod accepts integer lists that are not reduced mod p
    if g[-1] % p == 0:
        g = g + [p + 1]                 # unreduced, non-monic unit leading term
    q, r = pm_divmod(f, g, p)
    assert len(r) < len(g)                       # deg r < deg g
    assert all(0 <= c < p for c in q + r)
    qg_plus_r = pm_sub(pm_mul(q, g, p), [-c for c in r], p)
    assert pm_sub(f, qg_plus_r, p) == []         # f = q*g + r (mod p)


def test_pm_gcd_of_unreduced_integer_lists():
    # 5(x^2 - 1) and x - 1, unreduced mod 7: the monic gcd is x + 6
    assert pm_gcd([-5, 0, 5], [-1, 1], 7) == [6, 1]
