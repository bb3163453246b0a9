import time
from fractions import Fraction as F

import pytest

from fiverank.errors import NoSingularPointError
from fiverank.exact import valuation
from fiverank.family import CONSTANTS, specialize
from fiverank.sieve import (
    admissible_z,
    check_z,
    extension_check,
    sieve_data,
    singular_abscissa,
)

M1 = 11 * 19 * 29
M2 = 163 * 701 * 1277


def test_admissible_stream_congruences():
    for z in admissible_z(count=12, sign="both"):
        assert z % M1 == 0
        assert z % M2 == 1
        assert z % 419 not in (86, 419 - 86)


def test_admissible_stream_order_and_signs():
    both = list(admissible_z(count=10, sign="both"))
    assert [abs(z) for z in both] == sorted(abs(z) for z in both)
    pos = list(admissible_z(count=5, sign="pos"))
    neg = list(admissible_z(count=5, sign="neg"))
    assert all(z > 0 for z in pos) and all(z < 0 for z in neg)
    assert pos[0] == 874461709044
    assert neg[0] == -9922141867


def test_admissible_stream_start_offset():
    first = next(iter(admissible_z(sign="pos")))
    later = list(admissible_z(start=first + 1, count=3, sign="pos"))
    assert all(abs(z) > first for z in later)


def test_admissible_count_zero_yields_nothing():
    for sign in ("pos", "neg", "both"):
        assert list(admissible_z(count=0, sign=sign)) == []
        assert list(admissible_z(start=10 ** 12, count=-1, sign=sign)) == []


def test_admissible_large_start_jumps_to_the_class():
    # independent CRT: z = 0 mod 11*19*29 and z = 1 mod 163*701*1277
    modulus = M1 * M2
    residue = M1 * pow(M1, -1, M2) % modulus
    start = 10 ** 20
    pos = [start + (residue - start) % modulus + k * modulus for k in range(12)]
    neg = [-start - (-start - residue) % modulus - k * modulus for k in range(12)]
    expected = sorted((z for z in pos + neg if z % 419 not in (86, 333)), key=abs)[:10]
    began = time.perf_counter()
    got = list(admissible_z(start=start, count=10, sign="both"))
    assert time.perf_counter() - began < 1.0
    assert got == expected
    assert list(admissible_z(start=start, count=3, sign="pos")) == \
        [z for z in expected if z > 0][:3]
    assert list(admissible_z(start=start, count=3, sign="neg")) == \
        [z for z in expected if z < 0][:3]


def test_admissible_filters_419():
    # walk the raw progression and confirm excluded candidates really are
    # the ones with z = +-86 mod 419
    from fiverank.exact import ResidueClass, crt
    cls = crt([ResidueClass(0, M1), ResidueClass(1, M2)])
    raw = [cls.residue + k * cls.modulus for k in range(40)]
    kept = set(admissible_z(count=sum(1 for z in raw if z % 419 not in (86, 333)),
                            sign="pos"))
    for z in raw:
        if z % 419 in (86, 333):
            assert z not in kept


# ------------------------------------------------------------ reduction data

def test_five_component_primes_match_construction():
    data = sieve_data()
    expected = CONSTANTS["five_component_primes"]
    for d, exp in zip(data, expected):
        assert d.five_primes == exp


def test_singular_abscissae_match_construction():
    data = sieve_data()
    for d in data:
        assert singular_abscissa(d, d.congruence_prime) == d.excluded_residue


def test_singular_abscissa_good_prime_raises():
    d = sieve_data()[0]
    with pytest.raises(NoSingularPointError):
        singular_abscissa(d, 1009)


def test_minimal_models_semistable():
    from fiverank.curves import is_semistable
    sp = specialize()
    for model in sp.F_models + sp.E_models:
        assert is_semistable(model.curve())


def test_minimal_discriminants_supported_on_small_primes():
    from fiverank.curves import bad_primes
    expected = [{2, 3, 5, 7, 11, 19, 29, 419},
                {2, 3, 5, 7, 11, 19, 29, 709},
                {2, 3, 5, 7, 11, 19, 29, 151}]
    for d, exp in zip(sieve_data(), expected):
        assert set(bad_primes(d.minimal)) == exp


# --------------------------------------------------------- extension checks

def test_extension_check_passes_first_admissible():
    sp = specialize()
    for z in admissible_z(count=4, sign="both"):
        report = check_z(z, sp)
        assert report.passed, [r for r in report.records if not r.passed]
        assert report.verbatim_passed() and report.general_rule_passed()


def test_extension_failures_exactly_the_cancellation_class():
    # the only admissible z failing the conditions are those whose 29-part
    # cancels in the numerator of x(z): v_29(z) = 1 with z/29 = 6 or 10
    # mod 29; deeper 29-divisibility separates the term valuations again
    from fiverank.exact import valuation
    sp = specialize()
    for z in admissible_z(count=120, sign="both"):
        report = check_z(z, sp)
        predicted = (valuation(F(z), 29) == 1 and (z // 29) % 29 in (6, 10))
        assert report.passed == (not predicted), z
        assert report.verbatim_passed() == report.general_rule_passed()


def test_extension_check_synthetic_failures():
    data = sieve_data()[0]
    # v_11(x) = -1 fails the valuation bound
    x = F(1, 11)
    records = extension_check(data, x)
    val11 = [r for r in records if r.kind == "valuation" and r.prime == 11][0]
    assert not val11.passed
    # abscissa congruent to the excluded residue fails
    x = F(77)
    records = extension_check(data, x)
    cong = [r for r in records if r.kind == "congruence"][0]
    assert not cong.passed
    # and a clean abscissa passes the congruence
    x = F(78)
    records = extension_check(data, x)
    cong = [r for r in records if r.kind == "congruence"][0]
    assert cong.passed


def test_report_sign_matches_radicand():
    sp = specialize()
    zp = next(iter(admissible_z(sign="pos")))
    zn = next(iter(admissible_z(sign="neg")))
    assert check_z(zp, sp).radicand_sign == (1 if sp.radicand(zp) > 0 else -1)
    assert check_z(zn, sp).radicand_sign == (1 if sp.radicand(zn) > 0 else -1)


def test_report_json_shape():
    report = check_z(next(iter(admissible_z(sign="neg"))))
    data = report.to_json()
    assert data["record"] == "sieve-report"
    assert isinstance(data["z"], str)
    assert len(data["conditions"]) == sum(
        2 + 1 + len(d.five_primes) for d in sieve_data())
