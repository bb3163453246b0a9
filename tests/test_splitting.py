import collections
import dataclasses
import json
import random
import sys
from fractions import Fraction as F

import pytest

from fiverank import family, sieve, splitting
from fiverank.errors import (
    BadReductionError,
    FieldCollapseError,
    FiverankError,
    InvalidCertificateError,
    PoleError,
    ProtocolViolationError,
    RamifiedPrimeError,
)
from fiverank.exact import Poly, RatFunc, is_square, valuation_and_residue
from fiverank.family import specialize
from fiverank.isogeny import preimage_quintic
from fiverank.sieve import admissible_z
from fiverank.splitting import (
    EXPECTED_PATTERN,
    INERT,
    SPLIT,
    SplittingPattern,
    fields_distinct,
    frobenius_order_in_L,
    independence_certificate,
    prime_split_in_K,
    splitting_pattern,
    verify_instance,
)

from pins import ARBITRARY_Z, FALLBACK_Z, OPEN_CLASS_Z, PINS, ROUTE_Z, UNFIXED


def test_prime_split_in_K_examples():
    assert prime_split_in_K(7, F(-3)) == "split"      # -3 = 4 mod 7
    assert prime_split_in_K(5, F(-3)) == "inert"
    assert prime_split_in_K(3, F(-3)) == "ramified"
    # square part mod l^2 is cleared before deciding
    assert prime_split_in_K(7, F(-3 * 49)) == "split"
    assert prime_split_in_K(7, F(-3, 49)) == "split"
    # an odd power of l in the denominator or the numerator ramifies
    assert prime_split_in_K(7, F(-3, 7)) == "ramified"
    assert prime_split_in_K(7, F(5 * 7 ** 3)) == "ramified"


def test_prime_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        prime_split_in_K(2, F(-3))
    with pytest.raises(ValueError):
        prime_split_in_K(9, F(-3))


def test_frobenius_order_profiles():
    x = Poly.x()
    # X^5 - 1 mod 11 splits into linears; mod 7 it has profile [1, 4]
    assert frobenius_order_in_L((x ** 5 - 2).primitive_integer(), 31) in ("split", "inert")
    # X^5 - 2 mod 11: 11 = 1 mod 5 and 2 is not a 5th power -> irreducible
    assert frobenius_order_in_L((x ** 5 - 2).primitive_integer(), 11) == "inert"
    # a prime dividing the discriminant is refused: X^5 - 2 = (X - 2)^5 mod 5
    with pytest.raises(RamifiedPrimeError,
                       match=r"^5 divides the quintic discriminant$"):
        frobenius_order_in_L((x ** 5 - 2).primitive_integer(), 5)
    # so is a prime dividing the leading coefficient of the integer form
    # 7 X^5 + 1
    with pytest.raises(RamifiedPrimeError,
                       match=r"^leading coefficient vanishes mod 7$"):
        frobenius_order_in_L((x ** 5 + F(1, 7)).primitive_integer(), 7)
    # mixed profile contradicts the cyclic structure
    with pytest.raises(ProtocolViolationError):
        frobenius_order_in_L((x ** 5 - 2).primitive_integer(), 7)     # profile [1, 4]


def make_pattern(entries):
    return SplittingPattern((163, 701, 1277), entries,
                            (SPLIT, SPLIT, SPLIT))


def test_independence_expected_pattern():
    assert independence_certificate(make_pattern(EXPECTED_PATTERN))


def test_independence_all_split_invalid():
    allsplit = make_pattern(((SPLIT,) * 3,) * 3)
    with pytest.raises(InvalidCertificateError):
        independence_certificate(allsplit)
    with pytest.raises(InvalidCertificateError):
        allsplit.validate()


def test_independence_duplicate_columns():
    # two extensions inert at exactly the same single prime, split elsewhere
    entries = (
        (INERT, INERT, SPLIT),
        (SPLIT, SPLIT, INERT),
        (SPLIT, SPLIT, SPLIT),
    )
    pattern = make_pattern(entries)
    pattern.validate()
    assert not independence_certificate(pattern)


def test_invalid_when_K_not_split():
    pattern = SplittingPattern((163, 701, 1277), EXPECTED_PATTERN,
                               (SPLIT, INERT, SPLIT))
    with pytest.raises(InvalidCertificateError):
        pattern.validate()


# --------------------------------------------------------------- end-to-end

def _pattern(z):
    """splitting_pattern on x(z) from the rational function x_of_z."""
    sp = specialize()
    x = sp.x_of_z(F(z))
    return splitting_pattern(z, x, sp.f_model(x))


def test_pattern_first_admissible_z_matches_expected():
    for z in admissible_z(count=2, sign="both"):
        pattern = _pattern(z)
        assert pattern.entries == EXPECTED_PATTERN
        assert pattern.k_verdicts == (SPLIT, SPLIT, SPLIT)
        assert independence_certificate(pattern)


def test_verify_instance_first_z():
    z = next(iter(admissible_z(sign="neg")))
    cert = verify_instance(z)
    assert cert.conclusion
    assert cert.sign == -1          # negative z gives an imaginary field here
    assert cert.independence
    assert not cert.failures
    data = cert.to_json()
    assert data["record"] == "field-certificate"
    assert data["conclusion"] is True


def test_verify_instance_rejected_z():
    # an integer in the right congruence class but hitting the 419 exclusion
    m1, m2 = 11 * 19 * 29, 163 * 701 * 1277
    z0 = m1 * pow(m1, -1, m2)
    z = None
    k = 0
    while z is None:
        cand = z0 + k * m1 * m2
        if cand % 419 in (86, 333):
            z = cand
        k += 1
    cert = verify_instance(z)
    assert not cert.conclusion
    assert any("sieve" in f for f in cert.failures)


def test_verify_instance_evaluates_x_once(monkeypatch):
    # check_z's direct route (|z| <= sign_bound(), or a p-adic class left
    # open, as at 11850) evaluates x(z) and H; the certificate builds that
    # report from its own evaluation, and the class route evaluates nothing
    class_z = next(admissible_z(start=10 ** 6, sign="pos"))
    assert sieve.sign_bound() < 11850 < class_z
    assert sieve._class_records(11850) is None
    assert sieve._class_records(class_z) is not None
    real, calls = sieve.x_and_radicand_form, []

    def counted(z):
        calls.append(z)
        return real(z)

    for z in (2, -3, 11850, class_z):
        monkeypatch.setattr(splitting, "x_and_radicand_form", counted)
        monkeypatch.setattr(sieve, "x_and_radicand_form", counted)
        calls.clear()
        cert = verify_instance(z)
        assert calls == [z], z
        monkeypatch.undo()
        assert cert.sieve_report == sieve.check_z(z), z


def test_class_route_certificate_looks_up_its_classes_once(monkeypatch):
    # check_z alone chooses the sieve route, so a class-route certificate
    # looks up the p-adic classes of z once, there, and carries no
    # evaluation in its report
    zs = [next(admissible_z(start=10 ** e, sign=sign))
          for e in (12, 100, 1000) for sign in ("pos", "neg")] + [10 ** 15 + 1141]
    real, calls = sieve._class_records, []

    def counted(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(sieve, "_class_records", counted)
    for z in zs:
        calls.clear()
        cert = verify_instance(z)
        assert calls == [z], z
        assert cert.sieve_report.evaluation is None and real(z) is not None, z


@pytest.mark.parametrize("z", [2, -3, 11850] + OPEN_CLASS_Z,
                         ids=["2", "-3", "11850", "open-1e12", "open-1e100", "open-1e1000"])
def test_direct_route_report_carries_its_evaluation(z):
    # the evaluation is x_and_radicand_form(z), kept out of the record,
    # the repr and equality
    report = sieve.check_z(z)
    assert report.evaluation == sieve.x_and_radicand_form(z), z
    assert abs(z) <= sieve.sign_bound() or sieve._class_records(z) is None, z
    bare = sieve.SieveReport(report.z, report.radicand_sign, report.records)
    assert report == bare and repr(report) == repr(bare)
    assert report.to_json() == bare.to_json()


def test_pole_raises_from_check_z_and_verify_instance():
    for build in (sieve.check_z, verify_instance):
        with pytest.raises(PoleError, match=r"^evaluation at pole z=0$"):
            build(0)


def test_fields_distinct():
    assert fields_distinct(F(-5), F(-7))
    assert not fields_distinct(F(-5), F(-20))     # -5 * -20 = 100
    sp = specialize()
    zs = list(admissible_z(count=3, sign="both"))
    rads = [sp.radicand(z) for z in zs]
    assert fields_distinct(rads[0], rads[1])
    assert fields_distinct(rads[0], rads[2])


# ------------------------------------------------- residue-keyed fast path
#
# The reference is the exact per-z route: the preimage quintic of the
# exact long-form abscissa x(z), factored mod l, and an Euler-criterion
# verdict for l in K on the product of the radicand's numerator and
# denominator.  The fast path must agree with it on every outcome,
# errors included (type and message).

ZERO_MOD = 11 * 19 * 29
ONE_MOD = 163 * 701 * 1277
CLASS_MOD = ZERO_MOD * ONE_MOD
CLASS_RESIDUE = ZERO_MOD * pow(ZERO_MOD, -1, ONE_MOD)


def _k_verdict_reference(l, radicand):
    m = radicand.numerator * radicand.denominator
    while m % (l * l) == 0:
        m //= l * l
    if m % l == 0:
        return "ramified"
    return "split" if pow(m, (l - 1) // 2, l) == 1 else "inert"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FiverankError as exc:
        return type(exc).__name__, str(exc)


def _exact_entry(sp, j, l, x):
    quintic = preimage_quintic(sp.isogenies[j], sp.F_models[j].to_long_x(x))
    return frobenius_order_in_L(quintic.primitive_integer(), l)


def _exact_pattern(z, *_):
    """splitting_pattern's contract, computed per z on the exact x(z)."""
    sp = specialize()
    r, x = sp.radicand(z), sp.x_of_z(F(z))
    if is_square(r):
        raise FieldCollapseError(f"radicand at z={z} is a rational square")
    primes = (163, 701, 1277)
    k_verdicts = tuple(_k_verdict_reference(l, r) for l in primes)
    entries = tuple(tuple(_exact_entry(sp, j, l, x) for j in range(3))
                    for l in primes)
    return SplittingPattern(primes, entries, k_verdicts)


def _sample_z(seed):
    """Seeded admissible and arbitrary z at |z| ~ 1e3, 1e12, 1e100, 1e1000."""
    rng = random.Random(seed)
    zs = []
    for digits in (3, 12, 100, 1000):
        for _ in range(2):
            target = rng.choice((1, -1)) * rng.randrange(10 ** digits, 10 ** (digits + 1))
            zs.append(target)
            admissible = target + (CLASS_RESIDUE - target) % CLASS_MOD
            while admissible % 419 in (86, 333):
                admissible += CLASS_MOD
            zs.append(admissible)
    return zs


# ------------------------------------------------ pattern rows per class
#
# Row l of the pattern depends on z only through z mod l wherever the
# class condition holds; it fails on the residues of pins.UNFIXED.

WARM_CLASS_ROW = splitting._class_row


@pytest.fixture
def unlimited_int_str():
    """Radicands at |z| ~ 1e1000 exceed CPython's 4,300-digit str limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_fast_path_matches_exact_route_at_every_size(monkeypatch, unlimited_int_str):
    # the seeded z, and z in every class of z mod l whose pattern row is
    # computed on z itself, not read from the memo of rows
    sp = specialize()
    zs = _sample_z(20261018) + [z for z in FALLBACK_Z if z > 0]
    fast = {z: (_outcome(_pattern, z), verify_instance(z).to_json()) for z in zs}
    monkeypatch.setattr(splitting, "splitting_pattern", _exact_pattern)
    monkeypatch.setattr(splitting, "check_z", lambda z, **_: sieve.check_z(z))
    for z in zs:
        pattern, cert = fast[z]
        assert pattern == _outcome(_exact_pattern, z), z
        assert cert == verify_instance(z).to_json(), z
        assert F(cert["radicand"]) == sp.radicand(z)
    assert sum(c["conclusion"] for _, c in fast.values()) >= 6     # admissible z certify


def test_fast_path_matches_exact_route_on_every_residue_class():
    # z = r runs over every class mod l (z = l for r = 0, which sends x(z)
    # to infinity mod l); each l's row of the pattern is compared entry by
    # entry, so the rows that raise on other primes are still covered
    sp = specialize()
    seen = set()
    for l in (163, 701, 1277):
        for z in range(1, l + 1):
            x = sp.x_of_z(F(z))
            for j in range(3):
                x_long = sp.F_models[j].to_long_x(x)
                point = valuation_and_residue(x_long.numerator, x_long.denominator, l)[1]
                fast = _outcome(splitting.class_verdict, sp.u[j], l, point)
                assert fast == _outcome(_exact_entry, sp, j, l, x), (l, z, j)
                seen.add(fast if isinstance(fast, str) else fast[0])
    assert seen == {"split", "inert", "RamifiedPrimeError", "ProtocolViolationError"}


def test_residue_precondition_is_a_typed_error(monkeypatch, cold_caches):
    sp = specialize()
    phi = sp.isogenies[0]
    # scaling the numerator by 163 makes 163 divide lc(N0)
    bad = dataclasses.replace(phi, x_map=RatFunc(163 * phi.x_map.num, phi.x_map.den))
    monkeypatch.setattr(splitting, "five_isogeny",
                        lambda u: bad if u == sp.u[0] else family.five_isogeny(u))
    z = next(iter(admissible_z(sign="pos")))
    with pytest.raises(BadReductionError, match="163 divides the leading coefficient"):
        _pattern(z)
    cert = verify_instance(z)
    assert not cert.conclusion
    assert cert.failures[-1].startswith("BadReductionError: 163 divides")


def test_specialization_isogenies_are_the_memo_curves():
    sp = specialize()
    for j in range(3):
        assert sp.isogenies[j] is family.five_isogeny(sp.u[j])


def test_arbitrary_z_certificates_pinned(cold_caches):
    # the failure kinds of the pinned lines (tests/pins.py), the same on a
    # cold memo and on a warm one
    cold = list(PINS["certificates/arbitrary"].lines())
    assert list(PINS["certificates/arbitrary"].lines()) == cold
    kinds = collections.Counter(json.loads(line)["failures"][-1].split(":")[0]
                                for line in cold)
    assert kinds == {"ProtocolViolationError": 257, "RamifiedPrimeError": 11,
                     "InvalidCertificateError": 1,
                     "splitting pattern does not force independence": 31}


def test_certificates_across_the_sieve_routes_pinned():
    # 10 of the pinned certificates (tests/pins.py) take the direct route
    assert sieve.sign_bound() == 3
    assert sum(sieve.check_z(z).evaluation is not None for z in ROUTE_Z) == 10
    assert PINS["certificates/routes"].count == len(ROUTE_Z) == 38


def test_certificate_errors_are_computed_once(monkeypatch, cold_caches):
    # an erroring residue class is stored as its error's class and
    # message: a second pass over the same z builds no quintic at all
    built = []
    real = splitting.preimage_quintic

    def spy(phi, X):
        built.append(X)
        return real(phi, X)

    monkeypatch.setattr(splitting, "preimage_quintic", spy)
    first = [verify_instance(z).failures for z in ARBITRARY_Z]
    assert built
    built.clear()
    assert [verify_instance(z).failures for z in ARBITRARY_Z] == first
    assert built == []
    # a repeated error is a fresh exception with the same message
    z, failures = next((z, f) for z, f in zip(ARBITRARY_Z, first)
                       if f[-1].startswith(("ProtocolViolationError", "RamifiedPrimeError")))
    raised = []
    for _ in range(2):
        with pytest.raises(FiverankError) as info:
            _pattern(z)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert type(raised[0]) is type(raised[1]) and str(raised[0]) == str(raised[1])
    assert f"{type(raised[0]).__name__}: {raised[0]}" == failures[-1]
    assert built == []


# ---------------------------------------- the memo of rows against per z


def _per_z_row(l, z):
    """The row splitting_pattern computes on z itself, off the memo."""
    x, form, dk = sieve.x_and_radicand_form(z)
    return splitting._row(l, x, sieve.reduced_radicand(form, dk))


def _mod_value(coeffs, t, l):
    """The integer polynomial coeffs (lowest degree first) at t, mod l."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % l
    return acc


def test_class_theorem_at_the_test_primes():
    # derived from CONSTANTS and the integer forms: s and each quotient
    # model's lead are l-units, the condition fails exactly on UNFIXED,
    # and never at z = 1 mod l, where every admissible z lies; there the
    # memo's row is the expected one
    num, den, f, s = sieve._integer_forms()
    leads = [model.lead for model in specialize().F_models]
    assert family.CONSTANTS["z_one_mod"] == tuple(UNFIXED)
    for i, l in enumerate(family.CONSTANTS["z_one_mod"]):
        assert s % l and all(q.numerator % l and q.denominator % l for q in leads), l
        unfixed = set()
        for r in range(l):
            d = _mod_value(den, r, l)
            if d == 0 or _mod_value(f, _mod_value(num, r, l) * pow(d, -1, l), l) == 0:
                unfixed.add(r)
        assert unfixed == set(UNFIXED[l]), l
        assert [r for r in range(l) if splitting._class_row(l, r) is None] == list(UNFIXED[l])
        xbar = _mod_value(num, 1, l) * pow(_mod_value(den, 1, l), -1, l) % l
        assert xbar == (67, 127, 197)[i]
        assert splitting._class_row(l, 1) == (SPLIT, EXPECTED_PATTERN[i])


def test_class_rows_match_the_per_z_rows_on_every_residue():
    # for every residue r of each l, z = r + k l near 1e12: the memo's row,
    # computed on z = r, is the row computed on z, errors compared by
    # class and message; touching every key leaves at most 2,141 in it
    for l, unfixed in UNFIXED.items():
        for r in range(l):
            z = 10 ** 12 + (r - 10 ** 12) % l
            row = splitting._class_row(l, r)
            if r in unfixed:
                assert row is None, (l, r)
            else:
                assert row == _per_z_row(l, z), (l, r)
    assert splitting._class_row.cache_info().currsize <= 163 + 701 + 1277


def test_fallback_row_certificates_pinned():
    # each pinned certificate (tests/pins.py) computes a row on z itself
    assert PINS["certificates/fallback-rows"].count == len(FALLBACK_Z) == 60
    assert all(any(z % l in rs for l, rs in UNFIXED.items()) for z in FALLBACK_Z)


def test_second_pass_reads_long_numbers_only_on_fallback_rows(monkeypatch):
    # once the memo is warm, a certificate computes a row on z itself only
    # at an unfixed residue: an admissible z reads no K verdict and no
    # abscissa residue off its long numbers
    admissible = [next(admissible_z(start=10 ** e, sign=sign))
                  for e in (12, 100, 1000) for sign in ("pos", "neg")]
    zs = list(ARBITRARY_Z) + admissible
    first = [verify_instance(z).to_json() for z in zs]
    calls = []
    # prime_split_in_K(l, radicand) and valuation_and_residue(n, d, l)
    for name, at in (("prime_split_in_K", 0), ("valuation_and_residue", 2)):
        real = getattr(splitting, name)
        monkeypatch.setattr(splitting, name,
                            lambda *args, real=real, name=name, at=at:
                            calls.append((name, args[at])) or real(*args))
    rows = 0
    for z, record in zip(zs, first):
        calls.clear()
        assert verify_instance(z).to_json() == record, z
        k_primes = [l for name, l in calls if name == "prime_split_in_K"]
        residue_primes = [l for name, l in calls if name == "valuation_and_residue"]
        assert all(z % l in UNFIXED[l] for l in k_primes), z
        assert sorted(set(residue_primes)) == sorted(k_primes), z
        rows += len(k_primes)
    assert rows > 0


def test_cold_caches_cover_the_class_row_memo(cold_caches):
    # the fixture swaps in an empty row memo, so a cold certificate fills
    # it, and leaves the warm one untouched
    assert splitting._class_row is not WARM_CLASS_ROW
    assert splitting._class_row.cache_info().currsize == 0
    warm = WARM_CLASS_ROW.cache_info()
    verify_instance(next(admissible_z(sign="pos")))
    assert splitting._class_row.cache_info().currsize == 3
    assert WARM_CLASS_ROW.cache_info() == warm
