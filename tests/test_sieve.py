import functools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import zip_longest

import pytest

from fiverank.curves import minimal_model
from fiverank.errors import NoSingularPointError, PoleError
from fiverank.exact import Ratio, homogeneous_value, valuation
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


def _brute_admissible(start, count, m1=M1, m2=M2, exclusion=(419, 86)):
    """The first `count` z of each sign with |z| >= max(start, 0), by brute force.

    Walks z = 1 mod m2 outward and keeps z = 0 mod m1 that is not +-a mod
    p; returns (positives, negatives), each in increasing |z|.
    """
    p, a = exclusion
    lo = max(start, 0)

    def side(z, step):
        found = []
        while len(found) < count:
            if z % m1 == 0 and z % m2 == 1 and z % p not in (a % p, -a % p):
                found.append(z)
            z += step
        return found

    return side(lo + (1 - lo) % m2, m2), side(-lo - (-lo - 1) % m2, -m2)


def _expected(pos, neg, sign, count):
    if count <= 0:
        return []
    merged = {"pos": pos, "neg": neg, "both": pos + neg}[sign]
    # by |z|, the positive z first on a tie
    return sorted(merged, key=lambda z: (abs(z), z < 0))[:count]


def test_admissible_stream_congruences(monkeypatch):
    for z in admissible_z(count=12, sign="both"):
        assert z % M1 == 0
        assert z % M2 == 1
        assert z % 419 not in (86, 419 - 86)
    # the whole stream against brute force: a negative start counts as 0,
    # count None streams, a count <= 0 yields nothing
    for start in (0, -10 ** 20, 10 ** 12 + 7, 10 ** 1000):
        pos, neg = _brute_admissible(start, 5)
        for sign in ("pos", "neg", "both"):
            for count in (5, 0, -3):
                assert list(admissible_z(start, count, sign)) == \
                    _expected(pos, neg, sign, count), (start, sign, count)
            stream = admissible_z(start, None, sign)
            assert [next(stream) for _ in range(5)] == _expected(pos, neg, sign, 5)
    # the class of CONSTANTS never has z and -z both admissible (2 z0 is
    # not 0 mod m2), so a toy class z = 3 mod 6 exercises the tie rule
    monkeypatch.setitem(CONSTANTS, "z_zero_mod", (3,))
    monkeypatch.setitem(CONSTANTS, "z_one_mod", (2,))
    monkeypatch.setitem(CONSTANTS, "z_exclusion", (7, 2))
    for start in (-1, 0, 3, 4, 40):
        pos, neg = _brute_admissible(start, 8, 3, 2, (7, 2))
        for sign in ("pos", "neg", "both"):
            assert list(admissible_z(start, 8, sign)) == _expected(pos, neg, sign, 8)
    assert list(admissible_z(0, 4)) == [3, -3, 15, -15]


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
    z0 = M1 * pow(M1, -1, M2)
    raw = [z0 + k * M1 * M2 for k in range(40)]
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


def test_conditions_are_the_constants_table_in_report_order():
    # one (prime, kind) table per curve, from CONSTANTS: the valuation
    # primes, the congruence prime, then the five-component primes
    from fiverank import sieve

    tables = []
    for data, (val, (cong, _)), five in zip(sieve_data(), CONSTANTS["criterion"],
                                           CONSTANTS["five_component_primes"], strict=True):
        table = ([(p, "valuation") for p in val] + [(cong, "congruence")]
                 + [(p, "singular-avoidance") for p in five])
        assert data.conditions() == table, data.index
        tables += [(data.index, kind, p) for p, kind in table]
    # every route reports in that order: the direct route at |z| <=
    # sign_bound(), the class route at 1e12 and a class left open
    z12 = next(admissible_z(start=10 ** 12, count=1))
    undecided = _undecided_admissible_z()[0]
    assert sieve.sign_bound() >= 2
    assert sieve._class_records(z12) is not None
    assert sieve._class_records(undecided) is None
    for z in (2, -2, z12, undecided):
        assert [(r.curve, r.kind, r.prime) for r in check_z(z).records] == tables, z


def test_singular_abscissae_match_construction():
    data = sieve_data()
    for d in data:
        assert singular_abscissa(d, d.congruence_prime) == d.excluded_residue


def test_singular_abscissa_good_prime_raises():
    d = sieve_data()[0]
    with pytest.raises(NoSingularPointError):
        singular_abscissa(d, 1009)


def test_singular_abscissa_matches_minimal_model_transform():
    # singular_abscissa maps the node back through the sieve's integer map
    # (L, R, U); the reference maps it through the Fraction transform of
    # curves.minimal_model, on the sieve curves and every oracle curve
    from fiverank.classgroup import SCAN_U, _single_curve_setup
    from fiverank.errors import FiverankError
    from fiverank.exact import rational_mod

    def outcome(fn, *args):
        try:
            return fn(*args)
        except FiverankError as exc:
            return type(exc).__name__

    def reference(data, p):
        x_long = _to_minimal(data.model).old_x(F(data.reductions[p].singular_x))
        return rational_mod(data.model.from_long_x(x_long), p)

    curves = list(sieve_data())
    for u in SCAN_U:
        try:
            curves.append(_single_curve_setup(u)[1])
        except FiverankError:
            continue
    seen = []
    for data in curves:
        for p in data.reductions:
            got = outcome(singular_abscissa, data, p)
            assert got == outcome(reference, data, p), (data.model, p)
            seen.append(got if isinstance(got, str) else "abscissa")
    assert len(curves) == 29 and len(seen) == 178
    assert seen.count("abscissa") == 135
    assert seen.count("BadReductionError") == 43


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
    for z in admissible_z(count=4, sign="both"):
        report = check_z(z)
        assert report.passed, [r for r in report.records if not r.passed]
        assert report.verbatim_passed() and report.general_rule_passed()


def test_extension_failures_exactly_the_cancellation_class():
    # the only admissible z failing the conditions are those whose 29-part
    # cancels in the numerator of x(z): v_29(z) = 1 with z/29 = 6 or 10
    # mod 29; deeper 29-divisibility separates the term valuations again
    from fiverank.exact import valuation
    for z in admissible_z(count=120, sign="both"):
        report = check_z(z)
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
    # every small |z| (the class route takes the sign from z above
    # sign_bound()), the first admissible z of each sign and random z at
    # every size, against the Fraction radicand
    sp = specialize()
    rng = random.Random(180)
    zs = [s * z for z in range(1, 201) for s in (1, -1)]
    zs += [next(iter(admissible_z(sign=sign))) for sign in ("pos", "neg")]
    for scale in (10 ** 3, 10 ** 12, 10 ** 100, 10 ** 1000):
        zs += [rng.choice((1, -1)) * rng.randrange(scale, 10 * scale) for _ in range(6)]
    for z in zs:
        r = sp.radicand(z)
        assert check_z(z).radicand_sign == (r > 0) - (r < 0), z


def test_report_json_shape():
    report = check_z(next(iter(admissible_z(sign="neg"))))
    data = report.to_json()
    assert data["record"] == "sieve-report"
    assert isinstance(data["z"], str)
    assert len(data["conditions"]) == sum(
        2 + 1 + len(d.five_primes) for d in sieve_data())


# ------------------------------------- integer evaluation vs Fraction reference

@functools.lru_cache(maxsize=None)
def _to_minimal(model):
    """The Fraction transform onto the minimal model, from curves.minimal_model."""
    return minimal_model(model.curve())[1]


def _reference_records(data, x):
    """Extension records in the Fraction formulation: exact.valuation,
    rational_mod and the minimal model's new_x applied to the long form."""
    from fiverank.exact import rational_mod

    def record(kind, p, required, observed, passed):
        return {"curve": data.index, "kind": kind, "prime": str(p),
                "required": required, "observed": observed, "pass": passed}

    out = []
    for p in data.valuation_primes:
        v = valuation(x, p)
        out.append(record("valuation", p, "v <= -2", f"v = {v}", v <= -2))
    if data.congruence_prime is not None:
        p, a = data.congruence_prime, data.excluded_residue
        hit = valuation(x, p) >= 0 and rational_mod(x, p) == a % p
        out.append(record("congruence", p, f"x != {a} mod {p}",
                          "congruent" if hit else "not congruent", not hit))
    x_min = _to_minimal(data.model).new_x(data.model.to_long_x(x))
    for p in data.five_primes:
        if valuation(x_min, p) < 0:
            out.append(record("singular-avoidance", p, "reduction != node",
                              "reduces to infinity", True))
            continue
        res = rational_mod(x_min, p)
        hit = res == data.reductions[p].singular_x
        out.append(record("singular-avoidance", p, "reduction != node",
                          "node" if hit else f"x = {res} mod {p}", not hit))
    return out


def _reference_report(z):
    sp = specialize()
    x = sp.x_of_z(F(z))
    r = sp.radicand(z)
    conditions = [c for d in sieve_data() for c in _reference_records(d, x)]
    return {"record": "sieve-report", "schema": 1, "z": str(z),
            "radicand_sign": 1 if r > 0 else (-1 if r < 0 else 0),
            "pass": all(c["pass"] for c in conditions), "conditions": conditions}


def _differential_z():
    rng = random.Random(20261018)
    zs = []
    for scale, admissible, arbitrary in ((10 ** 3, 4, 100), (10 ** 12, 300, 100),
                                         (10 ** 100, 30, 30), (10 ** 1000, 6, 6)):
        zs += list(admissible_z(start=rng.randrange(scale, 10 * scale),
                                count=admissible, sign="both"))
        zs += [rng.choice((1, -1)) * rng.randrange(1, 10 * scale)
               for _ in range(arbitrary)]
    # the 29-adic exception class, admissible members and bare multiples
    zs += [z for z in admissible_z(count=120, sign="both")
           if z % 29 == 0 and (z // 29) % 29 in (6, 10)]
    zs += [s * 29 * (29 * k + r) for s in (1, -1) for k in range(3) for r in (6, 10)]
    # deep valuations at every condition prime
    for p in (11, 19, 29, 419, 709, 151):
        for k in range(1, 7):
            zs += [p ** k, -p ** k, p ** k * rng.randrange(2, 10 ** 6),
                   -p ** k * rng.randrange(2, 10 ** 12)]
    # admissible z in the 29-adic classes that the class route leaves
    # undecided, which check_z evaluates on x(z) itself
    zs += _undecided_admissible_z()
    return zs


@functools.lru_cache(maxsize=None)
def _undecided_admissible_z():
    """Three admissible z with v_29(z) = 1 in each undecided 29-adic class."""
    from fiverank.sieve import CLASS_DEPTH

    modulus = 29 ** (CLASS_DEPTH + 1)
    out = []
    for u in (u for u, _, entry in _class_verdicts(29, 1) if entry is None):
        # z = 29 u mod 29^(depth + 1), z = 0 mod 11*19, z = 1 mod M2
        m1, r = M1 // 29, 29 * u
        z = r + modulus * ((-r * pow(modulus, -1, m1)) % m1)
        step = modulus * m1
        z += step * ((1 - z) * pow(step, -1, M2) % M2)
        zs = [z + k * step * M2 for k in range(8)]
        out += [z for z in zs if z % 419 not in (86, 333)][:3]
    return tuple(out)


def test_check_z_matches_fraction_reference():
    zs = _differential_z()
    assert len(zs) > 600
    seen = set()
    for z in zs:
        got = check_z(z).to_json()
        assert got == _reference_report(z), z
        seen.update(c["observed"].split(" =")[0] for c in got["conditions"])
    # every branch of the three condition kinds was exercised
    assert {"v", "congruent", "not congruent", "node", "reduces to infinity",
            "x"} <= seen


# ------------------------------------------ the class route vs x(z) itself

def _direct_records(z):
    """check_z's records evaluated on x(z) itself, as its fallback does."""
    from fiverank.sieve import _extension_records, x_pair

    n, d = x_pair(z)
    return tuple(r for data in sieve_data() for r in _extension_records(data, n, d))


def test_class_route_matches_the_direct_route(monkeypatch):
    from fiverank import sieve

    zs = _differential_z()
    calls = []
    real = sieve._extension_records

    def spy(data, n, d):
        calls.append(data.index)
        return real(data, n, d)

    sieve._class_entry.cache_clear()
    monkeypatch.setattr(sieve, "_extension_records", spy)
    routes, seen = {"class": 0, "direct": 0}, set()
    for z in zs:
        expected = _direct_records(z)
        del calls[:]
        assert check_z(z).records == expected, z
        taken = sieve._class_records(z)
        if taken is None:
            assert calls == [1, 2, 3], z        # the whole z goes direct
            routes["direct"] += 1
        else:
            assert calls == [] and taken == expected, z
            routes["class"] += 1
            seen.update(r.observed.split(" =")[0] for r in taken)
    assert routes["direct"] == len(_undecided_admissible_z()) == 6, routes
    assert {"v", "congruent", "not congruent", "node", "reduces to infinity",
            "x"} <= seen
    # a warm memo and a cleared one give byte-identical reports
    assert sieve._class_entry.cache_info().hits > 0

    def text(z):
        return json.dumps(check_z(z).to_json(), sort_keys=True)

    warm = [text(z) for z in zs]
    sieve._class_entry.cache_clear()
    sieve._shared.cache_clear()
    assert [text(z) for z in zs] == warm


def _class_verdicts(p, v):
    """Every class of z = p^v u (p not dividing u) as the class route sees
    it: (u, j, entry) for the classes u mod p^j it decides, lifting each
    undecided class a digit at a time, and (u, depth, None) for those
    still undecided at CLASS_DEPTH."""
    from fiverank.sieve import CLASS_DEPTH, _class_entry

    out, todo = [], [(u, 1) for u in range(1, p)]
    while todo:
        u, j = todo.pop()
        entry = _class_entry(p, v, j, u)
        if entry is not None or j == CLASS_DEPTH:
            out.append((u, j, entry))
        else:
            todo += [(w, j + 1) for w in range(u, p ** (j + 1), p ** j)]
    return out


def test_leading_terms_fix_every_member_of_a_class():
    # the proof behind each key, on random integer polynomials whose
    # coefficients carry powers of p: whatever _leading and _class_ratio
    # claim for the class of u mod p^j at valuation v holds for members
    from fiverank.exact import valuation_and_residue
    from fiverank.sieve import _UNKNOWN, _adic_terms, _class_ratio, _leading

    rng = random.Random(29)

    def poly(p):
        return [rng.choice((0, 1, -1)) * rng.randrange(1, 50) * p ** rng.randrange(0, 4)
                for _ in range(rng.randrange(2, 6))]

    claims = {"v": 0, "residue": 0, "bound": 0}
    for p in (3, 5, 7):
        for _ in range(40):
            top, bottom = poly(p), poly(p)
            if not any(top) or not any(bottom):
                continue
            terms = _adic_terms(top, p), _adic_terms(bottom, p)
            for v in (0, 1, 2):
                for j in (1, 2, 3):
                    for u in range(1, p ** j, rng.randrange(1, 4)):
                        if u % p == 0:
                            continue
                        lead = [_leading(t, p, v, j, u) for t in terms]
                        claimed_v, claimed_res = _class_ratio(p, *lead)
                        for k in (0, rng.randrange(1, 10 ** 6), -rng.randrange(1, 10 ** 6)):
                            z = p ** v * (u + k * p ** j)
                            values = [sum(a * z ** i for i, a in enumerate(c))
                                      for c in (top, bottom)]
                            if 0 in values:
                                continue
                            for (t, unit), value in zip(lead, values):
                                w = valuation(F(value), p)
                                if unit is None:
                                    claims["bound"] += 1
                                    assert w >= t
                                else:
                                    assert (w, value // p ** w % p) == (t, unit)
                            true_v, true_res = valuation_and_residue(*values, p)
                            if claimed_v is not None:
                                claims["v"] += 1
                                assert claimed_v == true_v, (p, top, bottom, v, j, u)
                            if claimed_res is not _UNKNOWN:
                                claims["residue"] += 1
                                assert claimed_res == true_res, (p, top, bottom, v, j, u)
    assert min(claims.values()) > 100, claims


def test_every_class_entry_holds_across_its_class():
    # an entry is proved for its whole class, so every member carries its
    # records: every class the route meets at v_p(z) <= 2, at every
    # condition prime, against two members evaluated on x(z) itself
    from fiverank import sieve

    rng = random.Random(17)
    keys = 0
    for p in sieve._class_plan()[0]:
        for v in (0, 1, 2):
            for u, j, entry in _class_verdicts(p, v):
                if entry is None:
                    continue
                keys += 1
                # a small member and a large negative one
                for k in (rng.randrange(1, 50), -rng.randrange(10 ** 6, 10 ** 30)):
                    z = p ** v * (u + k * p ** j)
                    at_p = tuple(r for r in _direct_records(z) if r.prime == p)
                    assert entry == at_p, (p, v, j, u, z)
    assert keys > 5000


def _passes_by_bounds(p, v, j, u):
    """The records an undecided class would carry all pass: shown from the
    lower bound that _leading gives where the leading terms cancel."""
    from fiverank import sieve

    num, den, slots = sieve._class_plan()[0][p]
    top, bottom = (sieve._leading(t, p, v, j, u) for t in (num, den))
    for data, kind, minimal in slots:
        if kind == "valuation":
            # v_p(x) <= v_p(num) - (a lower bound for v_p(den))
            assert top[1] is not None and bottom[1] is None, (p, v, j, u)
            assert top[0] - bottom[0] <= -2, (p, v, j, u)
            continue
        pair = (top, bottom) if kind == "congruence" else \
            tuple(sieve._leading(t, p, v, j, u) for t in minimal)
        _, res = sieve._class_ratio(p, *pair)
        assert res is not sieve._UNKNOWN, (p, v, j, u, kind)
        assert sieve._record(data, p, kind, None, res).passed, (p, v, j, u, kind)


def _tail_passes(p, v):
    """Every class at valuation v' > v passes: at v each polynomial's
    lowest-degree term is its only leading term, which stays so for larger
    v'; then v_p(x) and v_p(x_min) fall with v' from negative values, so
    the valuation bounds hold and x, x_min reduce to infinity."""
    from fiverank import sieve

    num, den, slots = sieve._class_plan()[0][p]

    def lowest(terms):
        i0, e0, _ = terms[0]
        assert all(e + i * v > e0 + i0 * v for i, e, _ in terms[1:]), (p, v)
        return i0, e0 + i0 * v

    # x carries the valuation bound where there is one, x_min reduces to infinity
    bound = -2 if any(kind == "valuation" for _, kind, _ in slots) else -1
    pairs = [(num, den, bound)] + [(*m, -1) for _, kind, m in slots
                                   if kind == "singular-avoidance"]
    for top, bottom, bound in pairs:
        (i_top, v_top), (i_bottom, v_bottom) = lowest(top), lowest(bottom)
        assert i_top < i_bottom and v_top - v_bottom <= bound, (p, v)


def test_pass_density_is_derived_class_by_class():
    # the admissible z failing the conditions, among z = 0 mod 29, as the
    # sum of the densities of the failing 29-adic classes: z = 29^v u with
    # u mod 29^j has density 29^-(v-1) 29^-j; the whole failing share is
    # v_29(z) = 1 with z/29 = 6 or 10 mod 29, so exactly 2/29 = 58/841
    failing = F(0)
    for v in (1, 2):
        for u, j, entry in _class_verdicts(29, v):
            if entry is None:
                _passes_by_bounds(29, v, j, u)
            elif not all(r.passed for r in entry):
                assert v == 1 and u % 29 in (6, 10), (u, j)
                failing += F(1, 29 ** (v - 1 + j))
    _tail_passes(29, 2)
    assert failing == F(58, 841) == F(2, 29)
    # no admissible class fails at any other prime: v_p(z) >= 1 at 11 and
    # 19, z != +-86 mod 419 at v = 0, every z at 419, 709 and 151 else
    for p, v_min in ((11, 1), (19, 1), (419, 0), (709, 0), (151, 0)):
        for v in (v_min, v_min + 1, 2):
            for u, j, entry in _class_verdicts(p, v):
                if p == 419 and v == 0 and u in (86, 333):
                    continue
                if entry is None:
                    _passes_by_bounds(p, v, j, u)
                else:
                    assert all(r.passed for r in entry), (p, v, u, j)
        _tail_passes(p, 2)
    # one period of z/29 mod 29 along the admissible class, fixed mod 419:
    # exactly two of the 29 fail
    z0 = next(admissible_z(count=1, sign="pos"))
    step = M1 * M2 * 419
    assert sum(not check_z(z0 + k * step).passed for k in range(29)) == 2


def test_check_z_with_radicand_matches_fraction_reference():
    # x(z) from x_and_radicand_form and the certificate's radicand,
    # reduced from its H and d^k by a gcd bounded by a constant, are the
    # Fraction reference as it stands: lowest terms, positive denominator.
    # x(z) is reduced by gcd(n mod M, d mod M, M), the plain gcd of the
    # long pair on both routes, at z = +-p^k m, where n and d share powers
    # of 29, and at |z| ~ 1e1000
    from fiverank import sieve
    from fiverank.splitting import verify_instance

    sp = specialize()
    f = sieve._integer_forms()[2]
    zs = _differential_z()
    routes, shared = set(), 0
    for z in zs:
        cert = verify_instance(z)
        x, form, dk = sieve.x_and_radicand_form(z)
        n, d = sieve.x_pair(z)
        g = math.gcd(n, d) * (1 if d > 0 else -1)
        assert (x.numerator, x.denominator) == (n // g, d // g), z
        assert (form, dk) == homogeneous_value(f, n // g, d // g), z
        routes.add(check_z(z).evaluation is not None)
        shared += g % 29 ** 4 == 0
        r = cert.radicand
        x_ref, r_ref = sp.x_of_z(F(z)), sp.radicand(z)
        assert (x.numerator, x.denominator) == (x_ref.numerator, x_ref.denominator), z
        assert (r.numerator, r.denominator) == (r_ref.numerator, r_ref.denominator), z
        # every z sampled has a gcd above 1 to divide out
        assert form != r.numerator, z
    assert any(abs(z) >= 10 ** 1000 for z in zs)
    assert routes == {True, False} and shared > 100


def test_bezout_identity_holds_and_refuses_a_shared_factor(monkeypatch):
    from fiverank import sieve
    from fiverank.errors import IdentityCheckError

    num, den, f, s = sieve._integer_forms()
    A, B, M = sieve._bezout_identity()
    total = [a + b for a, b in zip_longest(_poly_mul(A, num), _poly_mul(B, den),
                                           fillvalue=0)]
    while total and not total[-1]:
        total.pop()
    assert M > 0 and total == [M]
    # num and den times a common factor 3z + 29: no identity with a
    # constant right-hand side exists
    forms = (tuple(_poly_mul(num, (29, 3))), tuple(_poly_mul(den, (29, 3))), f, s)
    monkeypatch.setattr(sieve, "_integer_forms", lambda: forms)
    sieve._bezout_identity.cache_clear()
    with pytest.raises(IdentityCheckError, match="share the factor"):
        sieve._bezout_identity()
    monkeypatch.undo()
    sieve._bezout_identity.cache_clear()
    assert sieve._bezout_identity() == (A, B, M)
    # derived by the first x(z), not at import or in the sieve's set-up
    probe = ("import fiverank.cli\nfrom fiverank import sieve\nsieve.sieve_data()\n"
             "print(sieve._bezout_identity.cache_info().currsize)\n"
             "sieve.x_and_radicand_form(7)\n"
             "print(sieve._bezout_identity.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "1"]


def test_reduced_radicand_reaches_its_gcd_bound_on_rational_x():
    # the gcd bound s lc(f_int)^k holds for every x in lowest terms, not
    # only x(z); at p = 11 and 29, where p^2 exactly divides lc(f_int),
    # some x with denominator p^2 give a gcd with p^5 or more, beyond
    # what lc(f_int)^2 holds
    from fiverank import sieve

    sp = specialize()
    _, _, f, s = sieve._integer_forms()
    k = len(f) - 1
    rng = random.Random(11)

    def reduced(n, d):
        r = sieve.reduced_radicand(*homogeneous_value(f, n, d))
        ref = sp.f_model(F(n, d))
        assert (r.numerator, r.denominator) == (ref.numerator, ref.denominator), (n, d)
        return s * d ** k // r.denominator

    for _ in range(200):
        d = rng.randrange(1, 10 ** 6)
        for p in (2, 3, 7, 11, 29):
            d *= p ** rng.randrange(0, 8)
        n = rng.choice((1, -1)) * rng.randrange(1, 10 ** 30)
        g = math.gcd(n, d)
        reduced(n // g, d // g)
    for p in (11, 29):
        d = p * p
        n = max((n for n in range(1, p ** 3) if n % p),
                key=lambda n: math.gcd(homogeneous_value(f, n, d)[0], s * d ** k))
        assert valuation(reduced(n, d), p) > 2 * valuation(f[-1], p), p


def test_extension_check_matches_fraction_reference_on_rational_x():
    from fiverank.classgroup import _single_curve_setup
    from fiverank.sieve import singular_avoidance_passes

    rng = random.Random(5)
    curves = list(sieve_data()) + [_single_curve_setup(F(2, 3))[1],
                                   _single_curve_setup(F(4))[1]]
    for data in curves[3:]:
        # an oracle curve states no verbatim criterion
        assert data.conditions() == [(p, "singular-avoidance") for p in data.five_primes]
    for data in curves:
        xs = [F(0), F(1, 2), F(-7, 3)]
        xs += [F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6))
               for _ in range(30)]
        for p in data.five_primes + data.valuation_primes:
            for k in range(1, 5):
                xs += [F(rng.randrange(1, 10 ** 6), p ** k),
                       F(p ** k * rng.randrange(1, 10 ** 6), rng.randrange(1, 50))]
            # abscissas over the node and near it, pulled back from the minimal model
            t = _to_minimal(data.model)
            for x_min in (F(data.reductions[p].singular_x + p * k, 1 + p * k)
                          for k in range(3)):
                xs.append(data.model.from_long_x(t.old_x(x_min)))
        observed = set()
        for x in xs:
            expected = _reference_records(data, x)
            assert [r.to_json() for r in extension_check(data, x)] == expected, x
            general = [r for r in expected if r["kind"] == "singular-avoidance"]
            assert singular_avoidance_passes(data, x) == all(r["pass"] for r in general), x
            observed.update(r["observed"] for r in general)
        assert "node" in observed and "reduces to infinity" in observed


def test_singular_avoidance_passes_builds_no_record(monkeypatch):
    # the oracle asks once per instance whether x misses every node; that
    # verdict needs no ConditionRecord, only the node test extension_check
    # shares
    from fiverank import sieve
    from fiverank.classgroup import _single_curve_setup

    data = _single_curve_setup(F(2, 3))[1]
    xs = [F(n, d) for n in range(-60, 61) for d in (1, 2, 3)]
    expected = [all(r.passed for r in extension_check(data, x)) for x in xs]
    assert True in expected and False in expected

    def refused(*args, **kwargs):
        raise AssertionError("singular_avoidance_passes built a record")

    monkeypatch.setattr(sieve, "ConditionRecord", refused)
    assert [sieve.singular_avoidance_passes(data, x) for x in xs] == expected


def test_check_z_runs_the_conditions_on_x_in_lowest_terms(monkeypatch):
    # for admissible z the Horner pair shares a power of 29; where the
    # class of z leaves its records open, check_z evaluates the conditions
    # on x(z) itself, and divides that power out once instead of at every
    # condition
    from fiverank import sieve

    z = _undecided_admissible_z()[0]
    assert sieve._class_records(z) is None
    assert math.gcd(*sieve.x_pair(z)) > 1
    sieve_data()                        # cached before the spy goes in
    pairs = []
    real = sieve.valuation_and_residue

    def spy(n, d, p):
        pairs.append((n, d))
        return real(n, d, p)

    monkeypatch.setattr(sieve, "valuation_and_residue", spy)
    check_z(z)
    n, d = pairs[0]
    assert math.gcd(n, d) == 1 and F(n, d) == F(*sieve.x_pair(z))


def test_check_z_pole_is_a_typed_error():
    # z = 0 lies in no p-adic class (v_p(0) is infinite): the class lookup
    # refuses it at once instead of dividing 0 by p forever, and check_z
    # raises the pole error of x(0)
    import threading

    from fiverank import sieve

    result = []
    worker = threading.Thread(target=lambda: result.append(sieve._class_records(0)),
                              daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive() and result == [None]
    with pytest.raises(PoleError, match=r"^evaluation at pole z=0$"):
        check_z(0)


# ------------------------------------------ the sign of the radicand from z

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_sign_bound_is_the_cauchy_bound_of_the_integer_forms():
    # H_z = den^k f_int(num/den) expanded term by term, independently of
    # the sieve's Horner; above the Cauchy bound of H_z and of den both
    # keep the sign of their leading term, and the bound lies far below
    # acceptance 07's smallest admissible |z|
    from fiverank import sieve

    num, den, f, _ = sieve._integer_forms()
    k = len(f) - 1
    form = [0]
    for i, c in enumerate(f):
        term = [1]
        for _ in range(i):
            term = _poly_mul(term, num)
        for _ in range(k - i):
            term = _poly_mul(term, den)
        form = [a + c * b for a, b in zip_longest(form, term, fillvalue=0)]
    while not form[-1]:
        form.pop()
    assert form[-1] > 0 and den[-1] > 0
    assert (len(form) - 1 + k * (len(den) - 1)) % 2 == 1
    cauchy = max(1 + max(F(abs(a), P[-1]) for a in P[:-1]) for P in (form, den))
    bound = sieve.sign_bound()
    assert bound == math.floor(cauchy) and bound + 1 > cauchy
    assert bound < abs(next(admissible_z(count=1, sign="both")))


def test_sign_bound_refuses_forms_it_cannot_prove(monkeypatch):
    from fiverank import sieve
    from fiverank.errors import IdentityCheckError

    num, den, f, s = sieve._integer_forms()

    def neg(cs):
        return tuple(-c for c in cs)

    for forms, message in (
            # lc(den) < 0 while lc(H_z) > 0
            ((neg(num), neg(den), neg(f), s), f"coefficient {-den[-1]} "),
            ((num, den, neg(f), s), "not positive"),          # lc(H_z) < 0
            ((num, den, f + (1,), s), "does not follow")):    # even degree sum
        monkeypatch.setattr(sieve, "_integer_forms", lambda forms=forms: forms)
        sieve.sign_bound.cache_clear()
        with pytest.raises(IdentityCheckError, match=message):
            sieve.sign_bound()
    monkeypatch.undo()
    sieve.sign_bound.cache_clear()
    assert sieve.sign_bound() >= 1


def test_class_route_evaluates_no_polynomial(monkeypatch):
    # above sign_bound() a z whose class decides gets its report without
    # x(z) or H; the direct route evaluates x(z) once and H once
    from fiverank import sieve

    num, den, f, _ = sieve._integer_forms()
    sieve_data()
    bound = sieve.sign_bound()
    x_calls, forms = [], []
    real_pair, real_homogeneous = sieve.x_pair, sieve.homogeneous_value

    def pair_spy(z):
        x_calls.append(z)
        return real_pair(z)

    def homogeneous_spy(coeffs, n, d):
        forms.append(coeffs)
        return real_homogeneous(coeffs, n, d)

    monkeypatch.setattr(sieve, "x_pair", pair_spy)
    monkeypatch.setattr(sieve, "homogeneous_value", homogeneous_spy)
    routes = {"class": 0, "direct": 0}
    for z in list(range(-bound, bound + 1)) + list(_differential_z()):
        del x_calls[:], forms[:]
        try:
            check_z(z)
        except PoleError:
            assert z == 0
        if abs(z) > bound and sieve._class_records(z) is not None:
            assert x_calls == [] and forms == [], z
            routes["class"] += 1
        else:
            # x_pair's two Horner runs, then H
            assert x_calls == [z], z
            assert forms == ([num, den] if z == 0 else [num, den, f]), z
            routes["direct"] += 1
    assert routes["direct"] == 2 * bound + 1 + len(_undecided_admissible_z()), routes
    assert routes["class"] > 600


def test_shared_records_build_their_json_once():
    from fiverank import sieve
    from fiverank.sieve import ConditionRecord

    def fresh(r):
        return ConditionRecord(r.curve, r.kind, r.prime, r.required,
                               r.observed, r.passed).to_json()

    zs = list(admissible_z(start=10 ** 12, count=50, sign="both"))
    reports = [check_z(z) for z in zs]
    for report in reports:
        json.dumps(report.to_json())
    for r in {r for report in reports for r in report.records}:
        cached = r.to_json()
        assert cached is r.to_json() and cached == fresh(r), r
    # records made outside the memo build their dict on every call
    data = sieve_data()[0]
    for r in extension_check(data, specialize().x_of_z(F(zs[0]))):
        assert r.to_json() is not r.to_json()
