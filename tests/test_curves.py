import dataclasses
import random
from fractions import Fraction as F

import pytest

from fiverank.curves import (
    INFINITY,
    CurvePoint,
    Transform,
    WeierstrassCurve,
    bad_primes,
    is_semistable,
    minimal_model,
    point_add,
    point_mul,
    point_neg,
    reduction_info,
    torsion_order,
    transform_between,
)
from fiverank.errors import UnsupportedReductionError
from fiverank.family import symbolic_family_curve


def curve_37a():
    # y^2 + y = x^3 - x, rank 1 with generator (0, 0)
    return WeierstrassCurve(0, 0, 1, -1, 0)


def curve_from_cubic(c3, c2, c1, c0):
    # y^2 = c3 x^3 + ... -> long form, X = c3 x
    return WeierstrassCurve(0, c2, 0, c1 * c3, c0 * c3 * c3)


def kubert4():
    # y^2 = (x^2 - 76)(128 x + 697); long form via X = 128 x
    return curve_from_cubic(128, 697, -76 * 128, -76 * 697)


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    # a node over Q: y^2 = (x - 1/2)^2 (x + 1) = x^3 - 3/4 x + 1/4
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, F(-3, 4), F(1, 4))
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 1, 0, 0, 0)


def _textbook_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return (b2, b4, b6, b8), (c4, c6), disc


def assert_textbook_invariants(E):
    b, c, disc = _textbook_invariants(*E.a_invariants())
    assert E.b_invariants() == b
    assert E.discriminant() == disc
    assert E.c_invariants() == c
    assert E.c_invariants() is E.c_invariants()          # computed once


def test_stored_invariants_match_the_textbook_formulas():
    rng = random.Random(2626)
    for _ in range(300):
        bound = rng.choice((1, 10, 10 ** 12))
        a = [rng.choice((0, rng.randint(-bound, bound),
                         F(rng.randint(-bound, bound), rng.randint(1, bound))))
             for _ in range(5)]
        try:
            E = WeierstrassCurve(*a)
        except ValueError:
            assert _textbook_invariants(*(F(c) for c in a))[2] == 0
            continue
        assert_textbook_invariants(E)
    assert_textbook_invariants(curve_37a())


def test_symbolic_family_curve_invariants_match_the_textbook_formulas():
    # coefficients in Q(u) take the generic formulas
    assert_textbook_invariants(symbolic_family_curve())


def test_group_law_identity_and_inverse():
    E = curve_37a()
    P = CurvePoint(F(0), F(0))
    assert E.contains(P)
    assert point_add(E, P, INFINITY) == P
    assert point_add(E, P, point_neg(E, P)) is INFINITY


def test_group_law_agrees_with_known_multiples():
    # multiples of (0,0) on 37a, from the standard tables
    E = curve_37a()
    P = CurvePoint(F(0), F(0))
    assert point_mul(E, 2, P) == CurvePoint(F(1), F(0))
    assert point_mul(E, 3, P) == CurvePoint(F(-1), F(-1))
    assert point_mul(E, 4, P) == CurvePoint(F(2), F(-3))


def test_group_law_associative_random():
    E = curve_37a()
    P = CurvePoint(F(0), F(0))
    rng = random.Random(7)
    pts = [point_mul(E, rng.randrange(1, 12), P) for _ in range(6)]
    for A, B, C in zip(pts[::2], pts[1::2], pts[2::2]):
        lhs = point_add(E, point_add(E, A, B), C)
        rhs = point_add(E, A, point_add(E, B, C))
        assert lhs == rhs


def test_point_mul_matches_repeated_addition():
    E = curve_37a()
    P = CurvePoint(F(0), F(0))
    acc = INFINITY
    for n in range(1, 9):
        acc = point_add(E, acc, P)
        assert point_mul(E, n, P) == acc


def test_point_validation():
    E = curve_37a()
    with pytest.raises(ValueError):
        point_add(E, CurvePoint(F(5), F(5)), INFINITY)


def test_two_torsion_doubles_to_infinity():
    E = kubert4()
    P = CurvePoint(F(-697), F(0))      # cubic root -697/128 scaled by 128
    assert E.contains(P)
    assert point_mul(E, 2, P) is INFINITY
    assert torsion_order(E, P) == 2


def test_torsion_order_examples():
    E = curve_37a()
    assert torsion_order(E, INFINITY) == 1
    assert torsion_order(E, CurvePoint(F(0), F(0))) == "exceeds bound"


def test_kubert4_has_rational_5_torsion():
    # the rational 5-torsion abscissas found via the 5-division polynomial
    E = kubert4()
    T = CurvePoint(F(4928), F(360000))
    assert E.contains(T)
    assert torsion_order(E, T) == 5
    assert point_mul(E, 2, T).x == 1328
    # adding the 2-torsion point gives a generator of order 10
    P0 = point_add(E, T, CurvePoint(F(-697), F(0)))
    assert torsion_order(E, P0) == 10


# ------------------------------------------------------------ minimal models

def test_minimal_model_already_minimal():
    E = curve_37a()
    Emin, trans = minimal_model(E)
    assert Emin == E
    assert trans.is_identity()


def test_minimal_model_scales_down():
    # y^2 = x^3 + 2^6 * 16 x: scale by u=2 possible iff Kraus allows
    E = WeierstrassCurve(0, 0, 0, 2 ** 8, 0)
    Emin, trans = minimal_model(E)
    assert Emin.discriminant() == E.discriminant() / trans.u ** 12
    assert Emin.j_invariant() == E.j_invariant()
    # minimality: no further u > 1 can reduce; disc is a unit times 2-powers
    assert abs(int(Emin.discriminant())) < abs(int(E.discriminant()))


@pytest.mark.parametrize("E, u, expected", [
    # j = 0: c4 = 0, so only c6 bounds the scaling
    (WeierstrassCurve(0, 0, 0, 0, 12 ** 6 * 7), 12, WeierstrassCurve(0, 0, 0, 0, 7)),
    # j = 1728: c6 = 0, so only c4 bounds the scaling
    (WeierstrassCurve(0, 0, 0, 20 ** 4, 0), 20, WeierstrassCurve(0, 0, 0, 1, 0)),
])
def test_minimal_model_with_a_zero_c_invariant(E, u, expected):
    Emin, trans = minimal_model(E)
    assert Emin == expected
    assert trans.u == u and trans.apply(E) == expected


def test_minimal_model_two_power_quartic_twist():
    # y^2 = x^3 + 2^6 x: one step of u=2 is valid, a second fails the
    # 2-adic existence criterion, so the verdict is y^2 = x^3 + 4x
    E = WeierstrassCurve(0, 0, 0, 2 ** 6, 0)
    Emin, trans = minimal_model(E)
    assert Emin == WeierstrassCurve(0, 0, 0, 4, 0)
    assert trans.u == 2
    # cross-check with the naive valuation rule: the naive rule alone
    # would allow another step (v2(c4) >= 4, c6 = 0, v2(disc) >= 12) but
    # the scaled pair must also come from an integral model, and it does
    # not, so the model above is final
    c4, c6 = (int(c) for c in Emin.c_invariants())
    disc = int(Emin.discriminant())
    naive_reducible = (c4 % 16 == 0 and c6 == 0 and disc % 2 ** 12 == 0)
    assert naive_reducible
    again, trans2 = minimal_model(Emin)
    assert again == Emin and trans2.is_identity()


def test_minimal_model_preserves_j_and_divides_disc():
    rng = random.Random(3)
    for _ in range(10):
        while True:
            a = [F(rng.randrange(-6, 7)) for _ in range(5)]
            try:
                E = WeierstrassCurve(*a)
                break
            except ValueError:
                continue
        Emin, trans = minimal_model(E)
        assert Emin.is_integral()
        assert Emin.j_invariant() == E.j_invariant()
        assert trans.apply(E) == Emin
        # disc_min divides the disc of any integral model
        if E.is_integral():
            ratio = E.discriminant() / Emin.discriminant()
            assert ratio.denominator == 1


def test_minimal_model_transform_matches_transform_between(monkeypatch):
    # the transform comes in closed form from the scaling u/m, with no
    # search: it is the one transform_between finds from the c-invariants,
    # on the quotient curves and family curves of the oracle's scan, the
    # curves of the sieve, and rational curves with denominators
    from fiverank import classgroup, curves, sieve
    from fiverank.errors import FiverankError
    from fiverank.family import kubert_curve, quotient_cubic

    found = []
    monkeypatch.setattr(curves, "transform_between",
                        lambda E, F: found.append(E) or transform_between(E, F))
    models = [d.minimal for d in sieve.sieve_data()]
    for u in classgroup.SCAN_U:
        try:
            models += [quotient_cubic(u).curve(), kubert_curve(u).curve()]
        except FiverankError:
            pass
    rng = random.Random(27)
    while len(models) < 150:
        a = [F(rng.randrange(-40, 41), rng.choice((1, 2, 3, 4, 6, 25))) for _ in range(5)]
        try:
            models.append(WeierstrassCurve(*a))
        except ValueError:
            continue
    scaled = 0
    for E in models:
        Emin, trans = minimal_model(E)
        assert trans == transform_between(E, Emin) and trans.apply(E) == Emin, E
        scaled += trans.u != 1
    assert scaled > 50 and not found


@pytest.mark.parametrize("coefficient", [3, 4])
def test_minimal_model_checks_the_a4_and_a6_equations(monkeypatch, coefficient):
    # a minimal model that the scaling does not reach is refused by an
    # exact check that raises, not by an assert
    from fiverank import curves
    from fiverank.errors import IdentityCheckError

    model = curves._model_from_c4c6

    def shifted(c4, c6):
        a = list(model(c4, c6).a_invariants())
        a[coefficient] += 1
        return WeierstrassCurve(*a)

    monkeypatch.setattr(curves, "_model_from_c4c6", shifted)
    with pytest.raises(IdentityCheckError, match="does not carry"):
        minimal_model(WeierstrassCurve(0, 0, 0, 2 ** 8, 0))


def scales_down_at(E, p):
    """Whether some (u, r, s, t) = (p, r, s, t) with integers r, s, t
    carries the integral E to an integral model: r mod p^2, s mod p and
    t mod p^3 are enough, as the rest is an integral change of the
    target.  A search that shares no step with minimal_model."""
    return any(Transform(F(p), F(r), F(s), F(t)).apply(E).is_integral()
               for s in range(p) for r in range(p * p) for t in range(p ** 3))


@pytest.mark.parametrize("E", [
    # v2(c4), v2(c6), v2(disc) = 4, 6, 10: c4 and c6 alone allow u = 2
    WeierstrassCurve(6, -1100, -2750000, 15625000, -22500000000),
    WeierstrassCurve(F(3, 25), F(-11, 25), -22, F(5, 2), F(-36, 25)),
    # minimal at 3 with v3(c4), v3(c6), v3(disc) >= 4, 6, 12, where Kraus
    # fails at 3, scaled so that the model scales down at 2
    Transform(F(1, 2), F(0), F(0), F(0)).apply(WeierstrassCurve(-783, 9, -2187, 675, 27)),
    Transform(F(1, 2), F(0), F(0), F(0)).apply(WeierstrassCurve(-1134, 45, 243, 189, 216)),
])
def test_minimal_model_scales_by_each_prime_as_far_as_it_may(E):
    # the scaling at p stops at v_p(disc) / 12, and Kraus's criterion is
    # read at 2 and at 3 apart: the model found is integral, carried to
    # from E, and scales down neither at 2 nor at 3
    Emin, trans = minimal_model(E)
    assert Emin.is_integral() and trans.apply(E) == Emin
    assert not scales_down_at(Emin, 2) and not scales_down_at(Emin, 3)


def test_minimal_models_of_random_curves_scale_down_nowhere():
    rng = random.Random(12)
    checked = 0
    while checked < 12:
        a = [F(rng.randrange(-50, 51), rng.choice((1, 2, 3, 4, 6, 36)))
             * rng.choice((1, 2 ** 4, 3 ** 3, 6 ** 4)) for _ in range(5)]
        try:
            E = WeierstrassCurve(*a)
        except ValueError:
            continue
        checked += 1
        Emin, trans = minimal_model(E)
        assert Emin.is_integral() and trans.apply(E) == Emin, E
        assert not scales_down_at(Emin, 2) and not scales_down_at(Emin, 3), E


def test_transform_roundtrip_points():
    E = curve_37a()
    t = Transform(F(2), F(3), F(1), F(-2))
    E2 = t.apply(E)
    P = CurvePoint(F(0), F(0))
    Q = t.new_point(P)
    assert E2.contains(Q)
    assert t.old_x(Q.x) == P.x


def test_transform_between_finds_map():
    E = curve_37a()
    t = Transform(F(1, 3), F(5, 9), F(1, 2), F(7))
    E2 = t.apply(E)
    found = transform_between(E, E2)
    assert found.apply(E) == E2


def _reference_transform_between(E, F_):
    """The candidate search of transform_between with its own solve for
    (r, s, t), each candidate kept when Transform.apply carries E to F_:
    a reference that shares no step with minimal_model's closed form.
    None when no candidate does."""
    from fiverank.exact import integer_nth_root, rational_sqrt

    c4e, c6e = E.c_invariants()
    c4f, c6f = F_.c_invariants()
    if (c4e == 0, c6e == 0) != (c4f == 0, c6f == 0):
        return None
    candidates = []
    if c4e and c6e:
        candidates.append((c6e * c4f) / (c4e * c6f))
    elif c4e:
        try:
            candidates += [rational_sqrt(c4e / c4f), -rational_sqrt(c4e / c4f)]
        except ValueError:
            pass
    else:
        u6 = c6e / c6f
        num, den = u6.numerator, u6.denominator
        if num > 0:
            rn, rd = integer_nth_root(num, 3), integer_nth_root(den, 3)
            if rn ** 3 == num and rd ** 3 == den:
                candidates.append(F(rn, rd))
    for u2 in candidates:
        if u2 <= 0:
            continue
        try:
            u = rational_sqrt(u2)
        except ValueError:
            continue
        for uu in (u, -u):
            s = (uu * F_.a1 - E.a1) / 2
            r = (u2 * F_.a2 - E.a2 + s * E.a1 + s * s) / 3
            t = (uu ** 3 * F_.a3 - E.a3 - r * E.a1) / 2
            cand = Transform(uu, r, s, t)
            if cand.apply(E) == F_:
                return cand
    return None


def test_transform_between_matches_the_reference_search():
    # each candidate u is solved by the closed form minimal_model uses;
    # the transform found is the reference's on random curves (c4 = 0 and
    # c6 = 0 ones too) under random transforms with u of either sign, and
    # a pair the reference finds no map for still raises
    from fiverank.errors import NoIsomorphismError

    rng = random.Random(29)

    def rational(lo=-30, hi=30):
        return F(rng.choice([n for n in range(lo, hi + 1) if n]), rng.choice((1, 2, 3, 5, 6)))

    curves = []
    while len(curves) < 90:
        shape = len(curves) % 3
        a = [rational() for _ in range(5)]
        if shape == 1:
            a = [0, 0, 0, 0, a[4]]          # c4 = 0
        elif shape == 2:
            a = [0, 0, 0, a[3], 0]          # c6 = 0
        try:
            curves.append(WeierstrassCurve(*a))
        except ValueError:
            continue
    pairs = []
    for E in curves:
        t = Transform(rng.choice((1, -1)) * rational(1, 12), rational(), rational(), rational())
        pairs.append((E, t.apply(E)))
        pairs.append((E, rng.choice(curves)))
        # a quadratic twist: same j, no rational map unless d is a square
        b2, b4, b6, _ = E.b_invariants()
        d = rng.choice((-1, 2, 3, -7))
        pairs.append((E, WeierstrassCurve(0, d * b2 / 4, 0, d * d * b4 / 2, d ** 3 * b6 / 4)))
    found = 0
    for E, F_ in pairs:
        ref = _reference_transform_between(E, F_)
        if ref is None:
            with pytest.raises(NoIsomorphismError):
                transform_between(E, F_)
        else:
            trans = transform_between(E, F_)
            assert trans == ref and trans.apply(E) == F_, (E, F_)
            found += 1
    assert found >= 90 and len(pairs) - found >= 150


# ------------------------------------------------------------ reduction data

def test_reduction_info_good_prime():
    E = curve_37a()   # disc = 37
    # (prime, component count, node abscissa): one component, no node
    assert dataclasses.astuple(reduction_info(E, 5)) == (5, 1, None)


def test_reduction_info_split_multiplicative():
    E = curve_37a()
    info = reduction_info(E, 37)
    assert info.prime == 37
    assert info.component_count == 1      # v_37(disc) = 1
    assert info.singular_x is not None


def test_reduction_additive_raises():
    # y^2 = x^3 - 25x has additive reduction at 5
    E = WeierstrassCurve(0, 0, 0, -25, 0)
    Emin, _ = minimal_model(E)
    with pytest.raises(UnsupportedReductionError):
        reduction_info(Emin, 5)


def test_is_semistable():
    assert is_semistable(curve_37a())
    assert not is_semistable(WeierstrassCurve(0, 0, 0, -25, 0))


def test_bad_primes():
    assert bad_primes(curve_37a()) == [37]


def test_bad_primes_unfactorable_raises():
    from fiverank.errors import FactorizationIncompleteError
    E = WeierstrassCurve(0, 0, 0, 0, 10007 ** 2)    # disc = -432 * 10007^4
    with pytest.raises(FactorizationIncompleteError):
        bad_primes(E, trial_bound=100)


def test_transform_between_non_isomorphic():
    from fiverank.errors import NoIsomorphismError
    with pytest.raises(NoIsomorphismError):
        transform_between(curve_37a(), WeierstrassCurve(0, 0, 0, -1, 1))


@pytest.mark.parametrize("E, F_", [
    (WeierstrassCurve(0, 0, 0, -1, 0), WeierstrassCurve(0, 0, 0, 0, 1)),
    (WeierstrassCurve(0, 0, 0, 0, 1), WeierstrassCurve(0, 0, 0, -1, 0)),
    (curve_37a(), WeierstrassCurve(0, 0, 0, -1, 0)),
])
def test_transform_between_zero_c_invariant_on_one_side(E, F_):
    # c4 = 0 or c6 = 0 on exactly one side: no u satisfies u^4 c4' = c4
    # and u^6 c6' = c6, and no ratio of the two may be taken
    from fiverank.errors import NoIsomorphismError
    with pytest.raises(NoIsomorphismError):
        transform_between(E, F_)


def test_five_component_primes_toy():
    # split multiplicative with v(disc) = 5: X0(11)-style curve 11a1
    # y^2 + y = x^3 - x^2 - 10x - 20 has disc -11^5
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    assert int(E.discriminant()) == -(11 ** 5)
    Emin, _ = minimal_model(E)
    assert Emin == E and bad_primes(Emin) == [11]
    info = reduction_info(Emin, 11)
    assert info.component_count == 5
    assert info.singular_x is not None
    # 37a1 has v_37(disc) = 1: one component, so no five-component prime
    assert reduction_info(curve_37a(), 37).component_count == 1


def test_singular_x_is_double_root():
    E = curve_37a()
    info = reduction_info(E, 37)
    quart = E.rhs_quartic()
    x0 = info.singular_x
    val = quart(F(x0))
    dval = quart.derivative()(F(x0))
    assert val.numerator % 37 == 0 and dval.numerator % 37 == 0


def test_curve_serialization():
    assert curve_37a().to_json() == ["0", "0", "1", "-1", "0"]
    assert WeierstrassCurve(F(1, 2), 0, 0, F(-7, 3), 1).to_json() == [
        "1/2", "0", "0", "-7/3", "1"]
