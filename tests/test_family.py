import random
from fractions import Fraction as F

import pytest

from fiverank.curves import is_semistable, transform_between
from fiverank.errors import (
    DegenerateParameterError,
    FieldCollapseError,
    IdentityCheckError,
    InvalidKernelError,
    PoleError,
)
from fiverank.exact import Poly, RatFunc, rational_mod
from fiverank.family import (
    CubicModel,
    c_parametrization,
    check_family_kernel,
    check_order10_abscissa,
    five_division_kernel,
    kubert_curve,
    model_poly,
    quotient_cubic,
    quotient_model,
    specialize,
    symbolic_family_curve,
    symbolic_order10_abscissa,
    symbolic_parameter,
    triple_u,
)
from fiverank.isogeny import five_division_polynomial, velu_quotient


# ------------------------------------------------------------ family models

def test_kubert_curve_at_4():
    model = kubert_curve(4)
    assert model.poly == Poly([-76 * 697, -76 * 128, 697, 128])


def test_cubic_model_builds_its_curve_once():
    model = kubert_curve(F(4))
    assert model.curve() is model.curve()
    assert quotient_cubic(F(2, 3)).curve() is not None
    # a singular model raises on every call, and caches nothing
    singular = CubicModel(Poly([0, 0, 0, 1]))
    for _ in range(2):
        with pytest.raises(DegenerateParameterError):
            singular.curve()
    assert CubicModel(Poly([1, 2, 3, 4])) == CubicModel(Poly([1, 2, 3, 4]))


def test_family_models_built_once_per_u(cold_caches):
    # one model per u, rational or the function-field generator, so each
    # curve is built once; a singular u raises on every call, stores nothing
    from fiverank import family

    for u in (F(2, 3), symbolic_parameter()):
        assert family.kubert_curve(u) is family.kubert_curve(u)
        assert family.quotient_cubic(u) is family.quotient_cubic(u)
    for build in (family.kubert_curve, family.quotient_cubic):
        assert build.cache_info().currsize == 2
        for bad in (F(1), F(0), F(-1)):
            for _ in range(2):
                with pytest.raises(DegenerateParameterError):
                    build(bad)
        assert build.cache_info().currsize == 2


def test_duplication_map_built_once_per_kernel(cold_caches, monkeypatch):
    # the kernel's closed form and its duplication-stability check read one
    # duplication map per curve, and both kernel checks still run
    from fiverank import family, isogeny

    checks = []

    def counted(name, fn):
        def wrapper(*args):
            checks.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(family, "five_division_polynomial",
                        counted("psi_5", family.five_division_polynomial))
    monkeypatch.setattr(family, "duplication_stable",
                        counted("stable", family.duplication_stable))
    us = [F(2, 3), F(4), F(19, 21), symbolic_parameter()]
    for u in us:
        family.five_division_kernel(u)
    info = isogeny.duplication_map.cache_info()
    assert info.misses == info.hits == len(us)
    assert sorted(checks) == ["psi_5"] * len(us) + ["stable"] * len(us)


def test_kubert_degenerate_parameters():
    for bad in (F(1), F(0), F(-1)):
        with pytest.raises(DegenerateParameterError):
            kubert_curve(bad)
        with pytest.raises(DegenerateParameterError):
            five_division_kernel(bad)


def test_kubert_semistable_at_family_parameters():
    assert is_semistable(kubert_curve(F(19, 21)).curve())
    # the congruence that guarantees it: 19/21 = -1 mod 5
    assert rational_mod(F(19, 21), 5) == 4


def test_quotient_model_values():
    g, h = quotient_model(4)
    assert h == Poly([25177, 2888])
    assert g == Poly([-F(6061, 9261) * 0 - 76, 0, 1]) * h + Poly() or True
    # definitional product
    assert g == Poly([-76, 0, 1]) * h
    g2, h2 = quotient_model(F(19, 21))
    ratio = F(8, 21 ** 6)
    assert h2 == Poly([-133597561 * ratio, 44876601 * ratio])


def test_triple_u():
    assert triple_u(4) == (F(19, 21), F(-29, 21), F(-11, 21))
    u1, u2, u3 = triple_u(RatFunc(Poly.x()))

    def common(u):
        return u * (u * u + u - 1)

    assert common(u1) == common(u2) == common(u3)


def test_common_value_at_4():
    u1, _, _ = triple_u(4)
    assert u1 * (u1 * u1 + u1 - 1) == F(6061, 9261)


def test_three_quotients_share_quadratic_factor():
    # each g_{u_i} is (x^2 - 6061/9261) times its linear part
    shared = Poly([F(-6061, 9261), 0, 1])
    for ui in triple_u(4):
        g, h = quotient_model(ui)
        assert g == shared * h


# --------------------------------------------------------- parametrization

def test_parametrization_identities():
    x_of_z, v_of_z, w_of_z = c_parametrization()
    u1, u2, u3 = triple_u(4)
    _, h1 = quotient_model(u1)
    _, h2 = quotient_model(u2)
    _, h3 = quotient_model(u3)
    lhs = h1(x_of_z)
    assert lhs == v_of_z * v_of_z * h2(x_of_z)
    assert lhs == w_of_z * w_of_z * h3(x_of_z)


def test_parametrization_poles_and_leading():
    x_of_z, v_of_z, _ = c_parametrization()
    for pole in (F(0), F(29, 11), F(-922989409, 4883562662)):
        assert x_of_z.is_pole(pole)
    assert x_of_z.den.degree == 3 and x_of_z.num.degree == 4
    assert v_of_z.num.leading() / v_of_z.den.leading() == F(29, 19)


def test_model_composition_structure():
    # f(x(z)) has a degree-12 numerator over the cube of the pole structure
    x_of_z, _, _ = c_parametrization()
    f = model_poly()
    composed = f(x_of_z)
    assert composed.num.degree == 12
    assert composed.den.degree == 9
    cube = (x_of_z.den.monic()) ** 3
    assert composed.den == cube


def test_model_is_square_multiple_of_quotient():
    sp = specialize()
    g1, _ = quotient_model(sp.u[0])
    assert sp.f_model == sp.scale ** 2 * g1
    assert sp.scale == F(21 ** 5, 2)


# ----------------------------------------------------------- specialization

def test_specialize_builds_and_verifies():
    sp = specialize()
    results = sp.verify_identities()
    assert all(results.values()), {k: v for k, v in results.items() if not v}


def test_specialize_builds_no_isogeny(cold_caches, velu_builds):
    # the three isogenies are built on their first read, once each, and
    # are five_isogeny's
    from fiverank import family

    sp = family.specialize.__wrapped__()
    assert velu_builds == []
    first = sp.isogenies
    assert velu_builds == [model.curve() for model in sp.E_models]
    for j in range(3):
        assert sp.isogenies[j] is first[j] is family.five_isogeny(sp.u[j])
    assert len(velu_builds) == 3


def test_radicand_signs_near_zero():
    sp = specialize()
    # small positive z -> negative radicand (imaginary field)
    assert sp.radicand(F(1, 10)) < 0
    assert sp.radicand(F(1, 100)) < 0
    # small negative z -> positive radicand (real field)
    assert sp.radicand(F(-1, 10)) > 0
    assert sp.radicand(F(-1, 100)) > 0


def test_radicand_pole():
    sp = specialize()
    with pytest.raises(PoleError, match=r"^evaluation at pole z=29/11$"):
        sp.radicand(F(29, 11))


def test_splitting_pattern_field_collapse():
    from fiverank.splitting import splitting_pattern
    z = 874461709044
    with pytest.raises(FieldCollapseError, match=f"^radicand at z={z} is a rational square$"):
        splitting_pattern(z, specialize().x_of_z(F(z)), F(4))


def test_velu_matches_quotient_model_random_congruent_u():
    # quotient of the family curve agrees with the stated model for 50
    # random parameters in the semistable congruence class
    rng = random.Random(20260808)
    checked = 0
    while checked < 50:
        u = F(rng.randrange(-20, 21), rng.randrange(1, 21))
        if u.denominator % 5 == 0 or rational_mod(u, 5) not in (1, 4):
            continue
        try:
            E = kubert_curve(u).curve()
            target = quotient_cubic(u).curve()
        except DegenerateParameterError:
            continue
        k = five_division_kernel(u)
        phi = velu_quotient(E, k)
        assert phi.codomain.j_invariant() == target.j_invariant()
        trans = transform_between(phi.codomain, target)
        assert trans.apply(phi.codomain) == target
        checked += 1


# ------------------------------------------------------- symbolic derivations

def test_symbolic_family_curve_and_kernel():
    E = symbolic_family_curve()
    kernel = five_division_kernel(symbolic_parameter())
    psi5 = five_division_polynomial(E)
    assert (psi5 % kernel).is_zero()
    # specializing the symbolic kernel reproduces the numeric kernels,
    # including at the three construction parameters
    for u in (F(4), F(19, 21), F(-29, 21), F(-11, 21)):
        k_num = five_division_kernel(u)
        at_u = Poly([c(u) if isinstance(c, RatFunc) else c for c in kernel.c])
        assert at_u.monic() == k_num, u


def test_symbolic_order10_abscissa():
    x0 = symbolic_order10_abscissa()
    # at sample parameters, the abscissa carries a rational point of order 10
    from fiverank.curves import CurvePoint, torsion_order
    from fiverank.exact import rational_sqrt
    for u in (F(4), F(6), F(19, 21)):
        E = kubert_curve(u).curve()
        xv = x0(u)
        y = rational_sqrt(E.rhs_quartic()(xv)) / 2
        P0 = CurvePoint(xv, y)
        assert E.contains(P0)
        assert torsion_order(E, P0) == 10
    # closed form (long coordinates): -4u^4 - 4u^3 + 12u^2 + 4u
    from fiverank.exact import RatFunc as RF
    assert x0 == RF(Poly([0, 4, 12, -4, -4]))


def test_symbolic_j_invariant_agreement():
    # quotient of the family curve has the j-invariant of y^2 = g_u(x), as
    # functions of u
    E = symbolic_family_curve()
    kernel = five_division_kernel(symbolic_parameter())
    phi = velu_quotient(E, kernel)
    u = RatFunc(Poly.x())
    target = quotient_cubic(u).curve()
    assert phi.codomain.j_invariant() == target.j_invariant()
    assert phi.verify_codomain_identity()


def test_symbolic_certificates_reject_wrong_closed_forms():
    E = symbolic_family_curve()
    kernel = five_division_kernel(symbolic_parameter())
    x0 = symbolic_order10_abscissa()
    u = RatFunc(Poly.x())
    # the root of the cubic's linear factor, in long coordinates: a
    # 2-torsion abscissa
    two_torsion = -(u * u + 1) * (u ** 4 - 2 * u ** 3 - 6 * u * u + 2 * u + 1)
    assert Poly([E.a6, E.a4, E.a2, F(1)])(two_torsion) == 0
    with pytest.raises(IdentityCheckError, match="2-torsion"):
        check_order10_abscissa(E, kernel, two_torsion)
    with pytest.raises(IdentityCheckError, match="misses the 5-torsion kernel"):
        check_order10_abscissa(E, kernel, x0 + 1)
    with pytest.raises(InvalidKernelError, match="does not divide psi_5"):
        check_family_kernel(E, kernel + 1)
    # the same certificate guards the numeric curves
    with pytest.raises(InvalidKernelError, match="does not divide psi_5"):
        check_family_kernel(kubert_curve(4).curve(), five_division_kernel(4) + 1)
