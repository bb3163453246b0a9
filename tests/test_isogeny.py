import dataclasses
import random
from fractions import Fraction as F

import pytest

from fiverank.curves import (
    CurvePoint,
    Transform,
    WeierstrassCurve,
    point_add,
    point_mul,
    torsion_order,
    transform_between,
)
from fiverank.errors import InvalidKernelError, NoRationalKernelError
from fiverank.exact import Poly, rational_sqrt
from fiverank.family import five_division_kernel, kubert_curve
from fiverank.isogeny import (
    dual_kernel,
    duplication_map,
    five_division_polynomial,
    composed_x_map,
    multiplication_by_n_x,
    preimage_quintic,
    stripped_division_polys,
    velu_onto_model,
    velu_quotient,
)


def curve_from_cubic(c3, c2, c1, c0):
    return WeierstrassCurve(0, c2, 0, c1 * c3, c0 * c3 * c3)


def kubert_cubic(u):
    u = F(u)
    A = u * (u * u + u - 1)
    c3 = 8 * u * u
    lin = (u * u + 1) * (u ** 4 - 2 * u ** 3 - 6 * u * u + 2 * u + 1)
    return (c3, lin, -A * c3, -A * lin)


def kubert_long(u):
    return curve_from_cubic(*kubert_cubic(u))


def quotient_cubic(u):
    u = F(u)
    A = u * (u * u + u - 1)
    h1 = 8 * (u * u + u - 1) ** 2
    h0 = (u * u + 1) * (u ** 4 + 22 * u ** 3 - 6 * u * u - 22 * u + 1)
    return (h1, h0, -A * h1, -A * h0)


E4 = kubert_long(4)


# ------------------------------------------------------- division polynomials

def test_division_polynomial_degrees():
    psit, S = stripped_division_polys(E4, 10)
    assert five_division_polynomial(E4).degree == 12
    assert psit[3].degree == 4
    assert psit[7].degree == 24
    assert S.degree == 3


def test_division_polynomial_matches_group_law():
    # psi5 vanishes exactly at abscissas of 5-torsion
    psi5 = five_division_polynomial(E4)
    assert psi5(F(4928)) == 0 and psi5(F(1328)) == 0
    # x(nP) from division polynomials == x(nP) from the group law
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    P = CurvePoint(F(0), F(0))
    for n in (2, 3, 4, 5, 7):
        xn = multiplication_by_n_x(E, n)
        Q = point_mul(E, n, P)
        assert xn(P.x) == Q.x


def test_duplication_map_matches_group_law():
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    dup = duplication_map(E)
    P = CurvePoint(F(0), F(0))
    for n in (1, 2, 3, 5):
        Q = point_mul(E, n, P)
        assert dup(Q.x) == point_mul(E, 2 * n, P).x


# -------------------------------------------------------------------- kernels

def test_five_division_kernel_kubert4():
    k = five_division_kernel(4)
    assert k == Poly.from_roots([F(4928), F(1328)])
    assert k.divides(five_division_polynomial(E4))


@pytest.mark.parametrize("u", [F(19, 21), F(-29, 21), F(-11, 21), F(6), F(-4)])
def test_five_division_kernel_family(u):
    E = kubert_long(u)
    k = five_division_kernel(u)
    psi5 = five_division_polynomial(E)
    assert k.degree == 2 and k.divides(psi5)
    # kernel points are rational and of exact order 5: the discriminant is
    # a nonzero rational square
    root = rational_sqrt(k[1] ** 2 - 4 * k[0])
    assert root != 0
    roots = [(-k[1] + root) / 2, (-k[1] - root) / 2]
    S = E.rhs_quartic()
    for r in roots:
        y = rational_sqrt(S(r)) / 2      # a1 = a3 = 0: y = sqrt(rhs)
        P = CurvePoint(r, y)
        assert E.contains(P)
        assert torsion_order(E, P) == 5


# ---------------------------------------------------------------------- Velu

def test_velu_rejects_bad_kernel():
    with pytest.raises(InvalidKernelError):
        velu_quotient(E4, Poly.from_roots([F(1), F(2)]))


def test_velu_quotient_kubert4():
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    assert phi.x_map.num.degree == 5
    assert phi.x_map.den.degree == 4
    assert phi.verify_codomain_identity()
    # codomain is isomorphic to y^2 = g_u(x)
    target = curve_from_cubic(*quotient_cubic(4))
    assert phi.codomain.j_invariant() == target.j_invariant()
    trans = transform_between(phi.codomain, target)
    assert trans.apply(phi.codomain) == target


def test_velu_x_map_poles_exactly_kernel():
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    assert phi.x_map.den == (k * k).monic()
    assert phi.x_map.num.gcd(phi.x_map.den).degree == 0


def test_velu_kernel_points_map_to_infinity_and_translation_invariance():
    # over Q on E_{3/2}: G has infinite order and P0 order 10, so T = 2 P0
    # generates the kernel; translating P = kG + jP0 by T fixes the image
    # abscissa, and T itself maps to infinity
    u = F(3, 2)
    E = kubert_curve(u).curve()
    phi = velu_quotient(E, five_division_kernel(u))
    G = CurvePoint(F(153, 4), F(495, 32))
    assert torsion_order(E, G, bound=12) == "exceeds bound"
    x0 = -4 * u ** 4 - 4 * u ** 3 + 12 * u ** 2 + 4 * u
    P0 = CurvePoint(x0, rational_sqrt(E.rhs_quartic()(x0)) / 2)
    assert torsion_order(E, P0) == 10
    T = point_mul(E, 2, P0)
    assert phi.x_map.is_pole(T.x)
    for k in range(1, 6):
        for j in range(10):
            P = point_add(E, point_mul(E, k, G), point_mul(E, j, P0))
            Q = point_add(E, P, T)
            assert phi.x_map(P.x) == phi.x_map(Q.x), (k, j)


def test_image_of_order10_generator_is_two_torsion():
    k = five_division_kernel(4)
    target = curve_from_cubic(*quotient_cubic(4))
    phi = velu_onto_model(E4, k, target)
    assert phi.codomain == target
    P0 = point_add(E4, CurvePoint(F(4928), F(360000)), CurvePoint(F(-697), F(0)))
    assert torsion_order(E4, P0) == 10
    ximg = phi.x_map(P0.x)
    yimg = phi.y_map_const(P0.x) + phi.y_map_slope(P0.x) * P0.y
    Q = CurvePoint(ximg, yimg)
    assert target.contains(Q)
    assert torsion_order(target, Q) == 2


def test_velu_onto_model_identity():
    k = five_division_kernel(4)
    target = curve_from_cubic(*quotient_cubic(4))
    phi = velu_onto_model(E4, k, target)
    assert phi.verify_codomain_identity()


def test_velu_onto_model_with_a1_a3_matches_the_ratfunc_formulas():
    # Tate normal form y^2 + (1 - t) x y - t y = x^3 - t x^2: (0, 0) has
    # order 5, with x(P) = 0 and x(2P) = t.  a1 and a3 are nonzero, so the
    # quotient's y-map has a constant part, and the target is reached by
    # a change of variables with every one of u, r, s, t nonzero
    t = F(3, 7)
    E = WeierstrassCurve(1 - t, -t, -t, 0, 0)
    kernel = Poly([0, -t, 1])
    quotient = velu_quotient(E, kernel)
    assert quotient.y_map_const
    target = Transform(F(2, 5), F(1, 3), F(-3, 2), F(5, 4)).apply(quotient.codomain)
    phi = velu_onto_model(E, kernel, target)
    trans = transform_between(quotient.codomain, target)
    u, r, s, t = trans.u, trans.r, trans.s, trans.t
    X = (quotient.x_map - r) / u ** 2
    assert phi.x_map == X
    assert phi.y_map_const == (quotient.y_map_const - s * u * u * X - t) / u ** 3
    assert phi.y_map_slope == quotient.y_map_slope / u ** 3
    assert phi.codomain == target and phi.verify_codomain_identity()


def test_codomain_identity_on_sampled_points():
    # numeric counterpart of the symbolic identity: (slope(x) y)^2 equals the
    # codomain cubic at X(x) whenever y^2 equals the domain cubic at x
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    E, C = phi.domain, phi.codomain
    rng = random.Random(99)
    hits = 0
    while hits < 50:
        x0 = F(rng.randrange(-10**5, 10**5), rng.randrange(1, 500))
        if phi.x_map.is_pole(x0):
            continue
        y2 = x0 ** 3 + E.a2 * x0 * x0 + E.a4 * x0 + E.a6
        X = phi.x_map(x0)
        lhs = phi.y_map_slope(x0) ** 2 * y2
        rhs = X ** 3 + C.a2 * X * X + C.a4 * X + C.a6
        assert lhs == rhs
        hits += 1


def test_dual_composition_is_multiplication_by_5():
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    khat = dual_kernel(phi)
    assert khat.degree == 2
    psi = velu_quotient(phi.codomain, khat)
    back = transform_between(psi.codomain, E4)
    assert composed_x_map(phi, psi, back) == multiplication_by_n_x(E4, 5)
    # an x-map that does not belong to the kernel has no dual to read off
    with pytest.raises(NoRationalKernelError):
        dual_kernel(dataclasses.replace(phi, kernel=Poly.from_roots([F(1), F(2)])))


# ----------------------------------------------------------- preimage quintic

def test_preimage_quintic_contains_constructed_root():
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    x0 = F(17, 5)
    xq = phi.x_map(x0)
    q = preimage_quintic(phi, xq)
    assert q.degree == 5 and q.leading() == 1
    assert q(x0) == 0


def test_preimage_quintic_generic_degree_and_disc():
    k = five_division_kernel(4)
    phi = velu_quotient(E4, k)
    q = preimage_quintic(phi, F(123, 7))
    assert q.degree == 5
    assert q.gcd(q.derivative()).degree == 0


def test_dual_kernel_lets_programming_errors_through(monkeypatch):
    # a failure inside the [5] certificate surfaces as raised, never as a
    # missing dual kernel
    from fiverank import isogeny

    phi = velu_quotient(E4, five_division_kernel(4))

    def broken(E, F):
        raise TypeError("bug in transform_between")

    monkeypatch.setattr(isogeny, "transform_between", broken)
    with pytest.raises(TypeError, match="bug in transform_between"):
        dual_kernel(phi)
