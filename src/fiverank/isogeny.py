"""Degree-5 isogenies from rational 5-torsion kernels.

The kernel polynomial is the monic quadratic factor of the 5-division
polynomial whose roots are the abscissas of a rational cyclic subgroup
of order 5.  On the family curves it is a certified closed form in the
parameter (`family.five_division_kernel`); this module checks a kernel
(`duplication_stable`), applies Velu's formulas, and reads the dual
kernel off Velu's x-map.  All of it is expressed through power sums and
polynomial identities, so the same code runs over Q and over the
function field of the one-parameter family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .curves import (
    Transform,
    WeierstrassCurve,
    minimal_model,  # noqa: F401  (the traced benchmark wraps this binding)
    transform_between,
)
from .errors import DegenerateAbscissaError, InvalidKernelError, NoRationalKernelError
from .exact import Poly, RatFunc


# ---------------------------------------------------------------------------
# division polynomials (y-stripped convention)
# ---------------------------------------------------------------------------

def stripped_division_polys(E: WeierstrassCurve, upto: int) -> tuple[list[Poly], Poly]:
    """psi_n with the factor psi_2 removed from even indices.

    Returns (psit, S) where S = 4x^3 + b2 x^2 + 2 b4 x + b6 = psi_2^2 and
    psi_n = psit[n] * psi_2 for even n, psit[n] for odd n.
    """
    b2, b4, b6, b8 = E.b_invariants()
    S = E.rhs_quartic()
    psit: list[Poly] = [Poly() for _ in range(max(upto + 1, 5))]
    psit[0] = Poly()
    psit[1] = Poly.const(1)
    psit[2] = Poly.const(1)
    psit[3] = Poly([b8, 3 * b6, 3 * b4, b2, 3])
    psit[4] = Poly([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2])
    S2 = S * S

    for n in range(5, upto + 1):
        m = n // 2
        if n % 2:
            lead = psit[m + 2] * psit[m] ** 3
            tail = psit[m - 1] * psit[m + 1] ** 3
            psit[n] = (lead * S2 - tail) if m % 2 == 0 else (lead - tail * S2)
        else:
            psit[n] = psit[m] * (psit[m + 2] * psit[m - 1] ** 2
                                 - psit[m - 2] * psit[m + 1] ** 2)
    return psit[:max(upto + 1, 5)], S


@lru_cache(maxsize=512)
def five_division_polynomial(E: WeierstrassCurve) -> Poly:
    psit, _ = stripped_division_polys(E, 5)
    return psit[5]


@lru_cache(maxsize=512)
def duplication_map(E: WeierstrassCurve) -> RatFunc:
    """x(2P) as a rational function of x(P), built once per curve: its
    normalization takes one polynomial gcd, and a family kernel reads it
    twice (family.five_division_kernel and duplication_stable)."""
    b2, b4, b6, b8 = E.b_invariants()
    num = Poly([-b8, -2 * b6, -b4, 0, 1])
    return RatFunc(num, E.rhs_quartic())


def multiplication_by_n_x(E: WeierstrassCurve, n: int) -> RatFunc:
    """x(nP) as a rational function of x(P), for n >= 2."""
    psit, S = stripped_division_polys(E, n + 1)
    x = Poly.x()
    if n % 2:
        return RatFunc(x * psit[n] ** 2 - psit[n - 1] * psit[n + 1] * S,
                       psit[n] ** 2)
    return RatFunc(x * psit[n] ** 2 * S - psit[n - 1] * psit[n + 1],
                   psit[n] ** 2 * S)


def duplication_stable(E: WeierstrassCurve, k: Poly) -> bool:
    """Whether doubling permutes the roots of k (kernel stability)."""
    dup = duplication_map(E)
    # numerator of k(dup(x)) modulo k(x); keep Poly on the left so that
    # function-field coefficients multiply in as scalars
    a, b = k[1], k[0]
    lifted = dup.num * dup.num + dup.num * dup.den * a + dup.den * dup.den * b
    return (lifted % k).is_zero()


# ---------------------------------------------------------------------------
# Velu's formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsogenyMap:
    """Normalized degree-5 isogeny given by x and y maps.

    y composes as Y = y_map_const(x) + y_map_slope(x) * y; for the curves
    in this package (a1 = a3 = 0 on the domain) the constant part is 0.
    """

    domain: WeierstrassCurve
    codomain: WeierstrassCurve
    x_map: RatFunc
    y_map_const: RatFunc
    y_map_slope: RatFunc
    kernel: Poly

    def __post_init__(self):
        if self.x_map.degree_pair() != (5, 4):
            raise InvalidKernelError(
                f"x-map degrees {self.x_map.degree_pair()} != (5, 4)")

    def verify_codomain_identity(self) -> bool:
        """Substitute the maps into the codomain equation, reduce modulo the
        domain relation, and test exact vanishing.

        Cross-multiplied into polynomial identities so no rational-function
        normalization happens on the large intermediates (this is what
        keeps the function-field check affordable).
        """
        E, F = self.domain, self.codomain
        N, D = self.x_map.num, self.x_map.den
        c1n, c1d = self.y_map_slope.num, self.y_map_slope.den
        c0n, c0d = self.y_map_const.num, self.y_map_const.den
        rhs_dom = Poly([E.a6, E.a4, E.a2, 1])
        lin_dom = Poly([E.a3, E.a1])       # y^2 = rhs_dom - lin_dom * y
        rhs_cod_num = (N ** 3 + N * N * D * F.a2 + N * D * D * F.a4
                       + D ** 3 * F.a6)
        # constant part * (c1d^2 c0d^2 D^3)
        const = (c1n * c1n * rhs_dom * c0d * c0d * D ** 3
                 + c0n * c0n * c1d * c1d * D ** 3
                 + (N * F.a1 + D * F.a3) * c0n * c0d * c1d * c1d * D * D
                 - rhs_cod_num * c1d * c1d * c0d * c0d)
        if not const.is_zero():
            return False
        # y-coefficient part * (c1d^2 c0d D)
        ypart = (-(c1n * c1n) * lin_dom * c0d * D
                 + 2 * c0n * c1n * c1d * D
                 + (N * F.a1 + D * F.a3) * c1n * c1d * c0d)
        return ypart.is_zero()

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "x_map": self.x_map.to_json(),
            "y_map_const": self.y_map_const.to_json(),
            "y_map_slope": self.y_map_slope.to_json(),
            "kernel": self.kernel.to_json(),
        }


def velu_quotient(E: WeierstrassCurve, kernel: Poly) -> IsogenyMap:
    """Quotient of E by the order-5 subgroup with kernel polynomial ``kernel``.

    The kernel must be the monic quadratic x-polynomial of a rational
    cyclic subgroup of order 5 (it must divide psi_5).
    """
    if kernel.degree != 2:
        raise InvalidKernelError("kernel polynomial must be a monic quadratic")
    kernel = kernel.monic()
    psi5 = five_division_polynomial(E)
    if not kernel.divides(psi5):
        raise InvalidKernelError("kernel does not divide the 5-division polynomial")
    a1, a2, a3, a4, a6 = E.a_invariants()
    b2, b4, b6, b8 = E.b_invariants()
    A, B = kernel[1], kernel[0]
    e1, e2 = -A, B                       # power sums of the two abscissas
    p1 = e1
    p2 = e1 * e1 - 2 * e2
    p3 = e1 ** 3 - 3 * e1 * e2
    # per abscissa: v(s) = 6 s^2 + b2 s + b4, u(s) = 4 s^3 + b2 s^2 + 2 b4 s + b6
    v = 6 * p2 + b2 * p1 + 2 * b4
    w = (4 * p3 + b2 * p2 + 2 * b4 * p1 + 2 * b6) + (6 * p3 + b2 * p2 + b4 * p1)
    codomain = WeierstrassCurve(a1, a2, a3, a4 - 5 * v, a6 - b2 * v - 7 * w)

    # x-map: X = x + sum over kernel abscissas s of v(s)/(x-s) + u(s)/(x-s)^2
    x = Poly.x()
    vpoly = Poly([b4, b2, 6])
    upoly = E.rhs_quartic()

    def reduced(poly):
        rem = poly % kernel
        return rem[1], rem[0]            # alpha*x + beta

    av, bv = reduced(vpoly)
    au, bu = reduced(upoly)
    T0 = av * p1 + 2 * bv
    T1 = av * 2 * e2 + bv * e1
    U0 = au * p1 + 2 * bu
    U1 = au * 2 * e2 + bu * e1
    U2 = au * e2 * e1 + bu * (e1 * e1 - 2 * e2)
    A1 = Poly([-T1, T0])
    A2 = Poly([U2, -2 * U1, U0])
    num = x * kernel ** 2 + A1 * kernel + A2
    x_map = RatFunc(num, kernel ** 2)
    # normalized isogeny: 2Y + a1 X + a3 = X'(x) (2y + a1 x + a3), with the
    # derivative written over kernel^3 to keep denominators small
    slope_num = num.derivative() * kernel - 2 * num * kernel.derivative()
    kcube = kernel ** 3
    slope = RatFunc(slope_num, kcube)
    y_const_num = slope_num * Poly([a3, a1]) - (num * kernel) * a1 - kcube * a3
    y_const = RatFunc(y_const_num / 2, kcube)
    return IsogenyMap(E, codomain, x_map, y_const, slope, kernel)


def velu_onto_model(E: WeierstrassCurve, kernel: Poly,
                    target: WeierstrassCurve) -> IsogenyMap:
    """Velu quotient post-composed with the isomorphism onto ``target``.

    X = (x - r)/u^2 and Y = (y - s u^2 X - t)/u^3 are affine in the maps
    of the quotient, so they apply to numerators alone (_affine).
    """
    phi = velu_quotient(E, kernel)
    trans = transform_between(phi.codomain, target)
    u, r, s, t = trans.u, trans.r, trans.s, trans.t
    u2, u3 = u * u, u ** 3
    X = _affine(phi.x_map, 1 / u2, -r / u2)
    # y_const - s u^2 X - t = y_const - s x_map + (s r - t)
    Yc = _affine(phi.x_map, -s / u3, (s * r - t) / u3)
    if phi.y_map_const:
        Yc = Yc + _affine(phi.y_map_const, 1 / u3, 0)
    Ys = _affine(phi.y_map_slope, 1 / u3, 0)
    return IsogenyMap(E, target, X, Yc, Ys, phi.kernel)


def _affine(f: RatFunc, a, b) -> RatFunc:
    """a f + b for constants a and b, without a gcd: for f = N/D in lowest
    terms with D monic, gcd(a N + b D, D) = gcd(a N, D) = 1 when a != 0,
    so (a N + b D)/D is in lowest terms with D monic."""
    if not a:
        return RatFunc(b)
    num = f.num * a + f.den * b
    if not num:
        return RatFunc(num)
    out = RatFunc.__new__(RatFunc)
    out.num, out.den = num, f.den
    return out


def preimage_quintic(iso: IsogenyMap, xQ) -> Poly:
    """Monic quintic whose roots are domain abscissas mapping to xQ."""
    poly = iso.x_map.num - xQ * iso.x_map.den
    if poly.degree != 5:
        raise DegenerateAbscissaError(f"degree dropped to {poly.degree} at x={xQ}")
    return poly.monic()


def dual_kernel(phi: IsogenyMap) -> Poly:
    """Kernel polynomial on the codomain of the dual isogeny.

    The x-map N/D sends the ten abscissas of 5-torsion outside ker phi,
    the roots of psi_5/k, five to one onto the two roots of the dual
    kernel X^2 + aX + b.  Hence N^2 + aND + bD^2 = c psi_5/k: c, a and b
    are read off the coefficients of degree 10, 9 and 8, and the whole
    identity is checked.  The result is certified by composing back to
    multiplication by 5 on the domain; raises NoRationalKernelError when
    either check fails.
    """
    N, D = phi.x_map.num, phi.x_map.den
    rest = five_division_polynomial(phi.domain) // phi.kernel
    N2, ND, D2 = N * N, N * D, D * D
    c = N2[10] / rest[10]
    a = (c * rest[9] - N2[9]) / ND[9]
    b = (c * rest[8] - N2[8] - a * ND[8]) / D2[8]
    if N2 + ND * a + D2 * b != rest * c:
        raise NoRationalKernelError("Velu's x-map does not map psi_5/k onto a quadratic")
    khat = Poly([b, a, Fraction(1)])
    psi = velu_quotient(phi.codomain, khat)
    back = transform_between(psi.codomain, phi.domain)
    if composed_x_map(phi, psi, back) != multiplication_by_n_x(phi.domain, 5):
        raise NoRationalKernelError("dual kernel does not reproduce multiplication by 5")
    return khat


def composed_x_map(phi: IsogenyMap, psi: IsogenyMap, back: Transform) -> RatFunc:
    """x-coordinate of back(psi(phi(.))) as an exact rational function."""
    comp = psi.x_map(phi.x_map)
    return (comp - back.r) / back.u ** 2
