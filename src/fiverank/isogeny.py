"""Degree-5 isogenies from rational 5-torsion kernels.

The kernel polynomial is the monic quadratic factor of the 5-division
polynomial whose roots are the abscissas of a rational cyclic subgroup
of order 5; it is found by factoring mod a good prime, Hensel lifting
candidate quadratics, and verifying exactly over Q.  Velu's formulas
then give the quotient curve and the isogeny, expressed through power
sums of the kernel abscissas so that the same code runs over Q and over
the function field of the one-parameter family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .curves import Transform, WeierstrassCurve, minimal_model, transform_between
from .errors import (
    DegenerateAbscissaError,
    InvalidKernelError,
    NoIsomorphismError,
    NoRationalKernelError,
)
from .exact import (
    Poly,
    RatFunc,
    is_probable_prime,
    is_square,
    pm_derivative,
    pm_divmod,
    pm_factor,
    pm_gcd,
    pm_mul,
    pm_sub,
    pm_trim,
)


# ---------------------------------------------------------------------------
# division polynomials (y-stripped convention)
# ---------------------------------------------------------------------------

def stripped_division_polys(E: WeierstrassCurve, upto: int) -> tuple[list[Poly], Poly]:
    """psi_n with the factor psi_2 removed from even indices.

    Returns (psit, S) where S = 4x^3 + b2 x^2 + 2 b4 x + b6 = psi_2^2 and
    psi_n = psit[n] * psi_2 for even n, psit[n] for odd n.
    """
    b2, b4, b6, b8 = E.b_invariants()
    S = Poly([b6, 2 * b4, b2, 4])
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


def five_division_polynomial(E: WeierstrassCurve) -> Poly:
    psit, _ = stripped_division_polys(E, 5)
    return psit[5]


def duplication_map(E: WeierstrassCurve) -> RatFunc:
    """x(2P) as a rational function of x(P)."""
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


# ---------------------------------------------------------------------------
# rational factors of bounded degree via mod-p lifting
# ---------------------------------------------------------------------------

def _hensel_lift_pair(f: list[int], g: list[int], h: list[int],
                      p: int, target_exp: int) -> tuple[list[int], list[int]]:
    """Lift f = g*h (mod p) to mod p^target_exp.

    f, g, h monic with g, h coprime mod p.  Linear lifting with the
    Bezout pair fixed mod p; corrections keep both factors monic.
    """
    # g and h mod p stay fixed while the lift adds multiples of p
    gp, hp = pm_trim([c % p for c in g]), pm_trim([c % p for c in h])
    # t with s*g + t*h = 1 mod p, by extended Euclid (s is not needed)
    r0, r1 = gp, hp
    t0, t1 = [], [1]
    while r1:
        q, r = pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, pm_sub(t0, pm_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    t = [c * inv % p for c in t0]

    g, h = list(gp), list(hp)
    pk = p
    for _ in range(target_exp - 1):
        # delta = (f - g*h) / p^k mod p, a polynomial of degree < deg f
        pk1 = pk * p
        delta = [c // pk for c in pm_sub(f, pm_mul(g, h, pk1), pk1)]
        if delta:
            _, G = pm_divmod(pm_mul(t, delta, p), gp, p)
            # H = (delta - G*h) / g exactly mod p
            H, rem = pm_divmod(pm_sub(delta, pm_mul(G, hp, p), p), gp, p)
            if rem:
                raise ValueError("Hensel step inconsistency")
            for i, c in enumerate(G):
                if c:
                    if i < len(g):
                        g[i] += pk * c
                    else:
                        raise ValueError("degree overflow in Hensel correction")
            for i, c in enumerate(H):
                if c:
                    if i < len(h):
                        h[i] += pk * c
                    else:
                        raise ValueError("degree overflow in Hensel correction")
        pk = pk1
    return g, h


def _balanced(c: int, mod: int) -> int:
    c %= mod
    return c - mod if c > mod // 2 else c


def rational_factors_of_degree(f: Poly, degree: int) -> list[Poly]:
    """All monic rational factors of f with the given degree (1 or 2).

    Clears denominators, monicizes by a variable scaling, factors mod a
    good prime, Hensel lifts each candidate combination, reconstructs
    candidate integer factors from balanced residues, and keeps the ones
    that divide exactly.  Complete: a true rational factor reduces to a
    factor combination mod every good prime.  Non-squarefree input is
    reduced to its squarefree part (with repeated-root squares added back
    for the quadratic case).
    """
    if f.degree < degree:
        return []
    rep = f.gcd(f.derivative())
    if rep.degree > 0:
        squarefree = f // rep
        found = dict()
        for g in rational_factors_of_degree(squarefree, degree):
            if g.divides(f):
                found[tuple(g.c)] = g
        if degree == 2:
            for root in rational_roots(rep):
                g = Poly.from_roots([root, root])
                if g.divides(f):
                    found[tuple(g.c)] = g
        return sorted(found.values(), key=lambda g: g.to_json())
    ints = f.primitive_integer()
    lead = ints[-1]
    # monicize: F(Y) = lead^(n-1) f(Y / lead) has integer coefficients
    n = len(ints) - 1
    monic = [ints[i] * lead ** (n - 1 - i) for i in range(n)] + [1]
    # Mignotte-style bound for degree-<=2 monic factors of monic F
    norm = math.isqrt(sum(c * c for c in monic)) + 1
    bound = 4 * norm
    p = 10007
    while True:
        if is_probable_prime(p) and monic[-1] % p:
            fm = [c % p for c in monic]
            if len(pm_gcd(fm, pm_derivative(fm, p), p)) == 1:
                break
        p += 2
    # balanced residues recover any coefficient of size <= bound once the
    # modulus exceeds twice the bound
    target_exp = 1
    while p ** target_exp <= 2 * bound:
        target_exp += 1
    factors_mod_p = pm_factor([c % p for c in monic], p)
    pieces = []
    for g, mult in factors_mod_p:
        pieces.extend([g] * mult)
    found: dict[tuple, Poly] = {}
    for combo in _degree_combinations(pieces, degree):
        gm = [1]
        for piece in combo:
            gm = pm_mul(gm, piece, p)
        hm, rem = pm_divmod(monic, gm, p)
        if rem:
            continue
        glift, _ = _hensel_lift_pair(monic, gm, hm, p, target_exp)
        mod = p ** target_exp
        cand = [_balanced(c, mod) for c in glift]
        if any(abs(c) > bound for c in cand[:-1]):
            continue
        cand_poly = Poly(cand)
        # undo monicization: roots of the monic form are lead * (roots of f),
        # so substitute Y = lead * X and renormalize
        descaled = Poly([c * lead ** i for i, c in enumerate(cand_poly.c)]).monic()
        if descaled.degree == degree and descaled.divides(f):
            found[tuple(descaled.c)] = descaled
    return sorted(found.values(), key=lambda g: g.to_json())


def _degree_combinations(pieces: list[list[int]], degree: int):
    idx = list(range(len(pieces)))
    seen = set()
    for r in range(1, degree + 1):
        for combo in combinations(idx, r):
            if sum(len(pieces[i]) - 1 for i in combo) == degree:
                key = tuple(sorted(tuple(pieces[i]) for i in combo))
                if key not in seen:
                    seen.add(key)
                    yield [pieces[i] for i in combo]


def rational_roots(f: Poly) -> list[Fraction]:
    return sorted(-g[0] for g in rational_factors_of_degree(f, 1))


# ---------------------------------------------------------------------------
# kernel search
# ---------------------------------------------------------------------------

def duplication_stable(E: WeierstrassCurve, k: Poly) -> bool:
    """Whether doubling permutes the roots of k (kernel stability)."""
    dup = duplication_map(E)
    # numerator of k(dup(x)) modulo k(x); keep Poly on the left so that
    # function-field coefficients multiply in as scalars
    a, b = k[1], k[0]
    lifted = dup.num * dup.num + dup.num * dup.den * a + dup.den * dup.den * b
    return (lifted % k).is_zero()


@lru_cache(maxsize=512)
def five_division_kernel(E: WeierstrassCurve) -> Poly:
    """Monic quadratic factor of psi_5 cutting out the rational 5-kernel.

    Works on a minimal model internally and maps the factor back, which
    keeps the lifting bounds small.  Split kernels are assembled cheaply
    from rational roots paired by the duplication map; the full quadratic
    search only runs when that route finds nothing.  Raises
    NoRationalKernelError when no quadratic factor of psi_5 is stable
    under doubling.
    """
    if not all(isinstance(a, Fraction) for a in E.a_invariants()):
        raise TypeError("kernel search needs a curve over Q")
    Emin, trans = minimal_model(E)
    psi5 = five_division_polynomial(Emin)
    kernels = []
    roots = rational_roots(psi5)
    dup = duplication_map(Emin)
    for s in roots:
        if dup.is_pole(s):
            continue
        s2 = dup(s)
        k = Poly.from_roots([s, s2])
        if k.divides(psi5) and duplication_stable(Emin, k):
            kernels.append(k)
    if not kernels:
        for k in rational_factors_of_degree(psi5, 2):
            if duplication_stable(Emin, k):
                kernels.append(k)
    uniq = {tuple(k.c): k for k in kernels}
    kernels = list(uniq.values())
    if not kernels:
        raise NoRationalKernelError(f"no rational 5-isogeny kernel on {E!r}")
    if len(kernels) > 1:
        # prefer the kernel consisting of rational points
        S = Emin.rhs_quartic()
        rational_pt = [k for k in kernels
                       if all(is_square(S(r)) for r in rational_roots(k))
                       and len(rational_roots(k)) == 2]
        if len(rational_pt) == 1:
            kernels = rational_pt
        else:
            kernels.sort(key=lambda k: k.to_json())
    k_min = kernels[0]
    # map the roots back through the transform: x = u^2 x' + r
    u2, r = trans.u ** 2, trans.r
    x = Poly.x()
    k_orig = ((x - r) / u2) ** 2 + k_min[1] * ((x - r) / u2) + k_min[0]
    return k_orig.monic()


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

    def degree(self) -> int:
        return self.x_map.num.degree

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
    upoly = Poly([b6, 2 * b4, b2, 4])

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
    """Velu quotient post-composed with the isomorphism onto ``target``."""
    phi = velu_quotient(E, kernel)
    trans = transform_between(phi.codomain, target)
    u, r, s, t = trans.u, trans.r, trans.s, trans.t
    X = (phi.x_map - r) / u ** 2
    Yc = (phi.y_map_const - s * u * u * X - t) / u ** 3
    Ys = phi.y_map_slope / u ** 3
    out = IsogenyMap(E, target, X, Yc, Ys, phi.kernel)
    return out


def preimage_quintic(iso: IsogenyMap, xQ) -> Poly:
    """Monic quintic whose roots are domain abscissas mapping to xQ."""
    xQ = Fraction(xQ) if isinstance(xQ, int) else xQ
    poly = iso.x_map.num - xQ * iso.x_map.den
    if poly.degree != 5:
        raise DegenerateAbscissaError(f"degree dropped to {poly.degree} at x={xQ}")
    return poly.monic()


def dual_kernel(phi: IsogenyMap) -> Poly:
    """Kernel polynomial on the codomain of the dual isogeny.

    The image of the full 5-torsion of the domain is the kernel of the
    dual; its quadratic is picked out among the rational 5-kernels of the
    codomain by the multiplication-by-5 composition test.
    """
    F = phi.codomain
    Fmin, trans = minimal_model(F)
    psi5F = five_division_polynomial(Fmin)
    u2, r = trans.u ** 2, trans.r
    x = Poly.x()
    candidates = []
    for k in rational_factors_of_degree(psi5F, 2):
        if duplication_stable(Fmin, k):
            k_orig = (((x - r) / u2) ** 2 + k[1] * ((x - r) / u2) + k[0]).monic()
            candidates.append(k_orig)
    mul5 = multiplication_by_n_x(phi.domain, 5)
    for k in candidates:
        psi = velu_quotient(F, k)
        try:
            back = transform_between(psi.codomain, phi.domain)
        except NoIsomorphismError:
            continue
        if composed_x_map(phi, psi, back) == mul5:
            return k
    raise NoRationalKernelError("no dual kernel reproduces multiplication by 5")


def composed_x_map(phi: IsogenyMap, psi: IsogenyMap, back: Transform) -> RatFunc:
    """x-coordinate of back(psi(phi(.))) as an exact rational function."""
    comp = psi.x_map(phi.x_map)
    return (comp - back.r) / back.u ** 2
