"""Elliptic curves over Q in long Weierstrass form.

Covers the point group law, torsion orders, global minimal models
(Laska-Kraus-Connell) and the node and component count at primes of bad
reduction.

The invariants are computed once per curve: the b-invariants and the
discriminant when the curve is built (the discriminant decides whether
the equation is singular), the c-invariants on first use.

Component counts are those of the geometric special fiber of the Neron
model: for multiplicative reduction the fiber is an n-gon with
n = v_p(min discriminant), whether or not the two tangent directions at
the node are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .errors import (
    IdentityCheckError,
    NoIsomorphismError,
    NoSingularPointError,
    UnsupportedReductionError,
)
from .exact import (
    Poly,
    factor_completely,
    integer_nth_root,
    pm_derivative,
    pm_gcd,
    rational_sqrt,
    trial_factor,
    valuation,
)

DEFAULT_TRIAL_BOUND = 10**7


class Infinity:
    """The point at infinity (group identity); a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


INFINITY = Infinity()


@dataclass(frozen=True)
class CurvePoint:
    x: object
    y: object

    def __repr__(self):
        return f"({self.x}, {self.y})"


def _frac(v):
    return Fraction(v) if isinstance(v, int) else v


def _b_invariants_and_discriminant(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8) and the discriminant, by the textbook formulas."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return (b2, b4, b6, b8), -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Coefficients are rationals for concrete curves; any field elements
    with the usual operators work, which is how the one-parameter family
    is handled symbolically.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_b", "_c", "_disc")

    def __init__(self, a1, a2, a3, a4, a6):
        self.a1 = _frac(a1)
        self.a2 = _frac(a2)
        self.a3 = _frac(a3)
        self.a4 = _frac(a4)
        self.a6 = _frac(a6)
        a = self.a_invariants()
        if all(type(c) is Fraction for c in a):
            # on the integral model a_i m^i, m the least common denominator:
            # b_i scales by m^i and the discriminant by m^12
            m = math.lcm(*(c.denominator for c in a))
            b, disc = _b_invariants_and_discriminant(
                *(c.numerator * (m ** w // c.denominator) for c, w in zip(a, (1, 2, 3, 4, 6))))
            self._b = tuple(Fraction(c, m ** w) for c, w in zip(b, (2, 4, 6, 8)))
            self._disc = Fraction(disc, m ** 12)
        else:
            self._b, self._disc = _b_invariants_and_discriminant(*a)
        self._c = None
        if not self._disc:
            raise ValueError("singular Weierstrass equation (disc = 0)")

    # -- invariants ---------------------------------------------------------
    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_invariants(self):
        return self._b

    def c_invariants(self):
        if self._c is None:
            b2, b4, b6, _ = self._b
            self._c = b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        return self._c

    def discriminant(self):
        return self._disc

    def j_invariant(self):
        c4, _ = self.c_invariants()
        return c4 ** 3 / self.discriminant()

    def is_integral(self) -> bool:
        return all(isinstance(a, Fraction) and a.denominator == 1
                   for a in self.a_invariants())

    # -- point membership ----------------------------------------------------
    def equation_lhs_minus_rhs(self, x, y):
        return (y * y + self.a1 * x * y + self.a3 * y
                - (x ** 3 + self.a2 * x * x + self.a4 * x + self.a6))

    def contains(self, P) -> bool:
        if P is INFINITY:
            return True
        return not self.equation_lhs_minus_rhs(P.x, P.y)

    def rhs_quartic(self) -> Poly:
        """4x^3 + b2 x^2 + 2 b4 x + b6 = (2y + a1 x + a3)^2 on the curve."""
        b2, b4, b6, _ = self.b_invariants()
        return Poly([b6, 2 * b4, b2, 4])

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve)
                and self.a_invariants() == other.a_invariants())

    def __hash__(self):
        return hash(self.a_invariants())

    def __repr__(self):
        return f"WeierstrassCurve{self.a_invariants()}"

    def to_json(self):
        return [str(a) for a in self.a_invariants()]


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def point_neg(E: WeierstrassCurve, P):
    if P is INFINITY:
        return INFINITY
    return CurvePoint(P.x, -P.y - E.a1 * P.x - E.a3)


def point_add(E: WeierstrassCurve, P, Q):
    """Group law; raises ValueError when an input is not on the curve."""
    for R in (P, Q):
        if not E.contains(R):
            raise ValueError(f"point {R} is not on {E!r}")
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    a1, a2, a3, a4, a6 = E.a_invariants()
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return INFINITY
    if x1 == x2:
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def point_mul(E: WeierstrassCurve, n: int, P):
    """n*P by double-and-add."""
    if n < 0:
        return point_mul(E, -n, point_neg(E, P))
    result = INFINITY
    addend = P
    while n:
        if n & 1:
            result = point_add(E, result, addend)
        if n > 1:
            addend = point_add(E, addend, addend)
        n >>= 1
    return result


def torsion_order(E: WeierstrassCurve, P, bound: int = 16):
    """Least n <= bound with n*P = O, else the string "exceeds bound"."""
    if not E.contains(P):
        raise ValueError("point not on curve")
    acc = INFINITY
    for n in range(1, bound + 1):
        acc = point_add(E, acc, P)
        if acc is INFINITY:
            return n
    return "exceeds bound"


# ---------------------------------------------------------------------------
# isomorphisms / transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transform:
    """Substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Maps a curve E to the curve E' in the primed coordinates; apply new_x
    to an E-abscissa to get the E'-abscissa.
    """

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    def new_x(self, x):
        return (x - self.r) / self.u ** 2

    def old_x(self, x_new):
        return self.u ** 2 * x_new + self.r

    def new_point(self, P):
        if P is INFINITY:
            return INFINITY
        xn = self.new_x(P.x)
        yn = (P.y - self.s * self.u ** 2 * xn - self.t) / self.u ** 3
        return CurvePoint(xn, yn)

    def is_identity(self) -> bool:
        return (self.u, self.r, self.s, self.t) == (1, 0, 0, 0)

    def apply(self, E: WeierstrassCurve) -> WeierstrassCurve:
        a1, a2, a3, a4, a6 = E.a_invariants()
        u, r, s, t = self.u, self.r, self.s, self.t
        A1 = (a1 + 2 * s) / u
        A2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
        A3 = (a3 + r * a1 + 2 * t) / u ** 3
        A4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
        A6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
        return WeierstrassCurve(A1, A2, A3, A4, A6)


def transform_between(E: WeierstrassCurve, F: WeierstrassCurve) -> Transform:
    """The substitution carrying E to F, when one exists over Q."""
    c4e, c6e = E.c_invariants()
    c4f, c6f = F.c_invariants()
    # u^4 c4f = c4e and u^6 c6f = c6e: a zero on one side only rules out u
    if (c4e == 0, c6e == 0) != (c4f == 0, c6f == 0):
        raise NoIsomorphismError(f"no rational isomorphism from {E!r} to {F!r}")
    candidates = []
    if c4e and c6e:
        u2 = (c6e * c4f) / (c4e * c6f)
        candidates.append(u2)
    elif c4e:  # c6 = 0 on both sides
        ratio = c4e / c4f
        try:
            candidates.append(rational_sqrt(ratio))
            candidates.append(-rational_sqrt(ratio))
        except ValueError:
            pass
    else:  # c4 = 0 on both sides
        # u^2 is a rational cube root of u^6 = c6e/c6f when it exists
        u6 = c6e / c6f
        num, den = u6.numerator, u6.denominator
        if num > 0:
            rn, rd = integer_nth_root(num, 3), integer_nth_root(den, 3)
            if rn ** 3 == num and rd ** 3 == den:
                candidates.append(Fraction(rn, rd))
    for u2 in candidates:
        if u2 <= 0:
            continue
        try:
            u = rational_sqrt(u2)
        except ValueError:
            continue
        trans = _scaling_onto(E, F, u) or _scaling_onto(E, F, -u)
        if trans is not None:
            return trans
    raise NoIsomorphismError(f"no rational isomorphism from {E!r} to {F!r}")


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)
# ---------------------------------------------------------------------------

def _kraus_valid(c4: int, c6: int, p: int) -> bool:
    """Kraus's criterion at p = 2 or 3: (c4, c6), with (c4^3 - c6^2)/1728
    a nonzero integer, arise from a model integral at p.  The condition
    at one of the two primes does not depend on the powers of the other
    that c4 and c6 are divided by."""
    if p == 3:
        return c6 == 0 or valuation(c6, 3) != 2
    if c6 % 4 == 3:
        return True
    return (c4 == 0 or valuation(c4, 2) >= 4) and c6 % 32 in (0, 8)


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassCurve:
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4, rem4 = divmod(b2 * b2 - c4, 24)
    b6, rem6 = divmod(-b2 ** 3 + 36 * b2 * b4 - c6, 216)
    if rem4 or rem6:
        raise ValueError("invalid (c4, c6) pair")
    a1 = b2 % 2
    a3 = b6 % 2
    return WeierstrassCurve(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3 * a3) // 4)


def minimal_model(E: WeierstrassCurve) -> tuple[WeierstrassCurve, Transform]:
    """Globally minimal integral model and the transform reaching it.

    E is scaled by 1/m onto an integral model, whose c-invariants fix the
    further scaling u: at each prime p as far as p^4 | c4, p^6 | c6 and
    p^12 | disc allow, then back off at 2 and at 3 until Kraus's
    criterion holds there.  The transform has scaling u/m by
    construction, so it comes in closed form (_scaling_onto), with no
    search over candidate scalings."""
    # clear denominators first: u = 1/m makes a_i integral (a_i scales by m^i)
    m = 1
    for i, a in zip((1, 2, 3, 4, 6), E.a_invariants()):
        d = a.denominator
        if d > 1:
            for p, e in factor_completely(d, DEFAULT_TRIAL_BOUND).items():
                need = -(-e // i)
                have = valuation(m, p)
                if have < need:
                    m *= p ** (need - have)
    Eint = Transform(Fraction(1, m), Fraction(0), Fraction(0), Fraction(0)).apply(E)
    if not Eint.is_integral():
        raise IdentityCheckError(f"scaling by 1/{m} leaves a non-integral model")
    c4, c6 = (int(c) for c in Eint.c_invariants())

    # a scaling prime p needs p^4 | c4 and p^6 | c6, hence p^4 | gcd
    # (p^6 | c6 alone when c4 = 0), so trial division never has to pass
    # the fourth (resp. sixth) root of the gcd; it also needs p^12 | disc,
    # which c4 and c6 imply only at p > 3, since 1728 disc = c4^3 - c6^2
    base = math.gcd(abs(c4), abs(c6))
    disc = int(Eint.discriminant())
    u = 1
    if base > 1:
        root_power = 6 if c4 == 0 else 4
        bound = min(DEFAULT_TRIAL_BOUND, integer_nth_root(base, root_power) + 1)
        factors, _ = trial_factor(base, bound)
        for p in factors:
            # valuation(0, p) is inf, and inf // 4 is nan: skip a zero c4 or c6
            e = min(valuation(c, p) // k for c, k in ((c4, 4), (c6, 6), (disc, 12)) if c)
            u *= p ** e
    for p in (2, 3):
        while u % p == 0 and not _kraus_valid(c4 // u ** 4, c6 // u ** 6, p):
            u //= p
    Emin = _model_from_c4c6(c4 // u ** 4, c6 // u ** 6)
    trans = _scaling_onto(E, Emin, Fraction(u, m))
    if trans is None:
        raise IdentityCheckError(f"scaling by {Fraction(u, m)} does not carry {E!r} to {Emin!r}")
    return Emin, trans


def _scaling_onto(E: WeierstrassCurve, F: WeierstrassCurve, u: Fraction) -> Transform | None:
    """The transform of scaling u carrying E to F, or None when there is
    none: s, r and t solve the a1, a2 and a3 equations of Transform.apply
    in closed form, and the a4 and a6 equations are checked exactly.  Both
    minimal_model and transform_between solve for (r, s, t) here."""
    a1, a2, a3, a4, a6 = E.a_invariants()
    s = (u * F.a1 - a1) / 2
    r = (u * u * F.a2 - a2 + s * a1 + s * s) / 3
    t = (u ** 3 * F.a3 - a3 - r * a1) / 2
    if (u ** 4 * F.a4 != a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
            or u ** 6 * F.a6 != a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1):
        return None
    return Transform(u, r, s, t)


# ---------------------------------------------------------------------------
# reduction data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionInfo:
    prime: int
    component_count: int          # geometric Neron component count
    singular_x: int | None        # abscissa of the node mod p, minimal coords


def _node_x_mod_p(E: WeierstrassCurve, p: int) -> int:
    """Abscissa of the node of the reduced curve; p | disc required."""
    if p == 2:
        a1, a2, a3, a4, a6 = (int(a) for a in E.a_invariants())
        for x0 in range(2):
            for y0 in range(2):
                eq = (y0 * y0 + a1 * x0 * y0 + a3 * y0
                      - x0 ** 3 - a2 * x0 * x0 - a4 * x0 - a6) % 2
                dx = (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % 2
                dy = (2 * y0 + a1 * x0 + a3) % 2
                if eq == 0 and dx == 0 and dy == 0:
                    return x0
        raise NoSingularPointError(f"no singular point mod {p}")
    quart = [int(a) for a in E.rhs_quartic().c]      # E is integral
    g = pm_gcd(quart, pm_derivative(quart, p), p)
    if len(g) != 2:
        raise NoSingularPointError(f"node not unique mod {p} (gcd degree {len(g)-1})")
    return (-g[0]) % p


def reduction_info(E: WeierstrassCurve, p: int) -> ReductionInfo:
    """Component count and node abscissa at p for a minimal integral model.

    Additive reduction raises UnsupportedReductionError; the construction
    only ever meets semistable curves and Tate's algorithm is not carried
    past the multiplicative case.
    """
    if not E.is_integral():
        raise ValueError("reduction_info needs an integral model")
    disc = int(E.discriminant())
    v = valuation(disc, p)
    if v == 0:
        return ReductionInfo(p, 1, None)
    c4, _ = (int(c) for c in E.c_invariants())
    if c4 % p == 0:
        raise UnsupportedReductionError(p, v)
    return ReductionInfo(p, v, _node_x_mod_p(E, p))


def bad_primes(E_min: WeierstrassCurve, trial_bound: int = DEFAULT_TRIAL_BOUND) -> list[int]:
    """Primes dividing the minimal discriminant, fully factored or bust."""
    return sorted(factor_completely(int(E_min.discriminant()), trial_bound))


def is_semistable(E: WeierstrassCurve) -> bool:
    """True iff reduction is good or multiplicative at every bad prime."""
    Emin, _ = minimal_model(E)
    for p in bad_primes(Emin):
        try:
            reduction_info(Emin, p)
        except UnsupportedReductionError:
            return False
    return True
