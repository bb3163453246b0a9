"""The X_1(10) curve family, its degree-5 quotients, and the fixed
specialization that drives the whole construction.

Every literal constant of the construction lives in the CONSTANTS table
below; all identities the package relies on are replayed from that table
by `Specialization.verify_identities`, so a transcription error anywhere
fails the suite.

The order-10 point of the family is handled with care: the abscissa one
might copy for it from the classical parametrization literature turns
out to be a root of the linear factor of the cubic, i.e. a 2-torsion
abscissa.  The package instead uses the closed form
-4u^4 - 4u^3 + 12u^2 + 4u (long coordinates) and the kernel
(X - x(2P))(X - x(4P)) built from it by the duplication map.  One
function, `five_division_kernel(u)`, evaluates that closed form at a
rational u or over the function field Q(u) and certifies it on the
spot (`check_family_kernel`); the abscissa is certified over Q(u) by
`check_order10_abscissa`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .curves import WeierstrassCurve
from .errors import (
    DegenerateParameterError,
    IdentityCheckError,
    InvalidKernelError,
)
from .exact import Poly, RatFunc, rational_sqrt
from .isogeny import (
    IsogenyMap,
    duplication_map,
    duplication_stable,
    five_division_polynomial,
    velu_onto_model,
)

# All integer data of the construction, in one place.
CONSTANTS = {
    "t": Fraction(4),
    # x(z) = (c4 z^4 + ... + c0) / (scale * (a1 z + b1)(a2 z + b2) z)
    "x_num": (343898806423252015354080,
              -411804539876837130626339,
              -642297925780193483509181,
              826467660375890872281118,
              1385160622615364964251520),
    "x_den_scale": 5167944494559,
    "x_den_linear1": (4883562662, 922989409),
    "x_den_linear2": (11, -29),
    # v(z) = (29/19) (A z^2 + C) / (A z^2 + Bv z - C),
    # w(z) = (11/19) (A z^2 + C) / (A z^2 + Bw z - C)
    "vw_quad": 53719189282,
    "vw_const": 26766692861,
    "v_mid": -283246634396,
    "w_mid": 20305766998,
    "v_prefactor": (29, 19),
    "w_prefactor": (11, 19),
    # hyperelliptic model y^2 = outer * (m1 x + m0) * (q2 x^2 + q0)
    "model_outer": 42,
    "model_linear": (44876601, -133597561),
    "model_quad": (9261, -6061),
    # admissibility congruences for z
    "z_zero_mod": (11, 19, 29),
    "z_exclusion": (419, 86),
    "z_one_mod": (163, 701, 1277),
    # per-curve extension criteria: valuation primes and excluded residue
    "criterion": (
        ((11, 29), (419, 77)),
        ((11, 19), (709, 677)),
        ((19, 29), (151, 36)),
    ),
    # expected Neron five-component primes per curve
    "five_component_primes": ((11, 29, 419), (11, 19, 709), (19, 29, 151)),
}


# ---------------------------------------------------------------------------
# curve models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicModel:
    """A curve presented as y^2 = cubic(x), with its long-form companion.

    The long form substitutes X = c3 x, Y = c3 y where c3 is the leading
    coefficient, giving Y^2 = X^3 + c2 X^2 + c1 c3 X + c0 c3^2.
    """

    poly: Poly
    # the long-form curve, built by the first call of curve() that succeeds
    _curve: WeierstrassCurve | None = field(default=None, init=False, compare=False,
                                            repr=False)

    def __post_init__(self):
        if self.poly.degree != 3:
            raise DegenerateParameterError(f"not a cubic: {self.poly!r}")

    @property
    def lead(self):
        return self.poly[3]

    def curve(self) -> WeierstrassCurve:
        """The long form, built once per model; a singular model raises
        DegenerateParameterError on every call."""
        if self._curve is None:
            c0, c1, c2, c3 = (self.poly[i] for i in range(4))
            try:
                E = WeierstrassCurve(0, c2, 0, c1 * c3, c0 * c3 * c3)
            except ValueError as exc:
                raise DegenerateParameterError(str(exc)) from exc
            object.__setattr__(self, "_curve", E)
        return self._curve

    def to_long_x(self, x):
        return self.lead * x

    def from_long_x(self, X):
        return X / self.lead

    def rhs(self, x):
        return self.poly(x)

    def to_json(self):
        return {"cubic": self.poly.to_json(), "long": self.curve().to_json()}


@lru_cache(maxsize=64)
def kubert_curve(u) -> CubicModel:
    """The universal curve with a point of order 10, at parameter u.

    y^2 = (x^2 - u(u^2+u-1)) * (8u^2 x + (u^2+1)(u^4-2u^3-6u^2+2u+1)).
    One model per u, so its curve is built once; raises
    DegenerateParameterError when the model is singular, on every call,
    since lru_cache stores no error.
    """
    A = u * (u * u + u - 1)
    c3 = 8 * u * u
    lin = (u * u + 1) * (u ** 4 - 2 * u ** 3 - 6 * u * u + 2 * u + 1)
    if not c3:
        raise DegenerateParameterError("leading coefficient vanishes at u=0")
    model = CubicModel(Poly([-A * lin, -A * c3, lin, c3]))
    model.curve()           # force the discriminant check
    return model


def quotient_model(u) -> tuple[Poly, Poly]:
    """(g_u, h_u) with g_u(x) = (x^2 - u(u^2+u-1)) h_u(x)."""
    A = u * (u * u + u - 1)
    h = Poly([(u * u + 1) * (u ** 4 + 22 * u ** 3 - 6 * u * u - 22 * u + 1),
              8 * (u * u + u - 1) ** 2])
    g = Poly([-A, 0, 1]) * h
    return g, h


@lru_cache(maxsize=64)
def quotient_cubic(u) -> CubicModel:
    """The quotient cubic y^2 = g_u(x), one model per u, as kubert_curve."""
    g, _ = quotient_model(u)
    model = CubicModel(g)
    model.curve()
    return model


def triple_u(t):
    """The three parameters sharing one value of u(u^2+u-1)."""
    t = Fraction(t) if isinstance(t, int) else t
    den = t * t + t + 1
    return ((t * t + t - 1) / den,
            -(t * t + 3 * t + 1) / den,
            -(t * t - t - 1) / den)


def c_parametrization() -> tuple[RatFunc, RatFunc, RatFunc]:
    """x(z), v(z), w(z) parametrizing the genus-0 curve of the construction."""
    C = CONSTANTS
    z = Poly.x()
    num = Poly(C["x_num"])
    a1, b1 = C["x_den_linear1"]
    a2, b2 = C["x_den_linear2"]
    den = C["x_den_scale"] * Poly([b1, a1]) * Poly([b2, a2]) * z
    x_of_z = RatFunc(num, den)

    A, Cc = C["vw_quad"], C["vw_const"]
    shared = Poly([Cc, 0, A])
    pv, qv = C["v_prefactor"]
    v_of_z = RatFunc(pv * shared, qv * Poly([-Cc, C["v_mid"], A]))
    pw, qw = C["w_prefactor"]
    w_of_z = RatFunc(pw * shared, qw * Poly([-Cc, C["w_mid"], A]))
    return x_of_z, v_of_z, w_of_z


def model_poly() -> Poly:
    """The hyperelliptic right-hand side f with y^2 = f(x(z)) on the family."""
    C = CONSTANTS
    m1, m0 = C["model_linear"]
    q2, q0 = C["model_quad"]
    return C["model_outer"] * Poly([m0, m1]) * Poly([q0, 0, q2])


# ---------------------------------------------------------------------------
# the t = 4 specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Specialization:
    """Everything derived from one rational value of t (fixed to 4 here).

    The three 5-isogenies E_j -> F_j are not built with it: `isogenies`
    reads five_isogeny(u_j), which builds and certifies each where it is
    first read, by the certificates' verdict memo on its first miss or
    by `derive` and `verify_identities`, so the sieve builds none.
    """

    t: Fraction
    u: tuple[Fraction, Fraction, Fraction]
    E_models: tuple[CubicModel, CubicModel, CubicModel]
    F_models: tuple[CubicModel, CubicModel, CubicModel]
    x_of_z: RatFunc
    v_of_z: RatFunc
    w_of_z: RatFunc
    f_model: Poly
    scale: Fraction              # f_model = scale^2 * g_{u_1}

    @property
    def isogenies(self) -> tuple[IsogenyMap, IsogenyMap, IsogenyMap]:
        return tuple(five_isogeny(ui) for ui in self.u)

    # -- per-z data ----------------------------------------------------------
    def radicand(self, z) -> Fraction:
        """f(x(z)); the field of the construction is Q(sqrt(radicand))."""
        return self.f_model(self.x_of_z(z))

    # -- identity suite --------------------------------------------------------
    def verify_identities(self) -> dict[str, bool]:
        """Replay every constant-bearing identity from the CONSTANTS table."""
        out = {}
        tt = RatFunc(Poly.x())
        u1, u2, u3 = triple_u(tt)

        def common(u):
            return u * (u * u + u - 1)

        out["triple-common-value-over-Q(t)"] = (
            common(u1) == common(u2) and common(u2) == common(u3))
        u_spec = triple_u(self.t)
        out["triple-at-t"] = u_spec == self.u
        out["common-value-at-t"] = (
            common(self.u[0]) == Fraction(6061, 9261)
            and 6061 == 11 * 19 * 29 and 9261 == 21 ** 3)

        gs = [quotient_model(ui) for ui in self.u]
        h1_of_x = gs[0][1](self.x_of_z)
        h2_of_x = gs[1][1](self.x_of_z)
        h3_of_x = gs[2][1](self.x_of_z)
        out["transfer-v"] = h1_of_x == self.v_of_z * self.v_of_z * h2_of_x
        out["transfer-w"] = h1_of_x == self.w_of_z * self.w_of_z * h3_of_x

        g1 = gs[0][0]
        out["model-vs-quotient-square-ratio"] = (
            self.f_model == self.scale ** 2 * g1)

        out["v-at-infinity"] = (
            self.v_of_z.num.leading() / self.v_of_z.den.leading()
            == Fraction(*CONSTANTS["v_prefactor"]))

        poles = [Fraction(0), Fraction(29, 11),
                 Fraction(-922989409, 4883562662)]
        out["x-poles"] = (self.x_of_z.den.degree == 3
                          and all(self.x_of_z.is_pole(p) for p in poles))

        for i, (model, phi) in enumerate(zip(self.F_models, self.isogenies), 1):
            out[f"velu-onto-quotient-{i}"] = (
                phi.codomain == model.curve() and phi.verify_codomain_identity())
        return out


@lru_cache(maxsize=None)
def specialize() -> Specialization:
    """Build (and cache) the distinguished specialization t = 4."""
    t = CONSTANTS["t"]
    u = triple_u(t)
    E_models = tuple(kubert_curve(ui) for ui in u)
    F_models = tuple(quotient_cubic(ui) for ui in u)
    x_of_z, v_of_z, w_of_z = c_parametrization()
    f = model_poly()
    g1, _ = quotient_model(u[0])
    scale = rational_sqrt(_exact_poly_ratio(f, g1))
    return Specialization(t, u, E_models, F_models, x_of_z, v_of_z, w_of_z, f, scale)


def _exact_poly_ratio(f: Poly, g: Poly) -> Fraction:
    q, r = divmod(f, g)
    if not r.is_zero() or q.degree != 0:
        raise ValueError("polynomials are not proportional")
    return q[0]


# ---------------------------------------------------------------------------
# symbolic derivations over the function field Q(u)
# ---------------------------------------------------------------------------

def symbolic_parameter() -> RatFunc:
    return RatFunc(Poly.x())


@lru_cache(maxsize=1)
def symbolic_family_curve() -> WeierstrassCurve:
    """The family curve as a Weierstrass model over Q(u)."""
    return kubert_curve(symbolic_parameter()).curve()


# Long-model abscissa of an order-10 point: -4u^4 - 4u^3 + 12u^2 + 4u.
_ORDER10_ABSCISSA = (0, 4, 12, -4, -4)


@lru_cache(maxsize=512)
def five_division_kernel(u) -> Poly:
    """Kernel quadratic of the canonical 5-isogeny of the family curve at u.

    The closed form (X - x(2P))(X - x(4P)), with both roots obtained from
    the order-10 abscissa x(P) by the duplication map, certified by
    `check_family_kernel`.  u is a rational or the function-field
    generator `symbolic_parameter()`; raises DegenerateParameterError
    where the family curve is singular (u = 0, 1, -1).
    """
    E = kubert_curve(u).curve()
    dup = duplication_map(E)
    s1 = dup(Poly(_ORDER10_ABSCISSA)(u))
    s2 = dup(s1)
    return check_family_kernel(E, Poly([s1 * s2, -(s1 + s2), Fraction(1)]))


@lru_cache(maxsize=64)
def five_isogeny(u) -> IsogenyMap:
    """The canonical 5-isogeny from the family curve at u onto the
    quotient cubic's long model, by Velu on five_division_kernel(u)."""
    return velu_onto_model(kubert_curve(u).curve(), five_division_kernel(u),
                           quotient_cubic(u).curve())


def check_family_kernel(E: WeierstrassCurve, kernel: Poly) -> Poly:
    """Certify that ``kernel`` cuts out a cyclic 5-subgroup of E.

    It must divide psi_5 and be stable under the duplication map; raises
    InvalidKernelError otherwise.
    """
    if not kernel.divides(five_division_polynomial(E)):
        raise InvalidKernelError("kernel does not divide psi_5")
    if not duplication_stable(E, kernel):
        raise InvalidKernelError("kernel is not duplication-stable")
    return kernel


def check_order10_abscissa(E: WeierstrassCurve, kernel: Poly, x0: RatFunc) -> RatFunc:
    """Certify that ``x0`` is the abscissa of a point of order 10 on E.

    It must be neither 2-torsion (a root of the cubic) nor 5-torsion (a
    root of psi_5), and doubling it must land on ``kernel``; raises
    IdentityCheckError otherwise.
    """
    if Poly([E.a6, E.a4, E.a2, Fraction(1)])(x0) == 0:
        raise IdentityCheckError("order-10 abscissa degenerates to 2-torsion")
    if five_division_polynomial(E)(x0) == 0:
        raise IdentityCheckError("order-10 abscissa degenerates to 5-torsion")
    if kernel(duplication_map(E)(x0)) != 0:
        raise IdentityCheckError("doubled abscissa misses the 5-torsion kernel")
    return x0


@lru_cache(maxsize=1)
def symbolic_order10_abscissa() -> RatFunc:
    """Long-model abscissa of an order-10 generator, as a function of u.

    The closed form -4u^4 - 4u^3 + 12u^2 + 4u on the long model, that is,
    -(u^3 + u^2 - 3u - 1)/(2u) in the coordinates of the defining cubic,
    certified against the symbolic kernel by `check_order10_abscissa`.
    """
    return check_order10_abscissa(symbolic_family_curve(),
                                  five_division_kernel(symbolic_parameter()),
                                  RatFunc(Poly(_ORDER10_ABSCISSA)))
