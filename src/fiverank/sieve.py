"""Admissible-parameter generation and the Neron extension conditions.

A value of z is admissible when z = 0 mod 11*19*29, z = 1 mod
163*701*1277 and z is not +-86 mod 419.  For each admissible z the three
quotient-curve points must avoid the singular point of the reduction at
every prime where the special fiber has 5-divisible component count.
Two independent formulations run on every candidate:

* the verbatim criterion: per-curve valuation bounds v_p(x) <= -2 and a
  single excluded residue mod one prime, straight from the constants
  table;
* the general rule: for every five-component prime, map the abscissa
  forward to the minimal model and check that it does not reduce onto
  the node (negative valuation reduces to the smooth point at infinity).

Their agreement on every emitted z is asserted by the acceptance suite.
The congruences do not quite force the conditions: a sparse subset of
the class (v_29(z) = 1 with z/29 = 6 or 10 mod 29) suffers 29-adic
cancellation in the numerator of x(z) and reduces onto the node, which
is why every report carries an explicit pass flag instead of assuming
success.  Acceptance 05 pins that exception class: it derives the
residues 6 and 10 from CONSTANTS and asserts that check_z fails exactly
there, only at 29 on curves 1 and 3, and passes every other admissible z.

A curve's conditions are one table, CurveReductionData.conditions():
(prime, kind) pairs in report order, the verbatim criterion's valuation
and congruence primes, when stated, then the five-component primes.
Each is evaluated in integer arithmetic on v_p and the residue mod p of
x = n/d or, for the general rule, of x_min = (L n - R d) / (U d), the
pair x_minimal gives through the curve's minimal-model triple (L, R, U);
`singular_abscissa` maps the node back through the same triple.  One
builder, _record, turns the two into the record on both routes below.
At x(z) both ratios are quotients of integer polynomials in z, so each
condition depends on z only through its p-adic class at the condition
prime p (11, 19, 29, 419, 709 or 151).

check_z reads the records from a memo of classes.  Write z = p^v u with
p not dividing u; the key (p, v, j, u mod p^j) holds the records that
the three curves have at p, for every z in that class.  Each entry is
proved, not sampled.  With m = min_i (v_p(a_i) + i v) over the
coefficients a_i of P, S = P(z)/p^m = sum_i a_i p^(iv - m) u^i mod p^j
depends only on u mod p^j.  When S is nonzero mod p^j it fixes v_p(P(z))
= m + v_p(S) and the unit P(z)/p^v_p(P(z)) mod p; when it vanishes,
m + j is a lower bound, which still fixes the residue of P/Q when it
puts v_p(P/Q) above 0 (residue 0) or, for Q, below 0 (infinity).  An
entry is built at the least j that fixes every record at p.  A z with a
class that no j up to CLASS_DEPTH decides (z near a 19- or 29-adic root
of den, an integer root, and z = 0, which lies in no class and where
x_pair raises PoleError) goes whole to the direct route, the records of
x(z) = n/d itself, which `extension_check` and the oracle's
`singular_avoidance_passes` also run.  The memo is an lru_cache of
CLASS_MEMO_SIZE keys.  Its entries are tuples of shared frozen records,
so nothing mutates them, and each shared record builds its JSON dict
once, for every report that holds it.  A run meets a few thousand
classes at most: the p - 1 units at 419, 709 and 151, and the 29-adic
exception class, which decides at j = 3.

A report is z, the sign of the radicand and the records.  On the class
route it evaluates no polynomial: the sign is that of z, proved for every
|z| > sign_bound().  Write x(z) = n/d in lowest terms with d > 0 and H =
d^k f_int(n/d), where f_int is f with integer coefficients and k = deg
f; the radicand f(x) has the sign of H.  Before the gcd, H is the integer
polynomial H_z = den^k f_int(num/den) in z, and dividing out the gcd g,
signed like den(z), gives H = H_z(z) / g^k.  So sign(H) = sign(H_z(z))
sign(den(z))^k.  Above the Cauchy bound 1 + max_i |a_i / a_n| of each of
H_z and den, neither has a root and each takes the sign of its leading
term: with both leading coefficients positive and deg H_z + k deg den
odd, sign(H) = sign(z).  sign_bound() derives that bound from
_integer_forms() and refuses the forms when either premise fails.

Every other z (|z| <= sign_bound(), or a class that stays open) takes the
direct route: `x_and_radicand_form` gives x(z) = n/d in lowest terms, H
and d^k, the records are those of n/d and the sign that of H.  It reads
x(z) off the pair (n, d) that `x_pair` builds by Horner in z and takes
one gcd, of n and d: for admissible z they share a power of 29 that every
valuation at 29 would otherwise divide out of two long integers again.
That gcd divides a constant M with A num + B den = M for integer
polynomials A and B, derived once by `_bezout_identity`, so it is taken
on n and d modulo M.
Lowest terms are not needed for the conditions: v_p(n/d) = v_p(n) -
v_p(d) for any representative of a fraction, and when that is >= 0,
dividing p^v_p(d) out of both leaves a denominator prime to p, whose
inverse mod p gives the residue.

check_z alone chooses the route.  A direct-route report carries its
x_and_radicand_form(z), neither serialized nor compared, so that the
certificate (splitting.verify_instance) evaluates x(z) once on either
route; `reduced_radicand` turns H and d^k into f(x) in lowest terms with
a gcd bounded by a constant.  The sieve itself never divides H by anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import itemgetter

from .curves import (
    ReductionInfo,
    WeierstrassCurve,
    bad_primes,
    minimal_model,
    reduction_info,
)
from .errors import (
    BadReductionError,
    IdentityCheckError,
    NoSingularPointError,
    PoleError,
)
from .exact import (
    Poly,
    Ratio,
    homogeneous_value,
    integer_coefficients,
    int_valuation,
    valuation,  # noqa: F401  (the traced benchmark wraps this binding)
    valuation_and_residue,
)
from .family import CONSTANTS, CubicModel, specialize


# ---------------------------------------------------------------------------
# admissible z stream
# ---------------------------------------------------------------------------

def admissible_z(start: int = 0, count: int | None = None, sign: str = "both"):
    """Admissible z in increasing |z|, starting at |z| >= start.

    sign is "pos", "neg" or "both"; both signs interleave by absolute
    value, the positive z first should |z| tie.  A negative start counts
    as 0.  A count of None streams forever; a count <= 0 yields nothing.
    """
    if sign not in ("pos", "neg", "both"):
        raise ValueError(f"bad sign {sign!r}")
    m1 = math.prod(CONSTANTS["z_zero_mod"])
    m2 = math.prod(CONSTANTS["z_one_mod"])
    M = m1 * m2
    z0 = m1 * pow(m1, -1, m2)            # 0 mod m1 and 1 mod m2, in (0, M)
    p, a = CONSTANTS["z_exclusion"]
    excluded = (a % p, -a % p)
    start = max(start, 0)
    pos = start + (z0 - start) % M       # least z = z0 mod M with z >= start
    neg = -start - (-start - z0) % M     # greatest z = z0 mod M with z <= -start
    while count is None or count > 0:
        if sign == "neg" or (sign == "both" and -neg < pos):
            z, neg = neg, neg - M
        else:
            z, pos = pos, pos + M
        if z % p not in excluded:
            yield z
            if count is not None:
                count -= 1


# ---------------------------------------------------------------------------
# per-curve reduction data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveReductionData:
    """Everything needed to test the extension conditions on one curve."""

    index: int                       # 1-based curve index
    model: CubicModel                # y^2 = g(x) coordinates (the criterion's x)
    minimal: WeierstrassCurve
    five_primes: tuple[int, ...]     # primes with 5 | component count
    reductions: dict[int, ReductionInfo]
    minimal_map: tuple[int, int, int]        # (L, R, U), see x_minimal
    valuation_primes: tuple[int, ...] = ()   # verbatim criterion, when stated
    congruence_prime: int | None = None
    excluded_residue: int | None = None

    def x_minimal(self, n: int, d: int) -> tuple[int, int]:
        """Minimal-model abscissa (L n - R d) / (U d) of x = n/d, unreduced."""
        L, R, U = self.minimal_map
        return L * n - R * d, U * d

    def conditions(self) -> list[tuple[int, str]]:
        """The curve's (prime, kind) conditions, in report order: the
        verbatim criterion's valuation primes and congruence prime, when
        stated, then the general rule at every five-component prime."""
        out = [(p, "valuation") for p in self.valuation_primes]
        if self.congruence_prime is not None:
            out.append((self.congruence_prime, "congruence"))
        return out + [(p, "singular-avoidance") for p in self.five_primes]


def reduction_data_for_model(model: CubicModel, index: int = 0,
                             criterion=None) -> CurveReductionData:
    """Minimal model, five-component primes and node data for one model."""
    F = model.curve()
    Fmin, trans = minimal_model(F)
    reds = {p: reduction_info(Fmin, p) for p in bad_primes(Fmin)}
    five = tuple(sorted(p for p, info in reds.items()
                        if info.component_count % 5 == 0))
    # x_min = (lead x - r) / u^2, all three times one common scale
    lead, r, u2 = Fraction(model.lead), Fraction(trans.r), Fraction(trans.u) ** 2
    scale = math.lcm(lead.denominator, r.denominator, u2.denominator)
    val_primes, cong_p, cong_res = (), None, None
    if criterion is not None:
        val_primes, (cong_p, cong_res) = criterion
    return CurveReductionData(
        index=index, model=model, minimal=Fmin,
        five_primes=five, reductions=reds,
        minimal_map=(int(lead * scale), int(r * scale), int(u2 * scale)),
        valuation_primes=val_primes, congruence_prime=cong_p,
        excluded_residue=cong_res)


@lru_cache(maxsize=None)
def sieve_data() -> tuple[CurveReductionData, ...]:
    sp = specialize()
    return tuple(
        reduction_data_for_model(model, i, CONSTANTS["criterion"][i - 1])
        for i, model in enumerate(sp.F_models, 1))


def singular_abscissa(data: CurveReductionData, p: int) -> int:
    """Node abscissa mod p in the y^2 = g(x) coordinates of the criterion.

    Maps the minimal-model node back through the sieve's own map:
    x = (U x_min + R) / L.  Raises NoSingularPointError at good primes
    and BadReductionError when the back-mapped value is not p-integral.
    """
    info = data.reductions.get(p)
    if info is None or info.singular_x is None:
        raise NoSingularPointError(f"curve {data.index} has good reduction at {p}")
    L, R, U = data.minimal_map
    _, res = valuation_and_residue(U * info.singular_x + R, L, p)
    if res is None:
        raise BadReductionError(
            f"node abscissa of curve {data.index} is not {p}-integral")
    return res


# ---------------------------------------------------------------------------
# extension conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    curve: int
    kind: str          # "valuation" | "congruence" | "singular-avoidance"
    prime: int
    required: str
    observed: str
    passed: bool
    # the JSON dict of a shared record, built once by _shared
    _json: dict | None = field(default=None, init=False, compare=False, repr=False)

    def to_json(self):
        if self._json is not None:
            return self._json
        return {
            "curve": self.curve,
            "kind": self.kind,
            "prime": str(self.prime),
            "required": self.required,
            "observed": self.observed,
            "pass": self.passed,
        }


def extension_check(data: CurveReductionData, x: Fraction) -> list[ConditionRecord]:
    """The verbatim per-curve criterion plus the general singular-point rule."""
    x = Fraction(x)
    return _extension_records(data, x.numerator, x.denominator)


def _extension_records(data: CurveReductionData, n: int,
                       d: int) -> list[ConditionRecord]:
    """extension_check at x = n/d (d != 0)."""
    x, x_min = (n, d), data.x_minimal(n, d)
    records = []
    for p, kind in data.conditions():
        v, res = valuation_and_residue(*(x_min if kind == "singular-avoidance" else x), p)
        records.append(_record(data, p, kind, v, res))
    return records


def singular_avoidance_passes(data: CurveReductionData, x: Fraction) -> bool:
    """The general rule alone, the singular-avoidance subset of
    extension_check: no five-component prime sees the node.  No record is
    built."""
    if type(x) is not Fraction:        # the oracle passes a Fraction already
        x = Fraction(x)
    x_min = data.x_minimal(x.numerator, x.denominator)
    return not any(_hits_node(data, p, valuation_and_residue(*x_min, p)[1])
                   for p in data.five_primes)


def _hits_node(data: CurveReductionData, p: int, res) -> bool:
    """Whether the residue mod p of x_min, None standing for infinity, is
    the node's abscissa at p."""
    return res is not None and res == data.reductions[p].singular_x


def _record(data: CurveReductionData, p: int, kind: str, v, res) -> ConditionRecord:
    """The record of one condition from v = v_p(x) and the residue mod p
    of x, or of x_min for singular-avoidance, None standing for infinity."""
    if kind == "valuation":
        return ConditionRecord(data.index, kind, p, "v <= -2", f"v = {v}", v <= -2)
    if kind == "congruence":
        # negative valuation counts as "not congruent"
        hit = res is not None and res == data.excluded_residue % p
        return ConditionRecord(data.index, kind, p,
                               f"x != {data.excluded_residue} mod {p}",
                               "congruent" if hit else "not congruent", not hit)
    hit = _hits_node(data, p, res)
    observed = ("reduces to infinity" if res is None
                else "node" if hit else f"x = {res} mod {p}")
    return ConditionRecord(data.index, kind, p, "reduction != node", observed, not hit)


# ---------------------------------------------------------------------------
# the class route (see the module docstring)
# ---------------------------------------------------------------------------

CLASS_DEPTH = 4             # largest j of a key (p, v, j, u mod p^j)
CLASS_MEMO_SIZE = 4096      # keys the memo keeps, least recently used out first
_UNKNOWN = object()         # a residue the key does not fix


def _adic_terms(coeffs, p: int) -> tuple[tuple[int, int, int], ...]:
    """(i, e_i, a_i / p^e_i) for each nonzero a_i, with e_i = v_p(a_i)."""
    out = []
    for i, a in enumerate(coeffs):
        if a:
            e = int_valuation(a, p)
            out.append((i, e, a // p ** e))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_plan():
    """What the class route needs, from sieve_data() and _integer_forms().

    For each condition prime p, in order of first use: the p-adic terms of
    x(z)'s numerator and denominator and the slots (data, kind, terms of
    x_min's pair or None) whose records an entry at p holds, in report
    order.  With them the itemgetter that takes the entries, joined in
    prime order, to the report's curve/kind/prime order.
    """
    num, den, _, _ = _integer_forms()
    slots = [(p, data, kind) for data in sieve_data() for p, kind in data.conditions()]
    plan, joined = {}, []
    for p in dict.fromkeys(p for p, _, _ in slots):
        mine = []
        for slot in slots:
            if slot[0] != p:
                continue
            _, data, kind = slot
            minimal = None
            if kind == "singular-avoidance":
                # x_min's pair as polynomials in z: x_minimal is linear
                pairs = [data.x_minimal(a, b) for a, b in zip_longest(num, den, fillvalue=0)]
                minimal = tuple(_adic_terms(c, p) for c in zip(*pairs))
            mine.append((data, kind, minimal))
            joined.append(slot)
        plan[p] = (_adic_terms(num, p), _adic_terms(den, p), tuple(mine))
    return plan, itemgetter(*(joined.index(slot) for slot in slots))


def _leading(terms, p: int, v: int, j: int, u: int):
    """v_p(P(z)) and P(z)/p^v_p(P(z)) mod p for every z = p^v u' with
    u' = u mod p^j, p not dividing u', from the _adic_terms of P.

    m = min_i (e_i + i v) is the valuation of P's leading terms, and S =
    P(z)/p^m mod p^j depends on u mod p^j alone.  When S vanishes, the
    answer is (m + j, None), m + j only a lower bound for v_p(P(z)).
    """
    m = min(e + i * v for i, e, _ in terms)
    pj = p ** j
    s = sum(c * p ** (e + i * v - m) * u ** i
            for i, e, c in terms if e + i * v - m < j) % pj
    if s == 0:
        return m + j, None
    t = 0
    while s % p == 0:
        s //= p
        t += 1
    return m + t, s % p


def _class_ratio(p: int, top, bottom):
    """(v, residue) of P(z)/Q(z) from _leading of both: v is None where the
    key does not fix it, and the residue _UNKNOWN, or None for infinity."""
    (vp, up), (vq, uq) = top, bottom
    if up is not None and uq is not None:
        v = vp - vq
        if v < 0:
            return v, None
        return v, 0 if v > 0 else up * pow(uq, -1, p) % p
    if uq is not None and vp - vq > 0:       # v_p >= vp - vq > 0
        return None, 0
    if up is not None and vp - vq < 0:       # v_p <= vp - vq < 0
        return None, None
    return None, _UNKNOWN


@lru_cache(maxsize=CLASS_MEMO_SIZE)
def _class_entry(p: int, v: int, j: int, u: int):
    """The records at p shared by every z = p^v u' with u' = u mod p^j,
    in report order; None when that class does not fix them all."""
    num, den, slots = _class_plan()[0][p]
    x = _class_ratio(p, _leading(num, p, v, j, u), _leading(den, p, v, j, u))
    records = []
    for data, kind, minimal in slots:
        v_p, res = x if minimal is None else \
            _class_ratio(p, *(_leading(t, p, v, j, u) for t in minimal))
        # a valuation record reads v, the others the residue
        if (v_p is None) if kind == "valuation" else (res is _UNKNOWN):
            return None
        records.append(_shared(_record(data, p, kind, v_p, res)))
    return _shared(tuple(records))


@lru_cache(maxsize=CLASS_MEMO_SIZE)
def _shared(record):
    """One object per distinct record, and per distinct entry, in the memo.

    A record's JSON dict is built here, once for every report that holds
    it; readers of to_json() must not mutate it.
    """
    if isinstance(record, ConditionRecord):
        object.__setattr__(record, "_json", record.to_json())
    return record


def _class_records(z: int) -> tuple[ConditionRecord, ...] | None:
    """check_z's records by the p-adic class of z, or None when some class,
    up to depth CLASS_DEPTH, does not fix them; z = 0 is in no class."""
    if not z:
        return None
    plan, layout = _class_plan()
    entries = []
    for p in plan:
        u, v = z, 0
        r = u % p
        while not r:
            u //= p
            v += 1
            r = u % p
        entry = _class_entry(p, v, 1, r)
        j = 1
        while entry is None:
            if j == CLASS_DEPTH:
                return None
            j += 1
            entry = _class_entry(p, v, j, u % p ** j)
        entries += entry
    return layout(entries)


@dataclass(frozen=True)
class SieveReport:
    z: int
    radicand_sign: int
    records: tuple[ConditionRecord, ...]
    # the direct route's x_and_radicand_form(z), None on the class route
    evaluation: tuple[Ratio, int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def verbatim_passed(self) -> bool:
        return all(r.passed for r in self.records
                   if r.kind in ("valuation", "congruence"))

    def general_rule_passed(self) -> bool:
        return all(r.passed for r in self.records
                   if r.kind == "singular-avoidance")

    def to_json(self):
        return {
            "record": "sieve-report",
            "schema": 1,
            "z": str(self.z),
            "radicand_sign": self.radicand_sign,
            "pass": self.passed,
            "conditions": [r.to_json() for r in self.records],
        }


@lru_cache(maxsize=None)
def _integer_forms() -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """Integer coefficients of x(z) = num/den (one common scale) and of
    f_int = s f, with the scale s."""
    sp = specialize()
    num, den = integer_coefficients(sp.x_of_z.num, sp.x_of_z.den)
    f, = integer_coefficients(sp.f_model)
    s = Fraction(f[-1]) / sp.f_model.leading()
    return tuple(num), tuple(den), tuple(f), int(s)


@lru_cache(maxsize=None)
def _bezout_identity() -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Integer polynomials A, B and an integer M > 0 with A num + B den = M.

    num and den are those of _integer_forms().  The extended Euclidean
    algorithm over Q gives A num + B den = 1 when the two are coprime;
    M is the least common denominator of A and B, which clears them.
    The identity is then checked exactly on the integer coefficients.
    Raises IdentityCheckError when num and den share a factor over Q or
    the check fails.
    """
    num, den, _, _ = _integer_forms()
    r0, r1 = Poly(num), Poly(den)
    s0, s1, t0, t1 = Poly.const(1), Poly(), Poly(), Poly.const(1)
    while r1:                                   # r_i = s_i num + t_i den
        q, r = divmod(r0, r1)
        r0, r1, s0, s1, t0, t1 = r1, r, s1, s0 - q * s1, t1, t0 - q * t1
    if r0.degree != 0:
        raise IdentityCheckError(f"num and den of x(z) share the factor {r0.monic()}")
    A, B = s0 / r0[0], t0 / r0[0]
    M = math.lcm(*(c.denominator for c in A.c + B.c))
    A, B = A * M, B * M
    if (any(c.denominator != 1 for c in A.c + B.c)
            or A * Poly(num) + B * Poly(den) != Poly.const(M)):
        raise IdentityCheckError(f"A num + B den = {M} does not hold")
    return tuple(int(c) for c in A.c), tuple(int(c) for c in B.c), M


def x_pair(z: int) -> tuple[int, int]:
    """x(z) = n/d as an unreduced integer pair, by Horner in z."""
    num, den, _, _ = _integer_forms()
    n, _ = homogeneous_value(num, z, 1)
    d, _ = homogeneous_value(den, z, 1)
    if d == 0:
        raise PoleError(f"evaluation at pole z={z}")
    return n, d


@lru_cache(maxsize=None)
def sign_bound() -> int:
    """An integer B with sign(H) = sign(z) for every integer |z| > B.

    B is the integer part of the larger Cauchy bound 1 + max_i |a_i/a_n|
    of H_z = den^k f_int(num/den) and of den, as integer polynomials in z
    (see the module docstring); |z| > B puts z at or above both bounds.
    Raises IdentityCheckError unless both leading coefficients are
    positive and deg H_z + k deg den is odd.
    """
    num, den, f, _ = _integer_forms()
    den = Poly(den)
    form, _ = homogeneous_value(f, Poly(num), den)
    if (form.degree + (len(f) - 1) * den.degree) % 2 == 0:
        raise IdentityCheckError("the radicand's sign does not follow the sign of z")
    bound = 0
    for P in (form, den):
        lead = P.leading()
        if lead <= 0:
            raise IdentityCheckError(
                f"leading coefficient {lead} of a radicand form is not positive")
        bound = max(bound, 1 + max(abs(a) // lead for a in P.c[:-1]))
    return bound


def x_and_radicand_form(z: int) -> tuple[Ratio, int, int]:
    """x(z) = n/d in lowest terms with d > 0, H = d^k f_int(n/d) and d^k.

    The radicand f(x(z)) has the sign of H; reduced_radicand(H, d^k) is
    f(x(z)) in lowest terms.  Raises PoleError at z = 0.

    The gcd of the pair (n, d) = (num(z), den(z)) from x_pair is taken
    modulo the constant M of _bezout_identity(): A num + B den = M with
    integer polynomials A and B, so at integer z every common divisor g of
    n and d divides A(z) n + B(z) d = M, n = 0 included.  Then gcd(n, d)
    = gcd(n, d, M) = gcd(n mod M, d mod M, M), one gcd on numbers the
    size of M (185 bits) in place of one on the long n and d.
    """
    n, d = x_pair(z)
    M = _bezout_identity()[2]
    g = math.gcd(n % M, d % M, M)
    if d < 0:
        g = -g
    n, d = n // g, d // g
    form, dk, _ = radicand_form(n, d)
    return Ratio(n, d), form, dk


def radicand_form(n: int, d: int) -> tuple[int, int, int]:
    """H = d^k f_int(n/d), d^k and the scale s of f_int = s f, so that
    f(n/d) = H / (s d^k) for any integers n and d != 0, in lowest terms
    or not."""
    _, _, f, s = _integer_forms()
    form, dk = homogeneous_value(f, n, d)
    return form, dk, s


def check_z(z: int) -> SieveReport:
    """Evaluate every extension condition for one z.

    For |z| > sign_bound() the records come from the memo of p-adic
    classes and the sign from z, with no polynomial evaluated.  Every
    other z, and a z with a class that does not fix its records, takes
    the direct route on x(z) and H (see the module docstring); that
    report carries the evaluation.  Raises PoleError at z = 0.
    """
    bound = sign_bound()
    if not -bound <= z <= bound:
        records = _class_records(z)
        if records is not None:
            return SieveReport(z, 1 if z > 0 else -1, records)
    x, form, _ = evaluation = x_and_radicand_form(z)
    records = tuple(record for data in sieve_data()
                    for record in _extension_records(data, *x))
    return SieveReport(z, (form > 0) - (form < 0), records, evaluation)


def reduced_radicand(form: int, dk: int) -> Ratio:
    """f(x) = H / (s d^k) in lowest terms, from H = d^k f_int(n/d) and d^k.

    x = n/d must be in lowest terms with d > 0, as x_and_radicand_form
    gives x(z) along with H and d^k.  Let c = lc(f_int).  The gcd g of H
    and s d^k divides C = s c^k.  Take a prime p and write e = v_p(c).  If p does
    not divide d, v_p(g) <= v_p(s).  If it does, every term of H but
    c n^k carries a factor d, and p does not divide n; so when e <
    v_p(d), v_p(H) = e, and otherwise v_p(g) <= v_p(s d^k) = v_p(s) +
    k v_p(d) <= v_p(s) + k e.  Either way v_p(g) <= v_p(C), hence g =
    gcd(H mod C, s d^k mod C, C): one gcd on numbers the size of C,
    where Fraction would take one on the long H and d^k.
    """
    _, _, f, s = _integer_forms()
    k = len(f) - 1
    C = abs(s * f[-1] ** k)
    H, den = form, s * dk
    g = math.gcd(H % C, den % C, C)
    return Ratio(H // g, den // g)
