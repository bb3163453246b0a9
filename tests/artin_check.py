"""The oracle's Frobenius verdicts against the Artin map of the class group:
a check of the bridge that every certificate rests on, that the preimage
quintic's profile mod l is the Frobenius of l in an unramified cyclic
quintic extension L/K, and so a fact about Cl(K).

Let L/K be unramified and cyclic of degree 5, and the 5-Sylow subgroup
of Cl(K) cyclic (5-rank 1).  Then L is the class field of the unique
subgroup of index 5, N = {c : c^(h/5) = 1}, and a prime l split in K,
l not dividing D, splits in L exactly when its prime form (l, b, .),
b^2 = D (mod 4l), lies in N (Cox, Primes of the Form x^2 + ny^2, section
5).  For every oracle pass of 5-rank 1 and every odd prime l below a
bound that splits in K, the quintic verdict (classgroup._split_prime_verdict,
split or inert) must equal the class-group prediction f^(h/5) = 1.

A pair whose verdict raises RamifiedPrimeError (l divides the quintic's
discriminant or leading coefficient) says nothing and is left out,
counted.  A disagreement is never left out.  The negative control reads
the verdicts of the abscissa x + 1 on the same field K: they belong to
another extension, so they must fail the check on every instance, by a
disagreement or by a profile that no cyclic quintic has
(ProtocolViolationError).

The two passes of 5-rank 2 have a 5-Sylow subgroup (Z/5)^2, and h/5
powering no longer names one subgroup.  There the statement is weaker:
N still contains Cl^5, so it maps onto a line of Cl/Cl^5, which the
h/25-th power identifies with the 5-Sylow subgroup.  The images
f^(h/25) of the prime forms of the split primes must span exactly one
subgroup of order 5, and no inert prime's image may lie in it.

Every check raises ArithmeticError, so the module holds under python -O.
Run as a script, it checks the default grid's passes at the primes below
its argument (400 by default) and prints the counts.
"""

import sys
from dataclasses import dataclass, field

from fiverank.classgroup import (
    _compose,
    _identity,
    _oracle_curve,
    _pow,
    _split_prime_verdict,
    _sqrt_mod_prime,
    oracle_scan,
    sylow_layers,
)
from fiverank.errors import ProtocolViolationError, RamifiedPrimeError
from fiverank.exact import is_probable_prime
from fiverank.splitting import SPLIT, prime_split_in_K


@dataclass
class Tally:
    """What one or more instances gave: agreeing pairs, and the
    (u, x, D, l) of each disagreement, each ramified pair left out and
    each pair whose profile no cyclic quintic has."""
    agreed: int = 0
    disagreed: list = field(default_factory=list)
    ramified: list = field(default_factory=list)
    impossible: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.agreed += other.agreed
        self.disagreed += other.disagreed
        self.ramified += other.ramified
        self.impossible += other.impossible


def prime_form(D: int, l: int) -> tuple[int, int, int]:
    """The form (l, b, c) of discriminant D with b = D (mod 2) and b^2 =
    D (mod 4l), for an odd prime l split in Q(sqrt(D))."""
    roots = _sqrt_mod_prime(D, l)
    if not roots:
        raise ArithmeticError(f"{D} is no square mod {l}")
    b = roots[0] if (roots[0] - D) % 2 == 0 else l - roots[0]
    c, r = divmod(b * b - D, 4 * l)
    if r:
        raise ArithmeticError(f"({l}, {b}, .) has no discriminant {D}")
    return l, b, c


def in_index_five_subgroup(D: int, h: int, l: int) -> bool:
    """Whether the class of l's prime form lies in N, f^(h/5) = 1."""
    ident = _identity(D)
    return _pow(prime_form(D, l), h // 5, D, ident) == ident


def _verdicts(outcome, bound: int, shift: int, tally):
    """(u, x, D, l) and whether l splits in L, by the quintic of the
    abscissa outcome.x + shift, at every odd prime l < bound split in
    K = Q(sqrt(D)) with l not dividing D.  The ramified pairs and those
    whose profile no cyclic quintic has go to tally instead."""
    u, x, D = outcome.u, outcome.x, outcome.fundamental_d
    F_model = _oracle_curve(u.numerator, u.denominator)[0]
    X = F_model.to_long_x(x + shift)
    for l in range(3, bound, 2):
        if not is_probable_prime(l) or D % l == 0 or \
                prime_split_in_K(l, outcome.radicand) != SPLIT:
            continue
        pair = (u, x, D, l)
        try:
            split = _split_prime_verdict(u, X, l) == SPLIT
        except RamifiedPrimeError:
            tally.ramified.append(pair)
            continue
        except ProtocolViolationError:
            tally.impossible.append(pair)
            continue
        yield pair, split


def check_instance(outcome, bound: int, shift: int = 0) -> Tally:
    """Compare, at every odd prime l < bound split in K = Q(sqrt(D)) with
    l not dividing D, the verdict of the quintic of the abscissa
    outcome.x + shift with the Artin map of the prime form of l."""
    if outcome.status != "pass" or outcome.five_rank != 1:
        raise ArithmeticError(f"{outcome} is no pass of 5-rank 1")
    D, h = outcome.fundamental_d, outcome.class_number
    tally = Tally()
    for pair, split in _verdicts(outcome, bound, shift, tally):
        if split == in_index_five_subgroup(D, h, pair[3]):
            tally.agreed += 1
        else:
            tally.disagreed.append(pair)
    return tally


@dataclass
class PlaneTally:
    """What one instance of 5-rank 2 gave: the (u, x, D, l) of each pair
    split and inert in L, of each inert pair whose image lies in the span
    of the split pairs' images, of each ramified pair left out and of
    each pair whose profile no cyclic quintic has; and the number of
    classes in that span."""
    split: list = field(default_factory=list)
    inert: list = field(default_factory=list)
    inside: list = field(default_factory=list)
    ramified: list = field(default_factory=list)
    impossible: list = field(default_factory=list)
    span: int = 1

    def holds(self) -> bool:
        """The split images span one subgroup of order 5, no inert image
        lies in it, and every profile is a cyclic quintic's."""
        return self.span == 5 and not self.inside and not self.impossible


def _times(f: tuple, g: tuple, D: int, ident: tuple) -> tuple[int, int, int]:
    """f g; _compose takes no identity factor."""
    return g if f == ident else f if g == ident else _compose(f, g, D)


def generated_subgroup(images, D: int) -> set:
    """The subgroup that classes of order dividing 5 generate."""
    ident = _identity(D)
    group = {ident}
    for g in images:
        power, grown = g, set(group)
        for _ in range(4):
            grown |= {_times(c, power, D, ident) for c in group}
            power = _times(power, g, D, ident)
        if power != ident:
            raise ArithmeticError(f"{g} has order other than 1 or 5 in Cl({D})")
        group = grown
    return group


def check_rank_two(outcome, bound: int, shift: int = 0) -> PlaneTally:
    """The images f^(h/25) in the 5-Sylow subgroup (Z/5)^2 of the prime
    forms of every odd prime l < bound split in K with l not dividing D,
    sorted by the verdict of the quintic of outcome.x + shift: the span
    of the split primes' images, and the inert primes' images inside it."""
    D, h = outcome.fundamental_d, outcome.class_number
    if outcome.status != "pass" or sylow_layers(D, h, 5) != [2]:
        raise ArithmeticError(f"{outcome} is no pass with 5-Sylow subgroup (Z/5)^2")
    ident = _identity(D)
    tally, images = PlaneTally(), {}
    for pair, split in _verdicts(outcome, bound, shift, tally):
        (tally.split if split else tally.inert).append(pair)
        images[pair] = _pow(prime_form(D, pair[3]), h // 25, D, ident)
    line = generated_subgroup([images[pair] for pair in tally.split], D)
    tally.span = len(line)
    tally.inside = [pair for pair in tally.inert if images[pair] in line]
    return tally


def grid_passes(rank: int) -> list:
    """The default grid's passes of 5-rank rank, in grid order."""
    return [o for o in oracle_scan(100_000) if o.status == "pass" and o.five_rank == rank]


def check_grid(bound: int, shift: int = 0) -> tuple[Tally, list[Tally]]:
    """check_instance on every pass of 5-rank 1 of the default grid: the
    total and the tally of each instance, in grid order."""
    each = [check_instance(o, bound, shift) for o in grid_passes(1)]
    total = Tally()
    for tally in each:
        total.add(tally)
    return total, each


def main(bound: int) -> None:
    total, each = check_grid(bound)
    if total.disagreed or total.impossible:
        raise ArithmeticError(f"Frobenius verdicts against the Artin map: "
                              f"{total.disagreed + total.impossible}")
    _, control = check_grid(bound, shift=1)
    passed = [t for t in control if not t.disagreed and not t.impossible]
    if passed:
        raise ArithmeticError(f"{len(passed)} instances pass the check on x + 1")
    print(f"{len(each)} instances, {total.agreed} pairs agree, "
          f"{len(total.ramified)} ramified pairs left out, l < {bound}; "
          f"x + 1: {sum(len(t.disagreed) for t in control)} disagreements, "
          f"{sum(len(t.impossible) for t in control)} impossible profiles")
    planes = [check_rank_two(o, bound) for o in grid_passes(2)]
    failed = [t for t in planes if not t.holds()]
    if failed:
        raise ArithmeticError(f"split images off one line of (Z/5)^2: "
                              f"{[(t.span, t.inside, t.impossible) for t in failed]}")
    control = [check_rank_two(o, bound, shift=1) for o in grid_passes(2)]
    if any(t.holds() for t in control):
        raise ArithmeticError("an instance of 5-rank 2 passes the check on x + 1")
    print(f"{len(planes)} instances of 5-rank 2, "
          f"{sum(len(t.split) for t in planes)} split pairs spanning 5 classes each, "
          f"{sum(len(t.inert) for t in planes)} inert pairs outside, "
          f"{sum(len(t.ramified) for t in planes)} ramified pairs left out, "
          f"l < {bound}; x + 1: spans of {[t.span for t in control]} classes, "
          f"{sum(len(t.inside) for t in control)} inert pairs inside, "
          f"{sum(len(t.impossible) for t in control)} impossible profiles")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
