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

Every check raises ArithmeticError, so the module holds under python -O.
Run as a script, it checks the default grid's passes at the primes below
its argument (400 by default) and prints the counts.
"""

import sys
from dataclasses import dataclass, field

from fiverank.classgroup import (
    _oracle_curve,
    _pow,
    _split_prime_verdict,
    _sqrt_mod_prime,
    oracle_scan,
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
    ident = (1, D % 2, (D % 2 - D) // 4)
    return _pow(prime_form(D, l), h // 5, D, ident) == ident


def check_instance(outcome, bound: int, shift: int = 0) -> Tally:
    """Compare, at every odd prime l < bound split in K = Q(sqrt(D)) with
    l not dividing D, the verdict of the quintic of the abscissa
    outcome.x + shift with the Artin map of the prime form of l."""
    if outcome.status != "pass" or outcome.five_rank != 1:
        raise ArithmeticError(f"{outcome} is no pass of 5-rank 1")
    u, x, D, h = outcome.u, outcome.x, outcome.fundamental_d, outcome.class_number
    F_model = _oracle_curve(u.numerator, u.denominator)[0]
    X = F_model.to_long_x(x + shift)
    tally = Tally()
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
        if split == in_index_five_subgroup(D, h, l):
            tally.agreed += 1
        else:
            tally.disagreed.append(pair)
    return tally


def check_grid(bound: int, shift: int = 0) -> tuple[Tally, list[Tally]]:
    """check_instance on every pass of 5-rank 1 of the default grid: the
    total and the tally of each instance, in grid order."""
    each = [check_instance(o, bound, shift) for o in oracle_scan(100_000)
            if o.status == "pass" and o.five_rank == 1]
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


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
