import ast
import itertools
import math
import pathlib
import sys
import random
from fractions import Fraction as F

import pytest

from fiverank.classgroup import (
    SCAN_U,
    BinaryQuadraticForm,
    class_number,
    compose,
    enumerate_reduced,
    form_pow,
    fundamental_discriminant,
    group_structure,
    identity_form,
    oracle_scan,
    reduce_form,
    small_instance_oracle,
    sylow_layers,
)
from fiverank.errors import (
    FiverankError,
    IdentityCheckError,
    OutOfBudgetError,
    RamifiedPrimeError,
)
from fiverank.exact import is_probable_prime
from fiverank.family import five_isogeny

from class_number_formula import (
    check_dirichlet,
    check_reference,
    decided_grid,
    fundamental_part,
    log_uniform_discriminants,
    reference_class_number,
)
from pins import PINS


def test_form_validation():
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 0, -1)          # positive discriminant
    with pytest.raises(ValueError):
        BinaryQuadraticForm(-1, 0, -1)         # not positive definite
    with pytest.raises(ValueError):
        BinaryQuadraticForm(2, 2, 4)           # imprimitive


def test_reduce_examples():
    assert reduce_form(BinaryQuadraticForm(1, 1, 6)) == BinaryQuadraticForm(1, 1, 6)
    assert reduce_form(BinaryQuadraticForm(6, 1, 1)) == BinaryQuadraticForm(1, 1, 6)
    # |b| < a and a < c: already reduced even with negative b
    assert reduce_form(BinaryQuadraticForm(2, -1, 3)) == BinaryQuadraticForm(2, -1, 3)


def test_reduced_representative_unique():
    # all forms in one class reduce to the same representative
    f = BinaryQuadraticForm(2, 1, 3)
    g = compose(compose(f, f), compose(f, f.inverse()))
    assert g == compose(f, f)


def test_compose_identity_and_inverse():
    D = -23
    e = identity_form(D)
    f = BinaryQuadraticForm(2, 1, 3)
    assert compose(e, f) == reduce_form(f)
    assert compose(f, f.inverse()) == e
    assert compose(f, f) == BinaryQuadraticForm(2, -1, 3)


def test_compose_rejects_mismatched_discriminants():
    with pytest.raises(ValueError):
        compose(identity_form(-23), identity_form(-47))


def test_enumerate_golden_values():
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert class_number(-47) == 5
    forms = set(enumerate_reduced(-23))
    assert forms == {BinaryQuadraticForm(1, 1, 6),
                     BinaryQuadraticForm(2, 1, 3),
                     BinaryQuadraticForm(2, -1, 3)}
    # a lazy stream in increasing a, then b
    forms = enumerate_reduced(-47)
    assert iter(forms) is forms
    assert [(f.a, f.b, f.c) for f in forms] == \
        [(1, 1, 12), (2, -1, 6), (2, 1, 6), (3, -1, 4), (3, 1, 4)]


def test_enumerate_rejects_bad_discriminant():
    # the count checks its discriminant as the enumeration does
    for fn in (enumerate_reduced, class_number):
        for D in (-7 + 1, -5, 0, 5, 8):    # D = 2, 3 mod 4, or D >= 0
            with pytest.raises(ValueError):
                fn(D)


def is_fundamental(D):
    if D % 4 == 1:
        m = -D
    elif D % 16 in (8, 12):
        m = -D // 4
    else:
        return False
    return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))


def test_class_number_counts_what_enumeration_lists():
    # counting the roots of b^2 = D mod 4a against the O(|D|) scan, on
    # every discriminant down to -20,000, fundamental or not, and on
    # random larger ones
    for D in range(-3, -20001, -1):
        if D % 4 in (0, 1):
            assert class_number(D) == len(list(enumerate_reduced(D))), D
    rng = random.Random(47)
    tried = 0
    while tried < 3:
        D = -rng.randrange(10**5, 10**7)
        if D % 4 in (0, 1):
            tried += 1
            assert class_number(D) == len(list(enumerate_reduced(D))), D


def enumerated_count(D):
    return sum(1 for _ in enumerate_reduced(D))


def test_class_number_counts_non_fundamental_and_band_edges():
    # the edges of counting r(a) without listing roots: squares k^2 times
    # a fundamental D0, where some p | a has p^2 | D and a root can give an
    # imprimitive form (p = 2 among them: -16, -64, -2832); D = -(4a^2 + k),
    # where a sits just inside or outside 4a^2 < |D|; random non-fundamental
    # D up to 3e6
    for D0, kmax in ((-3, 200), (-4, 200), (-7, 60), (-8, 60), (-15, 40),
                     (-20, 40), (-24, 40), (-708, 6)):
        assert is_fundamental(D0)
        for k in range(1, kmax + 1):
            D = k * k * D0
            assert class_number(D) == enumerated_count(D), D
    for D in (-16, -64, -2832):
        assert class_number(D) == enumerated_count(D), D
    for a in itertools.chain(range(1, 80), (97, 128, 210, 256)):
        for k in range(-3, 8):
            D = -(4 * a * a + k)
            if D < 0 and D % 4 in (0, 1):
                assert class_number(D) == enumerated_count(D), D
    rng = random.Random(20)
    tried = 0
    while tried < 6:
        k = rng.choice((2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 25, 49))
        D = -k * k * rng.randrange(1, 3 * 10**6 // (k * k))
        if D % 4 in (0, 1) and not is_fundamental(D):
            tried += 1
            assert class_number(D) == enumerated_count(D), D


def test_class_number_runs_tonelli_shanks_only_for_listed_a(monkeypatch):
    # r(a) needs no square root at an odd p that does not divide D:
    # Euler's criterion gives 1 + (D/p) roots mod every power of p.  Roots
    # are taken only for the a whose b are listed and tested one by one,
    # all in one _listed_count call per D; they are read from the root
    # tables up to ROOT_TABLE_BOUND, so Tonelli-Shanks runs only above it,
    # which -30,000,004 reaches
    from fiverank import classgroup

    listed_count, sqrt_mod_prime = classgroup._listed_count, classgroup._sqrt_mod_prime
    rooted_somewhere, rooted_above = False, set()
    for D in (-2832, -50783, -129476, -1294756, -30000004):
        calls, listed, rooted = [], [], []

        def spy_listed(D, a_list, *args):
            calls.append(D)
            listed.extend(a_list)
            return listed_count(D, a_list, *args)

        def spy_sqrt(D, p):
            rooted.append(p)
            return sqrt_mod_prime(D, p)

        monkeypatch.setattr(classgroup, "_listed_count", spy_listed)
        monkeypatch.setattr(classgroup, "_sqrt_mod_prime", spy_sqrt)
        assert class_number(D) == enumerated_count(D), D
        monkeypatch.undo()
        assert calls == [D] and listed, D
        assert all(p % 2 and D % p and any(a % p == 0 for a in listed)
                   for p in rooted), D
        rooted_somewhere |= bool(rooted)
        rooted_above.update(p for p in rooted if p > classgroup.ROOT_TABLE_BOUND)
    assert rooted_somewhere and rooted_above


def test_byte_table_weights_are_the_local_root_counts():
    # the lemma behind class_number's byte counts: at every prime p <=
    # amax whose multiples are not listed, and every p^j <= amax, the
    # roots of x^2 = D mod p^j (mod 4 * 2^j at p = 2, halved) number 2 at
    # a split p, 0 at an inert one, and 1 then 0 at a ramified one, as
    # the entry of p^j in the byte table says
    from fiverank import classgroup

    discs = [D for D in range(-3, -20001, -1) if D % 4 in (0, 1)]
    discs += [k * k * D0 for D0 in (-3, -4, -7, -8, -15) for k in range(1, 61)]
    checked, kinds = 0, set()
    for D in discs:
        amax = math.isqrt(-D // 3)
        spf, primes, rest, omega = classgroup._smallest_prime_factors(amax)
        logs = classgroup._log_root_counts(D, amax, primes, omega)
        roots = {}
        for p in (p for p in primes if p <= amax and logs[p] != classgroup._LISTED):
            q, weights = p, []
            while q <= amax:
                n = len(classgroup._prime_power_roots(D, p, 4 * q if p == 2 else q, roots))
                v = logs[q]
                weights.append(0 if v == classgroup._STRUCK else 1 << v)
                assert (n // 2 if p == 2 else n) == weights[-1], (D, p, q)
                q *= p
            checked += len(weights)
            kinds.add((p == 2, weights[0]))
    # split, inert and ramified primes, at p = 2 and at odd p
    assert kinds == {(two, w) for two in (True, False) for w in (2, 0, 1)}
    assert checked > 100_000


def test_class_number_matches_the_per_a_reference_on_log_uniform_discriminants():
    # 200 seeded D with |D| log-uniform in [3, 1e9], fundamental or not,
    # with amax on both sides of ROOT_TABLE_BOUND; the CI runs 20,000
    discs = log_uniform_discriminants(200, 34)
    assert sum(fundamental_part(D)[1] > 1 for D in discs) >= 20
    check_reference(discs)


def test_square_roots_mod_a_prime_match_a_search():
    # up to ROOT_TABLE_BOUND one read of the root table; above it one
    # power at p = 3 mod 4 and Tonelli-Shanks at p = 1 mod 4 (p = 1889,
    # 7681 and 12289 have 2-adic depth 5, 9 and 12); [] for a
    # non-residue, which class_number itself never asks about
    from fiverank import classgroup

    for p in (p for p in range(3, 200, 2) if is_probable_prime(p)):
        for D in range(-3 * p, 0):
            if D % p:
                assert sorted(classgroup._sqrt_mod_prime(D, p)) == \
                    [x for x in range(p) if (x * x - D) % p == 0], (D, p)
    for p in (1831, 1847, 1889, 7681, 12289):
        assert p > classgroup.ROOT_TABLE_BOUND and is_probable_prime(p)
        roots = {}
        for x in range(1, p):
            roots.setdefault(x * x % p, []).append(x)
        for n in range(1, p):
            D = n - 4 * p
            assert sorted(classgroup._sqrt_mod_prime(D, p)) == roots.get(n, []), (D, p)


def test_root_tables_match_a_search_and_eulers_criterion():
    # every odd prime up to the bound: entry n of p's table is the root r
    # of r^2 = n (mod p) with 0 < r <= p/2, and 0 exactly at the
    # non-residues (and at n = 0)
    from fiverank import classgroup

    bound = classgroup.ROOT_TABLE_BOUND
    assert bound == math.isqrt(classgroup.DEFAULT_DISC_BOUND // 3) == 1825
    primes = [p for p in range(3, bound + 1, 2) if is_probable_prime(p)]
    for p in primes:
        table = classgroup._root_table(p)
        assert len(table) == p and table[0] == 0, p
        least = {}
        for x in range(1, p):
            least.setdefault(x * x % p, min(x, p - x))
        for n in range(1, p):
            r = table[n]
            residue = pow(n, (p - 1) // 2, p) == 1
            assert residue == (n in least) == (r != 0), (p, n)
            if r:
                assert r * r % p == n and 0 < 2 * r < p and r == least[n], (p, n)
        assert classgroup._root_table(p) is table
    assert sorted(classgroup._root_tables) == primes
    assert sum(len(t) * t.itemsize for t in classgroup._root_tables.values()) < 600_000


def test_class_number_matches_the_pow_and_tonelli_shanks_route(monkeypatch):
    # against the route without tables and against the scan, on random D,
    # fundamental or not, with the tables cold and warm; the D beyond
    # 3 * 1825^2 reach primes on both sides of ROOT_TABLE_BOUND
    from fiverank import classgroup

    rng = random.Random(28)
    small, large, nonfundamental = [], [], 0
    while len(small) < 24:
        D = -rng.randrange(3, 10**6)
        if D % 4 in (0, 1):
            small.append(D)
            nonfundamental += not is_fundamental(D)
    while len(large) < 4:
        k = rng.choice((1, 1, 2, 3, 5))
        D = -k * k * rng.randrange(15 * 10**6 // (k * k), 30 * 10**6 // (k * k))
        if D % 4 in (0, 1):
            large.append(D)
            nonfundamental += not is_fundamental(D)
    assert nonfundamental >= 4
    assert all(math.isqrt(-D // 3) > classgroup.ROOT_TABLE_BOUND for D in large)
    for D in small + large:
        monkeypatch.setattr(classgroup, "_root_tables", {})
        cold = class_number(D)
        assert cold == class_number(D) == reference_class_number(D) == \
            enumerated_count(D), D


def test_no_root_table_is_built_at_cold_start():
    # the benchmark's warm-up never counts a class number, so it builds no
    # table: a fresh interpreter through the cold start of oracle-scan
    # (the t = 4 specialization, the sieve data and every scan curve set
    # up) has no root table and empty factor tables, omega among them,
    # and its first count builds them
    import subprocess

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import fiverank.cli\n"
        "from fiverank import classgroup, sieve\n"
        "from fiverank.errors import FiverankError\n"
        "from fiverank.family import specialize\n"
        "specialize()\n"
        "sieve.sieve_data()\n"
        "for u in classgroup.SCAN_U:\n"
        "    try:\n"
        "        classgroup._single_curve_setup(u)\n"
        "    except FiverankError:\n"
        "        pass\n"
        "print(classgroup._single_curve_setup.cache_info().currsize,"
        " len(classgroup._root_tables), sum(map(len, classgroup._factor_tables)))\n"
        "classgroup.class_number(-9910552)\n"
        "print(len(classgroup._root_tables))\n")
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[:3] == [str(len(SCAN_U)), "0", "0"] and int(out[3]) > 200, out


def test_no_root_table_above_the_bound(monkeypatch):
    # a count beyond the default budget reads tables for the odd primes
    # up to the bound that do not divide D, and builds none above it
    from fiverank import classgroup

    monkeypatch.setattr(classgroup, "_root_tables", {})
    D = -30000004
    assert math.isqrt(-D // 3) > 3000 > classgroup.ROOT_TABLE_BOUND
    assert class_number(D) == reference_class_number(D)
    assert sorted(classgroup._root_tables) == \
        [p for p in range(3, classgroup.ROOT_TABLE_BOUND + 1, 2)
         if is_probable_prime(p) and D % p]


def power_table_layers(D, q):
    """The layer counts m_k(q), k = 1..e, from a power table of all h
    reduced forms: #{f : f^(q^k) = 1} = q^(m_1 + ... + m_k).  A reference
    that shares no step with sylow_layers but the form engine."""
    forms = list(enumerate_reduced(D))
    ident = identity_form(D)
    e, h = 0, len(forms)
    while h % q == 0:
        h //= q
        e += 1
    layers, prev = [], 1
    for k in range(1, e + 1):
        count = sum(1 for f in forms if form_pow(f, q ** k) == ident)
        layers.append(next(j for j in range(e + 1) if q ** j == count // prev))
        prev = count
    return layers


def test_sylow_layers_match_the_power_table():
    # the 5-Sylow span on every fundamental D down to -10,000 with 5 | h
    # (all of 5-rank 1), and on the three of 5-rank 2 down to -20,000.
    # The power table lists its trailing zero layers, the span stops at
    # the exponent
    ranks = []
    for D in [*range(-3, -10001, -1), -11199, -12451, -17944]:
        if not is_fundamental(D):
            continue
        h = class_number(D)
        if h % 5 == 0:
            layers = sylow_layers(D, h, 5)
            assert layers == [m for m in power_table_layers(D, 5) if m], D
            ranks.append(layers[0])
    assert ranks.count(2) == 3 and len(ranks) > 500
    assert sylow_layers(-23, 3, 5) == []
    assert sylow_layers(-50783, 250, 5) == [2, 1]       # C25 x C5


def test_sylow_layers_match_the_power_table_for_every_prime():
    # every Sylow subgroup of every D down to -3,000, fundamental or not:
    # prime forms alone do not span the group at -64, -108, -400, -2832
    for D in [*range(-3, -3001, -1), -12451, -50783]:
        if D % 4 not in (0, 1):
            continue
        h = class_number(D)
        for q in {p for p in range(2, h + 1) if h % p == 0
                  and all(p % r for r in range(2, math.isqrt(p) + 1))}:
            assert sylow_layers(D, h, q) == \
                [m for m in power_table_layers(D, q) if m], (D, q)


def test_sylow_layers_refuse_a_wrong_class_number(monkeypatch):
    from fiverank import classgroup

    with pytest.raises(ValueError):
        sylow_layers(-47, 0, 5)
    # h(-47) = 5: with 25 the reduced forms never span 5^2 classes
    with pytest.raises(IdentityCheckError, match="short of 5\\^2"):
        sylow_layers(-47, 25, 5)
    # h(-143) = 10: the form (2, 1, 18) has order 10, so f^15 != 1
    with pytest.raises(IdentityCheckError, match="order dividing h = 15"):
        sylow_layers(-143, 15, 5)
    # 5-Sylow C25 x C5, h = 250.  With h = 50 the span stops at 5^2 as a
    # rule, but after the form (23, 1, 552), whose image has order 5 and
    # is no fifth power, the one of 2 (image order 25) grows it to 5^3
    D = -50783
    assert sylow_layers(D, 250, 5)[0] == 2
    reduced = classgroup._reduced_triples
    monkeypatch.setattr(classgroup, "_reduced_triples", lambda D: itertools.chain(
        [(23, 1, 552)], reduced(D)))
    with pytest.raises(IdentityCheckError, match="more than 5\\^2"):
        sylow_layers(D, 50, 5)


def full_layer_loop_sylow_layers(D, h, q):
    """sylow_layers as it stood before a span of exactly q classes was
    read as one layer, and before ambiguous forms were passed over and
    layers taken from the generators' powers: the span of the images of
    every reduced form taken, then every layer counted from the q-th
    powers of every class of the span, down to the trivial group."""
    from dataclasses import astuple

    from fiverank import classgroup

    e, m = 0, h
    while m % q == 0:
        m //= q
        e += 1
    order = q ** e
    ident = astuple(identity_form(D))
    span = {ident}
    forms = enumerate_reduced(D)
    while len(span) < order:
        f = next(forms, None)
        if f is None:
            raise IdentityCheckError(f"reduced forms of {D} span too little")
        if f.b < 0 or f.a == 1:
            continue
        g = classgroup._pow((f.a, f.b, f.c), m, D, ident)
        if g in span:
            continue
        if classgroup._pow(g, order, D, ident) != ident:
            raise IdentityCheckError(f"{f} does not have order dividing h = {h}")
        grown, step = set(span), g
        while step not in span:
            grown.update(classgroup._compose(step, s, D) for s in span)
            step = classgroup._compose(step, g, D)
        span = grown
        if len(span) > order:
            raise IdentityCheckError(f"reduced forms of {D} span too much")
    layers = []
    while len(span) > 1:
        powers = {classgroup._pow(g, q, D, ident) for g in span}
        layers.append(classgroup._int_log(len(span) // len(powers), q))
        span = powers
    return layers


def test_sylow_layers_match_the_full_layer_loop():
    # a span of exactly q classes is cyclic of order q, so its layers are
    # [1] with no power taken: against the full layer loop for q = 3, 5, 7
    # on every D down to -20,000, fundamental or not, whose class number
    # q divides.  The cyclic and non-cyclic spans of q^2 classes, and C9 x
    # C3, reach a span of q classes only after a layer of powers
    shapes = {3: set(), 5: set(), 7: set()}
    for D in range(-3, -20001, -1):
        if D % 4 not in (0, 1):
            continue
        h = class_number(D)
        for q in (3, 5, 7):
            if h % q == 0:
                layers = sylow_layers(D, h, q)
                assert layers == full_layer_loop_sylow_layers(D, h, q), (D, q)
                shapes[q].add(tuple(layers))
    assert {(1,), (2,), (1, 1), (2, 1)} <= shapes[3]
    assert {(1,), (2,), (1, 1)} <= shapes[5]
    assert {(1,), (1, 1)} <= shapes[7]


def test_sylow_layers_match_the_full_layer_loop_on_the_decided_grid():
    # the 5-Sylow layers of every decided grid D, against the loop that
    # powers every reduced form it takes and every class of each span
    decided = decided_grid()
    assert len(decided) == 72
    shapes = set()
    for D, h in sorted(decided.items(), reverse=True):
        layers = sylow_layers(D, h, 5)
        assert layers == full_layer_loop_sylow_layers(D, h, 5), D
        shapes.add(tuple(layers))
    assert {(1,), (1, 1), (2,)} <= shapes


def test_sylow_layers_match_the_full_layer_loop_at_oracle_sizes():
    # 40 random fundamental D in [-1e7, -1e5] with 5 | h, then -104503,
    # the first fundamental D below -1e5 of 5-rank 2 (C5 x C5 in h = 150),
    # and -50783 (C25 x C5)
    rng = random.Random(40)
    discs = []
    while len(discs) < 40:
        D = -rng.randrange(10**5, 10**7 + 1)
        if is_fundamental(D) and class_number(D) % 5 == 0:
            discs.append(D)
    shapes = set()
    for D in discs + [-104503, -50783]:
        h = class_number(D)
        layers = sylow_layers(D, h, 5)
        assert layers == full_layer_loop_sylow_layers(D, h, 5), D
        shapes.add(tuple(layers))
    assert any(len(s) > 1 for s in shapes)                # e >= 2
    assert (2,) in shapes and (2, 1) in shapes            # 5-rank 2


def ambiguous(f):
    a, b, c = f
    return b == 0 or b == a or a == c


def test_sylow_layers_power_no_ambiguous_form_and_each_generator_once(monkeypatch):
    # at an odd q an ambiguous form (its own inverse) is passed over, not
    # raised to m; the order-checked images are the generators, and each
    # layer takes one q-th power per generator kept by the layer before,
    # never one per class
    from fiverank import classgroup

    calls, taken = [], []
    power = classgroup._pow

    def spy(f, n, D, ident):
        out = power(f, n, D, ident)
        calls.append((f, n, out))
        return out

    reduced = classgroup._reduced_triples

    def listed(D):
        for f in reduced(D):
            taken.append(f)
            yield f

    monkeypatch.setattr(classgroup, "_pow", spy)
    monkeypatch.setattr(classgroup, "_reduced_triples", listed)
    cases = [(D, h, 5) for D, h in sorted(decided_grid().items())]
    # C49, C9 x C3, C3 x C3, C5 x C5 twice and C25 x C5
    cases += [(D, class_number(D), q) for D in (-1511, -3299, -4027, -11199, -12451, -50783)
              for q in (3, 5, 7) if class_number(D) % q == 0]
    skipped = powers_taken = classes_powered = 0
    for D, h, q in cases:
        calls.clear()
        taken.clear()
        layers = sylow_layers(D, h, q)
        e, m = 0, h
        while m % q == 0:
            m //= q
            e += 1
        ident = (1, D % 2, (D % 2 - D) // 4)
        # images f^m, order checks g^(q^e), and at e > 1 the layer powers
        images = [f for f, n, _ in calls if n == m]
        gens = [g for g, n, _ in calls if n == q ** e]
        steps = [(g, out) for g, n, out in calls if n == q] if e > 1 else []
        assert len(calls) == len(images) + len(gens) + len(steps), (D, q)
        assert not any(ambiguous(f) for f in images), (D, q)
        skipped += sum(1 for f in taken if f[0] > 1 and f[1] >= 0 and ambiguous(f))
        powers_taken += len(steps)
        kept, rounds = gens, 0
        while steps:
            step, steps = steps[:len(kept)], steps[len(kept):]
            assert [g for g, _ in step] == kept, (D, q, rounds)
            span, kept = {ident}, []
            for _, g in step:
                if g not in span:
                    span = classgroup._grow(span, g, D)
                    kept.append(g)
            rounds += 1
        assert rounds in (len(layers) - 1, len(layers)), (D, q)
        # the parent loop powered every class of each span of more than q
        classes_powered += sum(q ** sum(layers[k:]) for k in range(len(layers))
                               if sum(layers[k:]) > 1)
    assert skipped > 100
    assert 0 < 10 * powers_taken < classes_powered


def test_sylow_layers_refuse_an_odd_h_at_an_ambiguous_form(monkeypatch):
    # h(-296) = 10, and its first reduced form past the principal one,
    # (2, 0, 37), has order 2: with h = 5 it fails the order check on its
    # own, before any power is taken
    from fiverank import classgroup

    calls = []
    power = classgroup._pow
    monkeypatch.setattr(classgroup, "_pow", lambda *args: calls.append(args) or power(*args))
    # a form with b = 0 stays in the stream that sylow_layers walks
    assert next(classgroup._reduced_triples(-296)) == (2, 0, 37)
    with pytest.raises(IdentityCheckError,
                       match=r"BinaryQuadraticForm\(a=2, b=0, c=37\) does not have "
                             r"order dividing h = 5$"):
        sylow_layers(-296, 5, 5)
    assert calls == []
    assert sylow_layers(-296, 10, 5) == [1]


def test_group_law_properties_random_discriminants():
    rng = random.Random(5)
    tried = 0
    while tried < 20:
        D = -rng.randrange(3, 10**5)
        if D % 4 not in (0, 1):
            continue
        tried += 1
        forms = list(enumerate_reduced(D))
        e = identity_form(D)
        sample = forms if len(forms) <= 6 else rng.sample(forms, 6)
        for f in sample:
            assert compose(f, e) == f
            assert compose(f, f.inverse()) == e
        for _ in range(6):
            a, b, c = (rng.choice(forms) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, b) == compose(b, a)


def test_group_structure_golden():
    assert group_structure(-23).invariant_factors == (3,)
    assert group_structure(-47).invariant_factors == (5,)
    assert group_structure(-4).invariant_factors == ()
    assert group_structure(-47).p_rank(5) == 1
    assert group_structure(-47).p_rank(3) == 0
    assert group_structure(-4).p_rank(7) == 0


def test_group_structure_noncyclic():
    # h(-84) = 4 with group C2 x C2 (three ambiguous classes)
    st = group_structure(-84)
    assert st.class_number == 4
    assert st.invariant_factors == (2, 2)
    assert st.p_rank(2) == 2


def test_group_structure_matches_order_count():
    rng = random.Random(17)
    tried = 0
    while tried < 8:
        D = -rng.randrange(3, 3 * 10**4)
        if D % 4 not in (0, 1):
            continue
        tried += 1
        st = group_structure(D)
        forms = list(enumerate_reduced(D))
        for p in (2, 3, 5):
            ident = identity_form(D)
            count = sum(1 for f in forms if form_pow(f, p) == ident)
            # p-torsion subgroup has order p^(p-rank)
            assert count == p ** st.p_rank(p)
        assert len(forms) == st.class_number


def test_group_structure_counts_n_torsion():
    # independent of the layer counts: a group with invariant factors d_i
    # has prod gcd(n, d_i) elements with f^n = 1.  Element orders come from
    # walking the cyclic subgroups, on every fundamental D down to -5,000
    noncyclic = 0
    for D in filter(is_fundamental, range(-3, -5001, -1)):
        forms = list(enumerate_reduced(D))
        ident = identity_form(D)
        orders = {}
        for f in forms:
            if f in orders:
                continue
            powers = [f]
            while powers[-1] != ident:
                powers.append(compose(powers[-1], f))
            k = len(powers)
            for j, g in enumerate(powers, 1):
                orders.setdefault(g, k // math.gcd(j, k))
        st = group_structure(D)
        h = st.class_number
        assert h == len(orders) == len(forms)
        noncyclic += len(st.invariant_factors) > 1
        for n in range(1, h + 1):
            if h % n == 0:
                assert sum(1 for o in orders.values() if n % o == 0) == \
                    math.prod(math.gcd(n, d) for d in st.invariant_factors), (D, n)
    assert noncyclic


def test_group_structure_budget():
    with pytest.raises(OutOfBudgetError):
        group_structure(-(10**7 + 7) * 4, disc_bound=10**7)


def test_fundamental_discriminant():
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-478363) in (-478363, -478363 * 4)


def kronecker(D, n):
    """Kronecker symbol (D/n) for n >= 1, as an independent oracle."""
    from fiverank.exact import jacobi
    if n == 0:
        return 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    return result * jacobi(D, n) if n > 1 else result


def test_class_number_matches_dirichlet_formula():
    # for fundamental D < -4: h(D) = |sum a*chi_D(a)| / |D| with unit count 2
    from fiverank.exact import squarefree_part
    rng = random.Random(31)
    checked = 0
    while checked < 12:
        s = -rng.randrange(5, 6000)
        sf, complete = squarefree_part(s, 10**6)
        if not complete:
            continue
        D = fundamental_discriminant(sf)
        if D >= -4:
            continue
        checked += 1
        total = sum(a * kronecker(D, a) for a in range(1, -D))
        assert class_number(D) == abs(total) // (-D), D


def test_class_number_matches_dirichlet_formula_on_the_decided_grid():
    # every discriminant that the default oracle grid decides with
    # |D| <= 1e6 (36 of its 72), against Dirichlet's formula with chi
    # computed multiplicatively along a sieve; the CI runs all 72
    decided = decided_grid()
    assert len(decided) == 72
    small = sorted((D for D in decided if -D <= 10**6), reverse=True)
    assert len(small) == 36
    check_dirichlet(small, decided)


# the (u, x, l) of the grid's rank-1 passes whose quintic verdict at a
# split prime l < 400 raises RamifiedPrimeError: l divides the quintic's
# discriminant or leading coefficient, so the pair says nothing
ARTIN_RAMIFIED_PAIRS = {
    ("-3/2", "-14", 3), ("-3/2", "-17/2", 5), ("-3/2", "-2/3", 5),
    ("-3/2", "-26/3", 7), ("-3/2", "-3", 5), ("-3/2", "-39", 5), ("-3/2", "-9", 5),
    ("-3/2", "16", 5), ("-3/2", "17", 5), ("-3/2", "17", 37), ("-3/2", "24", 7),
    ("-3/2", "52/3", 47), ("-3/2", "53/3", 67), ("-3/2", "57", 5), ("-3/2", "57", 19),
    ("-3/2", "7/2", 5), ("2/3", "-1/2", 5), ("2/3", "-11/3", 19), ("2/3", "-14", 23),
    ("2/3", "-26", 13), ("2/3", "-4", 5), ("2/3", "-4/3", 5), ("2/3", "-41/3", 71),
    ("2/3", "-47/3", 5), ("2/3", "-51", 53), ("2/3", "-52/3", 5), ("2/3", "1/3", 5),
    ("2/3", "11/3", 5), ("2/3", "13/3", 5), ("2/3", "17/2", 5), ("2/3", "32/3", 7),
    ("2/3", "41/3", 5), ("2/3", "41/3", 71), ("2/3", "7/2", 5),
}


def test_frobenius_verdicts_match_the_artin_map_on_the_grid():
    # every rank-1 pass of the grid at every odd prime l < 400 split in K
    # with l not dividing D: the quintic's verdict equals f^(h/5) = 1 for
    # the prime form f of l on all 2,966 pairs; the 34 ramified pairs are
    # left out, by name.  The CI runs l < 20,000
    from artin_check import check_grid

    total, each = check_grid(400)
    assert len(each) == 80
    assert total.disagreed == [] and total.impossible == []
    assert total.agreed == 2966
    assert {(str(u), str(x), l) for u, x, _, l in total.ramified} == ARTIN_RAMIFIED_PAIRS
    assert len(total.ramified) == len(ARTIN_RAMIFIED_PAIRS)


def test_artin_check_refuses_the_verdicts_of_a_wrong_abscissa():
    # the negative control: the quintic of x + 1 defines another extension
    # of the same K, so on every instance some split prime's verdict
    # disagrees with the Artin map of K's class group, or has a profile
    # no cyclic quintic has
    from artin_check import check_grid

    total, each = check_grid(400, shift=1)
    assert len(each) == 80
    assert all(t.disagreed or t.impossible for t in each)
    assert len(total.disagreed) > 300 and len(total.impossible) > 1000


def test_rank_two_passes_match_the_artin_map_on_one_line():
    # the grid's two passes of 5-rank 2, 5-Sylow subgroup (Z/5)^2, at every
    # odd prime l < 400 split in K with l not dividing D: the images
    # f^(h/25) of the split primes' prime forms span one subgroup of order
    # 5, and no inert prime's image lies in it.  The CI runs l < 20,000
    from artin_check import check_rank_two, grid_passes

    passes = grid_passes(2)
    assert [(str(o.u), str(o.x), o.fundamental_d, o.class_number) for o in passes] == [
        ("2/3", "23/3", -7284660, 800), ("-3/2", "-34", -17944, 50)]
    tallies = [check_rank_two(o, 400) for o in passes]
    assert all(t.holds() for t in tallies)
    assert [(len(t.split), len(t.inert), t.span, [l for *_, l in t.ramified])
            for t in tallies] == [(5, 29, 5, []), (4, 36, 5, [5])]


def test_rank_two_check_refuses_the_verdicts_of_a_wrong_abscissa():
    # x + 1: the split images span all 25 classes, inert images fall
    # inside, and some profiles are no cyclic quintic's
    from artin_check import check_rank_two, grid_passes

    tallies = [check_rank_two(o, 400, shift=1) for o in grid_passes(2)]
    assert not any(t.holds() for t in tallies)
    assert [(t.span, len(t.inside), len(t.impossible)) for t in tallies] == [
        (25, 15, 13), (25, 18, 18)]


def test_class_number_matches_dirichlet_formula_on_random_discriminants():
    # fundamental and non-fundamental D = D0 f^2, the latter by Cox,
    # Theorem 7.24, from h(D0): f up to 60, D0 = -3 and -4 among them
    from class_number_formula import dirichlet_class_number, fundamental_part

    rng = random.Random(6)
    fundamental = [-3, -4]
    while len(fundamental) < 24:
        D = -rng.randrange(5, 4 * 10**5)
        if is_fundamental(D):
            fundamental.append(D)
    discs = fundamental + [-3 * 49, -4 * 25, -3 * 60 ** 2, -4 * 36 ** 2]
    while len(discs) < 60:
        f = rng.choice((2, 3, 4, 5, 6, 7, 10, 12, 15, 30, 60))
        D = -f * f * rng.randrange(3, 4 * 10**5 // (f * f))
        if D % 4 in (0, 1):
            discs.append(D)
    assert all(fundamental_part(D) == (D, 1) for D in fundamental)
    assert all(fundamental_part(D)[1] > 1 for D in discs[24:])
    for D in discs:
        assert class_number(D) == dirichlet_class_number(D), D


# -------------------------------------- the triple engine and its reference

def reference_reduce_form(f):
    """reduce_form as the dataclass engine had it, before the engine
    worked on (a, b, c) triples: the reference of the tests below."""
    a, b, c = f.a, f.b, f.c
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
            continue
        if b < 0 and (b == -a or a == c):
            b = -b
            continue
        return BinaryQuadraticForm(a, b, c)


def reference_xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def reference_compose(f, g):
    """compose as the dataclass engine had it."""
    D = f.discriminant()
    if g.discriminant() != D:
        raise ValueError("forms have different discriminants")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    if a1 == 1:
        return reference_reduce_form(g)
    if a2 == 1:
        return reference_reduce_form(f)
    s = (b1 + b2) // 2
    d1, u1, v1 = reference_xgcd(a1, a2)
    d, u2, v2 = reference_xgcd(d1, s)
    a3 = (a1 * a2) // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return reference_reduce_form(BinaryQuadraticForm(a3, b3, c3))


def reference_form_pow(f, n):
    """form_pow as the dataclass engine had it."""
    D = f.discriminant()
    if n < 0:
        return reference_form_pow(f.inverse(), -n)
    out = identity_form(D)
    base = reference_reduce_form(f)
    while n:
        if n & 1:
            out = reference_compose(out, base)
        base = reference_compose(base, base)
        n >>= 1
    return out


def triple(f):
    return f.a, f.b, f.c


@pytest.fixture
def xgcd_calls(monkeypatch):
    """The extended-gcd steps of the engine, in the order taken: _compose
    takes two for a pair f != g with gcd(a1, a2) > 1, one for a square f =
    g with gcd(a, b) > 1, and none for a coprime pair or a square with
    gcd(a, b) = 1, which take one builtin inverse."""
    from fiverank import classgroup

    calls, xgcd = [], classgroup._xgcd

    def spy(a, b):
        calls.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(classgroup, "_xgcd", spy)
    return calls


def branch_counts(pairs):
    """(coprime, coprime squares, the rest, the squares among the rest)
    among the pairs that neither has a = 1: gcd(a1, a2) = 1; f = g with
    gcd(a, b) = 1; the pairs left, which alone take extended-gcd steps,
    two each but one for a square."""
    both = [(f, g) for f, g in pairs if f.a > 1 and g.a > 1]
    coprime = sum(math.gcd(f.a, g.a) == 1 for f, g in both)
    squares = sum(f == g and math.gcd(f.a, f.b) == 1 for f, g in both)
    shared_squares = sum(f == g and math.gcd(f.a, f.b) > 1 for f, g in both)
    return coprime, squares, len(both) - coprime - squares, shared_squares


def test_triple_composition_matches_the_reference_on_every_small_discriminant(xgcd_calls):
    from fiverank.classgroup import _compose

    pairs = []
    for D in range(-3, -1001, -1):
        if D % 4 not in (0, 1):
            continue
        forms = list(enumerate_reduced(D))
        for f in forms:
            for g in forms:
                assert _compose(triple(f), triple(g), D) == \
                    triple(reference_compose(f, g)), (D, f, g)
                pairs.append((f, g))
    assert len(pairs) > 10_000
    coprime, squares, shared, shared_squares = branch_counts(pairs)
    assert coprime > 1000 and squares > 1000 and shared > 1000 and shared_squares > 100
    assert len(xgcd_calls) == 2 * shared - shared_squares


def test_triple_composition_matches_the_reference_on_random_pairs(xgcd_calls):
    # random pairs, and as many again with gcd(a1, a2) > 1, also among
    # the forms with a <= 300 of a discriminant of the oracle's size
    from fiverank.classgroup import _compose

    rng = random.Random(2000)
    pairs = []
    for D in (-12451, -50783, -9910552):
        forms = list(itertools.takewhile(lambda f: f.a <= 300, enumerate_reduced(D)))
        shared = [(f, g) for f in forms for g in forms if math.gcd(f.a, g.a) > 1]
        for f, g in [(rng.choice(forms), rng.choice(forms)) for _ in range(2000)] + \
                rng.choices(shared, k=2000):
            assert _compose(triple(f), triple(g), D) == \
                triple(reference_compose(f, g)), (D, f, g)
            pairs.append((f, g))
    coprime, squares, shared, shared_squares = branch_counts(pairs)
    assert coprime > 2000 and shared > 6000
    assert len(xgcd_calls) == 2 * shared - shared_squares


def parent_compose(f, g, D):
    """_compose on triples as it stood before its squaring case: a square
    went through the extended-gcd branch, since gcd(a, a) = a > 1."""
    (a1, b1, c1), (a2, b2, c2) = f, g
    if a1 == 1:
        return triple(reference_reduce_form(BinaryQuadraticForm(*g)))
    if a2 == 1:
        return triple(reference_reduce_form(BinaryQuadraticForm(*f)))
    if math.gcd(a1, a2) == 1:
        a3 = a1 * a2
        b3 = b1 + 2 * a1 * ((b2 - b1) // 2 * pow(a1, -1, a2) % a2)
    else:
        s = (b1 + b2) // 2
        d1, u1, v1 = reference_xgcd(a1, a2)
        d, u2, v2 = reference_xgcd(d1, s)
        a3 = (a1 * a2) // (d * d)
        b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    return triple(reference_reduce_form(
        BinaryQuadraticForm(a3, b3, (b3 * b3 - D) // (4 * a3))))


def test_squares_match_the_parent_composition(xgcd_calls):
    # f * f against the parent's _compose on random reduced forms, and on
    # forms moved off them, of random D up to 1e7, fundamental or not (D =
    # D0 t^2): the coprime squares take no extended-gcd step, the squares
    # with gcd(a, b) > 1 take one, a = 1 takes none
    from fiverank.classgroup import _compose

    rng = random.Random(31)
    discs = []
    while len(discs) < 40:
        D = -rng.randrange(3, 10 ** rng.randrange(3, 8))
        if D % 4 in (0, 1):
            discs.append(D)
    discs += [D * t * t for D, t in zip(discs[:20], itertools.cycle((2, 3, 5, 6, 10)))]
    squares = []
    for D in discs:
        forms = list(itertools.takewhile(lambda f: f.a <= 300, enumerate_reduced(D)))
        sample = forms[:3] + rng.sample(forms, min(len(forms), 30))
        squares += [(triple(f), D) for f in sample]
        squares += [(triple(moved(f, rng)), D) for f in rng.sample(sample, min(len(sample), 10))]
    coprime = shared = 0
    for f, D in squares:
        assert _compose(f, f, D) == parent_compose(f, f, D), (f, D)
        if f[0] > 1:
            coprime += math.gcd(f[0], f[1]) == 1
            shared += math.gcd(f[0], f[1]) > 1
    assert sum(f[0] == 1 for f, _ in squares) >= len(discs)
    assert coprime > 1000 and shared > 500
    assert len(xgcd_calls) == shared


def test_form_pow_is_repeated_composition():
    # the binary powering of form_pow, which squares, against n - 1
    # products f * f^k for n <= 40, on forms of several D
    rng = random.Random(41)
    for D in (-23, -47, -84, -296, -2832, -12451, -50783, -104503, -9910552):
        forms = list(itertools.takewhile(lambda f: f.a <= 500, enumerate_reduced(D)))
        for f in forms[:2] + rng.sample(forms, min(len(forms), 6)):
            out = identity_form(D)
            for n in range(41):
                assert form_pow(f, n) == out, (f, n)
                out = compose(out, f)


def moved(f, rng):
    """A form of the class of f, moved off the reduced one by random
    steps x -> x + t y and (x, y) -> (-y, x) of SL2(Z)."""
    a, b, c = triple(f)
    for _ in range(rng.randrange(1, 4)):
        t = rng.randrange(-4, 5)
        a, b, c = c + b * t + a * t * t, -(b + 2 * a * t), a
    return BinaryQuadraticForm(a, b, c)


def test_public_wrappers_match_the_reference_on_unreduced_forms():
    rng = random.Random(7)
    unreduced = 0
    for D in (-23, -47, -84, -143, -2832, -12451, -50783):
        forms = list(enumerate_reduced(D))
        for _ in range(40):
            f, g = moved(rng.choice(forms), rng), moved(rng.choice(forms), rng)
            unreduced += reduce_form(f) != f
            assert reduce_form(f) == reference_reduce_form(f), f
            assert compose(f, g) == reference_compose(f, g), (f, g)
            for n in (-3, -1, 0, 1, 2, 5, 12):
                assert form_pow(f, n) == reference_form_pow(f, n), (f, n)
    assert unreduced > 200


def unchecked_form(a, b, c):
    """A BinaryQuadraticForm that skipped its validation."""
    f = object.__new__(BinaryQuadraticForm)
    for name, value in zip("abc", (a, b, c)):
        object.__setattr__(f, name, value)
    return f


def same_outcome(ours, reference, *args):
    """Whether ours(*args) raised ValueError, after checking that it
    raises exactly where reference(*args) does and returns the same
    otherwise."""
    try:
        expected = reference(*args)
    except ValueError:
        with pytest.raises(ValueError):
            ours(*args)
        return True
    assert ours(*args) == expected, args
    return False


def test_public_wrappers_refuse_what_the_reference_refuses():
    with pytest.raises(ValueError, match="different discriminants"):
        compose(BinaryQuadraticForm(2, 1, 3), identity_form(-47))
    # imprimitive forms that skipped validation
    refused = 0
    for bad in (unchecked_form(2, 2, 4), unchecked_form(3, 3, 6), unchecked_form(4, 0, 4)):
        assert same_outcome(reduce_form, reference_reduce_form, bad)
        for g in [bad, *enumerate_reduced(bad.discriminant())]:
            refused += same_outcome(compose, reference_compose, bad, g)
            refused += same_outcome(compose, reference_compose, g, bad)
        for n in (0, 1, 2, 3):
            refused += same_outcome(form_pow, reference_form_pow, bad, n)
    assert refused > 10


def test_triple_composition_checks_its_product(monkeypatch, xgcd_calls):
    # the public wrappers build a BinaryQuadraticForm, which validates it;
    # inside the engine _compose itself refuses an imprimitive product and
    # one of another discriminant, with a = 1 on one side, with coprime a
    # (4 and 3) and with a sharing a factor (2 and 4, 4 and 4)
    from fiverank import classgroup

    for f, g, D in (((2, 2, 4), (1, 0, 7), -28), ((1, 0, 7), (2, 2, 4), -28),
                    ((4, 2, 4), (3, 0, 5), -60), ((2, 1, 3), (1, 1, 12), -47),
                    ((2, 2, 8), (4, 2, 4), -60), ((4, 2, 4), (4, 2, 4), -60)):
        with pytest.raises(ValueError, match=f"form of {D}$"):
            classgroup._compose(f, g, D)
    assert len(xgcd_calls) == 3
    # a reduction that drifts off the discriminant, on every branch: a
    # coprime pair, two coprime squares and a pair sharing a = 2
    reduce = classgroup._reduce
    monkeypatch.setattr(classgroup, "_reduce",
                        lambda a, b, c: (lambda a, b, c: (a, b, c + 1))(*reduce(a, b, c)))
    for f, g in (((2, 1, 6), (3, 1, 4)), ((2, 1, 6), (2, 1, 6)), ((3, -1, 4), (3, -1, 4)),
                 ((2, 1, 6), (2, -1, 6))):
        with pytest.raises(ValueError, match="form of -47$"):
            classgroup._compose(f, g, -47)
    assert len(xgcd_calls) == 5


# a wrong b3 on each branch of _compose: an inverse negated (a coprime
# pair) or off by one (a coprime square), a Bezout coefficient off by one
# (a pair sharing a factor of a, and a square with gcd(a, b) > 1).  The
# first three made the reduction of the floored (a3, b3, c3) run forever
WRONG_B3 = """
import builtins
from fiverank import classgroup

pow_, xgcd = builtins.pow, classgroup._xgcd
negated = lambda x, e, m: -pow_(x, e, m) % m
plus_one = lambda x, e, m: (pow_(x, e, m) + 1) % m
u_plus_one = lambda a, b: (lambda d, u, v: (d, u + 1, v))(*xgcd(a, b))
for name, wrong, f, g, D in (
        ("pow", negated, (121, -101, 126), (114, -55, 118), -50783),
        ("pow", plus_one, (126, -115, 127), (126, -115, 127), -50783),
        ("_xgcd", u_plus_one, (114, 55, 118), (116, 111, 136), -50783),
        ("_xgcd", u_plus_one, (56, 35, 472), (56, 35, 472), -104503)):
    setattr(classgroup, name, wrong)
    try:
        print(classgroup._compose(f, g, D), flush=True)
    except ValueError as exc:
        print(type(exc).__name__, exc, flush=True)
    setattr(classgroup, name, {"pow": pow_, "_xgcd": xgcd}[name])
"""


def test_triple_composition_refuses_a_wrong_b3_before_reducing():
    # c3 = (b3^2 - D) / 4 a3 must be exact before the reduction runs; in a
    # subprocess under a timeout, so that a reduction that never ends
    # fails the test instead of hanging it
    import subprocess

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", WRONG_B3], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    assert len(lines) == 4, out
    for line, D in zip(lines, (-50783, -50783, -50783, -104503)):
        assert line.startswith("ValueError (") and \
            line.endswith(f") has no integral c of discriminant {D}"), line


def test_decided_grid_composes_no_identity_and_squares_in_one_step(monkeypatch, xgcd_calls):
    # a spy on _compose over one pass of the oracle grid: no composition
    # takes the identity (a = 1) as an operand, and each square takes at
    # most one extended-gcd step
    from fiverank import classgroup

    composed = []
    real = classgroup._compose

    def spy(f, g, D):
        before = len(xgcd_calls)
        out = real(f, g, D)
        composed.append((f, g, len(xgcd_calls) - before))
        return out

    monkeypatch.setattr(classgroup, "_compose", spy)
    decided = [o for o in oracle_scan(100_000) if o.status != "skip"]
    assert len(decided) == 82
    squares = [(f, steps) for f, g, steps in composed if f == g]
    assert len(composed) > 1000 and len(squares) > 500
    assert not [(f, g) for f, g, _ in composed if f[0] == 1 or g[0] == 1]
    assert max(steps for _, steps in squares) == 1
    assert sum(steps for _, steps in squares) == \
        sum(math.gcd(f[0], f[1]) > 1 for f, _ in squares) > 100


def test_sylow_layers_check_every_composed_triple(monkeypatch):
    # a reduction that drifts off the discriminant is refused by the check
    # that composition makes on its product, not carried into the span
    from fiverank import classgroup

    reduce = classgroup._reduce
    monkeypatch.setattr(classgroup, "_reduce",
                        lambda a, b, c: (lambda a, b, c: (a, b, c + 1))(*reduce(a, b, c)))
    for D, h in ((-47, 5), (-50783, 250)):
        with pytest.raises(ValueError, match=f"form of {D}$"):
            sylow_layers(D, h, 5)


def test_class_number_does_not_depend_on_the_order_of_calls(monkeypatch):
    # the smallest-prime-factor table and the root tables are shared by
    # every D and grow on demand: each count must be the same whatever
    # tables it finds
    from fiverank import classgroup

    rng = random.Random(60)
    discs = [-3, -4, -2832]
    while len(discs) < 63:
        D = -rng.randrange(3, 10**7 + 1)
        if D % 4 in (0, 1) and D not in discs:
            discs.append(D)
    fresh = {}
    for D in discs:
        monkeypatch.setattr(classgroup, "_factor_tables", ([], [], [], bytearray()))
        monkeypatch.setattr(classgroup, "_root_tables", {})
        fresh[D] = class_number(D)
    shuffled = rng.sample(discs, len(discs))
    for order in (sorted(discs), sorted(discs, reverse=True), shuffled):
        monkeypatch.setattr(classgroup, "_factor_tables", ([], [], [], bytearray()))
        monkeypatch.setattr(classgroup, "_root_tables", {})
        assert {D: class_number(D) for D in order} == fresh
    spf, primes, rest, omega = classgroup._factor_tables
    assert len(spf) == len(rest) == len(omega) > math.isqrt(max(-D for D in discs) // 3)
    assert primes == [p for p in range(2, len(spf)) if spf[p] == p]
    assert all(spf[k] == min(p for p in range(2, k + 1) if k % p == 0)
               for k in range(2, len(spf), 7))
    assert all(omega[k] == sum(1 for p in primes if k % p == 0)
               for k in range(2, len(spf), 7))
    assert fresh[-3] == fresh[-4] == 1 and fresh[-2832] == enumerated_count(-2832)


def test_factor_tables_stay_in_step_when_swapped_and_restored(monkeypatch):
    # the smallest-prime-factor table, the prime list, rest and omega are
    # one tuple, replaced whole: growing it while it is swapped out and
    # putting the old one back leaves all four of one length, so a later
    # count that needs more than either grows them together
    from fiverank import classgroup

    class_number(-16850634072)
    monkeypatch.setattr(classgroup, "_factor_tables", ([], [], [], bytearray()))
    class_number(-10**7)
    monkeypatch.undo()
    spf, primes, rest, omega = classgroup._factor_tables
    assert len(spf) == len(rest) == len(omega) > math.isqrt(16850634072 // 3)
    assert primes == [p for p in range(2, len(spf)) if spf[p] == p]
    D = -300000004
    assert class_number(D) == reference_class_number(D)


# ------------------------------------------------------------------ oracle

def test_oracle_requires_congruence():
    # 1/5 has no residue mod 5, 2 is not +-1 mod 5, 4/3 = 3 mod 5.  The
    # congruence is found once per u with the other facts of u, but a
    # refusal is never stored: each call with such a u raises again
    from fiverank import classgroup

    before = classgroup._oracle_curve.cache_info().currsize
    for u in (F(1, 5), F(2), F(4, 3)):
        for _ in range(2):
            with pytest.raises(ValueError, match="u must be \\+-1 mod 5"):
                small_instance_oracle(u, F(1))
    assert classgroup._oracle_curve.cache_info().currsize == before
    # 3/7 = 3 * 3 = -1 mod 5 passes the congruence
    assert small_instance_oracle(F(3, 7), F(1)).status == "skip"


def test_integer_radicand_matches_the_cubic_model():
    # the radicand from the integer form of _oracle_curve equals
    # CubicModel.rhs: on every scan curve that sets up at every grid x, on
    # seeded x = n/d with long n and d, with d sharing primes with the
    # scale s, and at the 2-torsion abscissas, where it is 0
    from fiverank import classgroup
    from fiverank.family import quotient_model

    rng = random.Random(24)
    grid = [F(num, den) for num in range(-classgroup.SCAN_X_RANGE, classgroup.SCAN_X_RANGE + 1)
            for den in (1, 2, 3) if math.gcd(abs(num), den) == 1]
    set_up, shared, torsion = 0, 0, 0
    for u in SCAN_U:
        try:
            F_model, _, g, scale = classgroup._oracle_curve(u.numerator, u.denominator)
        except FiverankError:
            continue
        set_up += 1
        assert scale > 0 and all(type(c) is int for c in g)
        assert [F(c, scale) for c in g] == [F_model.poly[i] for i in range(4)], u
        scale_primes = [p for p in range(2, 200) if scale % p == 0 and is_probable_prime(p)]
        xs = list(grid)
        for _ in range(60):
            n = rng.choice((1, -1)) * rng.randrange(1, 10**40)
            xs.append(F(n, rng.randrange(1, 10**25)))
            if scale_primes:
                d = math.prod(rng.choice(scale_primes) ** rng.randrange(1, 8)
                              for _ in range(3)) * rng.randrange(1, 10**6)
                xs.append(F(n, d))
        # g_u = (x^2 - u(u^2 + u - 1)) h_u with h_u linear
        _, h = quotient_model(u)
        roots = [-h[0] / h[1]]
        A = u * (u * u + u - 1)
        if A >= 0 and math.isqrt(A.numerator) ** 2 == A.numerator \
                and math.isqrt(A.denominator) ** 2 == A.denominator:
            root = F(math.isqrt(A.numerator), math.isqrt(A.denominator))
            roots += [root, -root]
        for x in roots:
            assert classgroup._radicand(g, scale, x) == 0 == F_model.rhs(x), (u, x)
            torsion += 1
        for x in xs:
            r = classgroup._radicand(g, scale, x)
            assert type(r) is F and r == F_model.rhs(x), (u, x)
            shared += math.gcd(x.denominator, scale) > 1
    assert set_up >= 20 and shared > 100 and torsion >= set_up


def test_scan_grid_is_plus_minus_one_mod_5():
    # oracle_scan has no filter of its own: small_instance_oracle must
    # accept every grid parameter
    for u in SCAN_U:
        assert u.denominator % 5, u
        assert u.numerator * pow(u.denominator, -1, 5) % 5 in (1, 4), u


def test_oracle_pass_instance():
    out = small_instance_oracle(F(2, 3), F(1))
    assert out.status == "pass"
    assert out.fundamental_d == -120660
    assert out.class_number == 80
    assert out.five_rank >= 1
    assert out.witness_prime is not None


def test_oracle_skip_real_field():
    out = small_instance_oracle(F(2, 3), F(0))
    assert out.status == "skip" and "real" in out.reason


def test_oracle_skip_over_budget():
    out = small_instance_oracle(F(2, 3), F(7))
    assert out.status == "skip" and "over budget" in out.reason


def test_oracle_skip_node_hit():
    # every 19-integral abscissa reduces onto the node for this parameter
    out = small_instance_oracle(F(4), F(1))
    assert out.status == "skip" and "extension" in out.reason


def test_oracle_scan_five_instances_all_pass():
    decided = [o for o in oracle_scan(5) if o.status != "skip"]
    assert len(decided) == 5
    assert all(o.status == "pass" for o in decided)
    assert all(o.class_number % 5 == 0 for o in decided)


def test_oracle_json_shape():
    out = small_instance_oracle(F(2, 3), F(1))
    data = out.to_json()
    assert data["record"] == "oracle-outcome"
    assert data["status"] == "pass"
    assert isinstance(data["class_number"], str)


def test_oracle_scan_count_zero_yields_nothing():
    assert list(oracle_scan(0)) == []


def test_oracle_scan_deterministic():
    first = [o.to_json() for o in oracle_scan(3)]
    second = [o.to_json() for o in oracle_scan(3)]
    assert first == second


def test_oracle_scan_lets_programming_errors_through(monkeypatch):
    # only FiverankError from the curve setup means "skip this u"
    from fiverank import classgroup

    def broken(u):
        raise TypeError("bug in the setup")

    monkeypatch.setattr(classgroup, "_single_curve_setup", broken)
    with pytest.raises(TypeError, match="bug in the setup"):
        list(oracle_scan(1))


def test_oracle_scan_lets_value_errors_through(monkeypatch):
    # every u of the scan grid is +-1 mod 5, so a ValueError from inside
    # the oracle is a bug and must not be swallowed by the scan
    from fiverank import classgroup

    def broken(data, x):
        raise ValueError("bug in the oracle")

    monkeypatch.setattr(classgroup, "singular_avoidance_passes", broken)
    with pytest.raises(ValueError, match="bug in the oracle"):
        list(oracle_scan(1))


def test_oracle_scan_computes_each_fact_once(monkeypatch):
    # one class number count and one lazy enumeration per decided
    # discriminant, stopped once the 5-Sylow span is full, and no power
    # table; no semistability check in the curve setup: the quotient's
    # reduction data rules out additive reduction, and the isogenous
    # domain curve has the same conductor
    from fiverank import classgroup, curves

    calls = {"class_number": 0, "_reduced_triples": 0, "group_structure": 0,
             "is_semistable": 0, "forms taken": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("class_number", "group_structure"):
        monkeypatch.setattr(classgroup, name, counted(classgroup, name))
    reduced = classgroup._reduced_triples

    def taken(D):
        calls["_reduced_triples"] += 1
        for f in reduced(D):
            calls["forms taken"] += 1
            yield f

    monkeypatch.setattr(classgroup, "_reduced_triples", taken)
    monkeypatch.setattr(curves, "is_semistable", counted(curves, "is_semistable"))
    # a binding imported into classgroup would be counted too
    monkeypatch.setattr(classgroup, "is_semistable", curves.is_semistable,
                        raising=False)
    classgroup._single_curve_setup.cache_clear()
    decided = [o for o in oracle_scan(20) if o.status != "skip"]
    assert len(decided) == 20
    assert calls["class_number"] == calls["_reduced_triples"] == len(decided)
    assert calls["group_structure"] == 0
    assert calls["forms taken"] < sum(o.class_number for o in decided) // 10
    for u in (F(-3, 2), F(4), F(6, 7), F(-11)):     # the scan needs one u
        classgroup._single_curve_setup(u)
    assert classgroup._single_curve_setup.cache_info().currsize == 5
    assert calls["is_semistable"] == 0


def test_scan_parameter_facts_pinned():
    # one pinned line per u (tests/pins.py)
    assert PINS["scan-facts"].count == len(SCAN_U)


def _builds_per_u(built, us):
    """How many of the Velu builds in `built` start from each u's family
    curve, for the u of `us` with at least one."""
    from fiverank.family import kubert_curve

    domains = {kubert_curve(u).curve(): u for u in us}
    counts = {}
    for E in built:
        counts[domains[E]] = counts.get(domains[E], 0) + 1
    return counts


def test_curve_setup_builds_no_isogeny(cold_caches, velu_builds):
    from fiverank import classgroup

    for u in SCAN_U:
        classgroup._single_curve_setup.__wrapped__(u)
    assert velu_builds == []


def test_oracle_scan_builds_one_isogeny_per_verdict_reaching_u(cold_caches, velu_builds):
    # one whole pass over the grid: only 2/3 and -3/2 reach a verdict, and
    # each builds its isogeny once, before its first verdict; the other
    # 24 u build none
    reached = set()
    for outcome in oracle_scan(100000):
        if outcome.status != "skip":
            assert outcome.u in _builds_per_u(velu_builds, SCAN_U), outcome
            reached.add(outcome.u)
    assert reached == {F(2, 3), F(-3, 2)}
    assert _builds_per_u(velu_builds, SCAN_U) == {F(2, 3): 1, F(-3, 2): 1}


def test_precondition_fallback_builds_its_isogeny_once(cold_caches, velu_builds):
    # at l = 3 curve 2/3 fails the residue precondition, so every lookup
    # falls back to the instance's own quintic; that reads one isogeny,
    # built on the first fallback, beside the one of the memo's miss
    from fiverank import classgroup, family
    from fiverank.errors import BadReductionError
    from fiverank.isogeny import preimage_quintic
    from fiverank.splitting import class_verdict, frobenius_order_in_L

    u, l = F(2, 3), 3
    with pytest.raises(BadReductionError):
        class_verdict(u, l, 1)
    assert len(velu_builds) == 1                      # five_isogeny(u)
    F_model, _ = classgroup._single_curve_setup(u)
    xs = [F(num, den) for num in range(-12, 13) for den in (1, 2)
          if math.gcd(abs(num), den) == 1 and F_model.rhs(F(num, den))]
    for _ in range(2):
        for x in xs:
            X = F_model.to_long_x(x)
            own = preimage_quintic(family.five_isogeny(u), X).primitive_integer()
            assert (_verdict_or_error(classgroup._split_prime_verdict, u, X, l)
                    == _verdict_or_error(frobenius_order_in_L, own, l)), x
    assert _builds_per_u(velu_builds, [u]) == {u: 2}
    assert classgroup._fallback_isogeny.cache_info().misses == 1
    assert classgroup._fallback_isogeny(u).to_json() == family.five_isogeny(u).to_json()


def test_singular_parameters_raise_from_the_setup_and_the_oracle():
    from fiverank import classgroup
    from fiverank.errors import DegenerateParameterError

    for u in (F(1), F(-1)):
        for _ in range(2):
            for call in (lambda: classgroup._single_curve_setup(u),
                         lambda: small_instance_oracle(u, F(1)),
                         lambda: small_instance_oracle(u, F(1, 2))):
                with pytest.raises(DegenerateParameterError) as raised:
                    call()
                assert type(raised.value) is DegenerateParameterError
                assert str(raised.value) == "singular Weierstrass equation (disc = 0)"


def test_quotient_reduction_data_decides_semistability():
    # what lets the curve setup skip is_semistable(E): the reduction data
    # of F = E/<P> builds exactly when E is semistable, on every scan
    # parameter that sets up and on a small grid of u
    from fiverank import classgroup
    from fiverank.curves import is_semistable
    from fiverank.errors import UnsupportedReductionError
    from fiverank.family import kubert_curve, quotient_cubic
    from fiverank.sieve import reduction_data_for_model

    grid = {F(n, d) for d in range(1, 7) for n in range(-10, 11)} - {0, 1, -1}
    set_up = []
    for u in SCAN_U:
        try:
            classgroup._single_curve_setup(u)
        except FiverankError:
            continue
        set_up.append(u)
    assert len(set_up) >= 20
    seen = set()
    for u in sorted(grid | set(set_up)):
        try:
            reduction_data_for_model(quotient_cubic(u))
            builds = True
        except UnsupportedReductionError:
            builds = False
        assert is_semistable(kubert_curve(u).curve()) == builds, u
        seen.add(builds)
    assert seen == {True, False}


def test_oracle_refuses_a_wrong_class_number(monkeypatch):
    # the 5-rank step checks h: five times the true class number is an
    # IdentityCheckError, not a verdict
    from fiverank import classgroup

    true_class_number = classgroup.class_number
    monkeypatch.setattr(classgroup, "class_number",
                        lambda D: 5 * true_class_number(D))
    with pytest.raises(IdentityCheckError):
        small_instance_oracle(F(2, 3), F(1))


@pytest.fixture
def cold_witness_memo():
    """The residue-class memos emptied before and after the test: a warm
    memo never reaches a patched frobenius_order_in_L or preimage_quintic,
    and a verdict computed under a patch must not outlive it."""
    from fiverank import classgroup, splitting

    splitting._class_row.cache_clear()
    splitting._class_verdict.cache_clear()
    yield classgroup
    splitting._class_row.cache_clear()
    splitting._class_verdict.cache_clear()


def _verdict_or_error(fn, *args):
    try:
        return fn(*args)
    except FiverankError as exc:
        return type(exc).__name__, str(exc)


def _residue_class_decides(phi, l):
    """Whether the residue precondition of the splitting module holds for
    the isogeny phi at l: the integer x-map N0/D0 keeps degree 5 mod l and
    D0 does not vanish mod l."""
    from fiverank.exact import integer_coefficients

    N0, D0 = integer_coefficients(phi.x_map.num, phi.x_map.den)
    g = math.gcd(*N0, *D0)
    return N0[-1] // g % l != 0 and any(c // g % l for c in D0)


def test_witness_verdicts_per_residue_class_match_each_quintic(cold_witness_memo):
    # on the whole default grid of both verdict-reaching u, at every prime
    # up to WITNESS_BOUND split in K, the memoized verdict is the one the
    # instance's own quintic gives: the same verdict, or the same error
    # class and message.  Costs about 15 s: the quintic side factors
    # every instance's own quintic, as the memo exists to avoid
    from fiverank.isogeny import preimage_quintic
    from fiverank.splitting import SPLIT, _class_verdict, frobenius_order_in_L, prime_split_in_K

    classgroup = cold_witness_memo
    primes = [l for l in range(3, classgroup.WITNESS_BOUND + 1, 2) if is_probable_prime(l)]
    grid = [F(num, den) for num in range(-classgroup.SCAN_X_RANGE, classgroup.SCAN_X_RANGE + 1)
            for den in (1, 2, 3) if math.gcd(abs(num), den) == 1]
    routes, outcomes, found = set(), set(), {}
    for u in (F(2, 3), F(-3, 2)):
        F_model, _ = classgroup._single_curve_setup(u)
        phi = five_isogeny(u)
        decides = {l: _residue_class_decides(phi, l) for l in primes}
        for x in grid:
            r = F_model.rhs(x)
            if r == 0:
                continue
            X = F_model.to_long_x(x)
            ints = preimage_quintic(phi, X).primitive_integer()
            for l in primes:
                # the witness search asks only at primes split in K; the
                # class at infinity and the precondition fallback, which it
                # never meets on this grid, are checked at any prime
                if prime_split_in_K(l, r) != SPLIT and X.denominator % l and decides[l]:
                    continue
                memo = _verdict_or_error(classgroup._split_prime_verdict, u, X, l)
                assert memo == _verdict_or_error(frobenius_order_in_L, ints, l), (u, x, l)
                if not decides[l]:
                    routes.add(("own quintic", u, l))
                elif X.denominator % l == 0:
                    routes.add("infinity")
                outcome = memo[0] if isinstance(memo, tuple) else memo
                outcomes.add(outcome)
                if decides[l]:
                    found.setdefault(outcome, (u, X, l))
    # the class at infinity, and the one precondition fallback of the grid
    assert routes == {"infinity", ("own quintic", F(2, 3), 3)}
    assert outcomes == {"split", "inert", "RamifiedPrimeError"}
    # far more classes than the memo holds: it stays at its bound
    info = _class_verdict.cache_info()
    assert info.hits > 0
    assert info.maxsize is not None and info.currsize == info.maxsize < info.misses
    # an error is stored as its class and message and raised afresh on
    # every lookup
    for _ in range(2):
        with pytest.raises(RamifiedPrimeError):
            classgroup._split_prime_verdict(*found["RamifiedPrimeError"])
    assert _class_verdict.cache_info().currsize == info.currsize
    # after cache_clear the next lookup is a miss again, the one after a hit
    _class_verdict.cache_clear()
    for _ in range(2):
        assert classgroup._split_prime_verdict(*found["inert"]) == "inert"
        assert _class_verdict.cache_info().misses == 1
    assert _class_verdict.cache_info().hits == 1


def test_oracle_witness_search_raises_protocol_violations(monkeypatch, cold_witness_memo):
    # at a prime split in K only the profiles [1,1,1,1,1] and [5] fit the
    # cyclic preimage extension; anything else is an error, not a skip
    from fiverank import splitting
    from fiverank.errors import ProtocolViolationError

    def violated(quintic, l):
        raise ProtocolViolationError(f"profile [1, 2, 2] mod {l} is impossible")

    monkeypatch.setattr(splitting, "frobenius_order_in_L", violated)
    with pytest.raises(ProtocolViolationError, match="profile"):
        small_instance_oracle(F(2, 3), F(1))
    # the memo stores it as a value, and it still reaches the caller
    with pytest.raises(ProtocolViolationError, match="profile"):
        small_instance_oracle(F(2, 3), F(1))


def test_witness_memo_builds_one_quintic_per_erroring_class(monkeypatch, cold_witness_memo):
    # a class whose quintic has a repeated factor mod l raises
    # RamifiedPrimeError on every lookup, each time a fresh exception with
    # the same message, from one preimage_quintic call per class; after
    # cache_clear the next lookup is a miss and builds it again
    from fiverank import splitting
    from fiverank.splitting import SPLIT, _class_verdict, prime_split_in_K

    classgroup = cold_witness_memo
    built = []
    real = splitting.preimage_quintic

    def spy(phi, X):
        built.append(X)
        return real(phi, X)

    monkeypatch.setattr(splitting, "preimage_quintic", spy)

    u = F(2, 3)
    F_model, _ = classgroup._single_curve_setup(u)
    phi = five_isogeny(u)
    primes = [l for l in range(5, 60, 2) if is_probable_prime(l)]
    assert all(_residue_class_decides(phi, l) for l in primes)
    # the witness search asks only at primes split in K
    xs = [F(num, den) for num in range(-30, 31) for den in (1, 2, 3)
          if math.gcd(abs(num), den) == 1 and F_model.rhs(F(num, den))]
    lookups = [(F_model.to_long_x(x), l) for x in xs for l in primes
               if prime_split_in_K(l, F_model.rhs(x)) == SPLIT]

    def look_up_all():
        out = []
        for X, l in lookups:
            try:
                out.append(classgroup._split_prime_verdict(u, X, l))
            except RamifiedPrimeError as exc:
                out.append(exc)
        return out

    first = look_up_all()
    info = _class_verdict.cache_info()
    assert len(built) == info.misses == info.currsize < len(lookups)
    erroring = [i for i, v in enumerate(first) if isinstance(v, RamifiedPrimeError)]
    assert len(erroring) > 10
    for _ in range(2):
        again = look_up_all()
        assert len(built) == info.misses
        for old, new in zip(first, again):
            if isinstance(old, RamifiedPrimeError):
                assert type(new) is RamifiedPrimeError and new is not old
                assert str(new) == str(old)
            else:
                assert new == old
    _class_verdict.cache_clear()
    X, l = lookups[erroring[0]]
    with pytest.raises(RamifiedPrimeError) as raised:
        classgroup._split_prime_verdict(u, X, l)
    assert str(raised.value) == str(first[erroring[0]])
    assert _class_verdict.cache_info().misses == 1
    assert len(built) == info.misses + 1


# ------------------------------------------------- independence of the engine

def _engine_foreign_names(tree):
    """Module-level names read by the form engine (BinaryQuadraticForm
    through fundamental_discriminant) that come from neither the standard
    library nor the .exact and .errors modules."""
    origin = {}                 # module-level name -> the module it comes from
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                origin[alias.asname or alias.name] = "." * node.level + node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                origin[alias.asname or alias.name.split(".")[0]] = alias.name
    names = [getattr(node, "name", None) for node in tree.body]
    start = names.index("BinaryQuadraticForm")
    stop = names.index("fundamental_discriminant") + 1
    for node in tree.body[stop:]:           # the oracle's own definitions
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            origin[node.name] = "oracle"
        elif isinstance(node, ast.Assign):
            origin.update((t.id, "oracle") for t in node.targets
                          if isinstance(t, ast.Name))
    used = {name.id for node in tree.body[start:stop] for name in ast.walk(node)
            if isinstance(name, ast.Name)}
    return sorted(name for name in used if name in origin
                  and origin[name] not in (".exact", ".errors")
                  and origin[name].split(".")[0] not in sys.stdlib_module_names)


def test_form_engine_uses_only_exact_arithmetic():
    # the oracle is independent of the construction it checks: its form
    # engine reads nothing from the family, isogeny, sieve, splitting or
    # curve modules, nor from the oracle code that calls them
    import fiverank.classgroup

    source = pathlib.Path(fiverank.classgroup.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    assert _engine_foreign_names(tree) == []
    # the check has teeth: group_structure calling prime_split_in_K fails it
    group_structure_def = next(node for node in tree.body
                               if getattr(node, "name", None) == "group_structure")
    group_structure_def.body.insert(0, ast.parse("prime_split_in_K(3, D)").body[0])
    assert _engine_foreign_names(tree) == ["prime_split_in_K"]
