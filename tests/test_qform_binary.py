"""Binary form decider: frozen decisions, oracle agreement, limit handling."""

import random
import time
from collections import Counter
from math import gcd

import pytest

from k3lattice import ntheory, qform
from k3lattice.ntheory import RHO_LIMIT
from k3lattice.qform import (
    BinaryForm,
    RepresentationVerdict,
    SearchLimits,
    binary_represents,
    binary_represents_zero,
    verdict_to_json,
    verify_certificate,
)

from oracles import (
    binary_cycle_reference,
    binary_local_prime_reference,
    binary_scan_reference,
    binary_witness,
    binary_zp_represents,
    is_prime_trial,
    jacobi,
)


def _value(q: BinaryForm, xy) -> int:
    x, y = xy
    return q.a * x * x + q.b * x * y + q.c * y * y


def test_frozen_decisions():
    # (coefficients, target) -> (verdict kind, certificate kind or None)
    table = [
        # x**2 - 8 y**2 = -1 has no 2-adic solution; x**2 - 34 y**2 = -1 has
        # one at every prime, so only the reduced cycle refutes it
        ((2, 0, -16), -2, "NO", "LOCAL"),
        ((2, 0, -68), -2, "NO", "CYCLE"),
        ((1, 0, -2), -1, "YES", None),
        ((2, 0, 3), 1, "NO", "DEFINITE_EXHAUST"),
        ((2, 0, 3), -5, "NO", "DEFINITE"),
        ((2, 0, 3), 5, "YES", None),
        ((1, 0, -4), 3, "NO", "SQUARE_DISC_EXHAUST"),
        ((1, 0, -4), 5, "YES", None),
        ((2, 4, 6), 3, "NO", "DIVISIBILITY"),
        ((-1, 0, 3), 1, "NO", "LOCAL"),
        ((1, 0, -2), 3, "NO", "LOCAL"),
        # 3 divides both D = 24 and t, where the step is exact too
        ((1, 0, -6), -3, "NO", "LOCAL"),
    ]
    for coeffs, t, kind, cert_kind in table:
        q = BinaryForm(*coeffs)
        v = binary_represents(q, t)
        assert v.kind == kind, (coeffs, t, v)
        if kind == "YES":
            assert _value(q, v.witness) == t
        else:
            assert v.certificate is not None
            assert v.certificate.kind == cert_kind
            assert verify_certificate(q, t, v.certificate)


def test_frozen_certificate_payloads():
    v = binary_represents(BinaryForm(2, 4, 6), 3)
    assert v.certificate.data["divisor"] == 2
    # 3 does not divide D = 8 and (8/3) = -1, so 3 must divide an even power
    v = binary_represents(BinaryForm(1, 0, -2), 3)
    assert v.certificate.data == {"content": 1, "prime": 3}
    # x**2 - 6 y**2 = -3 over Z_3: -3 = 3 * -1 with 3 | D = 3 * 8, and
    # <1, -8 * 3> represents 3 * -1 only if (-1 * -8 / 3) = 1; it is -1
    v = binary_represents(BinaryForm(1, 0, -6), -3)
    assert v.certificate.data == {"content": 1, "prime": 3}
    # 2 (x**2 - 8 y**2) = -2: x**2 - 8 y**2 is 1 mod 8 for odd x and even for
    # even x, so never -1 over Z_2
    v = binary_represents(BinaryForm(2, 0, -16), -2)
    assert v.certificate.data == {"content": 2, "prime": 2}
    v = binary_represents(BinaryForm(2, 0, 3), -5)
    assert v.certificate.data["sign"] == 1


def test_zero_representation():
    # nonsquare positive, negative, and square discriminants
    for coeffs in [(2, 0, -16), (2, 0, 3), (1, 0, -2)]:
        q = BinaryForm(*coeffs)
        v = binary_represents_zero(q)
        assert v.kind == "NO"
        assert v.certificate.kind == "NONSQUARE_DISC"
        assert v.certificate.data["disc"] == q.disc
        assert verify_certificate(q, 0, v.certificate)
    v = binary_represents_zero(BinaryForm(1, 0, -4))  # disc 16 = 4**2
    assert v.kind == "YES"
    assert _value(BinaryForm(1, 0, -4), v.witness) == 0
    assert v.witness != (0, 0)
    v = binary_represents(BinaryForm(1, 0, -4), 0)  # t=0 routes to the same test
    assert v.kind == "YES"
    with pytest.raises(ValueError):
        binary_represents_zero(BinaryForm(0, 0, 0))


def test_degenerate_form_rejected():
    with pytest.raises(ValueError):
        binary_represents(BinaryForm(1, 2, 1), 5)  # disc 0


def test_search_limit_validation():
    with pytest.raises(ValueError):
        SearchLimits(search_bound=0)
    with pytest.raises(TypeError):
        SearchLimits(sieve_moduli=(3,))  # the ternary sieve takes its moduli from the input


def test_undecided_reports_bounds():
    # x**2 - 7 y**2 = 8 has no local obstruction; its smallest witness
    # (6, ±2) lies past search bound 1
    assert qform._local_prime(BinaryForm(1, 0, -7), 8) is None
    v = binary_represents(BinaryForm(1, 0, -7), 8, SearchLimits(search_bound=1))
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"search_bound": 1}
    assert binary_represents(BinaryForm(1, 0, -7), 8).witness == (6, -2)


def test_cycle_past_its_limit_is_undecided(monkeypatch):
    # x**2 - 274 y**2 has a reduced cycle of 14 forms, and 2 falls in the
    # cycle regime (4 * 2**2 < 1096) with no local obstruction (the odd
    # prime 137 of D has (2/137) = 1, and 2 = q(2, y) for y**2 = 1/137 over
    # Z_2); capped at 4 steps the walk stops
    q = BinaryForm(1, 0, -274)
    assert qform._local_prime(q, 2) is None
    v = binary_represents(q, 2)
    assert v.kind == "NO" and len(v.certificate.data["cycle"]) == 14
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, 2) == RepresentationVerdict.undecided({"cycle_limit": 4})
    # the replay shares the cap, so the longer certificate no longer replays
    assert not verify_certificate(q, 2, v.certificate)


def test_cycle_limit_boundary_and_early_stop(monkeypatch):
    # x**2 - 274 y**2 takes 2 reduction steps onto its 14-form cycle, so the
    # walk closes the cycle under a limit of 17 steps and not under 16
    q = BinaryForm(1, 0, -274)
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 16)
    assert binary_represents(q, 2) == RepresentationVerdict.undecided({"cycle_limit": 16})
    # 15 leads the third cycle form, 4 steps in: the walk stops there, so a
    # limit of 5 answers it although it cannot close the cycle
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 5)
    assert binary_represents(q, 15) == RepresentationVerdict.yes((17, 1))
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, 15) == RepresentationVerdict.undecided({"cycle_limit": 4})
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 17)
    v = binary_represents(q, 2)
    assert v.kind == "NO" and v.certificate.kind == "CYCLE" and verify_certificate(q, 2, v.certificate)


def test_early_stop_answers_before_the_cycle_closes():
    # the cycle of this form is longer than _CYCLE_LIMIT, but -2 leads one
    # of its first forms; the witness has tens of thousands of digits
    q = BinaryForm(53745, -67465, -20478)
    # no form of nonsquare discriminant has leading coefficient 0, so stop = 0 walks the whole cycle
    assert qform._cycle_of((q.a, q.b, q.c), q.disc, 0) is None
    v = binary_represents(q, -2)
    assert v.kind == "YES" and _value(q, v.witness) == -2


def test_cycle_decide_matches_transform_carrying_reference(monkeypatch):
    # inputs with an odd-prime obstruction end at the LOCAL step; the rest
    # must reach the cycle walk, which a spy counts
    calls = []
    cycle_decide = qform._cycle_decide
    monkeypatch.setattr(qform, "_cycle_decide", lambda *args: calls.append(args) or cycle_decide(*args))
    rng = random.Random(20261018)
    kinds = {}
    checked = 0
    while checked < 500:
        a, b, c = (rng.randint(-1000, 1000) for _ in range(3))
        choice = rng.randrange(3)
        if choice == 0:
            t = -2
        elif choice == 1:
            t = rng.randint(-100, 100)
        else:
            t = -2 * rng.randint(1, 6) ** 2  # reaches the f > 1 candidates
        g = gcd(a, b, c)
        if g and t % g == 0 and binary_local_prime_reference(a // g, b // g, c // g, t // g) is not None:
            continue
        expected = binary_cycle_reference(a, b, c, t)
        if expected is None:
            continue
        assert verdict_to_json(binary_represents(BinaryForm(a, b, c), t)) == expected, (a, b, c, t)
        kinds[expected["kind"], choice] = kinds.get((expected["kind"], choice), 0) + 1
        checked += 1
    assert len(calls) == checked
    assert all(kinds.get((kind, choice), 0) > 5 for kind in ("YES", "NO") for choice in range(3)), kinds


def test_witness_scans_match_the_scan_order_reference():
    # pins which witness the definite box and the bounded search return, and
    # that the LOCAL step, which comes before the search, takes its prime
    rng = random.Random(20261019)
    kinds = {}
    ties = 0
    checked = 0
    while checked < 2000:
        a, b, c = (rng.randint(-12, 12) for _ in range(3))
        choice = rng.randrange(3)
        if choice == 0:
            t = -2
        elif choice == 1:
            t = -2 * rng.randint(1, 30) ** 2
        else:
            t = rng.randint(-3000, 3000)
        bound = rng.choice((1, 30, 300))
        if b * b == 4 * a * c:
            continue
        expected = binary_scan_reference(a, b, c, t, bound)
        if expected is None:
            continue
        q = BinaryForm(a, b, c)
        assert verdict_to_json(binary_represents(q, t, SearchLimits(bound))) == expected, (a, b, c, t, bound)
        key = (expected.get("certificate", expected)["kind"], q.disc < 0)
        kinds[key] = kinds.get(key, 0) + 1
        if expected["kind"] == "YES" and q.disc < 0:
            # the other root of the witness row is integral too: order decides
            x, y = expected["witness"]
            ties += (b * y) % a == 0 and -x - (b * y) // a != x
        checked += 1
    keys = (("YES", True), ("DEFINITE_EXHAUST", True), ("YES", False), ("LOCAL", False), ("UNDECIDED", False))
    assert all(kinds.get(key, 0) > 50 for key in keys), kinds
    assert ties > 50, (ties, kinds)


def test_cycle_wall_short_cycle_with_a_large_target():
    # the cycle has 6 forms; the NO used to count f up to sqrt|t| = 10**7
    q, t = BinaryForm(1, 1, -10**30), 10**14 + 31
    start = time.process_time()
    v = binary_represents(q, t)
    decide = time.process_time() - start
    assert v.kind == "NO" and v.certificate.kind == "CYCLE" and len(v.certificate.data["cycle"]) == 6
    start = time.process_time()
    assert verify_certificate(q, t, v.certificate)
    replay = time.process_time() - start
    assert decide < 1 and replay < 1, (decide, replay)


def test_cycle_square_factor_above_the_trial_primes():
    # f = 10**6 + 3 is prime, past the trial-division primes below 1000, and
    # -13 f**2 has no odd-prime obstruction that trial division finds
    p = 10**6 + 3
    q = BinaryForm(1, 1, -10**40)
    assert qform._local_prime(q, -13 * p * p) is None
    v = binary_represents(q, -13 * p * p)
    assert v.kind == "NO" and v.certificate.kind == "CYCLE"
    assert verify_certificate(q, -13 * p * p, v.certificate)
    v = binary_represents(q, p * p)
    assert v.kind == "YES" and _value(q, v.witness) == p * p and v.witness[0] % p == 0


def test_against_search_oracle():
    rng = random.Random(20260818)
    checked = 0
    for _ in range(300):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, 8)
        q = BinaryForm(a, b, c)
        t = rng.randint(-30, 30)
        if q.disc == 0 or (a == 0 and b == 0 and c == 0):
            continue
        v = binary_represents(q, t)
        found = binary_witness(a, b, c, t, 50)
        if v.kind == "YES":
            assert _value(q, v.witness) == t
        elif v.kind == "NO":
            assert found is None, (a, b, c, t, found)
            assert verify_certificate(q, t, v.certificate)
        else:  # UNDECIDED must never contradict a small witness
            assert found is None, (a, b, c, t, found)
        if found is not None:
            assert v.kind == "YES", (a, b, c, t, found, v)
        checked += 1
    assert checked > 200


def test_local_no_matches_the_brute_force_oracle():
    # at every odd prime p < 200, on primitive forms with p | D (and t prime
    # to p) and with p not dividing D: (i) and (ii) hold exactly when the
    # Hensel search finds no solution over Z_p
    rng = random.Random(25)
    seen = Counter()
    for p in filter(is_prime_trial, range(3, 200, 2)):
        squares = {x * x % p for x in range(1, p)}
        assert all((jacobi(u, p) == 1) == (u in squares) for u in range(1, p))
        exponents = (0, 1, 2, 3) if p < 12 else (0, 1)
        for p_divides_disc in (True, False, True, False):
            a, b = rng.choice((-1, 1)) * rng.randint(1, 3 * p), rng.randint(-3 * p, 3 * p)
            if a % p == 0:
                continue
            c = rng.randint(-3 * p, 3 * p)
            if p_divides_disc:  # b**2 = 4 a c mod p
                c = b * b * pow(4 * a, -1, p) % p + p * rng.randint(-2, 2)
            q = BinaryForm(a, b, c)
            if gcd(a, b, c) != 1 or q.disc == 0 or (q.disc % p == 0) != p_divides_disc:
                continue
            for v in (0,) if p_divides_disc else exponents:
                t = rng.choice((-1, 1)) * rng.randint(1, p - 1) * p**v
                miss = not binary_zp_represents(a, b, c, t, p)
                assert qform._local_no(q, t, p) == miss, (a, b, c, t, p)
                seen[p_divides_disc, miss] += 1
    assert all(seen[key] > 20 for key in ((True, True), (True, False), (False, True), (False, False))), seen


def _local_census():
    # seeded binary queries on coefficients in [-60, 60] and t in [-500, 500]
    rng = random.Random(1)
    queries = []
    while len(queries) < 3000:
        a, b, c = (rng.randint(-60, 60) for _ in range(3))
        t = rng.randint(-500, 500)
        if b * b != 4 * a * c and t:
            queries.append((BinaryForm(a, b, c), t))
    return queries


def _outcome(v) -> str:
    return v.certificate.kind if v.kind == "NO" else v.kind


def test_local_census_against_the_decider_without_it_and_the_oracle(monkeypatch):
    queries = _local_census()
    verdicts = [binary_represents(q, t) for q, t in queries]
    for (q, t), v in zip(queries, verdicts):
        g = gcd(*q.coefficients())
        a1, b1, c1, t1 = q.a // g, q.b // g, q.c // g, t // g
        # D and t / g stay below 10**6, so trial division finds every prime
        if _outcome(v) == "LOCAL":
            assert verify_certificate(q, t, v.certificate), (q, t)
            p = v.certificate.data["prime"]
            assert v.certificate.data["content"] == g
            assert p == binary_local_prime_reference(a1, b1, c1, t1), (q, t)
            if p < 200:  # the search tries all p**2 pairs mod p first
                assert not binary_zp_represents(a1, b1, c1, t1, p), (q, t)
        elif _outcome(v) in ("UNDECIDED", "CYCLE"):
            # past the LOCAL step: no prime of D t obstructs
            assert binary_local_prime_reference(a1, b1, c1, t1) is None, (q, t)
    # the same decider with the LOCAL step switched off
    monkeypatch.setattr(qform, "_local_prime", lambda q1, t1: None)
    before = [binary_represents(q, t) for q, t in queries]
    moves = Counter((_outcome(w), _outcome(v)) for v, w in zip(verdicts, before) if v != w)
    # only CYCLE and UNDECIDED become LOCAL; every other verdict, every YES
    # witness among them, is unchanged. No binary SIEVE is left: the step is
    # exact at every prime, and so at every prime of a sieve modulus
    assert moves == {("UNDECIDED", "LOCAL"): 1209, ("CYCLE", "LOCAL"): 50}
    counts = Counter(map(_outcome, verdicts))
    assert counts["YES"] == Counter(map(_outcome, before))["YES"] == 319
    assert (counts["LOCAL"], counts["UNDECIDED"], counts["SIEVE"], counts["CYCLE"]) == (1259, 56, 0, 6)


def _zp_case(rng, case):
    """A primitive form and t != 0 for one bucket of the Z_p comparison:
    p = 2 with b odd or even, or an odd p dividing D and t, with powers of p
    in D and t so that every clause of the step is met. The search oracle
    grows with its modulus p**(2 v_p(D) + 1), so draws past 10**7 repeat."""
    while True:
        p = 2 if case != "odd p | gcd(D, t)" else rng.choice((3, 5, 7, 11, 13))
        a = rng.choice((-1, 1)) * rng.randint(1, 40)
        b = 2 * rng.randint(-20, 20) + (case == "p = 2, b odd")
        if a % p == 0:
            continue
        # c = b**2 / 4a mod p**j puts p**j (times 4 at p = 2) into D
        j = rng.randint(0 if p == 2 else 1, 3)
        if p == 2 and b % 2:
            c = rng.randint(-40, 40)
        else:
            c = (b // 2) ** 2 * pow(a, -1, p**j) % p**j if p == 2 else b * b * pow(4 * a, -1, p**j) % p**j
            c += p**j * rng.randint(-3, 3)
        t = rng.choice((-1, 1)) * rng.randint(1, 30) * p ** rng.randint(p > 2, 5)
        disc, v = b * b - 4 * a * c, 0
        while disc and disc % p ** (v + 1) == 0:
            v += 1
        if gcd(a, b, c) == 1 and disc and p ** (2 * v + 1) <= 10**7 and (p == 2 or disc % p == 0 == t % p):
            return a, b, c, t, p


def test_local_no_matches_the_zp_search_oracle():
    # the step at 2 and at an odd p | gcd(D, t) is exact: _local_no holds
    # exactly when a Hensel search finds no solution over Z_p
    rng = random.Random(26)
    seen = Counter()
    for case in ("p = 2, b odd", "p = 2, b even", "odd p | gcd(D, t)"):
        for _ in range(400):
            a, b, c, t, p = _zp_case(rng, case)
            miss = not binary_zp_represents(a, b, c, t, p)
            assert qform._local_no(BinaryForm(a, b, c), t, p) == miss, (a, b, c, t, p)
            seen[case, miss] += 1
    assert len(seen) == 6 and min(seen.values()) > 20, seen


def test_new_2_adic_nos_have_no_integer_solution():
    # 40 seeded 2-adic LOCAL NOs, each also refuted by sympy's diophantine
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diophantine

    x, y = sympy.symbols("x y", integer=True)
    rng = random.Random(27)
    checked = 0
    while checked < 40:
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        t = rng.choice((-2, rng.randint(-60, 60)))
        if b * b == 4 * a * c or not t:
            continue
        v = binary_represents(BinaryForm(a, b, c), t)
        if v.kind == "NO" and v.certificate.kind == "LOCAL" and v.certificate.data["prime"] == 2:
            assert not diophantine(a * x**2 + b * x * y + c * y**2 - t), (a, b, c, t)
            checked += 1


def test_local_step_keeps_rho_within_its_budget(monkeypatch):
    # the LOCAL step splits what trial division leaves of D t1 with at most
    # _LOCAL_RHO_LIMIT rho steps in all, and past them tries none of its
    # primes; hard, two primes near 10**15, needs ~10**7 steps to split
    rho = ntheory._rho_factor
    limits = []

    class CountingModulus(int):
        # int % n lands here. Every counted rho step reduces y mod n; a round
        # of r steps of y is followed by at most r steps of the comparison
        # walk, which also reduce the product, so 2 steps take <= 3 reductions
        reductions = 0

        def __rmod__(self, other):
            CountingModulus.reductions += 1
            return int(other) % int(self)

    def spy(n, steps, limit):
        limits.append(limit)
        return rho(CountingModulus(n), steps, limit)

    monkeypatch.setattr(ntheory, "_rho_factor", spy)
    hard = 1000000000000037 * 1000000000000091
    assert qform._local_prime(BinaryForm(1, 1, -hard), hard) is None
    assert limits and set(limits) == {ntheory._LOCAL_RHO_LIMIT}
    assert 0 < 2 * CountingModulus.reductions <= 3 * ntheory._LOCAL_RHO_LIMIT
    # hard = 7 mod 8, and x**2 - hard y**2 = x**2 + y**2 mod 8 is never 7;
    # x**2 - 3 hard y**2 = 3 needs 3 | x, then 3 x'**2 - hard y**2 = 1 with
    # hard = 1 mod 3 needs y**2 = -1 mod 3; both come before the cofactor
    limits.clear()
    for q, t, p in ((BinaryForm(1, 0, -hard), hard, 2), (BinaryForm(1, 0, -3 * hard), 3, 3)):
        assert qform._local_prime(q, t) == p
        assert binary_represents(q, t) == RepresentationVerdict.no(qform.Certificate("LOCAL", {"content": 1, "prime": p}))
        assert verify_certificate(q, t, {"kind": "LOCAL", "data": {"content": 1, "prime": p}})
    assert limits == []
    # ROADMAP's 0.3 ms wall: the cofactor of D t, 150 bits, runs out of
    # budget and the cycle walk answers, in a few milliseconds (process
    # time, best of five)
    monkeypatch.setattr(ntheory, "_rho_factor", rho)
    q, t = BinaryForm(1, 1, -10**30), 10**14 + 31
    times = []
    for _ in range(5):
        start = time.process_time()
        v = binary_represents(q, t)
        times.append(time.process_time() - start)
    assert v.certificate.kind == "CYCLE" and verify_certificate(q, t, v.certificate)
    assert min(times) < 0.005, times


def test_local_census_on_large_coefficients(monkeypatch):
    # 600 seeded indefinite forms with coefficients in decades 5 to 12, where
    # trial division below 1000 seldom factors D t completely. Its primes
    # come first, so wherever one of them obstructs the same prime comes
    # back. A prime only the rho split finds is a prime of D, as |t| <= 500
    # has none past 1000, so it obstructs exactly when (t a' / p) = -1
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261020)
    cases = []
    while len(cases) < 600:
        k = 5 + len(cases) % 8
        a, b, c = (rng.choice((-1, 1)) * rng.randint(10 ** (k - 1), 10**k) for _ in range(3))
        disc = b * b - 4 * a * c
        if disc <= 0 or ntheory.is_square(disc) or gcd(a, b, c) != 1:
            continue
        t = -2 if rng.random() < 0.5 else rng.choice((-1, 1)) * rng.randint(1, 500)
        cases.append((BinaryForm(a, b, c), t))

    def unsplit(n, limit):
        raise ntheory.FactorBudgetError("the cofactor is not split")

    with monkeypatch.context() as m:
        m.setattr(qform, "factorize", unsplit)
        before = [qform._local_prime(q, t) for q, t in cases]
    new = 0
    for (q, t), p0 in zip(cases, before):
        p = qform._local_prime(q, t)
        if p0 is not None:
            assert p == p0, (q, t)
        elif p is not None:
            new += 1
            assert p > 1000 and sympy.isprime(p) and q.disc % p == 0, (q, t)
            assert jacobi(t * (q.a if q.a % p else q.c), p) == -1, (q, t)
    # 480 NOs at a prime that trial division finds, 31 only past it
    assert sum(p is not None for p in before) == 480
    assert new == 31


@pytest.mark.parametrize("obj", [{"binary": [1.9, 0, -7]}, {"diag": [1, True, -1]}, {"unary": ["3"]}])
def test_form_json_refuses_non_integer_coefficients(obj):
    # truncated to 1, the first form would represent 2 = 3^2 - 7 * 1^2
    with pytest.raises(ValueError, match="expected an integer"):
        qform.form_from_json(obj)


def test_yes_witnesses_refuse_non_integers():
    for w in ((1.9, -1), (True, 0), (1, False), (1, "1")):
        with pytest.raises(ValueError):
            RepresentationVerdict.yes(w)
    with pytest.raises(ValueError):
        qform._checked_yes(BinaryForm(1, 0, -1), 0, (1.0, 1))
    assert RepresentationVerdict.yes((1, -1)).witness == (1, -1)


def test_square_disc_at_scale_decides_and_replays():
    q = BinaryForm(1, 0, -1)
    t = 10**16 + 61  # prime
    v = binary_represents(q, t)
    assert v.kind == "YES" and _value(q, v.witness) == t
    # x**2 - y**2 is never 2 mod 4
    t = 2 * (10**14 + 31)
    v = binary_represents(q, t)
    assert v.kind == "NO" and v.certificate.kind == "SQUARE_DISC_EXHAUST"
    assert verify_certificate(q, t, v.certificate)


def test_square_disc_past_the_factor_budget_is_undecided():
    # two primes above 10**15: rho needs ~10**7 steps to split their product
    t = 1000000000000037 * 1000000000000091
    v = binary_represents(BinaryForm(1, 0, -1), t)
    assert v == RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})


def test_cycle_past_the_factor_budget_is_undecided():
    # 4 t**2 < disc puts t on the reduced cycle's short branch, whose walk is
    # quick; listing the square divisors of the same t then runs out of rho
    # steps. Trial division finds no odd prime of disc = 4 * 10**62 + 1 or of
    # t, and 2 obstructs nothing (b and t are odd); the LOCAL step's rho
    # budget does not split the cofactor disc * t either, so no prime of it
    # is tried
    t = 1000000000000037 * 1000000000000091
    q = BinaryForm(1, 1, -10**62)
    assert 4 * t * t < q.disc
    assert ntheory.trial_division(q.disc * t)[0] == {}
    with pytest.raises(ntheory.FactorBudgetError):
        ntheory.factorize(q.disc * t, ntheory._LOCAL_RHO_LIMIT)
    assert qform._local_prime(q, t) is None
    assert binary_represents(q, t) == RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})


def test_cycle_hit_on_t_itself_needs_no_factoring():
    # t leads a form on the reduced cycle, so f = 1 answers before any f**2 | t
    # is listed; listing them would run out of rho steps on this t
    t = 1000000000000037 * 1000000000000091
    q = BinaryForm(t, 1, -(t + 2))
    start = time.process_time()
    v = binary_represents(q, t)
    assert time.process_time() - start < 0.05
    assert v.kind == "YES" and _value(q, v.witness) == t
