"""Binary form decider: frozen decisions, oracle agreement, limit handling."""

import random
import time
from collections import Counter
from math import gcd

import pytest

from k3lattice import ntheory, qform
from k3lattice.ntheory import RHO_LIMIT
from k3lattice.qform import (
    DEFAULT_SIEVE_MODULI,
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
    binary_local_miss,
    binary_local_prime_reference,
    binary_scan_reference,
    binary_witness,
    is_prime_trial,
    jacobi,
)


def _value(q: BinaryForm, xy) -> int:
    x, y = xy
    return q.a * x * x + q.b * x * y + q.c * y * y


def test_frozen_decisions():
    # (coefficients, target) -> (verdict kind, certificate kind or None)
    table = [
        ((2, 0, -16), -2, "NO", "CYCLE"),
        ((1, 0, -2), -1, "YES", None),
        ((2, 0, 3), 1, "NO", "DEFINITE_EXHAUST"),
        ((2, 0, 3), -5, "NO", "DEFINITE"),
        ((2, 0, 3), 5, "YES", None),
        ((1, 0, -4), 3, "NO", "SQUARE_DISC_EXHAUST"),
        ((1, 0, -4), 5, "YES", None),
        ((2, 4, 6), 3, "NO", "DIVISIBILITY"),
        ((-1, 0, 3), 1, "NO", "LOCAL"),
        ((1, 0, -2), 3, "NO", "LOCAL"),
        # 3 divides both D = 24 and t, where LOCAL does not look: 8 obstructs
        ((1, 0, -6), -3, "NO", "SIEVE"),
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
    v = binary_represents(BinaryForm(1, 0, -6), -3)
    assert v.certificate.data["modulus"] == 8
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
        SearchLimits(sieve_moduli=(3,))  # the sieve ladder is fixed


def test_undecided_reports_bounds():
    # x**2 - 7 y**2 = 8 passes the whole sieve ladder; its smallest witness
    # (6, ±2) lies past search bound 1
    v = binary_represents(BinaryForm(1, 0, -7), 8, SearchLimits(search_bound=1))
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"search_bound": 1, "sieve_moduli": list(DEFAULT_SIEVE_MODULI)}
    assert binary_represents(BinaryForm(1, 0, -7), 8).witness == (6, -2)


def test_cycle_past_its_limit_is_undecided(monkeypatch):
    # x**2 - 124 y**2 has a reduced cycle of 16 forms, and 2 falls in the
    # cycle regime (4 * 2**2 < 496) with no odd-prime obstruction (the odd
    # prime 31 of D has (2/31) = 1); capped at 4 steps the walk stops
    q = BinaryForm(1, 0, -124)
    assert qform._local_prime(q, 2) is None
    v = binary_represents(q, 2)
    assert v.kind == "NO" and len(v.certificate.data["cycle"]) == 16
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, 2) == RepresentationVerdict.undecided({"cycle_limit": 4})
    # the replay shares the cap, so the longer certificate no longer replays
    assert not verify_certificate(q, 2, v.certificate)


def test_cycle_limit_boundary_and_early_stop(monkeypatch):
    # x**2 - 124 y**2 takes 2 reduction steps onto its 16-form cycle, so the
    # walk closes the cycle under a limit of 19 steps and not under 18
    q = BinaryForm(1, 0, -124)
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 18)
    assert binary_represents(q, 2) == RepresentationVerdict.undecided({"cycle_limit": 18})
    # 8 leads the third cycle form, 4 steps in: the walk stops there, so a
    # limit of 5 answers it although it cannot close the cycle
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 5)
    assert binary_represents(q, 8) == RepresentationVerdict.yes((78, 7))
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, 8) == RepresentationVerdict.undecided({"cycle_limit": 4})
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 19)
    v = binary_represents(q, 2)
    assert v.kind == "NO" and v.certificate.kind == "CYCLE" and verify_certificate(q, 2, v.certificate)


def test_early_stop_answers_before_the_cycle_closes():
    # the cycle of this form is longer than _CYCLE_LIMIT, but -2 leads one
    # of its first forms; the witness has tens of thousands of digits
    q = BinaryForm(53745, -67465, -20478)
    assert qform._cycle_of((q.a, q.b, q.c), q.disc, None) is None
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
    # that the LOCAL step, which comes before the sieve, takes its prime
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


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _local_modulus_exponent(q1: BinaryForm, t1: int, p: int) -> int:
    """k with (i) or (ii) of a LOCAL certificate at p equivalent to: no
    value of q1 is t1 mod p**k (p not dividing both D and t1)."""
    return 1 if q1.disc % p == 0 else _valuation(t1, p) + 1


def test_local_no_matches_the_brute_force_oracle():
    # at every odd prime p < 200, on primitive forms with p | D (and t prime
    # to p) and with p not dividing D: (i) and (ii) hold exactly when no
    # (x, y) mod p**k gives t
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
                miss = binary_local_miss(a, b, c, t, p, _local_modulus_exponent(q, t, p))
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
        if v.kind == "NO" and v.certificate.kind == "LOCAL":
            assert verify_certificate(q, t, v.certificate), (q, t)
            g, p = v.certificate.data["content"], v.certificate.data["prime"]
            a1, b1, c1, t1 = q.a // g, q.b // g, q.c // g, t // g
            # D and t / g stay below 10**6, so trial division finds every prime
            assert p == binary_local_prime_reference(a1, b1, c1, t1), (q, t)
            if p < 200:
                assert binary_local_miss(a1, b1, c1, t1, p, _local_modulus_exponent(BinaryForm(a1, b1, c1), t1, p))
    # the same decider with the LOCAL step switched off
    monkeypatch.setattr(qform, "_local_prime", lambda q1, t1: None)
    before = [binary_represents(q, t) for q, t in queries]
    moves = Counter((_outcome(w), _outcome(v)) for v, w in zip(verdicts, before) if v != w)
    # only CYCLE, SIEVE and UNDECIDED become LOCAL; every other verdict,
    # every YES witness among them, is unchanged
    assert moves == {("SIEVE", "LOCAL"): 823, ("UNDECIDED", "LOCAL"): 346, ("CYCLE", "LOCAL"): 49}
    counts = Counter(map(_outcome, verdicts))
    assert counts["YES"] == Counter(map(_outcome, before))["YES"] == 319
    assert (counts["LOCAL"], counts["UNDECIDED"], counts["SIEVE"], counts["CYCLE"]) == (1218, 58, 38, 7)


def test_local_step_runs_no_rho_and_adds_no_wall(monkeypatch):
    # the LOCAL step trial-divides D and t below 1000 and tries no cofactor
    # it cannot prove prime, so rho never runs there; ROADMAP's 0.3 ms wall
    # stays a fraction of a millisecond (process time, best of five)
    def no_rho(n, steps):
        raise AssertionError("rho ran")

    monkeypatch.setattr(ntheory, "_rho_factor", no_rho)
    hard = 1000000000000037 * 1000000000000091
    assert qform._local_prime(BinaryForm(1, 0, -hard), hard) is None
    q, t = BinaryForm(1, 1, -10**30), 10**14 + 31
    times = []
    for _ in range(5):
        start = time.process_time()
        v = binary_represents(q, t)
        times.append(time.process_time() - start)
    assert v.kind == "NO" and verify_certificate(q, t, v.certificate)
    assert min(times) < 0.005, times


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
    # steps. Trial division finds no odd prime of disc = 2**6 * m or of t, so
    # the LOCAL step has no candidate
    t = 1000000000000037 * 1000000000000091
    q = BinaryForm(1, 0, -(10**62 + 16))
    assert 4 * t * t < q.disc
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
