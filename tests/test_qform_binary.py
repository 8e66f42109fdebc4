"""Binary form decider: frozen decisions, oracle agreement, limit handling."""

import random
import time

import pytest

from k3lattice import qform
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

from oracles import binary_cycle_reference, binary_scan_reference, binary_witness


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
        ((-1, 0, 3), 1, "NO", "CYCLE"),
        ((1, 0, -2), 3, "NO", "SIEVE"),
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
    v = binary_represents(BinaryForm(1, 0, -2), 3)
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
    # x**2 - 94 y**2 has a reduced cycle of 16 forms, and -2 falls in the
    # cycle regime (4 * 2**2 < 376); capped at 4 steps the walk stops
    q = BinaryForm(1, 0, -94)
    v = binary_represents(q, -2)
    assert v.kind == "NO" and len(v.certificate.data["cycle"]) == 16
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, -2) == RepresentationVerdict.undecided({"cycle_limit": 4})
    # the replay shares the cap, so the longer certificate no longer replays
    assert not verify_certificate(q, -2, v.certificate)


def test_cycle_limit_boundary_and_early_stop(monkeypatch):
    # x**2 - 94 y**2 takes 2 reduction steps onto its 16-form cycle, so the
    # walk closes the cycle under a limit of 19 steps and not under 18
    q = BinaryForm(1, 0, -94)
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 18)
    assert binary_represents(q, -2) == RepresentationVerdict.undecided({"cycle_limit": 18})
    # 6 leads the third cycle form, 4 steps in: the walk stops there, so a
    # limit of 5 answers it although it cannot close the cycle
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 5)
    assert binary_represents(q, 6) == RepresentationVerdict.yes((10, 1))
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 4)
    assert binary_represents(q, 6) == RepresentationVerdict.undecided({"cycle_limit": 4})
    monkeypatch.setattr(qform, "_CYCLE_LIMIT", 19)
    v = binary_represents(q, -2)
    assert v.kind == "NO" and verify_certificate(q, -2, v.certificate)


def test_early_stop_answers_before_the_cycle_closes():
    # the cycle of this form is longer than _CYCLE_LIMIT, but -2 leads one
    # of its first forms; the witness has tens of thousands of digits
    q = BinaryForm(53745, -67465, -20478)
    assert qform._cycle_of((q.a, q.b, q.c), q.disc, None) is None
    v = binary_represents(q, -2)
    assert v.kind == "YES" and _value(q, v.witness) == -2


def test_cycle_decide_matches_transform_carrying_reference():
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
        expected = binary_cycle_reference(a, b, c, t)
        if expected is None:
            continue
        assert verdict_to_json(binary_represents(BinaryForm(a, b, c), t)) == expected, (a, b, c, t)
        kinds[expected["kind"], choice] = kinds.get((expected["kind"], choice), 0) + 1
        checked += 1
    assert all(kinds.get((kind, choice), 0) > 5 for kind in ("YES", "NO") for choice in range(3)), kinds


def test_witness_scans_match_the_scan_order_reference():
    # pins which witness the definite box and the bounded search return
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
        key = (expected["kind"], q.disc < 0)
        kinds[key] = kinds.get(key, 0) + 1
        if expected["kind"] == "YES" and q.disc < 0:
            # the other root of the witness row is integral too: order decides
            x, y = expected["witness"]
            ties += (b * y) % a == 0 and -x - (b * y) // a != x
        checked += 1
    assert all(kinds.get(key, 0) > 50 for key in (("YES", True), ("NO", True), ("YES", False), ("UNDECIDED", False)))
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
    # f = 10**6 + 3 is prime, past the trial-division primes below 1000
    p = 10**6 + 3
    q = BinaryForm(1, 1, -10**40)
    v = binary_represents(q, -7 * p * p)
    assert v.kind == "NO" and v.certificate.kind == "CYCLE"
    assert verify_certificate(q, -7 * p * p, v.certificate)
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
    # quick; listing the square divisors of the same t then runs out of rho steps
    t = 1000000000000037 * 1000000000000091
    q = BinaryForm(1, 0, -(10**62 + 1))
    assert 4 * t * t < q.disc
    assert binary_represents(q, t) == RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})
