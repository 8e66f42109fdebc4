"""Diagonal ternary decider: isotropy, target values, zero enumeration."""

import json
import math
import random
import time
from math import isqrt

import pytest

from k3lattice import ntheory, qform
from k3lattice.ntheory import RHO_LIMIT, factorize, sqrt_exact
from k3lattice.qform import (
    DiagonalTernaryForm,
    RepresentationVerdict,
    SearchLimits,
    enumerate_primitive_zeros,
    ternary_represents,
    ternary_represents_zero,
    verify_certificate,
)

from oracles import (
    exact_roots_reference,
    legendre_certificate_reference,
    primitive_zeros_reference,
    ternary_ladder_reference,
    ternary_residue_hit_reference,
    ternary_witness,
    ternary_zero_witness,
    ternary_zp_exponent,
    ternary_zp_represents,
)


def _value(q: DiagonalTernaryForm, xyz) -> int:
    x, y, z = xyz
    return q.d1 * x * x + q.d2 * y * y + q.d3 * z * z


def test_frozen_isotropy_decisions():
    table = [
        ((1, 1, -3), "NO", "LEGENDRE"),
        ((1, 1, -2), "YES", None),
        ((2, 3, -5), "YES", None),
        ((1, 1, -7), "NO", "LEGENDRE"),
        ((1, -2, 2), "YES", None),
        ((30, -2, -2), "NO", "LEGENDRE"),
        ((15, -1, -1), "NO", "LEGENDRE"),
        ((1, 1, 1), "NO", "DEFINITE"),
        ((4, -4, -4), "YES", None),
    ]
    for coeffs, kind, cert_kind in table:
        q = DiagonalTernaryForm(*coeffs)
        v = ternary_represents_zero(q)
        assert v.kind == kind, (coeffs, v)
        if kind == "YES":
            assert _value(q, v.witness) == 0
            assert any(v.witness)
        else:
            assert v.certificate.kind == cert_kind
            assert verify_certificate(q, 0, v.certificate)


def test_legendre_certificate_details():
    v = ternary_represents_zero(DiagonalTernaryForm(1, 1, -3))
    assert v.certificate.data["modulus"] == 3
    # content is stripped before the reduced form is recorded
    v = ternary_represents_zero(DiagonalTernaryForm(30, -2, -2))
    assert v.certificate.data["reduced"] == [15, -1, -1]
    assert {"op": "content", "g": 2} in v.certificate.data["steps"]


def test_frozen_value_decisions():
    table = [
        ((4, -4, -4), -2, "NO", "DIVISIBILITY"),
        ((1, 1, 1), 7, "NO", "DEFINITE_EXHAUST"),
        ((1, 1, 1), -3, "NO", "DEFINITE"),
        ((1, 1, 1), 6, "YES", None),
        ((1, 1, -2), 5, "YES", None),
        ((30, -2, -2), -2, "YES", None),
    ]
    for coeffs, t, kind, cert_kind in table:
        q = DiagonalTernaryForm(*coeffs)
        v = ternary_represents(q, t)
        assert v.kind == kind, (coeffs, t, v)
        if kind == "YES":
            assert _value(q, v.witness) == t
        else:
            assert v.certificate.kind == cert_kind
            assert verify_certificate(q, t, v.certificate)
    v = ternary_represents(DiagonalTernaryForm(4, -4, -4), -2)
    assert v.certificate.data["divisor"] == 4


def test_zero_diagonal_rejected():
    # the constructor refuses the form, so no decider ever sees it
    for zero in ((0, 1, 1), (1, 0, -1), (0, 0, 0)):
        with pytest.raises(ValueError, match="diagonal coefficients must be nonzero"):
            DiagonalTernaryForm(*zero)


def test_undecided_reports_bounds():
    v = ternary_represents(DiagonalTernaryForm(1, -1, -1), 7, SearchLimits(search_bound=1))
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"search_bound": 1}
    # the default bound finds the witness (4, 3, 0)
    v = ternary_represents(DiagonalTernaryForm(1, -1, -1), 7)
    assert v.kind == "YES"
    assert _value(DiagonalTernaryForm(1, -1, -1), v.witness) == 7


def test_holzer_box_scan_finds_a_zero_at_once():
    # after the Legendre reduction a, b, c are squarefree, pairwise coprime
    # and of mixed sign; once the residue conditions hold, Holzer's theorem
    # puts a nontrivial zero in |x| <= sqrt|bc|, |y| <= sqrt|ac|, so the one
    # box scan must return one there (it raises AssertionError otherwise)
    rng = random.Random(29)
    solvable = 0
    while solvable < 500:
        d = [rng.choice((-1, 1)) * rng.randint(1, 400) for _ in range(3)]
        if all(x > 0 for x in d) or all(x < 0 for x in d):
            continue
        (a, b, c), _, primes = qform._legendre_reduce(DiagonalTernaryForm(*d))
        conditions = qform._legendre_conditions(a, b, c)
        if not all(qform._is_square_mod(v, primes[i]) for i, (_, v) in enumerate(conditions)):
            continue
        x, y, z = qform._holzer_scan(a, b, c)
        assert a * x * x + b * y * y + c * z * z == 0 and (x, y, z) != (0, 0, 0), d
        assert x * x <= abs(b * c) and y * y <= abs(a * c), d
        solvable += 1


def test_isotropy_against_search_oracle():
    rng = random.Random(97)
    checked = 0
    for _ in range(200):
        d = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(3)]
        q = DiagonalTernaryForm(*d)
        v = ternary_represents_zero(q)
        found = ternary_zero_witness(d[0], d[1], d[2], 25)
        if v.kind == "YES":
            assert _value(q, v.witness) == 0 and any(v.witness)
        else:
            assert v.kind == "NO"  # isotropy is always decided
            assert found is None, (d, found)
            assert verify_certificate(q, 0, v.certificate)
        if found is not None:
            assert v.kind == "YES", (d, found)
        checked += 1
    assert checked == 200


def test_values_against_search_oracle():
    rng = random.Random(98)
    for _ in range(150):
        d = [rng.choice([x for x in range(-6, 7) if x]) for _ in range(3)]
        t = rng.randint(-40, 40)
        if t == 0:
            continue
        q = DiagonalTernaryForm(*d)
        v = ternary_represents(q, t)
        found = ternary_witness(d[0], d[1], d[2], t, 30)
        if v.kind == "YES":
            assert _value(q, v.witness) == t
        elif v.kind == "NO":
            assert found is None, (d, t, found)
            assert verify_certificate(q, t, v.certificate)
        else:
            assert found is None, (d, t, found)
        if found is not None:
            assert v.kind == "YES", (d, t, found, v)


def test_ternary_hit_against_brute_force():
    # 720720 = lcm(1..16) and 10**12 are 0 mod many of the moduli;
    # 43243200 = 2**6 3**3 5**2 7 11 13 is 0 mod every m <= 27 but 17, 19, 23
    rng = random.Random(63)
    forms = [(1, 1, 1), (1, -1, -1), (720720, 3, -5), (10**12, -(10**12), 7), (-(10**12) + 1, 10**12 - 3, -2)]
    forms += [tuple(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 12)) for _ in range(3)) for _ in range(7)]
    targets = (0, -2, 43243200, -43243200 + 5)
    hits = misses = 0
    for d in forms:
        q = DiagonalTernaryForm(*d)
        for t in targets + (rng.randint(-(10**6), 10**6),):
            for m in range(2, 28):
                hit = qform._ternary_hit(q, t, m)
                assert hit == ternary_residue_hit_reference(*d, t, m), (d, t, m)
                hits, misses = hits + hit, misses + (not hit)
            # the sieve's largest moduli; _SIEVE_CAP is also the largest the replay accepts
            for m in (32, 49, qform._SIEVE_CAP):
                assert qform._ternary_hit(q, t, m) == (t % m in qform._ternary_residues(q, m)), (d, t, m)
    assert hits >= 100 and misses >= 100, (hits, misses)


def test_sieve_certificates_replay_without_the_deciders_kernel(monkeypatch):
    # every t is a value of these forms mod every modulus (each has a witness),
    # so a decider whose membership test always misses emits false SIEVE
    # certificates, and the verifier's own value-set replay rejects them all.
    # The false modulus is the least prime power the sieve tries: 3 when 3
    # divides d1 d2 d3, else 4
    cases = [((1, 1, -1), 5, 4), ((2, 3, -7), -2, 3), ((1, -2, 3), 2, 3), ((5, -3, -1), -2, 3), ((5, 7, -1), 3, 4)]
    for d, t, _ in cases:
        assert ternary_represents(DiagonalTernaryForm(*d), t).kind == "YES"
    monkeypatch.setattr(qform, "_ternary_hit", lambda q, t, m: False)
    for d, t, first in cases:
        q = DiagonalTernaryForm(*d)
        v = ternary_represents(q, t)
        assert v.kind == "NO" and v.certificate.kind == "SIEVE", (d, t, v)
        assert v.certificate.data == {"modulus": first}, (d, t, v)
        for m in range(2, qform._SIEVE_CAP + 1):
            assert not verify_certificate(q, t, {"kind": "SIEVE", "data": {"modulus": m}}), (d, t, m)


def _seeded_indefinite_queries(seed: int, count: int):
    """count seeded (d, t): indefinite diagonal ternaries with coefficients in
    +-60 and t = -2 or a random nonzero t in +-500, each divisible by the
    content of d, so that the sieve is the decider's next step."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(3)]
        t = -2 if rng.random() < 0.5 else rng.choice([x for x in range(-500, 501) if x])
        if min(d) < 0 < max(d) and t % math.gcd(*d) == 0:
            out.append((tuple(d), t))
    return out


def test_sieve_is_exact_over_z_p_at_its_powers(monkeypatch):
    # the sieve run at one prime p answers NO exactly when the Z_p oracle
    # finds no solution, at every p <= 64 with p**N <= 64 for N the exponent
    # of the Hensel argument; there its kernel's test mod p**N agrees with
    # the oracle too. The full sieve answers the least of its one-prime answers
    primes = [p for p in range(2, 65) if all(p % r for r in range(2, p))]
    rng = random.Random(27)
    queries = _seeded_indefinite_queries(27, 150)
    # and up to as many again with each coefficient times 4, 9, 12, 25
    # or 49, for higher powers of 2, 3, 5 and 7 in the coefficients
    scaled = [(tuple(x * rng.choice((4, 9, 12, 25, 49)) for x in d), t) for d, t in queries]
    queries += [(d, t) for d, t in scaled if t % math.gcd(*d) == 0]
    checks = misses = 0
    for d, t in queries:
        q = DiagonalTernaryForm(*d)
        answers = []
        for p in primes:
            with monkeypatch.context() as patched:
                patched.setattr(qform, "_SIEVE_POWERS", [x for x in qform._SIEVE_POWERS if x[1] == p])
                m = qform._ternary_sieve(q, t)
            if m is not None:
                answers.append(m)
            n = ternary_zp_exponent(*d, t, p)
            if p**n > 64:
                continue
            zp = ternary_zp_represents(*d, t, p)
            assert (m is None) == zp == qform._ternary_hit(q, t, p**n), (d, t, p, m)
            checks, misses = checks + 1, misses + (not zp)
        assert qform._ternary_sieve(q, t) == min(answers, default=None), (d, t)
    assert (checks, misses) == (3849, 81)


def test_sieve_census_against_the_fixed_ladder():
    # 3000 seeded queries: every NO of the old ladder (3 ... 64) stays a NO
    # at the same modulus, 49 queries the ladder left to the search (so
    # UNDECIDED, as each has no solution) become NOs, and every NO replays
    lost = moved = changed = 0
    for d, t in _seeded_indefinite_queries(3, 3000):
        q = DiagonalTernaryForm(*d)
        old, new = ternary_ladder_reference(*d, t), qform._ternary_sieve(q, t)
        lost += old is not None and new is None
        moved += old is None and new is not None
        changed += None not in (old, new) and old != new
        if new is not None:
            assert verify_certificate(q, t, {"kind": "SIEVE", "data": {"modulus": new}}), (d, t, new)
    assert (lost, moved, changed) == (0, 49, 0)


def test_sieve_moduli_off_the_ladder():
    # no solution mod 23, a prime the fixed ladder never tried; and mod 17
    # before the ladder's 64
    q = DiagonalTernaryForm(23, 46, -5)
    assert ternary_represents(q, -2) == RepresentationVerdict.no(qform.Certificate("SIEVE", {"modulus": 23}))
    assert ternary_ladder_reference(23, 46, -5, -2) is None
    q = DiagonalTernaryForm(34, -17, -37)
    assert ternary_represents(q, -424).certificate.data == {"modulus": 17}
    assert ternary_ladder_reference(34, -17, -37, -424) == 64
    assert verify_certificate(q, -424, {"kind": "SIEVE", "data": {"modulus": 17}})


def test_enumerate_primitive_zeros_frozen():
    zeros = enumerate_primitive_zeros(DiagonalTernaryForm(1, 1, -2), 5)
    assert zeros == [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    assert enumerate_primitive_zeros(DiagonalTernaryForm(1, 1, 1), 10) == []
    with pytest.raises(ValueError):
        enumerate_primitive_zeros(DiagonalTernaryForm(1, 1, -2), -1)


def test_enumerate_primitive_zeros_against_brute_force():
    for d in [(1, 1, -2), (4, -4, -4), (2, 3, -5), (1, -2, 2)]:
        got = enumerate_primitive_zeros(DiagonalTernaryForm(*d), 8)
        assert got == primitive_zeros_reference(*d, 8), d
        for w in got:
            assert _value(DiagonalTernaryForm(*d), w) == 0
            assert sqrt_exact(max(abs(c) for c in w) ** 2) <= 8


def test_enumerate_primitive_zeros_matches_the_full_box_oracle():
    # the enumeration scans x, y >= 0 and adds the sign flips; the oracle
    # scans the whole box
    rng = random.Random(20261019)
    coeffs = [c for c in range(-12, 13) if c]
    checked = nonempty = 0
    while checked < 300:
        d = tuple(rng.choice(coeffs) for _ in range(3))
        if min(d) > 0 or max(d) < 0:
            continue
        h = rng.randint(0, 15)
        got = enumerate_primitive_zeros(DiagonalTernaryForm(*d), h)
        assert got == primitive_zeros_reference(*d, h), (d, h)
        checked += 1
        nonempty += bool(got)
    assert nonempty >= 50
    got = enumerate_primitive_zeros(DiagonalTernaryForm(4, -4, -4), 30)
    assert got == primitive_zeros_reference(4, -4, -4, 30)
    assert len(got) >= 10  # paper-verify's family-2 check


def test_legendre_certificates_match_the_trial_division_reference():
    # every LEGENDRE certificate is byte-identical to the one built by trial
    # division and a scan of the whole modulus; every other form is isotropic
    rng = random.Random(20261019)
    nos = 0
    for _ in range(1500):
        d = [rng.choice((-1, 1)) * rng.randint(1, 3000) for _ in range(3)]
        if all(x > 0 for x in d) or all(x < 0 for x in d):
            continue
        q = DiagonalTernaryForm(*d)
        v = ternary_represents_zero(q)
        ref = legendre_certificate_reference(*d)
        if ref is None:
            assert v.kind == "YES" and _value(q, v.witness) == 0, d
            continue
        assert v.kind == "NO", d
        assert json.dumps(v.certificate.to_json()) == json.dumps({"kind": "LEGENDRE", "data": ref}), d
        assert verify_certificate(q, 0, v.certificate), d
        nos += 1
    assert nos > 500


def test_isotropy_factors_each_coefficient_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(ntheory, "factorize", counting)
    # content 2, a square 9 and merges of the shared primes 3, 5 and 7
    q = DiagonalTernaryForm(2 * 3 * 5 * 9, -2 * 5 * 7, 2 * 3 * 7 * 11)
    v = ternary_represents_zero(q)
    assert len(calls) == 3
    assert [s["op"] for s in v.certificate.data["steps"]] == ["content", "square", "merge", "merge", "merge"]
    calls.clear()
    assert verify_certificate(q, 0, v.certificate) and len(calls) == 3


@pytest.mark.parametrize(
    "d",
    [
        (10**12 + 39, -(10**12 + 61), -(10**12 + 63)),  # three primes
        (10**12 + 1, -(10**12 + 3), 10**12 + 5),
    ],
)
def test_legendre_no_at_1e12_replays(d):
    q = DiagonalTernaryForm(*d)
    v = ternary_represents_zero(q)
    assert v.kind == "NO" and v.certificate.kind == "LEGENDRE"
    assert verify_certificate(q, 0, v.certificate)


def test_isotropy_past_the_factor_budget_is_undecided():
    # two primes above 10**15: rho needs ~10**7 steps to split their product,
    # so the decider stops at RHO_LIMIT steps (process time, not wall time,
    # so a busy host does not count)
    n = 1000000000000037 * 1000000000000091
    q = DiagonalTernaryForm(n, -1, -3)
    start = time.process_time()
    v = ternary_represents_zero(q)
    assert time.process_time() - start < 1.0
    assert v == RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})
    data = {"reduced": [n, -1, -3], "steps": [], "condition": 0, "modulus": n, "target": n - 3}
    assert verify_certificate(q, 0, {"kind": "LEGENDRE", "data": data}) is False


def test_holzer_box_past_the_cell_limit_is_undecided():
    # three primes near 10**6 and 10**4 that meet the residue conditions: the
    # box is about 10**5 x 10**5 cells, so only its first 4000000 // 100036
    # = 39 rows of x are scanned, and no zero lies there
    q = DiagonalTernaryForm(1000003, -1000033, -10007)
    start = time.process_time()
    v = ternary_represents_zero(q)
    assert time.process_time() - start < 0.5
    assert v == RepresentationVerdict.undecided(
        {"bounds": [100036, 100035], "cell_limit": qform._EXHAUST_CELL_LIMIT}
    )
    assert qform._EXHAUST_CELL_LIMIT == 4_000_000


def test_separable_search_past_the_sieve_cap_is_cheap():
    # no solution mod 73, a prime past the sieve's cap, so the search runs to
    # its bound; as -73 x**2 - 146 y**2 + 5 z**2 = 2 needs 73 | 2 - 5 z**2,
    # which holds for no z, the scan skips every row once its class table
    # is built
    q = DiagonalTernaryForm(73, 146, -5)
    start = time.process_time()
    v = ternary_represents(q, -2)
    assert time.process_time() - start < 0.5
    assert v == RepresentationVerdict.undecided({"search_bound": 10000})
    assert not ternary_residue_hit_reference(73, 146, -5, -2, 73)


def test_exact_roots_match_the_plain_cell_walk():
    # the residue-class scan yields the plain walk's cells in its order on
    # 2,400 seeded inputs: d3 = +-1, small and mid |d3| of either sign,
    # gcd(d2, d3) > 1, d2 = 0 mod |d3| (one class), |d3| past the widest row;
    # t = 0 and t != 0; no rows; rows constant or widening with x as the
    # separable search's do
    rng = random.Random(31)
    served = 0
    for k in range(2400):
        d1, d2 = (rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(2))
        sign = rng.choice((-1, 1))
        shape = k % 6
        if shape == 0:
            d3 = sign
        elif shape == 1:
            d3 = sign * rng.randint(2, 12)
        elif shape == 2:
            g = rng.randint(2, 6)
            d2, d3 = g * d2, sign * g * rng.randint(1, 10)
        elif shape == 3:
            d3 = sign * rng.randint(2, 12)
            d2 = d3 * rng.randint(-4, 4) or d3
        elif shape == 4:
            d3 = sign * rng.randint(200, 5000)
        else:
            d3 = sign * rng.randint(13, 60)
        t = 0 if rng.random() < 0.3 else rng.randint(-2000, 2000)
        lo = rng.randint(0, 5)
        xs = range(lo, lo + rng.randint(0, 25))
        if rng.random() < 0.5:
            row = range(rng.randint(0, 60))
            ys = lambda x, row=row: row
        else:
            p, c, n = rng.randint(1, 40), rng.randint(-300, 300), rng.randint(1, 40)
            ys = lambda x, p=p, c=c, n=n: range(isqrt(r // n) + 1) if (r := p * x * x - c) >= 0 else ()
        assert list(qform._exact_roots(d1, d2, d3, t, xs, ys)) == exact_roots_reference(d1, d2, d3, t, xs, ys), (
            d1, d2, d3, t, xs,
        )
        # the class table serves a row once m cells came before it and m is at
        # most the widest row, m = |d3| / gcd(d2, d3)
        m, widths = abs(d3) // math.gcd(d2, d3), [len(ys(x)) for x in xs]
        served += len(widths) > 1 and 1 < m <= widths[-1] and sum(widths[:-1]) >= m
    # over a quarter of the inputs scan some row by the table
    assert 600 < served < 1800, served


def test_replays_keep_their_own_scans(monkeypatch):
    # the DEFINITE_EXHAUST and SIEVE replays share no scan with the decider:
    # with its exact-root scan broken, every such NO of the census replays,
    # the SIEVEs of the indefinite queries and the DEFINITE_EXHAUSTs of the
    # definite forms |d| at |t|
    certs = []
    for d, t in _seeded_indefinite_queries(3, 3000):
        for q, target in ((DiagonalTernaryForm(*d), t), (DiagonalTernaryForm(*map(abs, d)), abs(t))):
            v = ternary_represents(q, target, SearchLimits(100))
            if v.kind == "NO" and v.certificate.kind in ("DEFINITE_EXHAUST", "SIEVE"):
                certs.append((q, target, v.certificate))

    def broken(*args):
        raise AssertionError("replay ran the decider's scan")

    monkeypatch.setattr(qform, "_exact_roots", broken)
    assert all(verify_certificate(q, t, cert) for q, t, cert in certs)
    kinds = [cert.kind for _, _, cert in certs]
    assert (kinds.count("SIEVE"), kinds.count("DEFINITE_EXHAUST")) == (1284, 2645)
