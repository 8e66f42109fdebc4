"""Diagonal ternary decider: isotropy, target values, zero enumeration."""

import json
import random
import time

import pytest

from k3lattice import ntheory, qform
from k3lattice.ntheory import RHO_LIMIT, factorize, sqrt_exact
from k3lattice.qform import (
    DEFAULT_SIEVE_MODULI,
    DiagonalTernaryForm,
    RepresentationVerdict,
    SearchLimits,
    enumerate_primitive_zeros,
    ternary_represents,
    ternary_represents_zero,
    verify_certificate,
)

from oracles import (
    legendre_certificate_reference,
    primitive_zeros_reference,
    ternary_residue_hit_reference,
    ternary_witness,
    ternary_zero_witness,
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
    with pytest.raises(ValueError):
        ternary_represents_zero(DiagonalTernaryForm(0, 1, 1))
    with pytest.raises(ValueError):
        ternary_represents(DiagonalTernaryForm(1, 0, -1), 3)


def test_undecided_reports_bounds():
    v = ternary_represents(DiagonalTernaryForm(1, -1, -1), 7, SearchLimits(search_bound=1))
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"search_bound": 1, "sieve_moduli": list(DEFAULT_SIEVE_MODULI)}
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
            # the rest of the default ladder and the verifier's largest modulus
            for m in (32, 64, 512):
                assert qform._ternary_hit(q, t, m) == (t % m in qform._ternary_residues(q, m)), (d, t, m)
    assert hits >= 100 and misses >= 100, (hits, misses)


def test_sieve_certificates_replay_without_the_deciders_kernel(monkeypatch):
    # every t is a value of these forms mod every modulus (each has a witness),
    # so a decider whose membership test always misses emits false SIEVE
    # certificates, and the verifier's own value-set replay rejects them all
    cases = [((1, 1, -1), 5), ((2, 3, -7), -2), ((1, -2, 3), 2), ((5, -3, -1), -2)]
    for d, t in cases:
        assert ternary_represents(DiagonalTernaryForm(*d), t).kind == "YES"
    monkeypatch.setattr(qform, "_ternary_hit", lambda q, t, m: False)
    for d, t in cases:
        q = DiagonalTernaryForm(*d)
        v = ternary_represents(q, t)
        assert v.kind == "NO" and v.certificate.kind == "SIEVE", (d, t, v)
        assert v.certificate.data == {"modulus": DEFAULT_SIEVE_MODULI[0]}
        for m in DEFAULT_SIEVE_MODULI:
            assert not verify_certificate(q, t, {"kind": "SIEVE", "data": {"modulus": m}}), (d, t, m)


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
    assert time.process_time() - start < 5.0
    assert v == RepresentationVerdict.undecided(
        {"bounds": [100036, 100035], "cell_limit": qform._EXHAUST_CELL_LIMIT}
    )
    assert qform._EXHAUST_CELL_LIMIT == 4_000_000
