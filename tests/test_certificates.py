"""Certificate replay: honest certificates verify, tampered ones do not,
and malformed input never raises."""

import copy
import functools
import hashlib
import json
import random
from itertools import permutations, product
from math import isqrt

import pytest

import k3lattice as kl
from k3lattice import qform
from k3lattice.qform import (
    BinaryForm,
    Certificate,
    DiagonalTernaryForm,
    UnaryForm,
    _is_reduced,
    binary_represents,
    represents,
    ternary_represents,
    ternary_represents_zero,
    unary_represents,
    verdict_to_json,
    verify_certificate,
)

from oracles import binary_witness, ternary_witness


def _no_cert(decide, q, t):
    v = decide(q, t)
    assert v.kind == "NO", (q, t, v)
    assert verify_certificate(q, t, v.certificate)
    return v.certificate


def test_honest_certificates_replay_for_all_arities():
    _no_cert(unary_represents, UnaryForm(2), 3)      # DIVISIBILITY
    _no_cert(unary_represents, UnaryForm(2), -2)     # DEFINITE
    _no_cert(unary_represents, UnaryForm(2), 6)      # DEFINITE_EXHAUST
    _no_cert(unary_represents, UnaryForm(2), 0)      # DEFINITE (note form)
    _no_cert(binary_represents, BinaryForm(2, 0, -68), -2)   # CYCLE
    _no_cert(binary_represents, BinaryForm(1, 0, -6), -3)    # LOCAL at 3 | gcd(D, t)
    _no_cert(binary_represents, BinaryForm(1, 0, -2), 3)     # LOCAL
    _no_cert(binary_represents, BinaryForm(2, 0, -16), -2)   # LOCAL at 2
    _no_cert(ternary_represents, DiagonalTernaryForm(1, 1, -8), 3)  # SIEVE
    _no_cert(binary_represents, BinaryForm(1, 0, -2), 0)     # NONSQUARE_DISC
    _no_cert(binary_represents, BinaryForm(1, 0, -4), 3)     # SQUARE_DISC_EXHAUST
    _no_cert(ternary_represents, DiagonalTernaryForm(4, -4, -4), -2)
    _no_cert(lambda q, t: ternary_represents_zero(q), DiagonalTernaryForm(1, 1, -3), 0)


def test_certificates_verify_as_plain_dicts():
    q = BinaryForm(2, 0, -68)
    cert = binary_represents(q, -2).certificate
    assert verify_certificate(q, -2, cert.to_json())
    assert verify_certificate(q, -2, {"kind": cert.kind, "data": dict(cert.data)})


def test_divisibility_tampering():
    q = BinaryForm(2, 4, 6)
    assert verify_certificate(q, 3, {"kind": "DIVISIBILITY", "data": {"divisor": 2}})
    # 3 does not divide every coefficient
    assert not verify_certificate(q, 3, {"kind": "DIVISIBILITY", "data": {"divisor": 3}})
    # 1 divides the target as well, so it proves nothing
    assert not verify_certificate(q, 3, {"kind": "DIVISIBILITY", "data": {"divisor": 1}})
    assert not verify_certificate(q, 4, {"kind": "DIVISIBILITY", "data": {"divisor": 2}})
    assert not verify_certificate(q, 3, {"kind": "DIVISIBILITY", "data": {"divisor": "2"}})
    assert not verify_certificate(q, 3, {"kind": "DIVISIBILITY", "data": {}})


def test_sieve_tampering():
    # only the ternary decider emits SIEVE, at the prime powers 2 < p**j <=
    # _SIEVE_CAP of _SIEVE_POWERS, and the replay accepts no other. x**2 - 6 y**2 misses -3 mod 8, but LOCAL
    # settles 3 | gcd(D, t) = 3, so a binary SIEVE is refused; so is a unary one
    q = BinaryForm(1, 0, -6)
    assert binary_represents(q, -3).certificate.to_json() == {"kind": "LOCAL", "data": {"content": 1, "prime": 3}}
    assert not verify_certificate(q, -3, {"kind": "SIEVE", "data": {"modulus": 8}})
    assert not verify_certificate(UnaryForm(2), 3, {"kind": "SIEVE", "data": {"modulus": 4}})
    q3 = DiagonalTernaryForm(1, 1, -8)
    good = ternary_represents(q3, 3).certificate.to_json()
    assert good == {"kind": "SIEVE", "data": {"modulus": 4}} and verify_certificate(q3, 3, good)
    bad = copy.deepcopy(good)
    bad["data"]["modulus"] = 7  # 3 = q3(1, 1, 1) mod 7
    assert not verify_certificate(q3, 3, bad)
    bad["data"]["modulus"] = 1
    assert not verify_certificate(q3, 3, bad)
    # 3 is no value mod 68 = 4 * 17 either, but 68 is past the sieve's cap
    assert 3 % 68 not in qform._ternary_residues(q3, 68) and 68 > qform._SIEVE_CAP
    bad["data"]["modulus"] = 68
    assert not verify_certificate(q3, 3, bad)
    # 3 is no value mod 12 = 4 * 3 either, but 12 is no prime power
    assert 3 % 12 not in qform._ternary_residues(q3, 12)
    bad["data"]["modulus"] = 12
    assert not verify_certificate(q3, 3, bad)
    # 1 is no value of (2, 4, 6) mod 2, but the decider settles it by
    # DIVISIBILITY, and 2 is below every sieve modulus
    q246 = DiagonalTernaryForm(2, 4, 6)
    assert ternary_represents(q246, 1).certificate.kind == "DIVISIBILITY"
    assert 1 % 2 not in qform._ternary_residues(q246, 2)
    assert not verify_certificate(q246, 1, {"kind": "SIEVE", "data": {"modulus": 2}})
    # a true obstruction at a prime past the cap is refused too: -2 is no
    # value of (73, 146, -5) mod 73
    q73 = DiagonalTernaryForm(73, 146, -5)
    assert -2 % 73 not in qform._ternary_residues(q73, 73)
    assert not verify_certificate(q73, -2, {"kind": "SIEVE", "data": {"modulus": 73}})
    # the certified obstruction does not transfer to another target
    assert not verify_certificate(q3, 1, good)  # 1 = q3(1, 0, 0)


def test_sieve_primitive_zero_certificates():
    # the primitive-tuple sieve at a prime power is no certificate format:
    # t = 0 is settled by NONSQUARE_DISC, LEGENDRE or DEFINITE instead
    for q in (BinaryForm(1, 0, 1), DiagonalTernaryForm(1, 1, 1), BinaryForm(1, 0, -1)):
        for data in ({"modulus": 4, "prime": 2}, {"modulus": 4}, {"modulus": 8, "prime": 2}, {"modulus": 9, "prime": 3}):
            assert not verify_certificate(q, 0, {"kind": "SIEVE", "data": data})


def test_no_zero_verdict_carries_a_sieve_certificate():
    rng = random.Random(29)
    nonzero = [c for c in range(-12, 13) if c]
    for _ in range(300):
        binary = BinaryForm(*(rng.randint(-12, 12) for _ in range(3)))
        ternary = DiagonalTernaryForm(*(rng.choice(nonzero) for _ in range(3)))
        for q in (binary, ternary) if any(binary.coefficients()) else (ternary,):
            v = represents(q, 0)
            if v.kind == "NO":
                assert v.certificate.kind != "SIEVE", (q, v)
                assert verify_certificate(q, 0, v.certificate), (q, v)
                for m in (2, 3, 4, 8, 9, 16):
                    assert not verify_certificate(q, 0, {"kind": "SIEVE", "data": {"modulus": m}})


# every (certificate kind, form shape) the deciders emit on the census below
_EMITTED = {
    ("DIVISIBILITY", "UnaryForm"),
    ("DEFINITE", "UnaryForm"),
    ("DEFINITE_EXHAUST", "UnaryForm"),
    ("DIVISIBILITY", "BinaryForm"),
    ("DEFINITE", "BinaryForm"),
    ("DEFINITE_EXHAUST", "BinaryForm"),
    ("NONSQUARE_DISC", "BinaryForm"),
    ("SQUARE_DISC_EXHAUST", "BinaryForm"),
    ("CYCLE", "BinaryForm"),
    ("LOCAL", "BinaryForm"),
    ("DIVISIBILITY", "DiagonalTernaryForm"),
    ("DEFINITE", "DiagonalTernaryForm"),
    ("DEFINITE_EXHAUST", "DiagonalTernaryForm"),
    ("SIEVE", "DiagonalTernaryForm"),
    ("LEGENDRE", "DiagonalTernaryForm"),
}


@functools.cache
def _census():
    """3,000 seeded (q, t, verdict): every shape at t = 0, -2 and a random t."""
    rng = random.Random(4)
    nonzero = [c for c in range(-30, 31) if c]
    out = []
    for i in range(1000):
        if i % 3 == 0:
            q = UnaryForm(rng.choice(nonzero))
        elif i % 3 == 1:
            q = BinaryForm(*(rng.randint(-30, 30) for _ in range(3)))
            while q.disc == 0:
                q = BinaryForm(*(rng.randint(-30, 30) for _ in range(3)))
        else:
            q = DiagonalTernaryForm(*(rng.choice(nonzero) for _ in range(3)))
        for t in (0, -2, rng.randint(-500, 500)):
            out.append((q, t, represents(q, t, qform.SearchLimits(200))))
    return out


def test_emitted_certificates_match_the_replays():
    # on the census the deciders emit exactly the table above, so a replay
    # branch outside it is reached by no decider, every emitted NO replays,
    # and every SIEVE modulus is one of _SIEVE_POWERS. A SIEVE on a unary or
    # binary form is refused
    emitted = set()
    for q, t, v in _census():
        if v.kind == "NO":
            emitted.add((v.certificate.kind, type(q).__name__))
            assert verify_certificate(q, t, v.certificate), (q, t, v)
            if v.certificate.kind == "SIEVE":
                assert v.certificate.data["modulus"] in dict(qform._SIEVE_POWERS), (q, t, v)
        if not isinstance(q, DiagonalTernaryForm):
            for m in range(2, 17):
                assert not verify_certificate(q, t, {"kind": "SIEVE", "data": {"modulus": m}}), (q, t, m)
    assert emitted == _EMITTED, emitted ^ _EMITTED


def _sha256_of_lines(objs) -> str:
    return hashlib.sha256("\n".join(json.dumps(o, sort_keys=True) for o in objs).encode()).hexdigest()


def test_output_bytes_are_pinned():
    # the JSON of the census verdicts (cycle-walk YES and CYCLE NO among
    # them) and of 300 seeded classify reports on even hyperbolic Grams of
    # rank 2 to 4, hashed as the CLI sorts their keys, the repr of the
    # catalog's family specs, and the claim3 grid. A change that moves an
    # output byte updates these hashes and says which bytes moved
    verdicts = [verdict_to_json(v) for _, _, v in _census()]
    assert _sha256_of_lines(verdicts) == "4f5b67dd090275ec1d3c0a63ce8ed6395d79b64eacd9030f6ba45465b3b33e0d"
    rng = random.Random(30)
    reports = []
    while len(reports) < 300:
        n = rng.randint(2, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-5, 5)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        lattice = kl.GramLattice(n, gram)
        if kl.signature(lattice) == (1, n - 1, 0):
            reports.append(kl.report_to_json(kl.classify(kl.PicardData(lattice))))
    assert _sha256_of_lines(reports) == "74a01da70918710791b9f896934b32f8b4191e924cef4bceb94d92deb4c62253"
    # family 1 at n off the multiples of 3, the others with n omitted and with n = 7 (ignored);
    # each repr ends with the family's extras and checks
    specs = [kl.family(1, n) for n in (1, 2, 4, 5, 7, 8, 10, 11)]
    specs += [kl.family(f) for f in range(2, 6)] + [kl.family(f, 7) for f in range(2, 6)]
    spec_bytes = "\n".join(repr(s) for s in specs).encode()
    assert hashlib.sha256(spec_bytes).hexdigest() == "3c2f89b9e89579a7b945a3801afa6a0755a55142082187ea7785d04c939201d5"
    # claim3_search over the benchmark grid A 1..12, B, C 0..11 at bound 50:
    # the result JSON, or the SearchExhausted message and bound
    grid = []
    for a, b, c in product(range(1, 13), range(12), range(12)):
        try:
            grid.append(kl.claim3_result_to_json(kl.claim3_search(kl.Claim3Input(a, b, c), 50)))
        except kl.SearchExhausted as e:
            grid.append({"exhausted": str(e), "bound": e.bound})
    assert _sha256_of_lines(grid) == "61493dac7b3f2418ebcf67ce07dc7a14e5608894e1a0feba9751d1706178a786"


def test_legendre_tampering():
    q = DiagonalTernaryForm(1, 1, -3)
    good = ternary_represents_zero(q).certificate.to_json()
    bad = copy.deepcopy(good)
    bad["data"]["condition"] = (good["data"]["condition"] + 1) % 3
    assert not verify_certificate(q, 0, bad)
    bad = copy.deepcopy(good)
    bad["data"]["reduced"] = [1, 1, -5]
    assert not verify_certificate(q, 0, bad)
    # each reduced entry follows the exact_int rule
    assert good["data"]["reduced"] == [1, 1, -3]
    for reduced in ([True, True, -3], [1.0, 1.0, -3]):
        bad = copy.deepcopy(good)
        bad["data"]["reduced"] = reduced
        assert not verify_certificate(q, 0, bad), reduced
    bad = copy.deepcopy(good)
    bad["data"]["condition"] = 5
    assert not verify_certificate(q, 0, bad)
    # isotropic form: the recorded condition must fail to verify
    iso = DiagonalTernaryForm(1, 1, -2)
    assert not verify_certificate(iso, 0, good)
    # the condition index follows the exact_int rule: True is not 1
    q = DiagonalTernaryForm(1, -3, 1)
    good = ternary_represents_zero(q).certificate.to_json()
    assert good["data"]["condition"] == 1 and verify_certificate(q, 0, good)
    bad = copy.deepcopy(good)
    bad["data"]["condition"] = True
    assert not verify_certificate(q, 0, bad)


def test_local_tampering():
    def local(p, content=1):
        return {"kind": "LOCAL", "data": {"content": content, "prime": p}}

    # (i): 3 | D = 12 and (-1/3) = -1; (ii): 3 does not divide D = 8,
    # v_3(3) = 1 and (8/3) = -1
    q_i, q_ii = BinaryForm(1, 0, -3), BinaryForm(1, 0, -2)
    assert binary_represents(q_i, -1).certificate.to_json() == local(3)
    assert binary_represents(q_ii, 3).certificate.to_json() == local(3)
    # the symbols hold at 15 as well, so only the primality check refuses
    # it: x**2 - 15 y**2 = -1 has pow(-1, 7, 15) = 14
    q15 = BinaryForm(1, 0, -15)
    assert verify_certificate(q15, -1, local(3))
    assert qform._local_no(q15, -1, 15)
    assert not verify_certificate(q15, -1, local(15))
    # 2 is decided exactly: the odd values of x**2 - 2 y**2 are +-1 mod 8, so
    # 3 has no 2-adic solution, and 7 = q(3, 1) has one
    assert verify_certificate(q_ii, 3, local(2))
    assert not verify_certificate(q_ii, 7, local(2))
    for p in (True, 3.0, "3", None, 1, 0, -2, -3, 4, 9):
        assert not verify_certificate(q_ii, 3, local(p)), p
    # 5 divides neither D = 8 nor t = 3
    assert not verify_certificate(q_ii, 3, local(5))
    # v_3(9) = 2 is even, and 9 = q(3, 0)
    assert not verify_certificate(q_ii, 9, local(3))
    # a wrong content: 3 does not divide the form, True is not 1
    for content in (3, 0, -1, True):
        assert not verify_certificate(q_ii, 3, local(3, content)), content
    # 3 (x**2 + x y - y**2) = 6 fails at 5 | D = 5 of the primitive part,
    # (2/5) = -1; the replay refuses the same symbols on the non-primitive form
    q = BinaryForm(3, 3, -3)
    assert binary_represents(q, 6).certificate.to_json() == local(5, 3)
    assert qform._local_no(q, 6, 5)
    assert not verify_certificate(q, 6, local(5))
    # a degenerate form (D = 0) is refused at once, at an odd p and at 2 with
    # b odd or even; its zero valuation is refused rather than searched for
    for q0, t0, p in (((1, 2, 1), 3, 3), ((1, 2, 1), 1, 2), ((1, 2, 1), 1, 3), ((4, 4, 1), 5, 5)):
        assert not verify_certificate(BinaryForm(*q0), t0, local(p)), (q0, t0, p)
        assert not verify_certificate(BinaryForm(*q0), t0, {"kind": "LOCAL", "data": {"prime": p}})
    with pytest.raises(ValueError, match="valuation"):
        qform._local_no(BinaryForm(1, 2, 1), 1, 2)
    with pytest.raises(ValueError, match="valuation"):
        qform._local_no(BinaryForm(1, 2, 1), 3, 3)
    # no ternary form and no t = 0
    assert not verify_certificate(DiagonalTernaryForm(1, -2, 5), 3, local(3))
    assert not verify_certificate(q_ii, 0, local(3))
    assert not verify_certificate(q_i, 0, local(3))


def test_cycle_tampering():
    # x**2 - 34 y**2 = -1 is solvable over every Z_p, but not over Z
    q = BinaryForm(2, 0, -68)
    good = binary_represents(q, -2).certificate.to_json()

    bad = copy.deepcopy(good)
    bad["data"]["transform"] = [[1, 1], [1, 1]]  # det 0
    assert not verify_certificate(q, -2, bad)

    bad = copy.deepcopy(good)
    bad["data"]["transform"] = [[1, 0], [0, 1]]  # unimodular but wrong image
    assert not verify_certificate(q, -2, bad)

    bad = copy.deepcopy(good)
    bad["data"]["cycle"] = bad["data"]["cycle"][::-1]
    assert not verify_certificate(q, -2, bad)

    bad = copy.deepcopy(good)
    bad["data"]["cycle"][0] = [1, 5, -5]  # wrong discriminant
    assert not verify_certificate(q, -2, bad)

    bad = copy.deepcopy(good)
    bad["data"]["cycle"] = []
    assert not verify_certificate(q, -2, bad)

    bad = copy.deepcopy(good)
    bad["data"]["cycle"] = [[1, 4, -4]] * 100_001  # over the replay limit
    assert not verify_certificate(q, -2, bad)

    # 2 = q(1, 0) is represented; the honest cycle data must not certify it
    assert not verify_certificate(q, 2, good)

    # theorem 3's plane at t = -2: its honest transform is not symmetric, so
    # the replay must read its columns, not its rows
    q = BinaryForm(-4, 72, -242)
    good = binary_represents(q, -2).certificate.to_json()
    assert good["data"]["transform"] == [[-1, -5], [0, -1]] and verify_certificate(q, -2, good)
    bad = copy.deepcopy(good)
    bad["data"]["transform"] = [[-1, 0], [-5, -1]]  # the transpose
    assert not verify_certificate(q, -2, bad)
    # a unimodular M with M^T G M the Gram of cycle[1], not of cycle[0], for
    # G twice the Gram of q / 2 = (-2, 36, -121)
    m, g = [[-5, -4], [-1, -1]], [[-4, 36], [36, -242]]
    congruent = [[sum(m[k][i] * g[k][l] * m[l][j] for k in range(2) for l in range(2)) for j in range(2)] for i in range(2)]
    assert congruent == [[18, 2], [2, -18]] and good["data"]["cycle"][1] == [9, 2, -9]
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    bad["data"]["transform"] = m
    assert not verify_certificate(q, -2, bad)


def test_cycle_replay_refuses_non_integer_entries():
    q = BinaryForm(2, 0, -68)
    good = binary_represents(q, -2).certificate.to_json()
    assert good["data"]["cycle"][0][0] == 1 and good["data"]["transform"][1][0] == 0
    assert verify_certificate(q, -2, good)
    for key, i, j, value in (
        ("cycle", 0, 0, 1.0),
        ("cycle", 0, 0, "1"),
        ("cycle", 0, 0, True),
        ("transform", 1, 0, 0.0),
        ("transform", 1, 0, "0"),
        ("transform", 1, 0, False),
    ):
        bad = copy.deepcopy(good)
        bad["data"][key][i][j] = value
        assert not verify_certificate(q, -2, bad), (key, i, j, value)


def test_cycle_replay_checks_every_entry_past_the_first():
    # cycle[0] and the transform stay honest, so each tampered certificate
    # gets past the transform check and fails at the entry it breaks
    q = BinaryForm(-4, 72, -242)
    good = binary_represents(q, -2).certificate.to_json()
    cycle = good["data"]["cycle"]
    assert len(cycle) == 6 and verify_certificate(q, -2, good)
    disc, s = good["data"]["disc"], isqrt(good["data"]["disc"])
    # (1, 0, -82) has the cycle's discriminant but is not reduced
    assert BinaryForm(1, 0, -82).disc == disc and not _is_reduced(1, 0, -82, s)
    bad = copy.deepcopy(good)
    bad["data"]["cycle"][3] = [1, 0, -82]
    assert not verify_certificate(q, -2, bad)
    # every entry stays reduced of the right discriminant; only the successors break
    for perm in permutations(cycle[1:]):
        if list(perm) != cycle[1:]:
            bad = dict(good, data=dict(good["data"], cycle=[cycle[0], *perm]))
            assert not verify_certificate(q, -2, bad), perm


def test_replays_refuse_a_certificate_of_the_wrong_shape():
    # SIEVE has no unary or binary replay, although 2x^2 misses 3 mod 4 and
    # x^2 - 2y^2 misses 3 mod 8
    assert not verify_certificate(UnaryForm(2), 3, Certificate("SIEVE", {"modulus": 4}))
    assert not verify_certificate(BinaryForm(1, 0, -2), 3, Certificate("SIEVE", {"modulus": 8}))
    # the zero form represents 0
    assert not verify_certificate(BinaryForm(0, 0, 0), 0, Certificate("NONSQUARE_DISC", {"disc": 0}))
    # LEGENDRE needs three nonzero coefficients, and no diagonal ternary form has fewer
    with pytest.raises(ValueError, match="diagonal coefficients must be nonzero"):
        DiagonalTernaryForm(1, 0, -3)
    # certificate data must be a dict, and JSON data an object, not a list of pairs
    q3 = DiagonalTernaryForm(1, 1, 1)
    assert verify_certificate(q3, 7, Certificate("SIEVE", {"modulus": 8}))
    assert not verify_certificate(q3, 7, Certificate("SIEVE", [("modulus", 8)]))
    assert verify_certificate(q3, 7, {"kind": "SIEVE", "data": {"modulus": 8}})
    assert not verify_certificate(q3, 7, {"kind": "SIEVE", "data": [["modulus", 8]]})


def test_definite_kind_mismatches():
    # DEFINITE on an indefinite form
    assert not verify_certificate(BinaryForm(1, 0, -2), -5, {"kind": "DEFINITE", "data": {"sign": 1}})
    # DEFINITE with the wrong sign relation: t on the represented side
    assert not verify_certificate(BinaryForm(2, 0, 3), 5, {"kind": "DEFINITE", "data": {"sign": 1}})
    # DEFINITE_EXHAUST where a witness exists inside the box
    assert not verify_certificate(BinaryForm(2, 0, 3), 5, {"kind": "DEFINITE_EXHAUST", "data": {}})
    # DEFINITE_EXHAUST never applies to t = 0
    assert not verify_certificate(BinaryForm(2, 0, 3), 0, {"kind": "DEFINITE_EXHAUST", "data": {}})
    # NONSQUARE_DISC on a square-discriminant form, and on a ternary form
    assert not verify_certificate(BinaryForm(1, 0, -4), 0, {"kind": "NONSQUARE_DISC", "data": {}})
    assert not verify_certificate(DiagonalTernaryForm(1, 1, -3), 0, {"kind": "NONSQUARE_DISC", "data": {}})
    # LEGENDRE on a binary form
    assert not verify_certificate(BinaryForm(1, 0, -2), 0, {"kind": "LEGENDRE", "data": {"reduced": [1, 0, -2], "condition": 0}})
    # SQUARE_DISC_EXHAUST on a form whose discriminant is not a square
    assert not verify_certificate(BinaryForm(1, 0, -2), 3, {"kind": "SQUARE_DISC_EXHAUST", "data": {"content": 1}})


def test_definite_exhaust_replay_matches_box_scan():
    # the replay completes the square in the last coordinate; it must accept
    # exactly the definite (q, t) that the full box scan finds no value t for
    rng = random.Random(53)
    exhaust = {"kind": "DEFINITE_EXHAUST", "data": {}}
    for _ in range(400):
        sign = rng.choice((-1, 1))
        t = rng.choice((-1, 1)) * rng.randint(1, 60)
        d = sign * rng.randint(1, 6)
        assert verify_certificate(UnaryForm(d), t, exhaust) == all(d * x * x != t for x in range(9))
        a, c = sign * rng.randint(1, 6), sign * rng.randint(1, 6)
        b = rng.randint(-2, 2) * min(abs(a), abs(c))
        if b * b < 4 * a * c:
            want = binary_witness(a, b, c, t, 24) is None
            assert verify_certificate(BinaryForm(a, b, c), t, exhaust) == want, (a, b, c, t)
        d3 = [sign * rng.randint(1, 6) for _ in range(3)]
        want = ternary_witness(*d3, t, 8) is None
        assert verify_certificate(DiagonalTernaryForm(*d3), t, exhaust) == want, (d3, t)


def test_definite_exhaust_past_the_full_box_limit_replays():
    # each full box (169**3, 3465**2, 3265**2 cells, and 2 * 10**7 + 1 for the
    # unary form) is past the 4,000,000-cell limit; the replays scan 85**2,
    # 1733 and 1633 cells and take one square root for the unary form
    for decide, q, t in (
        (ternary_represents, DiagonalTernaryForm(1, 1, 1), 7168),
        (binary_represents, BinaryForm(1, 0, 1), 3_000_003),
        (binary_represents, BinaryForm(1, 1, 1), 2_000_005),
        (unary_represents, UnaryForm(1), 10**14 + 1),
    ):
        assert _no_cert(decide, q, t).kind == "DEFINITE_EXHAUST", (q, t)


def test_definite_scan_past_the_cell_limit_is_undecided():
    # 7 * 4**12 is no sum of three squares, but the replay would scan
    # 10837**2 cells; 3 * 10**13 is no sum of two squares, but it would scan
    # 5477226 values of y. Both answer UNDECIDED naming the box, and a
    # DEFINITE_EXHAUST certificate for either does not replay.
    q3, t3 = DiagonalTernaryForm(1, 1, 1), 7 * 4**12
    v = ternary_represents(q3, t3)
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"bounds": [10836] * 3, "cell_limit": 4_000_000}
    q2, t2 = BinaryForm(1, 0, 1), 3 * 10**13
    v = binary_represents(q2, t2)
    assert v.kind == "UNDECIDED"
    assert v.bounds == {"bound_x": 5477225, "bound_y": 5477225, "cell_limit": 4_000_000}
    exhaust = {"kind": "DEFINITE_EXHAUST", "data": {}}
    assert not verify_certificate(q3, t3, exhaust)
    assert not verify_certificate(q2, t2, exhaust)


def test_malformed_input_never_raises():
    q = BinaryForm(1, 0, -2)
    junk = [
        None,
        42,
        "SIEVE",
        [],
        {},
        {"data": {"modulus": 8}},
        {"kind": "NO_SUCH_KIND", "data": {}},
        {"kind": "SIEVE"},
        {"kind": "SIEVE", "data": None},
        {"kind": "SIEVE", "data": {"modulus": "8"}},
        {"kind": "SIEVE", "data": {"modulus": None}},
        {"kind": "CYCLE", "data": {"cycle": "abc", "transform": 3}},
        {"kind": "CYCLE", "data": {"cycle": [[1]], "transform": [[1, 0], [0, 1]]}},
        {"kind": "LEGENDRE", "data": {"reduced": None, "condition": None}},
        {"kind": "DIVISIBILITY", "data": {"divisor": [2]}},
        Certificate("SIEVE", {"modulus": 10**9}),
        Certificate("", {}),
    ]
    for cert in junk:
        assert verify_certificate(q, 3, cert) is False
    # non-integer targets are rejected rather than crashing
    good = binary_represents(q, 3).certificate
    assert verify_certificate(q, "3", good) is False
    assert verify_certificate(q, 3.0, good) is False
    # a bool is not an integer target, though 2x^2 + 2y^2 misses 1 == True
    divisibility = {"kind": "DIVISIBILITY", "data": {"divisor": 2}}
    assert verify_certificate(BinaryForm(2, 0, 2), 1, divisibility)
    assert verify_certificate(BinaryForm(2, 0, 2), True, divisibility) is False


def test_fuzzed_dicts_never_raise():
    import random

    rng = random.Random(5)
    kinds = ["DIVISIBILITY", "SIEVE", "LEGENDRE", "CYCLE", "DEFINITE",
             "DEFINITE_EXHAUST", "SQUARE_DISC_EXHAUST", "NONSQUARE_DISC", "???"]
    keys = ["divisor", "modulus", "prime", "reduced", "condition", "cycle",
            "transform", "content", "sign", "bound", "disc", "extra"]
    values = [0, 1, -3, 8, "x", None, [], [1, 2], [[1, 2], [3, 4]], {"a": 1}, 2**80]
    forms = [UnaryForm(2), BinaryForm(1, 0, -2), BinaryForm(2, 0, 3),
             DiagonalTernaryForm(1, 1, -3), DiagonalTernaryForm(1, 1, 1)]
    for _ in range(400):
        data = {rng.choice(keys): rng.choice(values) for _ in range(rng.randint(0, 4))}
        cert = {"kind": rng.choice(kinds), "data": data}
        q = rng.choice(forms)
        t = rng.choice([0, 1, -2, 3, 7])
        result = verify_certificate(q, t, cert)
        assert result in (True, False)


def test_content_must_be_a_positive_integer_dividing_form_and_target():
    # SQUARE_DISC_EXHAUST, CYCLE and LOCAL divide the form and t by the
    # stated content before replaying; any other content is refused
    for q, t, kind in (
        (BinaryForm(2, 6, 0), 4, "SQUARE_DISC_EXHAUST"),
        (BinaryForm(2, 0, -68), -2, "CYCLE"),
        (BinaryForm(2, 0, -6), -2, "LOCAL"),
    ):
        cert = binary_represents(q, t).certificate
        assert cert.kind == kind and cert.data["content"] == 2
        assert verify_certificate(q, t, cert)
        for g in (0, -2, 3, 4, 2.0, "2"):
            assert not verify_certificate(q, t, {"kind": kind, "data": dict(cert.data, content=g)}), g
        assert not verify_certificate(q, 0, cert)
    # the content follows the exact_int rule: True is not 1
    for q, t, kind in (
        (BinaryForm(1, 0, -1), 2, "SQUARE_DISC_EXHAUST"),
        (BinaryForm(1, 0, -274), 2, "CYCLE"),
        (BinaryForm(1, 1, -10**6), 7, "LOCAL"),
    ):
        cert = binary_represents(q, t).certificate
        assert cert.kind == kind and cert.data["content"] == 1
        assert verify_certificate(q, t, cert)
        for g in (True, 1.0):
            assert not verify_certificate(q, t, {"kind": kind, "data": dict(cert.data, content=g)}), g
