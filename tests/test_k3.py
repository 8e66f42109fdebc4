"""Hyperbolic-lattice classification: verdicts and provenance."""

import ast
import dataclasses
import random
import re
from itertools import product
from pathlib import Path

import pytest

from k3lattice import k3, matrices
from k3lattice.k3 import (
    AutReport,
    K3Report,
    PicardData,
    _witness_scan,
    classify,
    has_isotropic_class,
    has_minus2_class,
    lattice_form,
    picard_from_json,
    report_to_json,
    revalidate_report,
)
from k3lattice.lattices import GramLattice, direct_sum, lattice_to_json, signature, standard_lattice
from k3lattice.qform import (
    BinaryForm,
    Certificate,
    DiagonalTernaryForm,
    RepresentationVerdict,
    SearchLimits,
    UnaryForm,
    verdict_to_json,
)
from oracles import random_symmetric, witness_scan_reference


def _diag(*entries):
    n = len(entries)
    return GramLattice(n, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


U = standard_lattice("U")


def test_picard_data_validation():
    with pytest.raises(ValueError):
        PicardData(_diag(2, 2))  # positive definite
    with pytest.raises(ValueError):
        PicardData(_diag(-2, -2))  # negative definite
    assert PicardData(U).rank == 2


def test_picard_data_refuses_lattices_of_no_k3():
    # rank 21 (U + E8(-1)^2 + <-2>^3) and <2> + <-2>^11, whose discriminant
    # group (Z/2)^12 has length 12 > 22 - 12: neither embeds primitively in
    # the K3 lattice, so neither is the Picard lattice of a K3 surface
    u_e8 = direct_sum(U, standard_lattice("E8(-1)"), standard_lattice("E8(-1)"))
    with pytest.raises(ValueError, match="rank 21, discriminant length 3 "):
        PicardData(direct_sum(u_e8, _diag(-2, -2, -2)))
    with pytest.raises(ValueError, match="rank 12, discriminant length 12 "):
        PicardData(_diag(2, *[-2] * 11))
    # accepted: rank 19 with l = 1, and <2> + <-2>^10, the unchecked case rho + l = 22
    assert PicardData(direct_sum(u_e8, _diag(-2))).rank == 19
    assert PicardData(_diag(2, *[-2] * 10)).rank == 11


def test_picard_data_refuses_odd_lattices():
    # every K3 Picard lattice is even: an odd diagonal entry is refused with
    # the entries that make it odd, the way a rank past 20 is
    for lattice, odd in (
        (_diag(1, -1), [1, -1]),
        (GramLattice(2, ((2, -4), (-4, 7))), [7]),
        (direct_sum(U, _diag(-3)), [-3]),
    ):
        with pytest.raises(ValueError, match=re.escape(f"no K3 Picard lattice: odd diagonal entries {odd} ")):
            PicardData(lattice)
    # an odd pairing off the diagonal keeps the lattice even: U pairs its basis vectors to 1
    assert PicardData(direct_sum(U, _diag(-2))).rank == 3


def test_lattice_form_shapes():
    assert lattice_form(_diag(2)) == UnaryForm(2)
    # the binary form doubles the off-diagonal pairing
    assert lattice_form(U) == BinaryForm(0, 2, 0)
    assert lattice_form(_diag(6, -2, -2)) == DiagonalTernaryForm(6, -2, -2)
    non_diag3 = GramLattice(3, [[0, 1, 0], [1, 0, 0], [0, 0, -8]])
    assert lattice_form(non_diag3) is None
    assert lattice_form(_diag(2, -2, -2, -2)) is None
    # a diagonal ternary form has no zero coefficient, so this Gram gets none
    assert lattice_form(_diag(2, 0, -2)) is None


def test_classify_hyperbolic_plane():
    report = classify(PicardData(U))
    assert report.rank == 2 and report.det == -1
    assert tuple(report.signature) == (1, 1, 0)
    assert report.has_minus2.kind == "YES"
    assert U.square(report.has_minus2.witness) == -2
    assert report.has_isotropic.kind == "YES"
    assert any(report.has_isotropic.witness)
    assert U.square(report.has_isotropic.witness) == 0
    assert report.aut.verdict == "FINITE"
    assert report.aut.status == "PROVEN"


def test_classify_computes_the_signature_once(monkeypatch):
    calls = []
    inertia = matrices.inertia

    def counted(m):
        calls.append(len(m))
        return inertia(m)

    monkeypatch.setattr(matrices, "inertia", counted)
    for lattice in (U, _diag(2), _diag(6, -2, -2), _diag(2, -2, -2, -2)):
        calls.clear()
        report = classify(PicardData(lattice))
        assert calls == [lattice.rank]  # the check in PicardData, once
        assert report.signature == (1, lattice.rank - 1, 0)


def test_classify_rank_one():
    report = classify(PicardData(_diag(2)))
    assert report.det == 2
    assert report.has_minus2.kind == "NO"
    assert report.has_isotropic.kind == "NO"
    assert report.aut.verdict == "FINITE" and report.aut.status == "PROVEN"


def test_classify_diagonal_rank_three():
    # square(-2) classes exist, no isotropic class: finiteness stays open here
    report = classify(PicardData(_diag(6, -2, -2)))
    assert report.has_minus2.kind == "YES"
    assert report.has_isotropic.kind == "NO"
    assert report.has_isotropic.certificate.kind == "LEGENDRE"
    assert report.aut.verdict == "UNKNOWN"
    assert report.aut.status is None
    # no square(-2) class at all: infinite, proven by the certificate
    report = classify(PicardData(_diag(4, -4, -4)))
    assert report.has_minus2.kind == "NO"
    assert report.has_minus2.certificate.kind == "DIVISIBILITY"
    assert report.has_isotropic.kind == "YES"
    assert report.aut.verdict == "INFINITE" and report.aut.status == "PROVEN"


def test_classify_non_diagonal_rank_three():
    # U + <-8> has no certified rank-3 decider; the witness scan still
    # settles both YES questions
    lat = GramLattice(3, [[0, 1, 0], [1, 0, 0], [0, 0, -8]])
    report = classify(PicardData(lat))
    assert report.has_minus2.kind == "YES"
    assert lat.square(report.has_minus2.witness) == -2
    assert report.has_isotropic.kind == "YES"
    assert report.aut.verdict == "UNKNOWN" and report.aut.status is None


def test_witness_scan_matches_reference_walk():
    # lattice_form gives ranks 1 and 2 a decider, so the scan sees rank >= 3
    rng = random.Random(131)
    found = {"basis or pair": 0, "box": 0, "none": 0}
    for _ in range(5000):
        n = rng.randint(3, 5)
        g = random_symmetric(rng, n, -12, 12)
        lattice = GramLattice(n, g)
        for t in (0, -2, rng.randint(-60, 60)):
            got = _witness_scan(lattice, t)
            assert got == witness_scan_reference(g, t), (g, t)
            if got is None:
                found["none"] += 1
            elif sum(map(abs, got)) > 2 or max(map(abs, got)) > 1:
                found["box"] += 1
            else:
                found["basis or pair"] += 1
    assert min(found.values()) >= 100, found
    # every box vector of square t has a zero head: only the last two
    # coordinates are nonzero, and one of them is +-2
    zero_head = [
        ([[6, 3, -8], [3, -2, -5], [-8, -5, -12]], 0, (0, 2, -1)),
        ([[4, 11, -6], [11, 10, 11], [-6, 11, 8]], -2, (0, 1, -2)),
        ([[1, 0, -9], [0, 0, -2], [-9, -2, 6]], -2, (0, 2, 1)),
        ([[-6, 1, 5, 6], [1, -1, -9, 11], [5, -9, -11, 7], [6, 11, 7, 3]], 29, (0, 0, 1, 2)),
        ([[10, 3, 6, -12], [3, -12, -6, -5], [6, -6, 8, 1], [-12, -5, 1, -1]], 0, (0, 0, 1, -2)),
        ([[12, -3, -9, -5], [-3, -9, 5, 10], [-9, 5, -5, 7], [-5, 10, 7, -2]], -50, (0, 0, 2, -1)),
    ]
    # t = 0 with a zero last-two block: q(0, y, x) = 0 for every (y, x),
    # the zero vector among them, which must never be the answer
    zero_tail = [
        ([[-2, 1, 3], [1, 0, 0], [3, 0, 0]], 0, (0, 1, 0)),
        ([[4, 1, 0, 2], [1, -6, 3, -1], [0, 3, 0, 0], [2, -1, 0, 0]], 0, (0, 0, 1, 0)),
    ]
    for g, t, expected in zero_head + zero_tail:
        got = _witness_scan(GramLattice(len(g), g), t)
        assert got == expected == witness_scan_reference(g, t), (g, t, got)


def test_classify_makes_no_pairing_calls_when_the_box_misses(monkeypatch):
    # no vector of the box |v_i| <= 2 has square 0 or -2
    gram = [[-6, -1, 1, 3], [-1, -8, -2, 3], [1, -2, -8, 2], [3, 3, 2, 6]]
    lattice = GramLattice(4, gram)
    assert witness_scan_reference(gram, 0) is None
    assert witness_scan_reference(gram, -2) is None
    data = PicardData(lattice)
    calls = []
    pairing = GramLattice.pairing

    def counted(self, u, v):
        calls.append((u, v))
        return pairing(self, u, v)

    monkeypatch.setattr(GramLattice, "pairing", counted)
    report = classify(data)
    assert calls == []
    assert report.has_minus2.kind == "UNDECIDED"
    assert report.has_isotropic.kind == "UNDECIDED"


def test_verdict_helpers_match_classify():
    data = PicardData(_diag(4, -4, -4))
    report = classify(data)
    assert has_minus2_class(data) == report.has_minus2
    assert has_isotropic_class(data) == report.has_isotropic


def test_revalidate_report_accepts_honest_and_rejects_tampered():
    for lat in [U, _diag(2), _diag(6, -2, -2), _diag(4, -4, -4)]:
        data = PicardData(lat)
        report = classify(data)
        assert revalidate_report(data, report)

    data = PicardData(_diag(4, -4, -4))
    report = classify(data)
    # wrong witness vector
    bad = dataclasses.replace(
        report, has_isotropic=RepresentationVerdict.yes((1, 1, 1))
    )
    assert not revalidate_report(data, bad)
    # zero vector can never witness t = 0
    bad = dataclasses.replace(
        report, has_isotropic=RepresentationVerdict.yes((0, 0, 0))
    )
    assert not revalidate_report(data, bad)
    # broken certificate
    bad = dataclasses.replace(
        report,
        has_minus2=RepresentationVerdict.no(Certificate("DIVISIBILITY", {"divisor": 3})),
    )
    assert not revalidate_report(data, bad)
    # aut is read from the sub-verdicts, so a flipped proven aut verdict
    # cannot even be stored
    with pytest.raises(TypeError):
        dataclasses.replace(report, aut=dataclasses.replace(report.aut, verdict="FINITE"))


def test_revalidate_report_refuses_a_report_on_another_lattice():
    data = PicardData(_diag(4, -4, -4))
    report = classify(data)
    assert (report.rank, report.det, tuple(report.signature)) == (3, 64, (1, 2, 0))
    for other in (
        _diag(1, -1, -999),  # another det
        _diag(2, -2, -2, -2, -2, -2, -2),  # another rank
        _diag(1, 1),  # another signature
        _diag(-4, 4, -4),  # the same rank, det and signature on another Gram
    ):
        forged = dataclasses.replace(report, lattice=other)
        assert not revalidate_report(data, forged), other
    # rank, det and signature are read from the lattice, so no copy can disagree
    for name in ("rank", "det", "signature"):
        with pytest.raises(TypeError):
            dataclasses.replace(report, **{name: 1})


def test_aut_follows_the_sub_verdicts():
    # aut is derived, never stored: forging the sub-verdicts moves it, and
    # revalidate_report refuses the forged sub-verdicts
    fake_no = RepresentationVerdict.no(Certificate("DIVISIBILITY", {"divisor": 3}))
    data = PicardData(U)
    report = classify(data)
    assert (report.aut.verdict, report.aut.status) == ("FINITE", "PROVEN")
    forged = dataclasses.replace(report, has_minus2=fake_no, has_isotropic=fake_no)
    assert (forged.aut.verdict, forged.aut.status) == ("INFINITE", "PROVEN")
    assert not revalidate_report(data, forged)
    # at rank 3 a forged -2 NO alone reads INFINITE
    data = PicardData(_diag(6, -2, -2))
    report = classify(data)
    assert report.aut.verdict == "UNKNOWN"
    forged = dataclasses.replace(report, has_minus2=fake_no)
    assert (forged.aut.verdict, forged.aut.status) == ("INFINITE", "PROVEN")
    assert not revalidate_report(data, forged)
    assert [f.name for f in dataclasses.fields(AutReport)] == ["verdict", "reason"]
    assert [f.name for f in dataclasses.fields(K3Report)] == ["lattice", "has_minus2", "has_isotropic"]


def test_rank_two_unknown_rule():
    # an even rank-2 lattice never reaches an undecided binary -2 (content 2
    # gives t1 = -1, and the cycle, LOCAL or DIVISIBILITY decides it), so the
    # rank-2 fall-through is read on hand-built reports: <2> + <-16> answers
    # NO to both questions, and an UNDECIDED on either side leaves aut UNKNOWN
    data = PicardData(_diag(2, -16))
    report = classify(data, SearchLimits(1))
    assert (report.has_minus2.kind, report.has_isotropic.kind) == ("NO", "NO")
    assert (report.aut.verdict, report.aut.status) == ("INFINITE", "PROVEN")
    undecided = RepresentationVerdict.undecided({"search_bound": 1})
    for forged in (
        K3Report(data.lattice, undecided, report.has_isotropic),
        K3Report(data.lattice, report.has_minus2, undecided),
    ):
        assert (forged.aut.verdict, forged.aut.status) == ("UNKNOWN", None)
        assert forged.aut.reason == "rank 2 with an undecided sub-verdict"
        assert revalidate_report(data, forged)
    # and no even hyperbolic Gram with entries in [-10, 10] stops undecided at bound 1
    for a, b, c in product(range(-10, 11, 2), range(-10, 11), range(-10, 11, 2)):
        if a * c - b * b < 0:
            even = PicardData(GramLattice(2, ((a, b), (b, c))))
            assert classify(even, SearchLimits(1)).has_minus2.kind != "UNDECIDED", (a, b, c)
    # a YES on either side decides FINITE whatever the other says: U has both
    report = classify(PicardData(U))
    assert K3Report(U, undecided, report.has_isotropic).aut.verdict == "FINITE"
    assert K3Report(U, report.has_minus2, undecided).aut.verdict == "FINITE"


def test_revalidate_report_rejects_malformed_sub_verdicts():
    # only the sub-verdict check can reject these: U's aut stays FINITE on
    # an isotropic YES
    data = PicardData(U)
    report = classify(data)
    for bad in (
        RepresentationVerdict.yes((1,)),  # a witness of the wrong length
        RepresentationVerdict("NO"),  # a NO with no certificate
        RepresentationVerdict("MAYBE"),  # an unknown kind
    ):
        assert not revalidate_report(data, dataclasses.replace(report, has_minus2=bad)), bad


def test_revalidate_report_accepts_undecided_sub_verdicts():
    # the rank-4 Gram whose box scan misses both 0 and -2
    gram = [[-6, -1, 1, 3], [-1, -8, -2, 3], [1, -2, -8, 2], [3, 3, 2, 6]]
    data = PicardData(GramLattice(4, gram))
    report = classify(data)
    assert (report.has_minus2.kind, report.has_isotropic.kind) == ("UNDECIDED", "UNDECIDED")
    assert revalidate_report(data, report)


def test_every_seeded_classify_report_revalidates():
    rng = random.Random(15)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        lattice = GramLattice(n, random_symmetric(rng, n, -6, 6))
        if signature(lattice) != (1, n - 1, 0):
            continue
        if any(lattice.gram[i][i] % 2 for i in range(n)):
            with pytest.raises(ValueError, match="odd diagonal entries"):
                PicardData(lattice)
            continue
        data = PicardData(lattice)
        report = classify(data)
        assert revalidate_report(data, report), lattice.gram
        # the JSON aut entry repeats the report's own two sub-verdicts
        aut = report_to_json(report)["aut"]
        assert aut["minus2"] == verdict_to_json(report.has_minus2)
        assert aut["isotropic"] == verdict_to_json(report.has_isotropic)
        checked += 1


def test_report_json_shape():
    report = classify(PicardData(_diag(6, -2, -2)))
    out = report_to_json(report)
    # the report's own facts only: labels, extras and citations are the catalog's
    assert sorted(out) == ["aut", "det", "has_isotropic", "has_minus2", "rank", "signature"]
    assert sorted(out["aut"]) == ["isotropic", "minus2", "reason", "verdict"]
    assert out["signature"] == [1, 2, 0]
    assert out["has_minus2"]["kind"] == "YES"
    assert out["has_isotropic"]["certificate"]["kind"] == "LEGENDRE"
    # UNKNOWN verdicts carry no provenance status at all
    assert out["aut"]["verdict"] == "UNKNOWN"
    assert "status" not in out["aut"]
    report = classify(PicardData(U))
    assert report_to_json(report)["aut"]["status"] == "PROVEN"


def test_k3_names_no_catalog_fact():
    # k3 proves and the catalog cites: no identifier or string key of k3.py
    # names a citation, an assertion, an extra or a label
    catalog_words = {"citation", "PAPER_ASSERTED", "extras", "assertions", "label"}
    tree = ast.parse(Path(k3.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            named.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert named & catalog_words == set()
    assert catalog_words.isdisjoint(k3.__all__)


def test_picard_from_json():
    data = picard_from_json({"lattice": lattice_to_json(U)})
    assert data.lattice.gram == U.gram
    # a sublattice spec contributes its induced Gram matrix
    amb = lattice_to_json(standard_lattice("K3"))
    sub = {"ambient": amb, "basis": [[1] + [0] * 21, [0, 1] + [0] * 20]}
    data = picard_from_json({"lattice": sub})
    assert data.lattice.gram == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        picard_from_json({"known_minus2_classes": []})
    with pytest.raises(ValueError):
        picard_from_json([])


@pytest.mark.parametrize(
    "key, value",
    [("known_minus2_classes", [[1, -1]]), ("polarization", [1, 2]), ("label", "U")],
)
def test_picard_from_json_refuses_every_key_but_lattice(key, value):
    # the retired curve-class and polarization fields are refused, not ignored
    with pytest.raises(ValueError, match=re.escape(f'only a "lattice" field; got [{key!r}]')):
        picard_from_json({"lattice": {"name": "U"}, key: value})


def test_picard_data_refuses_non_integers():
    with pytest.raises(ValueError, match="expected an integer"):
        picard_from_json({"lattice": {"gram": [[0, "1"], [1, 0]]}})
    with pytest.raises(ValueError, match="expected an integer"):
        picard_from_json({"lattice": {"ambient": {"name": "U"}, "basis": [[1.0, -1]]}})
