"""Catalog: the claim3 plane search, the five families, the theorem-3
example, and the aggregate verification table."""

import dataclasses
import random
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from k3lattice import catalog, matrices, qform
from k3lattice.catalog import (
    CatalogMismatch,
    Claim3Input,
    SearchExhausted,
    certify_family,
    claim3_result_to_json,
    claim3_search,
    family,
    paper_verification,
    theorem3_example,
    theorem3_to_json,
)
from k3lattice.embeddings import EmbeddedSublattice, induced_gram, is_primitive, primitive_closure
from k3lattice.k3 import AutReport, PicardData, lattice_form, revalidate_report
from k3lattice.lattices import GramLattice, direct_sum, standard_lattice
from k3lattice.ntheory import is_square
from k3lattice.qform import (
    BinaryForm,
    Certificate,
    RepresentationVerdict,
    SearchLimits,
    verdict_to_json,
    verify_certificate,
)

from oracles import (
    claim3_reference_walk,
    plane_normal_reference,
    theorem3_basis_reference,
    theorem3_planes_reference,
    theorem3_reference_walk,
)


K3 = standard_lattice("K3")


def test_claim3_input_validation():
    with pytest.raises(ValueError):
        Claim3Input(0, 0, 0)
    with pytest.raises(ValueError):
        Claim3Input(-2, 1, 1)
    assert Claim3Input(1, 0, 0).A == 1


def test_claim3_frozen_traces():
    table = [
        # (A, B, C) -> N, M, n, m, gram, minus2 certificate kind; x**2 - 8 y**2
        # = -1 has no 2-adic solution, so the Gram (2, -16) is a LOCAL NO at 2
        ((1, 0, 0), 1, 2, 4, 8, ((2, 0), (0, -16)), "LOCAL"),
        ((2, 0, 0), 1, 2, 2, 4, ((4, 0), (0, -8)), "DIVISIBILITY"),
        ((2, 1, 0), 1, 1, 2, 2, ((4, 2), (2, -4)), "DIVISIBILITY"),
        ((1, 0, 1), 1, 6, 4, 24, ((2, 0), (0, -16)), "LOCAL"),
    ]
    for (a, b, c), n_, m_, nn, mm, gram, m2kind in table:
        res = claim3_search(Claim3Input(a, b, c))
        assert (res.N, res.M, res.n, res.m) == (n_, m_, nn, mm), (a, b, c, res)
        assert res.gram == gram
        assert res.zero_verdict.kind == "NO"
        assert res.minus2_verdict.kind == "NO"
        assert res.minus2_verdict.certificate.kind == m2kind
        q = BinaryForm(gram[0][0], 2 * gram[0][1], gram[1][1])
        assert verify_certificate(q, 0, res.zero_verdict.certificate)
        assert verify_certificate(q, -2, res.minus2_verdict.certificate)
        assert all(f == 1 for f in res.invariant_factors)


def test_claim3_vectors_realize_the_gram():
    res = claim3_search(Claim3Input(2, 1, 0))
    assert res.minus2_verdict.certificate.data["divisor"] == 4
    sub = EmbeddedSublattice(K3, [res.vector_l, res.vector_generator])
    assert induced_gram(sub).gram == res.gram
    assert is_primitive(sub)
    # the first generator is the polarization: square 2A > 0
    assert K3.square(res.vector_l) == 2 * res.inputs.A
    # the searched plane is hyperbolic
    g = res.gram
    assert g[0][1] * g[0][1] - g[0][0] * g[1][1] > 0


def test_claim3_search_exhaustion():
    with pytest.raises(SearchExhausted) as exc:
        claim3_search(Claim3Input(1, 0, 0), bound=1)
    assert exc.value.bound == 1
    assert "1" in str(exc.value)


def _assert_matches_reference_walk(a, b, c, bound):
    want = claim3_reference_walk(a, b, c, bound)
    if want is None:
        with pytest.raises(SearchExhausted) as exc:
            claim3_search(Claim3Input(a, b, c), bound)
        assert str(exc.value) == f"no certified plane found with N, M <= {bound}"
        assert exc.value.bound == bound
    else:
        assert claim3_result_to_json(claim3_search(Claim3Input(a, b, c), bound)) == want, (a, b, c, bound)


def test_claim3_matches_reference_walk_on_full_grid():
    # the benchmark grid A 1..12, B, C 0..11 at a small bound
    for a in range(1, 13):
        for b in range(12):
            for c in range(12):
                _assert_matches_reference_walk(a, b, c, 12)


def test_claim3_matches_reference_walk_on_sampled_grid():
    rng = random.Random(2001)
    grid = [(a, b, c) for a in range(1, 13) for b in range(12) for c in range(12)]
    for a, b, c in rng.sample(grid, 200):
        _assert_matches_reference_walk(a, b, c, 50)


def test_claim3_matches_reference_walk_by_discriminant_sign():
    # B^2 - 4AC < 0 ends diagonals early; = 0 and > 0 never do; negative B
    # and C as well
    cases = {
        -1: [(1, 0, 1), (3, 1, 5), (5, 3, 7), (12, 11, 11), (1, -2, 3), (12, -11, 11)],
        0: [(1, 2, 1), (2, 4, 2), (3, 6, 3), (4, 4, 1), (1, -2, 1), (3, -6, 3)],
        1: [(1, 3, 1), (1, 5, 0), (2, 1, 0), (7, 11, 2), (1, -1, -1), (2, -3, 1), (3, -1, -4), (5, -7, 2), (7, -5, -3)],
    }
    for sign, triples in cases.items():
        for a, b, c in triples:
            d = b * b - 4 * a * c
            assert (d > 0) - (d < 0) == sign
            for bound in (1, 2, 7, 50):
                _assert_matches_reference_walk(a, b, c, bound)


def test_claim3_walk_starts_at_s0_and_stops_at_a_failing_first_pair(monkeypatch):
    # s0 = 2 + floor(k|d| / 4A) is the first diagonal whose pair N = 1 is
    # hyperbolic; from s = bound + 1 on, a diagonal whose first pair
    # (s - bound, bound) is not hyperbolic ends the walk. Every case exhausts
    # its bound, after as many integer square tests as hyperbolic pairs walked
    squares = []
    monkeypatch.setattr(catalog, "is_square", lambda x: squares.append(x) or is_square(x))
    cases = [
        # (A, B, C), bound, s0, square tests
        ((1, 0, 2), 7, 10, 0),  # s0 past bound + 1: its first pair (3, 7) fails
        ((1, -2, 3), 7, 10, 0),
        ((1, 0, 13), 50, 54, 0),
        ((1, 0, 5), 7, 22, 0),  # s0 past 2 * bound: no diagonal is walked
        ((1, 0, 1), 1, 6, 0),
        ((3, -1, 1), 1, 4, 0),
        ((1, 0, 26), 50, 106, 0),
        ((12, -11, 11), 50, 103, 0),
        # s0 = bound + 1: the pair (1, bound) has a square discriminant, and
        # the next diagonal's first pair (2, bound) fails
        ((2, -10, 13), 2, 3, 1),
        ((2, 0, 3), 7, 8, 1),
        ((4, 3, 13), 50, 51, 1),
    ]
    for (a, b, c), bound, s0, tests in cases:
        k = a if a >= 2 else 4
        assert 2 + k * (4 * a * c - b * b) // (4 * a) == s0 > bound, (a, b, c)
        _assert_matches_reference_walk(a, b, c, bound)
        squares.clear()
        with pytest.raises(SearchExhausted):
            claim3_search(Claim3Input(a, b, c), bound)
        assert len(squares) == tests, (a, b, c, bound)


def test_claim3_far_bound_does_no_work(monkeypatch):
    # d = -4C puts s0 = 2 + 4C past 2 * bound for C = 10**12, where a walk over
    # every diagonal would take about half an hour, and between bound + 1 and
    # 2 * bound for C = 375 * 10**6, where the first diagonal's first pair
    # fails and ends the walk before 5 * 10**8 more diagonals
    calls = []
    monkeypatch.setattr(catalog, "is_square", lambda x: calls.append("is_square"))
    for name in ("binary_represents_zero", "binary_represents"):
        monkeypatch.setattr(qform, name, lambda *args, name=name: calls.append(name))
    for c in (10**12, 375 * 10**6):
        with pytest.raises(SearchExhausted) as exc:
            claim3_search(Claim3Input(1, 0, c), 10**9)
        assert exc.value.bound == 10**9
    assert calls == []


def _claim3_grid(bound):
    """claim3_search over the benchmark grid A 1..12, B, C 0..11: the results
    of the inputs that do not exhaust the bound."""
    results = []
    for a in range(1, 13):
        for b in range(12):
            for c in range(12):
                try:
                    results.append(claim3_search(Claim3Input(a, b, c), bound))
                except SearchExhausted:
                    pass
    return results


def test_claim3_invariant_factors_match_the_smith_form():
    # every plane the grid accepts at bound 50 is primitive: the Smith form
    # of its 6 x 2 U^3 block has invariant factors (1, 1), which the result
    # records, and its Gram is the dense K3 pairing of its two 22-vectors
    k3 = standard_lattice("K3")
    results = _claim3_grid(50)
    assert len(results) == 1338
    for res in results:
        block = [[p, q] for p, q in zip(res.vector_l[:6], res.vector_generator[:6])]
        factors = tuple(matrices.smith_normal_form(block).invariant_factors())
        assert factors == res.invariant_factors == (1, 1), res.inputs
        cols = (res.vector_l, res.vector_generator)
        assert res.gram == tuple(tuple(k3.pairing(x, y) for y in cols) for x in cols), res.inputs


@pytest.mark.parametrize("entry", [(0, 1), (2, 3), (4, 5), (0, 0)])
def test_claim3_gram_cross_check_reads_the_k3_gram(monkeypatch, entry):
    # the cross-check pairs through the U^3 entries read from the K3 Gram, so
    # one changed entry there makes the search refuse the plane it finds
    gram = [list(row) for row in standard_lattice("K3").gram]
    gram[entry[0]][entry[1]] = 2
    changed = SimpleNamespace(gram=tuple(map(tuple, gram)))
    monkeypatch.setattr(catalog, "standard_lattice", lambda name: changed if name == "K3" else standard_lattice(name))
    catalog._u3_entries.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="induced Gram differs from the closed form"):
            claim3_search(Claim3Input(2, 1, 3))
    finally:
        catalog._u3_entries.cache_clear()


def test_claim3_grid_takes_no_smith_form_or_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("claim3_search reached the matrix layer")

    for name in ("smith_normal_form", "mat_mul"):
        monkeypatch.setattr(matrices, name, refuse)
    _claim3_grid(50)


def test_claim3_json():
    res = claim3_search(Claim3Input(1, 0, 0))
    out = claim3_result_to_json(res)
    assert out["inputs"] == {"A": 1, "B": 0, "C": 0}
    assert out["gram"] == [[2, 0], [0, -16]]
    assert out["zero"]["kind"] == "NO"
    assert out["minus2"]["certificate"] == {"kind": "LOCAL", "data": {"content": 2, "prime": 2}}
    assert len(out["l"]) == 22 and len(out["generator"]) == 22


def test_claim3_plane_the_minus2_decider_leaves_open_raises(monkeypatch):
    # on a plane whose zero answer is NO the -2 answer is NO by construction
    # (DIVISIBILITY by 2A for A >= 2, LOCAL at 2 for A = 1), so any other
    # answer is a decider regression: it raises instead of moving on to a
    # later plane
    def undecided(q, t, limits=None):
        return RepresentationVerdict.undecided({"patched": 1})

    monkeypatch.setattr(qform, "binary_represents", undecided)
    for inputs in (Claim3Input(1, 0, 0), Claim3Input(2, 3, 1)):
        with pytest.raises(RuntimeError, match="internal error: the -2 decider"):
            claim3_search(inputs)


def test_claim3_grid_runs_each_decider_once_per_found_plane(monkeypatch):
    # the zero question of every other pair is settled by an integer square
    # test, and an exhausted input reaches no decider
    calls = []
    for name in ("binary_represents_zero", "binary_represents"):
        decider = getattr(qform, name)
        monkeypatch.setattr(qform, name, lambda *args, name=name, decider=decider: calls.append(name) or decider(*args))
    found = 0
    for a, b, c in product(range(1, 13), range(12), range(12)):
        calls.clear()
        try:
            claim3_search(Claim3Input(a, b, c), 50)
        except SearchExhausted:
            assert calls == [], (a, b, c)
        else:
            found += 1
            assert calls == ["binary_represents_zero", "binary_represents"], (a, b, c)
    assert found == 1338


def test_claim3_plane_the_zero_decider_leaves_open_raises(monkeypatch):
    # the search only stops at a pair whose discriminant is not a square, so
    # the zero answer there is NO; any other answer is a decider regression
    monkeypatch.setattr(qform, "binary_represents_zero", lambda q: RepresentationVerdict.undecided({"patched": 1}))
    for inputs in (Claim3Input(1, 0, 0), Claim3Input(2, 3, 1)):
        with pytest.raises(RuntimeError, match="internal error: the zero decider"):
            claim3_search(inputs)


def test_family_validation():
    with pytest.raises(ValueError):
        family(1, n=3)  # divisible by 3
    for n in (0, -3):  # -3 is divisible by 3 as well; positivity is checked first
        with pytest.raises(ValueError, match="needs a positive n"):
            family(1, n=n)
    with pytest.raises(ValueError, match="family 1 needs a positive n for a hyperbolic lattice"):
        family(1, n=-1)
    with pytest.raises(ValueError):
        family(6)
    assert family(1).n == 1  # default parameter
    assert family(2, n=7).n is None  # ignored off family 1


def test_catalog_inputs_follow_the_exact_int_rule():
    # a bool or a float is refused, never read as the integer it compares equal to
    refused = [
        lambda: family(1, True),
        lambda: family(True),
        lambda: family(2, 7.0),
        lambda: Claim3Input(1.5, 0, 0),
        lambda: Claim3Input(1, True, 0),
        lambda: theorem3_example(True),
        lambda: claim3_search(Claim3Input(1, 0, 0), True),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="expected an integer"):
            call()


def _row(spec):
    """The family's paper-verify "report" object: the proven report and what the catalog cites."""
    return catalog._family_report_to_json(spec, certify_family(spec))


def test_family_1_certification():
    spec = family(1, 5)
    report, row = certify_family(spec), _row(spec)
    assert spec.label == row["label"] == "family-1(n=5)"
    assert report.has_minus2.kind == "YES"
    assert report.has_isotropic.kind == "NO"
    assert report.has_isotropic.certificate.kind == "LEGENDRE"
    # the proven report leaves aut UNKNOWN; the row cites the INFINITE verdict
    assert (report.aut.verdict, report.aut.status) == ("UNKNOWN", None)
    aut = row["aut"]
    assert (aut["verdict"], aut["status"], aut["citation"]) == ("INFINITE", "PAPER_ASSERTED", "Nikulin [Ni4]")
    assert spec.extras == row["extras"] == {"disc_group_order": 120}
    assert spec.checks == {"disc_group_order_is_24n": True}
    # the discriminant group order tracks the parameter: |det| = 24 n
    for n in (1, 2, 4, 7):
        assert family(1, n).extras["disc_group_order"] == 24 * n
        assert family(1, n).checks == {"disc_group_order_is_24n": True}


def test_family_1_at_n_1_asserts_no_aut_verdict():
    # <6> + <-2> + <-2> has finite Aut (Vinberg's walk from (1, 0, 0) closes
    # on a compact right-angled hexagon), so the Nikulin overlay, which holds
    # only for large n, must not fire here: the rules leave aut UNKNOWN, and
    # nothing is cited in its place
    spec = family(1, 1)
    assert spec.aut_overlay is None and spec.expected["aut"] == "FINITE"
    for spec in (family(1), family(1, 1)):
        assert certify_family(spec).aut.verdict == "UNKNOWN"
        aut = _row(spec)["aut"]
        assert aut["verdict"] == "UNKNOWN" and "status" not in aut and "citation" not in aut
    for n in (2, 4, 5):
        spec = family(1, n)
        assert certify_family(spec).aut.verdict == "UNKNOWN"
        aut = _row(spec)["aut"]
        assert (aut["verdict"], aut["status"], aut["citation"]) == ("INFINITE", "PAPER_ASSERTED", "Nikulin [Ni4]")


def test_family_2_certification():
    spec = family(2)
    report = certify_family(spec)
    assert report.has_minus2.kind == "NO"
    assert report.has_minus2.certificate.data["divisor"] == 4
    assert report.has_isotropic.kind == "YES"
    assert report.aut.verdict == "INFINITE" and report.aut.status == "PROVEN"
    assert "citation" not in _row(spec)["aut"]
    assert spec.extras == {"primitive_zeros_height_30": 44}
    assert spec.checks == {"at_least_10_primitive_zeros_height_30": True}


def test_family_3_certification():
    spec = family(3)
    report = certify_family(spec)
    assert report.det == 8  # det U = -1 times det <-8>
    assert report.has_minus2.kind == "YES"
    assert report.has_isotropic.kind == "YES"
    assert report.aut.verdict == "UNKNOWN"
    aut = _row(spec)["aut"]
    assert (aut["verdict"], aut["status"], aut["citation"]) == ("INFINITE", "PAPER_ASSERTED", "Shioda [Sh]")
    assert spec.extras == {
        "mordell_weil_rank": 1,
        "section_height": 8,
        "c0_dot_c1": 2,
        "pencil_square": 0,
        "pencil_is_pencil": True,
        "max_singular_fibers": 24,
    }
    assert spec.checks == {"mordell_weil_rank_1": True, "c0_dot_c1_is_2": True, "pencil_square_0": True}


def test_family_4_certification():
    spec = family(4)
    report = certify_family(spec)
    assert report.has_minus2.kind == "NO"
    assert report.has_isotropic.kind == "NO"
    assert report.aut.verdict == "INFINITE" and report.aut.status == "PROVEN"
    assert spec.extras == spec.checks == {} and spec.assertions == ()
    assert not {"extras", "assertions"} & set(_row(spec))


def test_family_5_certification():
    spec = family(5)
    report = certify_family(spec)
    assert report.det == 2
    assert spec.checks == {"det_is_2": True}
    assert report.has_minus2.kind == "YES"
    assert report.has_isotropic.kind == "YES"
    assert report.aut.verdict == "UNKNOWN"
    aut = _row(spec)["aut"]
    assert (aut["verdict"], aut["status"], aut["citation"]) == ("FINITE", "PAPER_ASSERTED", "Nikulin [Ni3]")
    assert len(spec.assertions) == 3
    assert _row(spec)["assertions"] == list(spec.assertions)
    for item in spec.assertions:
        assert item["status"] == "PAPER_ASSERTED"
        assert item["citation"] == "Nikulin [Ni3]; Kondo [Ko1]"
    statements = " ".join(item["statement"] for item in spec.assertions)
    assert "24 smooth rational curves" in statements
    assert "S3 x mu2" in statements


def test_aut_overlays_carry_provenance_only():
    # an overlay names its reason and citation; the asserted verdict is the
    # expected table's, and the row repeats the report's own sub-verdicts
    for fid, n in [(1, 5), (3, None), (5, None)]:
        spec = family(fid, n)
        assert set(spec.aut_overlay) == {"reason", "citation"}
        report = certify_family(spec)
        assert report.aut.verdict == "UNKNOWN"
        aut = _row(spec)["aut"]
        assert (aut["verdict"], aut["status"]) == (spec.expected["aut"], "PAPER_ASSERTED")
        assert (aut["reason"], aut["citation"]) == (spec.aut_overlay["reason"], spec.aut_overlay["citation"])
        assert (aut["minus2"], aut["isotropic"]) == (
            verdict_to_json(report.has_minus2),
            verdict_to_json(report.has_isotropic),
        )


def test_certified_families_revalidate():
    for fid, n in [(1, 5), (2, None), (3, None), (4, None), (5, None)]:
        spec = family(fid, n)
        report = certify_family(spec)
        sub = EmbeddedSublattice(K3, spec.generators)
        assert revalidate_report(PicardData(induced_gram(sub)), report), spec.label
        assert revalidate_report(PicardData(GramLattice(3, spec.target_gram)), report), spec.label


def test_forged_aut_overlays_are_refused_by_certify_family():
    # an overlay is only a cited FINITE or INFINITE verdict, and certify_family,
    # where overlays are read, refuses any other before a report exists
    spec = family(3)
    for forged in (
        dataclasses.replace(spec, aut_overlay={"reason": "trust me"}),  # a verdict with no citation
        dataclasses.replace(spec, aut_overlay={**spec.aut_overlay, "citation": None}),
        dataclasses.replace(spec, aut_overlay={**spec.aut_overlay, "citation": ""}),
        dataclasses.replace(spec, expected={**spec.expected, "aut": "UNKNOWN"}),  # an assertion of nothing
    ):
        with pytest.raises(CatalogMismatch, match="family-3: an aut overlay must be a cited FINITE or INFINITE"):
            certify_family(forged)
    # a citation cannot replace what the rank rules prove: family 4's double NO proves INFINITE
    cited = {"reason": "asserted", "citation": "anyone"}
    spec = family(4)
    contradicted = dataclasses.replace(spec, aut_overlay=cited, expected={**spec.expected, "aut": "FINITE"})
    with pytest.raises(CatalogMismatch, match="proven aut verdict INFINITE contradicts expected FINITE"):
        certify_family(contradicted)
    # where the rules decide aut, an overlay is never read: the row keeps the proof and cites nothing
    aut = _row(dataclasses.replace(spec, aut_overlay=cited))["aut"]
    assert (aut["verdict"], aut["status"]) == ("INFINITE", "PROVEN") and "citation" not in aut
    # a report stores no aut entry at all, cited or not
    report = certify_family(family(3))
    for name in ("aut_overlay", "aut"):
        with pytest.raises(TypeError):
            dataclasses.replace(report, **{name: AutReport("INFINITE", "asserted")})
    # and a sub-verdict forged to let the rules decide takes the citation out of the row
    fake_no = RepresentationVerdict.no(Certificate("DIVISIBILITY", {"divisor": 3}))
    forged = dataclasses.replace(report, has_minus2=fake_no)
    aut = catalog._family_report_to_json(family(3), forged)["aut"]
    assert (aut["verdict"], aut["status"]) == ("INFINITE", "PROVEN") and "citation" not in aut
    assert not revalidate_report(PicardData(forged.lattice), forged)


def test_corrupted_family_spec_raises():
    spec = family(2)
    bad = dataclasses.replace(spec, target_gram=((4, 0, 0), (0, -4, 0), (0, 0, -6)))
    with pytest.raises(CatalogMismatch) as exc:
        certify_family(bad)
    assert "family-2" in str(exc.value)
    bad = dataclasses.replace(
        spec, expected={"has_minus2": "YES", "has_isotropic": "YES", "aut": "INFINITE"}
    )
    with pytest.raises(CatalogMismatch):
        certify_family(bad)
    # a proven aut verdict cannot be overridden by a contradicting table
    bad = dataclasses.replace(
        spec, expected={"has_minus2": "NO", "has_isotropic": "YES", "aut": "FINITE"}
    )
    with pytest.raises(CatalogMismatch):
        certify_family(bad)


def test_theorem3_example_semantics():
    ex = theorem3_example()
    assert ex.height_bound == 10
    assert len(ex.generators) == 2
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    sub = EmbeddedSublattice(ambient, [list(g) for g in ex.generators])
    assert is_primitive(sub)
    lat = induced_gram(sub)
    assert lat.gram == ex.gram
    q = BinaryForm(ex.gram[0][0], 2 * ex.gram[0][1], ex.gram[1][1])
    assert q.disc > 0 and not is_square(q.disc)
    assert ex.zero_verdict.kind == "NO" and ex.minus2_verdict.kind == "NO"
    assert verify_certificate(q, 0, ex.zero_verdict.certificate)
    assert verify_certificate(q, -2, ex.minus2_verdict.certificate)
    # the recorded generators are already primitively closed
    assert primitive_closure(sub).columns == sub.columns
    out = theorem3_to_json(ex)
    assert out["gram"] == [list(r) for r in ex.gram]
    assert out["zero"]["kind"] == "NO" and out["minus2"]["kind"] == "NO"


def test_theorem3_exhaustion():
    with pytest.raises(SearchExhausted) as exc:
        theorem3_example(height_bound=0)
    assert exc.value.bound == 0


def test_theorem3_negative_height_raises():
    for bad in (-1, -5):
        with pytest.raises(ValueError):
            theorem3_example(height_bound=bad)


def _assert_theorem3_matches_reference_walk(height_bound, limits):
    want = theorem3_reference_walk(height_bound, limits)
    if want is None:
        with pytest.raises(SearchExhausted) as exc:
            theorem3_example(height_bound)
        assert str(exc.value) == f"no double-NO primitive plane found with coordinate height <= {height_bound}"
        assert exc.value.bound == height_bound
    else:
        assert theorem3_to_json(theorem3_example(height_bound)) == want, (height_bound, limits)


def test_theorem3_matches_reference_walk():
    # the walk takes no search bound: the reference walk gives the same
    # answer at the default bound and at bounds 5 and 1
    for limits in (None, SearchLimits(search_bound=5), SearchLimits(search_bound=1)):
        for height_bound in range(11):
            _assert_theorem3_matches_reference_walk(height_bound, limits)


def test_theorem3_undecided_plane_is_not_settled(monkeypatch):
    # Every closure Gram the -2 decider really answers NO for comes back
    # UNDECIDED, except `target`. Its plane (normal (18, -2, -1)) first shows
    # up at height 7 with the Gram `first`, so the hit is that plane's second
    # Gram: a walk that settled the plane on the UNDECIDED for `first` would
    # skip it.
    target = ((-18, 17), (17, -8))
    first = ((-60, 25), (25, -8))
    real = qform.binary_represents
    undecided = set()

    def patched(q, t, limits=None):
        verdict = real(q, t, limits)
        gram = ((q.a, q.b // 2), (q.b // 2, q.c))
        if verdict.kind == "NO" and gram != target:
            undecided.add(gram)
            return RepresentationVerdict.undecided({"patched": 1})
        return verdict

    monkeypatch.setattr(qform, "binary_represents", patched)
    want = theorem3_reference_walk(7)
    assert want is not None and want["gram"] == [list(r) for r in target]
    assert first in undecided
    assert theorem3_to_json(theorem3_example(7)) == want


def _form_det(q: BinaryForm) -> int:
    return q.a * q.c - (q.b // 2) ** 2


def _theorem3_undecided_walk(monkeypatch, height_bound):
    """Run theorem3_example with every -2 decision answered UNDECIDED, which
    settles no plane, so every w of an unretired plane reaches the closure
    step. Returns (u, w, q) in walk order: the pair handed to
    primitive_closure and the (u, v) form decided just before it."""
    events = []

    def undecided(q, t, limits=None):
        events.append(q)
        return RepresentationVerdict.undecided({"patched": 1})

    def recording_closure(sub):
        events.append(sub.columns)
        return sub

    monkeypatch.setattr(qform, "binary_represents", undecided)
    monkeypatch.setattr(catalog, "primitive_closure", recording_closure)
    with pytest.raises(SearchExhausted):
        theorem3_example(height_bound)
    # each such w gives three events: the (u, v) form, the closure, its form
    assert len(events) % 3 == 0
    walk = list(zip(events[::3], events[1::3]))
    assert all(isinstance(q, BinaryForm) and len(cols) == 2 for q, cols in walk)
    return [(u, w, q) for q, (u, w) in walk]


def test_shell_matches_filtered_cube(monkeypatch):
    # For each pool u in turn, the walk meets w shell by shell in the order of
    # the cube product(range(-h, h + 1), repeat=3) filtered to max |w_i| == h.
    # With no plane settled by a decision, its w at the closure step are the
    # filtered cube's w on an unretired plane of u, up to the first w of that
    # plane with w.w == -2, which retires it.
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    walk = _theorem3_undecided_walk(monkeypatch, 4)
    want = []
    for u, found in theorem3_planes_reference(4).items():
        live = {normal for normal, det in found if det is not None}
        for h in range(1, 5):
            for w in product(range(-h, h + 1), repeat=3):
                normal = plane_normal_reference(u, w)
                if max(abs(x) for x in w) != h or normal not in live:
                    continue
                if ambient.square(w) == -2:
                    live.discard(normal)
                else:
                    want.append((u, w))
    assert [(u, w) for u, w, _ in walk] == want
    assert len(want) == 5254


def test_plane_key_names_the_plane_of_its_normal(monkeypatch):
    # The walk keys a plane by its coordinates off u. Every w of one plane
    # (one plane_normal_reference normal) is decided on the one form of the
    # plane's basis (u, v), and no w parallel to u is decided. With every
    # decision answered YES, each plane is decided once, on first sight, so
    # the sequence is the planes' forms in first-appearance order: a key that
    # merged two normals would drop a form, one that split a normal would
    # repeat one.
    form_of = {}
    for u, w, q in _theorem3_undecided_walk(monkeypatch, 4):
        normal = plane_normal_reference(u, w)
        assert normal is not None, (u, w)
        assert form_of.setdefault((u, normal), q) == q, (u, w)
    decided = []

    def always_yes(q, t, limits=None):
        decided.append(q)
        return RepresentationVerdict.yes((0, 0))

    monkeypatch.setattr(qform, "binary_represents", always_yes)
    with pytest.raises(SearchExhausted):
        theorem3_example(4)
    assert decided == list(form_of.values())
    assert len(decided) == 1082


def test_plane_key_basis_is_the_closure_of_the_plane(monkeypatch):
    # every w of an unretired plane is decided on the form of (u, v), a basis
    # of the plane's primitive closure: a = u.u, the determinant is that of
    # the Gram of primitive_closure(u, w), and the form is hyperbolic and not
    # rationally isotropic
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    dets = {(u, normal): det for u, found in theorem3_planes_reference(4).items() for normal, det in found}
    walk = _theorem3_undecided_walk(monkeypatch, 4)
    for u, w, q in walk:
        assert q.a == ambient.square(u), (u, w)
        assert _form_det(q) == dets[u, plane_normal_reference(u, w)], (u, w)
        assert q.disc > 0 and not is_square(q.disc), (u, w)
    assert len(walk) == 5254


def test_theorem3_decides_the_oracle_planes_in_order(monkeypatch):
    # With every -2 decision answered YES, each plane is settled where it is
    # first decided. So for each pool u in turn, theorem3_example(4) decides
    # exactly the oracle's unretired planes, in first-appearance order, each on
    # a basis of its primitive closure: a form with a = u.u and the closure's
    # determinant. Merging two planes under one key drops a decision, and
    # splitting one plane repeats one. Nothing is closed, and the bound is
    # exhausted.
    forms = []

    def always_yes(q, t, limits=None):
        forms.append((q, t))
        return RepresentationVerdict.yes((0, 0))

    monkeypatch.setattr(qform, "binary_represents", always_yes)
    with pytest.raises(SearchExhausted):
        theorem3_example(4)
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    planes = theorem3_planes_reference(4)
    want = [(ambient.square(u), det) for u, found in planes.items() for _, det in found if det is not None]
    assert all(t == -2 for _, t in forms)
    assert [(q.a, _form_det(q)) for q, _ in forms] == want
    assert (len(planes), sum(map(len, planes.values())), len(want)) == (35, 2890, 1082)


def test_theorem3_decides_each_plane_once_on_its_closure_basis(monkeypatch):
    # Up to and including the default hit, u = (1, -1, -1) meets 140 rational
    # planes over 2,200 vectors w; 105 are retired on sight (not hyperbolic,
    # rationally isotropic, first seen through a w of square -2, or with -2
    # among v.v and (u +- v).(u +- v) for the closure basis (u, v)), so 35 are
    # decided for -2, each once on the form of a basis of its closure. Only
    # the returned plane is closed and decided again, and only there is 0
    # decided. No Smith form is taken outside that closure.
    u = (1, -1, -1)
    closures, forms, snfs, zero_calls = [], [], [], [0]
    real_closure = catalog.primitive_closure
    real_represents = qform.binary_represents
    real_snf = matrices.smith_normal_form
    real_zero = qform.binary_represents_zero

    def counting_closure(sub):
        closures.append(sub.columns)
        return real_closure(sub)

    def counting_represents(q, t, limits=None):
        forms.append((q, t))
        return real_represents(q, t, limits)

    def counting_snf(m):
        snfs.append((len(m), len(m[0])))
        return real_snf(m)

    def counting_zero(q):
        zero_calls[0] += 1
        return real_zero(q)

    monkeypatch.setattr(catalog, "primitive_closure", counting_closure)
    monkeypatch.setattr(qform, "binary_represents", counting_represents)
    monkeypatch.setattr(matrices, "smith_normal_form", counting_snf)
    monkeypatch.setattr(qform, "binary_represents_zero", counting_zero)
    ex = theorem3_example()
    assert closures == [((1, -1, -1), (-7, -7, -4))]
    assert len(forms) == 36 and all(t == -2 for _, t in forms)
    planes = theorem3_planes_reference(7, [u])[u]
    hit = [normal for normal, _ in planes].index(plane_normal_reference(u, (-7, -7, -4)))
    assert hit + 1 == 140
    decided = [det for _, det in planes[: hit + 1] if det is not None]
    assert [(q.a, _form_det(q)) for q, _ in forms[:35]] == [(-4, det) for det in decided]
    assert forms[35][0] == lattice_form(GramLattice(2, ex.gram))
    assert snfs == []  # the one closure's 3 x 2 Smith form is embeddings' own
    assert zero_calls[0] == 1  # on the returned closure only


def test_theorem3_pairs_nothing_on_a_seen_plane(monkeypatch):
    # the walk pairs through u's Gram row and integer plane coordinates, so
    # no vector is paired, seen plane or new
    calls = [0]
    real = GramLattice.pairing

    def counting(self, u, v):
        calls[0] += 1
        return real(self, u, v)

    monkeypatch.setattr(GramLattice, "pairing", counting)
    theorem3_example()
    assert calls[0] == 0


def test_theorem3_minus2_retirement_premise():
    # theorem3_example retires a plane first seen through a w with w.w == -2:
    # the closure contains w, so the -2 decider must answer YES there.
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    box = [u for u in product(range(-2, 3), repeat=3) if gcd(*u) == 1 and next(x for x in u if x) > 0]
    pool = [u for u in box if ambient.square(u) not in (0, -2)]
    roots = [
        w
        for h in range(1, 8)
        for w in product(range(-h, h + 1), repeat=3)
        if max(map(abs, w)) == h and ambient.square(w) == -2
    ]
    checked = 0
    for u in pool:
        uu = ambient.square(u)
        seen = set()
        for w in roots:
            normal = plane_normal_reference(u, w)
            if normal is None or normal in seen:
                continue
            uw = ambient.pairing(u, w)
            disc = 4 * (uw * uw + 2 * uu)
            if disc <= 0 or is_square(disc):
                continue
            seen.add(normal)
            closed = primitive_closure(EmbeddedSublattice(ambient, [list(u), list(w)]))
            verdict = qform.binary_represents(lattice_form(induced_gram(closed)), -2)
            assert verdict.kind == "YES", (u, w, verdict.kind)
        checked += len(seen)
    assert checked == 948


def test_theorem3_basis_retirement_premise():
    # theorem3_example retires a hyperbolic plane when -2 is v.v or
    # (u +- v).(u +- v) for its closure basis (u, v): the -2 decider answers
    # YES on the form of (u, v) for each such plane up to height 4, so the
    # walk skips only decider calls that would retire the plane anyway
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    checked = 0
    for u, found in theorem3_planes_reference(4).items():
        uu = ambient.square(u)
        for normal, _ in found:
            v = theorem3_basis_reference(u, normal)
            uv, vv = ambient.pairing(u, v), ambient.square(v)
            disc = 4 * (uv * uv - uu * vv)
            if disc > 0 and not is_square(disc) and -2 in (vv, uu + 2 * uv + vv, uu - 2 * uv + vv):
                assert qform.binary_represents(BinaryForm(uu, 2 * uv, vv), -2).kind == "YES", (u, v)
                checked += 1
    assert checked == 440


def test_paper_verification_table():
    table = paper_verification()
    assert table["all_passed"] is True
    rows = table["rows"]
    assert [r["row"] for r in rows] == [
        "family-1(n=5)",
        "family-2",
        "family-3",
        "family-4",
        "family-5",
        "claim3(A=1,B=0,C=0)",
        "claim3(A=2,B=1,C=0)",
        "theorem3-example",
    ]
    assert all(r["pass"] for r in rows)
    kinds = [r["kind"] for r in rows]
    assert kinds.count("family") == 5
    assert kinds.count("claim3") == 2
    assert kinds.count("theorem3") == 1
    f1 = rows[0]
    assert f1["checks"]["disc_group_order_is_24n"] is True
    assert rows[5]["result"]["N"] == 1 and rows[5]["result"]["M"] == 2
