"""Certified catalog of the explicit constructions: the rank-2 double-NO
search inside the full K3 lattice (claim3_search), five certified family
lattices with their expected verdict tables, and a rank-2 double-NO
sublattice of U + A1(-1) (theorem3_example).

Computed verdicts are PROVEN (witness or replayable certificate) and come
from k3.classify. Each family's literature facts live in its family() branch
and are echoed in its paper-verify row as PAPER_ASSERTED entries with
citations to the external sources (Nikulin, Kondo, Shioda), never
recomputed; a cited aut verdict fills only an aut entry the rank rules leave
UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import gcd
from operator import mul

from . import elliptic, lattices, qform
from .embeddings import EmbeddedSublattice, induced_gram, is_primitive, primitive_closure
from .k3 import (
    INFINITE,
    FINITE,
    PROVEN,
    UNKNOWN,
    K3Report,
    PicardData,
    classify,
    lattice_form,
    report_to_json,
    revalidate_report,
)
from .lattices import GramLattice, direct_sum, discriminant_group, standard_lattice
from .ntheory import exact_int, is_square
from .qform import (
    DIVISIBILITY,
    BinaryForm,
    Certificate,
    RepresentationVerdict,
    verdict_to_json,
    verify_certificate,
)

__all__ = [
    "PAPER_ASSERTED",
    "Claim3Input",
    "Claim3Result",
    "FamilySpec",
    "Theorem3Example",
    "SearchExhausted",
    "CatalogMismatch",
    "claim3_search",
    "family",
    "certify_family",
    "theorem3_example",
    "paper_verification",
    "claim3_result_to_json",
    "theorem3_to_json",
]

PAPER_ASSERTED = "PAPER_ASSERTED"

# Index layout of the fixed K3-lattice basis: three hyperbolic planes
# (indices 0..5), then two copies of the negated E8 root lattice.
_E8_BLOCKS = (6, 14)


class SearchExhausted(Exception):
    """A certified search ran out of candidates within its bound."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


class CatalogMismatch(Exception):
    """A catalog entry failed one of its hard expectations."""


@dataclass(frozen=True)
class Claim3Input:
    """Pairing data of a polarization l and a second class a:
    (l,l) = 2A > 0, (l,a) = B, (a,a) = 2C."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        for x in (self.A, self.B, self.C):
            exact_int(x)
        if self.A < 1:
            raise ValueError("A must be at least 1: 2A is the square of a polarization")


@dataclass(frozen=True)
class Claim3Result:
    inputs: Claim3Input
    N: int
    M: int
    n: int
    m: int
    vector_l: tuple[int, ...]
    vector_generator: tuple[int, ...]  # n*a + h
    gram: tuple[tuple[int, ...], ...]
    zero_verdict: RepresentationVerdict
    minus2_verdict: RepresentationVerdict
    invariant_factors: tuple[int, ...]


def _k3_vector(entries: dict[int, int]) -> tuple[int, ...]:
    v = [0] * 22
    for idx, val in entries.items():
        v[idx] = val
    return tuple(v)


@cache
def _u3_entries() -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries (i, j, g_ij) of the U^3 block (indices 0..5) of the K3 Gram."""
    gram = standard_lattice("K3").gram
    return tuple((i, j, gram[i][j]) for i in range(6) for j in range(6) if gram[i][j])


def claim3_search(inputs: Claim3Input, bound: int = 50) -> Claim3Result:
    """Walk (N, M) pairs in the diagonal order (N+M ascending, then N
    ascending) and return the first hyperbolic, primitive, certified
    double-NO plane spanned by l and n*a + h inside the K3 lattice.

    The scaling is n = kN, m = kM with k = A when A >= 2 (making the form
    divisible by 2A), and k = 4 when A = 1 (pinning the form to
    2x^2 + 8NBxy + 8(4N^2*C - M)y^2, which is 0 or 2 mod 8). With
    d = B^2 - 4AC and w = k*N^2*d + 4A*M the form's discriminant is 4k*w, so
    the plane is hyperbolic exactly when w > 0 and has no zero exactly when
    k*w is not a square: integer tests, and the form, the deciders and the
    vectors come only at the first pair that passes. Along a diagonal
    N + M = s, w only decreases when d < 0, so the diagonal ends at its first
    failure; when d >= 0, w >= 4AM > 0 never fails. For d < 0 the walk starts
    at s0 = 2 + floor(k|d| / 4A), the first diagonal whose pair N = 1 is
    hyperbolic, and a diagonal whose first pair fails ends it: from
    s = bound + 1 on that pair is (s - bound, bound), and each later one has
    a larger N. So no pair is visited when none can be hyperbolic.

    The plane returned is primitive: l has 1, 0 and the generator 0, 1 at
    coordinates 0 and 4, so that 2 x 2 minor is 1 and both invariant factors
    are 1 (Newman, Integral Matrices, 1972). The minor is checked, and the
    Gram, paired through the nonzero entries of the K3 Gram's U^3 block (both
    vectors vanish off it), is cross-checked against the closed form.
    """
    if exact_int(bound) < 1:
        raise ValueError("bound must be positive")
    a_, b_, c_ = inputs.A, inputs.B, inputs.C
    k = a_ if a_ >= 2 else 4
    kd, a4 = k * (b_ * b_ - 4 * a_ * c_), 4 * a_
    for s in range(2 + -kd // a4 if kd < 0 else 2, 2 * bound + 1):
        lo = max(1, s - bound)
        for big_n in range(lo, min(bound, s - 1) + 1):
            w = kd * big_n * big_n + a4 * (s - big_n)
            if w <= 0:
                break  # not hyperbolic, nor is the rest of this diagonal
            if is_square(k * w):
                continue
            big_m = s - big_n
            n, m = k * big_n, k * big_m
            q = BinaryForm(2 * a_, 2 * n * b_, 2 * (n * n * c_ - m))
            zero = qform.binary_represents_zero(q)
            if zero.kind != "NO":
                raise RuntimeError("internal error: the zero decider did not answer NO on a nonsquare discriminant")
            # NO by construction: content 2A >= 4 for A >= 2, values 0 or 2 mod 8 (LOCAL at 2) for A = 1
            minus2 = qform.binary_represents(q, -2)
            if minus2.kind != "NO":
                raise RuntimeError("internal error: the -2 decider did not answer NO on a claim-3 plane")
            # generator = n*a + h with a = B*e12 + e21 + C*e22, h = e31 - m*e32; both vectors vanish
            # off the U^3 coordinates 0..5, so the Gram needs only the U^3 block's nonzero entries
            vec_l = (1, a_) + (0,) * 20
            gen = (0, n * b_, n, n * c_, 1, -m) + (0,) * 16
            if vec_l[0] * gen[4] - vec_l[4] * gen[0] != 1:
                raise RuntimeError("internal error: the plane's minor on coordinates 0 and 4 is not 1")
            cols, entries = (vec_l, gen), _u3_entries()
            got = tuple(tuple([sum([g * x[i] * y[j] for i, j, g in entries]) for y in cols]) for x in cols)
            expected = ((2 * a_, n * b_), (n * b_, 2 * (n * n * c_ - m)))
            if got != expected:
                raise RuntimeError("internal error: induced Gram differs from the closed form")
            return Claim3Result(
                inputs=inputs,
                N=big_n,
                M=big_m,
                n=n,
                m=m,
                vector_l=vec_l,
                vector_generator=gen,
                gram=got,
                zero_verdict=zero,
                minus2_verdict=minus2,
                invariant_factors=(1, 1),
            )
        if w <= 0 and big_n == lo:
            break  # the first pair fails, and so does every later diagonal's
    raise SearchExhausted(f"no certified plane found with N, M <= {bound}", bound)


def claim3_result_to_json(res: Claim3Result) -> dict:
    return {
        "inputs": {"A": res.inputs.A, "B": res.inputs.B, "C": res.inputs.C},
        "N": res.N,
        "M": res.M,
        "n": res.n,
        "m": res.m,
        "l": list(res.vector_l),
        "generator": list(res.vector_generator),
        "gram": [list(r) for r in res.gram],
        "zero": verdict_to_json(res.zero_verdict),
        "minus2": verdict_to_json(res.minus2_verdict),
        "invariant_factors": list(res.invariant_factors),
    }


# ---------------------------------------------------------------- families


@dataclass(frozen=True)
class FamilySpec:
    family_id: int
    label: str
    n: int | None
    generators: tuple[tuple[int, ...], ...]
    target_gram: tuple[tuple[int, ...], ...]
    expected: dict  # kinds for has_minus2 / has_isotropic, verdict for aut
    # reason and citation of the PAPER_ASSERTED aut entry (its verdict is
    # expected["aut"]) when the rank rules say UNKNOWN
    aut_overlay: dict | None
    assertions: tuple
    extras: dict  # facts the family's row reports beside its verdicts
    checks: dict  # named facts its row needs true to pass


def _orthogonal_root_indices(count: int) -> tuple[int, ...]:
    """Lexicographically first pairwise-orthogonal simple roots of the E8
    diagram (local indices 0..7)."""
    gram = standard_lattice("E8_neg").gram
    for combo in combinations(range(8), count):
        if all(gram[i][j] == 0 for i, j in combinations(combo, 2)):
            return combo
    raise RuntimeError(f"no {count} pairwise-orthogonal simple roots")


def family(family_id: int, n: int | None = None) -> FamilySpec:
    """The five certified constructions inside the fixed K3 basis. Family 1
    takes the parameter n (positive, not divisible by 3); the others ignore n.
    Both must be integers (ValueError otherwise). Each branch sets only what is
    its own: the generators as {K3 index: coefficient}, the target Gram, the
    expected (has_minus2, has_isotropic, aut) triple, any cited overlay and
    assertions, and the extras and checks of its row.
    """
    exact_int(family_id)
    if n is not None:
        exact_int(n)
    if family_id != 1:
        n = None
    elif n is None:
        n = 1
    elif n < 1:
        raise ValueError("family 1 needs a positive n for a hyperbolic lattice")
    elif n % 3 == 0:
        raise ValueError("family 1 needs n not divisible by 3")
    overlay, assertions, extras, checks = None, (), {}, {}
    if family_id == 1:
        gens = ({0: 1, 1: 3 * n}, {_E8_BLOCKS[0]: 1}, {_E8_BLOCKS[1]: 1})
        gram = ((6 * n, 0, 0), (0, -2, 0), (0, 0, -2))
        # n = 1: Vinberg's walk closes on a compact hexagon, so Aut is finite
        expected = ("YES", "NO", FINITE if n == 1 else INFINITE)
        extras = {"disc_group_order": discriminant_group(GramLattice(3, gram)).order}
        checks = {"disc_group_order_is_24n": extras["disc_group_order"] == 24 * n}
        if n != 1:
            overlay = {
                "reason": "asserted for sufficiently large n via the finiteness of rank-3 "
                "Picard lattices with finite automorphism group",
                "citation": "Nikulin [Ni4]",
            }
    elif family_id in (2, 4):
        # the polarization e1 + h e2 (h = 2 or 6) and one orthogonal root pair summed in each E8(-1) block
        h, isotropic = (2, "YES") if family_id == 2 else (6, "NO")
        pair = _orthogonal_root_indices(2)
        gens = ({0: 1, 1: h}, *({block + i: 1 for i in pair} for block in _E8_BLOCKS))
        gram = ((2 * h, 0, 0), (0, -4, 0), (0, 0, -4))
        expected = ("NO", isotropic, INFINITE)
        if isotropic == "YES":  # family 2: count the small primitive zeros of <4> + <-4> + <-4>
            zeros = len(qform.enumerate_primitive_zeros(qform.DiagonalTernaryForm(4, -4, -4), 30))
            extras = {"primitive_zeros_height_30": zeros}
            checks = {"at_least_10_primitive_zeros_height_30": zeros >= 10}
    elif family_id == 3:
        gens = ({0: 1}, {1: 1}, {_E8_BLOCKS[0] + i: 1 for i in _orthogonal_root_indices(4)})
        gram = ((0, 1, 0), (1, 0, 0), (0, 0, -8))
        expected = ("YES", "YES", INFINITE)
        overlay = {
            "reason": "asserted via the Mordell-Weil section of height 8: translation "
            "by it is an automorphism of infinite order",
            "citation": "Shioda [Sh]",
        }
        c0_dot_c1 = elliptic.section_intersection_from_height(8)
        pencil = elliptic.pencil_class_from_sections(-2, -2, c0_dot_c1)
        extras = {
            "mordell_weil_rank": elliptic.mordell_weil_rank(elliptic.FibrationData(rho=3)),
            "section_height": 8,
            "c0_dot_c1": c0_dot_c1,
            "pencil_square": pencil.square,
            "pencil_is_pencil": pencil.is_pencil,
            "max_singular_fibers": elliptic.max_singular_fibers_bound(),
        }
        checks = {
            "mordell_weil_rank_1": extras["mordell_weil_rank"] == 1,
            "c0_dot_c1_is_2": c0_dot_c1 == 2,
            "pencil_square_0": pencil.square == 0,
        }
    elif family_id == 5:
        gens = ({0: 1}, {1: 1}, {2: 1, 3: -1})
        gram = ((0, 1, 0), (1, 0, 0), (0, 0, -2))
        expected = ("YES", "YES", FINITE)
        overlay = {
            "reason": "asserted: deformations with this rank-3 Picard lattice keep a "
            "finite automorphism group",
            "citation": "Nikulin [Ni3]",
        }
        assertions = tuple(
            {"statement": statement, "status": PAPER_ASSERTED, "citation": "Nikulin [Ni3]; Kondo [Ko1]"}
            for statement in (
                "the rank-19 special member contains exactly 24 smooth rational curves",
                "the rank-19 special member admits finitely many (> 0) elliptic pencils",
                "the automorphism group of the rank-19 special member is S3 x mu2",
            )
        )
        checks = {"det_is_2": lattices.det(GramLattice(3, gram)) == 2}
    else:
        raise ValueError("family_id must be 1..5")
    return FamilySpec(
        family_id=family_id,
        label=f"family-{family_id}" if n is None else f"family-1(n={n})",
        n=n,
        generators=tuple(map(_k3_vector, gens)),
        target_gram=gram,
        expected=dict(zip(("has_minus2", "has_isotropic", "aut"), expected)),
        aut_overlay=overlay,
        assertions=assertions,
        extras=extras,
        checks=checks,
    )


def certify_family(spec: FamilySpec) -> K3Report:
    """Realize the family inside the K3 lattice, check the Gram contract and
    primitivity, run the predicates at the default search limits, and compare
    against the expected table; return the proven report.
    Any PROVEN disagreement raises CatalogMismatch naming the family, and so
    does an overlay that is uncited or whose verdict, expected["aut"], is
    neither FINITE nor INFINITE."""
    overlay = spec.aut_overlay
    if overlay is not None and not (overlay.get("citation") and spec.expected["aut"] in (FINITE, INFINITE)):
        raise CatalogMismatch(f"{spec.label}: an aut overlay must be a cited FINITE or INFINITE verdict")
    sub = EmbeddedSublattice(standard_lattice("K3"), spec.generators)
    lattice = induced_gram(sub)
    if lattice.gram != spec.target_gram:
        raise CatalogMismatch(
            f"{spec.label}: induced Gram {lattice.gram} does not match the target {spec.target_gram}"
        )
    if not is_primitive(sub):
        raise CatalogMismatch(f"{spec.label}: generators do not span a primitive sublattice")
    report = classify(PicardData(lattice))
    for key, want in (("has_minus2", spec.expected["has_minus2"]), ("has_isotropic", spec.expected["has_isotropic"])):
        got = getattr(report, key).kind
        if got != want:
            raise CatalogMismatch(f"{spec.label}: {key} is {got}, expected {want}")
    aut = report.aut
    if aut.status == PROVEN and aut.verdict != spec.expected["aut"]:
        raise CatalogMismatch(
            f"{spec.label}: proven aut verdict {aut.verdict} contradicts expected {spec.expected['aut']}"
        )
    return report


def _family_report_to_json(spec: FamilySpec, report: K3Report) -> dict:
    """The report's JSON with what the catalog cites beside it: the label,
    extras and assertions, and where the rank rules leave aut UNKNOWN, the
    overlay's verdict with its reason and citation."""
    out = report_to_json(report)
    out["label"] = spec.label
    if spec.extras:
        out["extras"] = dict(spec.extras)
    if spec.assertions:
        out["assertions"] = [dict(a) for a in spec.assertions]
    if report.aut.verdict == UNKNOWN and spec.aut_overlay is not None:
        out["aut"].update(spec.aut_overlay, verdict=spec.expected["aut"], status=PAPER_ASSERTED)
    return out


# ---------------------------------------------------------------- theorem-3 example


@dataclass(frozen=True)
class Theorem3Example:
    generators: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    zero_verdict: RepresentationVerdict
    minus2_verdict: RepresentationVerdict
    height_bound: int


def theorem3_example(height_bound: int = 10) -> Theorem3Example:
    """Search rank-2 primitive hyperbolic sublattices of U + A1(-1) for one
    whose form is certified to represent neither 0 nor -2, walking the shells
    max|w_i| = h in lexicographic order and testing each rational plane
    span(u, w) once per u. For u_i = +-1 and {j, k} the other indices, s = u_i w_i
    and (a, b) = (w_j - s u_j, w_k - s u_k) give w = s u + c v with c = +-gcd(a, b)
    and v the key (a, b) / c, first nonzero entry positive, with 0 put back at i;
    Zu + Zv is the plane's primitive closure, since Z^3 = Zu + {x : x_i = 0}.
    The walk updates (a, b) as integers and looks the plane up by its key, so a
    seen plane costs no vector, pairing or tuple, and nothing is kept across calls.
    A new plane is retired at once if the form of (u, v) has a discriminant <= 0
    or a square one (this covers w.w == 0), or if -2 is one of w.w = s^2 u.u +
    2sc u.v + c^2 v.v, v.v and (u +- v).(u +- v): each of w, v, u +- v lies in
    Zu + Zv, so no sound -2 decider says NO, and the last three spare a decider
    call that would answer YES. Every other plane represents no 0, and only -2
    is decided: on (u, v), where YES retires it, then
    on the closure of (u, w), where NO returns it. That closure is Zu + Zv, which
    just answered "not YES" (NO, as below), so no sound decider answers YES on it.
    UNDECIDED retires nothing (it may depend on the basis), and 0 is decided only
    on the returned plane. The ambient lattice is even, so DIVISIBILITY, LOCAL or
    the reduced cycle settles -2 and no search bound can act."""
    if exact_int(height_bound) < 0:
        raise ValueError("height bound must be non-negative")
    ambient = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    g = ambient.gram
    m = 6 * height_bound + 1  # |a|, |b| <= 3 * height_bound, so the key (p, q) is stored as p * m + q
    # u from the box max |u_i| <= 2 by height: primitive (so some u_i = +-1), first nonzero entry positive
    for u in sorted(product(range(-2, 3), repeat=3), key=lambda x: max(map(abs, x))):
        gu = [sum(map(mul, row, u)) for row in g]
        uu = sum(map(mul, gu, u))
        if gcd(*u) != 1 or next(x for x in u if x) < 0 or uu in (0, -2):
            continue
        i = next(k for k, x in enumerate(u) if x in (1, -1))
        j, k = (1, 2) if i == 0 else (0, 3 - i)
        # the coefficients of w_0, w_1, w_2 in a and in b
        (a0, a1, a2), (b0, b1, b2) = ([(t == r) - u[i] * u[r] * (t == i) for t in range(3)] for r in (j, k))
        settled: set = set()
        for h in range(1, height_bound + 1):
            side = range(-h, h + 1)
            for x0 in side:
                for x1 in side:
                    a01, b01 = a0 * x0 + a1 * x1, b0 * x0 + b1 * x1
                    for x2 in side if h in (abs(x0), abs(x1)) else (-h, h):
                        a, b = a01 + a2 * x2, b01 + b2 * x2
                        c = gcd(a, b) if a > 0 or (not a and b >= 0) else -gcd(a, b)
                        if not c or (key := a // c * m + b // c) in settled:
                            continue  # w is parallel to u, or its plane is seen
                        p, q, w = a // c, b // c, (x0, x1, x2)
                        uv, vv = gu[j] * p + gu[k] * q, g[j][j] * p * p + 2 * g[j][k] * p * q + g[k][k] * q * q
                        disc, s = 4 * (uv * uv - uu * vv), u[i] * w[i]
                        ww = s * s * uu + 2 * s * c * uv + c * c * vv
                        retired = disc <= 0 or is_square(disc) or -2 in (ww, vv, uu + 2 * uv + vv, uu - 2 * uv + vv)
                        if retired or qform.binary_represents(BinaryForm(uu, 2 * uv, vv), -2).kind == "YES":
                            settled.add(key)
                            continue
                        closed = primitive_closure(EmbeddedSublattice(ambient, [u, w]))
                        lat = induced_gram(closed)
                        form = lattice_form(lat)
                        minus2 = qform.binary_represents(form, -2)
                        if minus2.kind == "NO":
                            return Theorem3Example(
                                generators=closed.columns,
                                gram=lat.gram,
                                zero_verdict=qform.binary_represents_zero(form),
                                minus2_verdict=minus2,
                                height_bound=height_bound,
                            )
    raise SearchExhausted(
        f"no double-NO primitive plane found with coordinate height <= {height_bound}",
        height_bound,
    )


def theorem3_to_json(ex: Theorem3Example) -> dict:
    return {
        "generators": [list(c) for c in ex.generators],
        "gram": [list(r) for r in ex.gram],
        "zero": verdict_to_json(ex.zero_verdict),
        "minus2": verdict_to_json(ex.minus2_verdict),
        "height_bound": ex.height_bound,
    }


# ---------------------------------------------------------------- aggregate


def _replays_two_nos(gram, zero: RepresentationVerdict, minus2: RepresentationVerdict) -> bool:
    """Both NO certificates of a rank-2 result replay on its Gram."""
    q = lattice_form(GramLattice(2, gram))
    return verify_certificate(q, 0, zero.certificate) and verify_certificate(q, -2, minus2.certificate)


def paper_verification() -> dict:
    """The aggregate check behind the paper-verify command: certify the five
    families, two claim3 smoke inputs, and the theorem-3 example, each at the
    default search limits; every NO is replayed through verify_certificate
    before a row may pass."""
    rows = []

    for fid in range(1, 6):
        spec = family(fid, 5)  # family 1 is exercised at n = 5; the others ignore n
        report = certify_family(spec)  # raises unless the induced Gram is the target
        row_ok = revalidate_report(PicardData(GramLattice(3, spec.target_gram)), report)
        rows.append(
            {
                "row": spec.label,
                "kind": "family",
                "report": _family_report_to_json(spec, report),
                "checks": dict(spec.checks),
                "pass": row_ok and all(spec.checks.values()),
            }
        )

    for inputs, expected in (
        (Claim3Input(1, 0, 0), lambda res: (res.N, res.M, res.gram) == (1, 2, ((2, 0), (0, -16)))),
        (
            Claim3Input(2, 1, 0),
            lambda res: res.minus2_verdict.certificate == Certificate(DIVISIBILITY, {"divisor": 4}),
        ),
    ):
        res = claim3_search(inputs)
        rows.append(
            {
                "row": f"claim3(A={inputs.A},B={inputs.B},C={inputs.C})",
                "kind": "claim3",
                "result": claim3_result_to_json(res),
                "pass": _replays_two_nos(res.gram, res.zero_verdict, res.minus2_verdict)
                and all(f == 1 for f in res.invariant_factors)
                and expected(res),
            }
        )

    ex = theorem3_example(10)
    rows.append(
        {
            "row": "theorem3-example",
            "kind": "theorem3",
            "result": theorem3_to_json(ex),
            "pass": _replays_two_nos(ex.gram, ex.zero_verdict, ex.minus2_verdict),
        }
    )

    return {"rows": rows, "all_passed": all(row["pass"] for row in rows)}
