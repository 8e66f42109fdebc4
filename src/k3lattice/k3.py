"""Hyperbolic-lattice predicates behind the K3 statements: existence of
square(-2) and isotropic classes, and the rank-based automorphism verdict.

Every verdict here is proven or says it is not: YES carries a witness, NO a
replayable certificate, and the aut verdict follows from those two by the
rank rules or is UNKNOWN. Nothing in this module asserts a literature fact:
the catalog cites those beside the reports that classify returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from . import lattices, qform
from .embeddings import lattice_or_sublattice_from_json
from .lattices import GramLattice, Signature
from .qform import (
    BinaryForm,
    DiagonalTernaryForm,
    RepresentationVerdict,
    SearchLimits,
    UnaryForm,
    verdict_to_json,
    verify_certificate,
)

__all__ = [
    "PicardData",
    "AutReport",
    "K3Report",
    "PROVEN",
    "FINITE",
    "INFINITE",
    "UNKNOWN",
    "lattice_form",
    "has_minus2_class",
    "has_isotropic_class",
    "classify",
    "revalidate_report",
    "report_to_json",
    "picard_from_json",
]

PROVEN = "PROVEN"

FINITE = "FINITE"
INFINITE = "INFINITE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class PicardData:
    """An even hyperbolic lattice playing the role of a K3 Picard lattice: its complement in II_{3,19},
    of signature (2, 20 - rho), needs rank 22 - rho >= l(A_L) (Nikulin); rho + l = 22 is unchecked."""

    lattice: GramLattice

    def __post_init__(self):
        sig, rho = lattices.signature(self.lattice), self.lattice.rank
        if sig != Signature(1, rho - 1, 0):
            raise ValueError(
                f"Picard lattice must be hyperbolic of signature (1, rank-1, 0); got {tuple(sig)}"
            )
        if odd := [row[i] for i, row in enumerate(self.lattice.gram) if row[i] % 2]:
            raise ValueError(f"no K3 Picard lattice: odd diagonal entries {odd} (a K3 Picard lattice is even)")
        length = len(lattices.discriminant_group(self.lattice).invariant_factors) if rho > 10 else 0
        if rho > 20 or rho + length > 22:
            raise ValueError(f"no K3 Picard lattice: rank {rho}, discriminant length {length} (a K3 needs rank <= 20, rank + length <= 22)")

    @property
    def rank(self) -> int:
        return self.lattice.rank


def lattice_form(lattice: GramLattice):
    """The quadratic form of the lattice when a certified decider exists:
    rank 1, any rank 2, or diagonal rank 3 with no zero entry. None otherwise."""
    g = lattice.gram
    n = lattice.rank
    if n == 1:
        return UnaryForm(g[0][0])
    if n == 2:
        return BinaryForm(g[0][0], 2 * g[0][1], g[1][1])
    if n == 3 and all(bool(g[i][j]) == (i == j) for i in range(3) for j in range(3)):
        return DiagonalTernaryForm(g[0][0], g[1][1], g[2][2])
    return None


def _witness_scan(lattice: GramLattice, t: int):
    """Cheap YES-only scan for the rank >= 3 shapes lattice_form has no form
    for: basis vectors, pairwise sums/differences, then the box |v_i| <= 2
    at rank 3 or 4 in product order. The box splits each vector as (head, y, x):
    q = q(head, 0, 0) + ly * y + lx * x + q(0, y, x), where the 25 tail
    terms q(0, y, x) are computed once per lattice and q(head, 0, 0), ly and
    lx once per head, so each (y, x) costs two products."""
    g = lattice.gram
    n = lattice.rank
    for i in range(n):
        if g[i][i] == t:
            return tuple(int(k == i) for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + g[j][j] + 2 * s * g[i][j] == t:
                    v = [0] * n
                    v[i], v[j] = 1, s
                    return tuple(v)
    if 3 <= n <= 4:
        h = n - 2
        gyy, gyx, gxx = g[h][h], g[h][h + 1], g[h + 1][h + 1]
        tail = [
            (y, x, y * (gyy * y + 2 * gyx * x) + gxx * x * x)
            for y, x in product(range(-2, 3), repeat=2)
        ]
        head_rows = [row[:h] for row in g[:h]]
        col_y = [2 * row[h] for row in g[:h]]
        col_x = [2 * row[h + 1] for row in g[:h]]
        for head in product(range(-2, 3), repeat=h):
            r = t - sum(map(mul, head, (sum(map(mul, row, head)) for row in head_rows)))
            ly, lx = sum(map(mul, col_y, head)), sum(map(mul, col_x, head))
            for y, x, c in tail:
                if ly * y + lx * x + c == r and (x or y or any(head)):
                    return qform._canonical_sign(head + (y, x))
    return None


def _decide(data: PicardData, t: int, limits: SearchLimits | None) -> RepresentationVerdict:
    q = lattice_form(data.lattice)
    if q is not None:
        return qform.represents(q, t, limits)
    w = _witness_scan(data.lattice, t)
    if w is not None:
        return RepresentationVerdict.yes(w)
    return RepresentationVerdict.undecided(
        {"reason": "no certified decider for this lattice shape", "scan": "basis, pairs, small box"}
    )


def has_minus2_class(data: PicardData, limits: SearchLimits | None = None) -> RepresentationVerdict:
    """Existence of a class with square -2 (a smooth-rational-curve class up
    to sign, by Riemann-Roch)."""
    return _decide(data, -2, limits)


def has_isotropic_class(data: PicardData) -> RepresentationVerdict:
    """Existence of a nonzero class with square 0 (the lattice proxy for an
    elliptic pencil). No t = 0 path reads a search bound, so none is taken."""
    return _decide(data, 0, None)


@dataclass(frozen=True)
class AutReport:
    """Finiteness verdict for the automorphism group, which a K3Report derives
    by the rank rules below from its own has_minus2 and has_isotropic. The
    status is read off the verdict: None for UNKNOWN, PROVEN otherwise."""

    verdict: str  # FINITE | INFINITE | UNKNOWN
    reason: str

    @property
    def status(self) -> str | None:
        return None if self.verdict == UNKNOWN else PROVEN


def _aut_from_verdicts(rank: int, m2: RepresentationVerdict, iso: RepresentationVerdict) -> AutReport:
    if rank == 1:
        return AutReport(FINITE, "rank-1 Picard lattice: the only isometries are plus and minus the identity")
    if rank == 2:
        if m2.kind == "YES" or iso.kind == "YES":
            return AutReport(
                FINITE,
                "rank 2: a square(-2) class or an isotropic class makes the automorphism group finite",
            )
        if m2.kind == "NO" and iso.kind == "NO":
            return AutReport(
                INFINITE,
                "rank 2: the form represents neither 0 nor -2, so the automorphism group is infinite",
            )
        return AutReport(UNKNOWN, "rank 2 with an undecided sub-verdict")
    if m2.kind == "NO":
        return AutReport(
            INFINITE,
            "rank >= 3 with no square(-2) class: the ample cone is the full positive cone "
            "and the isometry group of an indefinite lattice of rank >= 3 is infinite",
        )
    return AutReport(
        UNKNOWN,
        "rank >= 3 with square(-2) classes present (or undecided): finiteness is not decided here",
    )


@dataclass(frozen=True)
class K3Report:
    """The two verdicts on one Picard lattice; rank, det, signature and the
    aut entry are read from the lattice and the verdicts, never stored beside
    them, so no report can disagree with its sub-verdicts."""

    lattice: GramLattice
    has_minus2: RepresentationVerdict
    has_isotropic: RepresentationVerdict

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def det(self) -> int:
        return lattices.det(self.lattice)

    @property
    def signature(self) -> Signature:
        return lattices.signature(self.lattice)

    @property
    def aut(self) -> AutReport:
        return _aut_from_verdicts(self.rank, self.has_minus2, self.has_isotropic)


def classify(data: PicardData, limits: SearchLimits | None = None) -> K3Report:
    return K3Report(data.lattice, has_minus2_class(data, limits), has_isotropic_class(data))


def _verdict_ok(lattice: GramLattice, t: int, v: RepresentationVerdict) -> bool:
    if v.kind == "YES":
        w = v.witness
        if w is None or len(w) != lattice.rank:
            return False
        if t == 0 and not any(w):
            return False
        return lattice.square(w) == t
    if v.kind == "NO":
        q = lattice_form(lattice)
        if q is None or v.certificate is None:
            return False
        return verify_certificate(q, t, v.certificate)
    return v.kind == "UNDECIDED"  # the one kind with no proof obligation


def revalidate_report(data: PicardData, report: K3Report) -> bool:
    """Re-check a report against its input: the report's lattice is the
    input's, witnesses evaluate correctly and certificates replay. The aut
    entry needs no check of its own: it is derived from the two sub-verdicts
    just checked."""
    return (
        report.lattice == data.lattice
        and _verdict_ok(data.lattice, -2, report.has_minus2)
        and _verdict_ok(data.lattice, 0, report.has_isotropic)
    )


def _aut_to_json(report: K3Report) -> dict:
    """The aut entry, repeating the report's own two sub-verdicts."""
    aut = report.aut
    out: dict = {"verdict": aut.verdict, "reason": aut.reason}
    if aut.status is not None:
        out["status"] = aut.status
    out["minus2"] = verdict_to_json(report.has_minus2)
    out["isotropic"] = verdict_to_json(report.has_isotropic)
    return out


def report_to_json(report: K3Report) -> dict:
    return {
        "rank": report.rank,
        "det": report.det,
        "signature": list(report.signature),
        "has_minus2": verdict_to_json(report.has_minus2),
        "has_isotropic": verdict_to_json(report.has_isotropic),
        "aut": _aut_to_json(report),
    }


def picard_from_json(obj) -> PicardData:
    """Parse {"lattice": <lattice or sublattice JSON>}; sublattice input
    contributes its induced Gram matrix. Any other key is refused, so a field
    nothing reads is never silently dropped."""
    if not isinstance(obj, dict) or "lattice" not in obj:
        raise ValueError('Picard data JSON must be an object with a "lattice" field')
    extra = [key for key in obj if key != "lattice"]
    if extra:
        raise ValueError(f'Picard data JSON takes only a "lattice" field; got {extra}')
    lattice, _ = lattice_or_sublattice_from_json(obj["lattice"])
    return PicardData(lattice)
