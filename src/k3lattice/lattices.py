"""Integral lattices: standard models, signature, determinant, discriminant group."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import NamedTuple

from . import matrices
from .matrices import smith_normal_form
from .ntheory import exact_int, factorize

__all__ = [
    "GramLattice",
    "Signature",
    "standard_lattice",
    "direct_sum",
    "signature",
    "det",
    "DiscriminantGroup",
    "discriminant_group",
    "aut_order_finite_abelian",
    "aut_index_bound",
    "AUT_INDEX_FACTOR",
    "lattice_from_json",
    "lattice_to_json",
]

# Index bound for the image of the isometry group in the discriminant form
# automorphisms of an even hyperbolic lattice of rank >= 3 (Nikulin).
AUT_INDEX_FACTOR = 66


class Signature(NamedTuple):
    positive: int
    negative: int
    zero: int


@dataclass(frozen=True)
class GramLattice:
    """A free Z-module of finite rank with an integer symmetric pairing."""

    rank: int
    gram: tuple[tuple[int, ...], ...]

    def __init__(self, rank: int, gram) -> None:
        rank = exact_int(rank)
        rows = tuple(tuple(map(exact_int, row)) for row in gram)
        if rank < 0 or len(rows) != rank or any(len(r) != rank for r in rows):
            raise ValueError("gram matrix shape does not match the rank")
        if not matrices.is_symmetric(rows):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", rows)

    def pairing(self, u, v) -> int:
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length does not match the rank")
        return sum(map(mul, u, (sum(map(mul, row, v)) for row in self.gram)))

    def square(self, v) -> int:
        return self.pairing(v, v)


def _e8_neg_gram() -> list[list[int]]:
    # negated E8 Cartan matrix, Bourbaki node order
    bonds = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in bonds:
        g[i - 1][j - 1] = 1
        g[j - 1][i - 1] = 1
    return g


# every accepted name, aliases included, and the builder of its lattice
_STANDARD = {
    "U": lambda: GramLattice(2, [[0, 1], [1, 0]]),
    "A1_neg": lambda: GramLattice(1, [[-2]]),
    "E8_neg": lambda: GramLattice(8, _e8_neg_gram()),
    "K3": lambda: direct_sum(*(_STANDARD[name]() for name in ("U", "U", "U", "E8_neg", "E8_neg"))),
}
_STANDARD["A1(-1)"], _STANDARD["E8(-1)"] = _STANDARD["A1_neg"], _STANDARD["E8_neg"]


@cache
def standard_lattice(name: str) -> GramLattice:
    """U, A1(-1), E8(-1), or the rank-22 K3 lattice U^3 + E8(-1)^2; built once."""
    if name not in _STANDARD:
        raise ValueError(f"unknown lattice name {name!r}")
    return _STANDARD[name]()


def direct_sum(*lattices: GramLattice) -> GramLattice:
    """Orthogonal direct sum; rank adds and the determinant multiplies."""
    rank = sum(l.rank for l in lattices)
    g = [[0] * rank for _ in range(rank)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return GramLattice(rank, g)


def signature(lattice: GramLattice) -> Signature:
    """Counts of positive, negative, and zero diagonal entries after
    congruence diagonalization by fraction-free integer Bareiss elimination."""
    return Signature(*matrices.inertia(lattice.gram))


def det(lattice: GramLattice) -> int:
    return matrices.det(lattice.gram)


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite abelian group L*/L of a nondegenerate lattice L.

    invariant_factors is the ascending divisibility chain (entries > 1).
    """

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


def discriminant_group(lattice: GramLattice) -> DiscriminantGroup:
    """Invariant factors of L*/L, the Smith diagonal of the Gram matrix;
    order equals |det|."""
    diagonal = smith_normal_form(lattice.gram).diagonal()
    if 0 in diagonal:
        raise ValueError("degenerate lattice has no discriminant group")
    return DiscriminantGroup(tuple(d for d in diagonal if d > 1))


def _p_group_aut_order(p: int, exps: list[int]) -> int:
    """|Aut| of the abelian p-group with ascending exponent type exps."""
    n = len(exps)
    dk = [max(l for l in range(n) if exps[l] == exps[k]) + 1 for k in range(n)]
    ck = [min(l for l in range(n) if exps[l] == exps[k]) + 1 for k in range(n)]
    order = 1
    for k in range(n):
        order *= p ** dk[k] - p**k
    for j in range(n):
        order *= (p ** exps[j]) ** (n - dk[j])
    for i in range(n):
        order *= (p ** (exps[i] - 1)) ** (n - ck[i] + 1)
    return order


def aut_order_finite_abelian(invariant_factors) -> int:
    """Order of Aut of the abelian group with the given divisibility chain."""
    chain = [exact_int(d) for d in invariant_factors]
    if any(d <= 1 for d in chain):
        raise ValueError("invariant factors must all exceed 1")
    for a, b in zip(chain, chain[1:]):
        if b % a != 0:
            raise ValueError(f"malformed chain: {a} does not divide {b}")
    by_prime: dict[int, list[int]] = {}
    for d in chain:
        for p, e in factorize(d).items():
            by_prime.setdefault(p, []).append(e)
    order = 1
    for p, exps in by_prime.items():
        order *= _p_group_aut_order(p, sorted(exps))
    return order


def aut_index_bound(invariant_factors) -> int:
    """66 * |Aut(L*/L)|, the isometry-extension index bound."""
    return AUT_INDEX_FACTOR * aut_order_finite_abelian(invariant_factors)


def lattice_from_json(obj) -> GramLattice:
    """Accepts {"rank", "gram"}, {"name": ...}, or {"sum": [...]}."""
    if not isinstance(obj, dict):
        raise ValueError("lattice JSON must be an object")
    if "name" in obj:
        return standard_lattice(obj["name"])
    if "sum" in obj:
        parts = obj["sum"]
        if not isinstance(parts, list):
            raise ValueError('"sum" must be a list of lattices')
        return direct_sum(*[lattice_from_json(p) for p in parts])
    if "gram" in obj:
        gram = obj["gram"]
        rank = obj.get("rank", len(gram))
        return GramLattice(rank, gram)
    raise ValueError('lattice JSON needs one of "gram", "name", "sum"')


def lattice_to_json(lattice: GramLattice) -> dict:
    return {"rank": lattice.rank, "gram": [list(r) for r in lattice.gram]}
