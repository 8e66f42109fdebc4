"""Sublattices of an ambient lattice and isometry extension across them."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import matrices
from .lattices import GramLattice, lattice_from_json, lattice_to_json
from .matrices import smith_normal_form
from .ntheory import exact_int, exact_keys

__all__ = [
    "EmbeddedSublattice",
    "IsometryMap",
    "induced_gram",
    "is_primitive",
    "primitive_closure",
    "orthogonal_complement",
    "extend_by_identity",
    "sublattice_from_json",
    "lattice_or_sublattice_from_json",
    "sublattice_to_json",
]


@dataclass(frozen=True)
class EmbeddedSublattice:
    """A sublattice given by basis columns in ambient coordinates."""

    ambient: GramLattice
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, ambient: GramLattice, columns) -> None:
        cols = tuple(tuple(map(exact_int, c)) for c in columns)
        if not cols:
            raise ValueError("a sublattice needs at least one basis vector")
        if any(len(c) != ambient.rank for c in cols):
            raise ValueError("basis vector length does not match the ambient rank")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "columns", cols)
        # independent over Q exactly when the dot-product Gram B^T B is nonsingular
        if matrices.det([[sum(map(mul, u, v)) for v in cols] for u in cols]) == 0:
            raise ValueError("basis columns are linearly dependent")

    def basis_matrix(self) -> list[list[int]]:
        """ambient.rank x k matrix whose columns are the basis vectors."""
        return [[c[i] for c in self.columns] for i in range(self.ambient.rank)]

    @property
    def rank(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class IsometryMap:
    """A pairing-preserving automorphism of a lattice, as a matrix on columns."""

    domain: GramLattice
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, domain: GramLattice, matrix) -> None:
        rows = tuple(tuple(map(exact_int, r)) for r in matrix)
        if len(rows) != domain.rank or any(len(r) != domain.rank for r in rows):
            raise ValueError("isometry matrix shape does not match the lattice rank")
        g = domain.gram
        if matrices.mat_mul(matrices.mat_mul(matrices.transpose(rows), g), rows) != [list(r) for r in g]:
            raise ValueError("matrix does not preserve the pairing")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "matrix", rows)

    def apply(self, v) -> list[int]:
        return matrices.mat_vec(self.matrix, list(v))


def induced_gram(sub: EmbeddedSublattice) -> GramLattice:
    """The pairing restricted to the sublattice basis: B^T G B on the support of B."""
    support = [i for i in range(sub.ambient.rank) if any(c[i] for c in sub.columns)]
    b = [[c[i] for c in sub.columns] for i in support]
    g = [[sub.ambient.gram[i][j] for j in support] for i in support]
    return GramLattice(sub.rank, matrices.mat_mul(matrices.mat_mul(matrices.transpose(b), g), b))


def is_primitive(sub: EmbeddedSublattice) -> bool:
    """True iff the sublattice equals its rational saturation (zero rows of B change no invariant factor)."""
    return all(f == 1 for f in smith_normal_form([r for r in sub.basis_matrix() if any(r)]).invariant_factors())


def primitive_closure(sub: EmbeddedSublattice) -> EmbeddedSublattice:
    """The saturation (span tensor Q) intersected with the ambient lattice.

    From U B V = D: B V = U^-1 D, so column j of B V divided by d_j is
    column j of U^-1, and those columns are a basis of the saturation.
    """
    b = sub.basis_matrix()
    snf = smith_normal_form(b)
    bv = matrices.mat_mul(b, snf.v)
    d = snf.diagonal()
    cols = [tuple(row[j] // d[j] for row in bv) for j in range(sub.rank)]
    return EmbeddedSublattice(sub.ambient, cols)


def orthogonal_complement(sub: EmbeddedSublattice) -> EmbeddedSublattice:
    """All ambient vectors pairing to zero with the sublattice; always primitive."""
    ambient = sub.ambient
    if matrices.det(ambient.gram) == 0:
        raise ValueError("orthogonal complement requires a nondegenerate ambient lattice")
    b = sub.basis_matrix()
    pair = matrices.mat_mul(matrices.transpose(b), ambient.gram)
    snf = smith_normal_form(pair)
    r = len(snf.invariant_factors())
    n = ambient.rank
    cols = [tuple(snf.v[i][j] for i in range(n)) for j in range(r, n)]
    return EmbeddedSublattice(ambient, cols)


def extend_by_identity(g: IsometryMap, sub: EmbeddedSublattice) -> IsometryMap:
    """Extend an isometry of a primitive sublattice to the ambient lattice,
    acting as the identity on the orthogonal complement.

    The map sends F = [B | C] (sublattice basis, then complement basis) to
    [B g | C], so it is (B g | C) F^-1; from the Smith form U F V = D that is
    (B g | C) V D^-1 U. The extension exists exactly when this is integral,
    that is when column j of (B g | C) V is divisible by d_j; otherwise the
    call raises "extension is not integral on the ambient lattice". A
    sublattice whose induced Gram is singular is refused first, since it
    meets its complement. The pairing is then checked on a full ambient basis.
    """
    ind = induced_gram(sub)
    if g.domain.gram != ind.gram:
        raise ValueError("isometry domain does not match the induced pairing")
    if matrices.det(ind.gram) == 0:
        raise ValueError("sublattice is degenerate inside the ambient lattice")
    if not is_primitive(sub):
        raise ValueError("sublattice is not primitive")
    comp = orthogonal_complement(sub)
    n = sub.ambient.rank
    b = sub.basis_matrix()
    c = comp.basis_matrix()
    bg = matrices.mat_mul(b, g.matrix)
    full = [b[i] + c[i] for i in range(n)]
    mapped = [bg[i] + c[i] for i in range(n)]
    v, d, u = matrices._inverse_factors(full)
    mv = matrices.mat_mul(mapped, v)
    if any(x % dj for row in mv for x, dj in zip(row, d)):
        raise ValueError("extension is not integral on the ambient lattice")
    out = matrices.mat_mul([[x // dj for x, dj in zip(row, d)] for row in mv], u)
    result = IsometryMap(sub.ambient, out)
    if matrices.mat_mul(result.matrix, b) != bg:
        raise ValueError("extension does not restrict to the given isometry")
    if matrices.mat_mul(result.matrix, c) != c:
        raise ValueError("extension moves the orthogonal complement")
    return result


def sublattice_from_json(obj) -> EmbeddedSublattice:
    """Accepts exactly {"ambient": <lattice>, "basis": [[...], ...]} with basis
    columns in ambient coordinates; any other key is refused."""
    exact_keys(obj, "sublattice", ("ambient", "basis"))
    ambient = lattice_from_json(obj["ambient"])
    return EmbeddedSublattice(ambient, obj["basis"])


def lattice_or_sublattice_from_json(obj) -> tuple[GramLattice, EmbeddedSublattice | None]:
    """A lattice JSON, or a sublattice JSON contributing its induced Gram
    matrix; the sublattice comes back too (None for a lattice JSON)."""
    if isinstance(obj, dict) and "ambient" in obj:
        sub = sublattice_from_json(obj)
        return induced_gram(sub), sub
    return lattice_from_json(obj), None


def sublattice_to_json(sub: EmbeddedSublattice) -> dict:
    return {
        "ambient": lattice_to_json(sub.ambient),
        "basis": [list(c) for c in sub.columns],
    }
