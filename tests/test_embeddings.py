import random
import re

import pytest

from k3lattice.embeddings import (
    EmbeddedSublattice,
    IsometryMap,
    extend_by_identity,
    induced_gram,
    is_primitive,
    lattice_or_sublattice_from_json,
    orthogonal_complement,
    primitive_closure,
    sublattice_from_json,
    sublattice_to_json,
)
from k3lattice.catalog import family
from k3lattice.lattices import GramLattice, direct_sum, standard_lattice
from k3lattice.matrices import smith_normal_form
from oracles import rational_inverse_reference


def _e(n, i, value=1):
    v = [0] * n
    v[i] = value
    return v


def test_induced_gram_families():
    k3 = standard_lattice("K3")
    sub = EmbeddedSublattice(k3, [_e(22, 0), _e(22, 1)])
    assert induced_gram(sub).gram == ((0, 1), (1, 0))

    cols = [_e(22, 0), _e(22, 6), _e(22, 14)]
    cols[0][1] = 3
    assert induced_gram(EmbeddedSublattice(k3, cols)).gram == (
        (6, 0, 0),
        (0, -2, 0),
        (0, 0, -2),
    )


def test_embedded_sublattice_validation():
    u = standard_lattice("U")
    with pytest.raises(ValueError):
        EmbeddedSublattice(u, [[1, 0, 0]])  # wrong length
    with pytest.raises(ValueError):
        EmbeddedSublattice(u, [])  # no columns
    with pytest.raises(ValueError):
        EmbeddedSublattice(u, [[1, 0], [2, 0]])  # dependent columns


def test_embedded_sublattice_rejects_dependent_columns():
    k3 = standard_lattice("K3")
    v = [3, -1, 0, 2, 0, 0, 1] + [0] * 14 + [5]
    w = [0, 1] + [0] * 20
    for cols in (
        [v, [2 * x for x in v]],
        [[2 * x for x in v], [3 * x for x in v]],
        [v, [0] * 22],
        [w, v, [x - 4 * y for x, y in zip(v, w)], [0] * 22],
    ):
        with pytest.raises(ValueError, match="basis columns are linearly dependent"):
            EmbeddedSublattice(k3, cols)
    u = standard_lattice("U")
    with pytest.raises(ValueError, match="basis columns are linearly dependent"):
        EmbeddedSublattice(u, [[1, 0], [0, 1], [1, 1]])  # more columns than the rank


def test_independence_check_agrees_with_smith_rank():
    rng = random.Random(104)
    k3 = standard_lattice("K3")
    dependent = 0
    for _ in range(150):
        k = rng.randint(1, 4)
        cols = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(22)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            i, *others = rng.sample(range(k), k)  # column i from the others
            coeffs = {j: rng.randint(-2, 2) for j in others}
            cols[i] = [sum(c * cols[j][r] for j, c in coeffs.items()) for r in range(22)]
        basis = [[c[i] for c in cols] for i in range(22)]
        independent = len(smith_normal_form(basis).invariant_factors()) == k
        try:
            EmbeddedSublattice(k3, cols)
            built = True
        except ValueError:
            built = False
        assert built == independent, cols
        dependent += not independent
    assert dependent > 10


def test_is_primitive_and_closure():
    u = standard_lattice("U")
    prim = EmbeddedSublattice(u, [[1, 0]])
    assert is_primitive(prim)
    doubled = EmbeddedSublattice(u, [[2, 0]])
    assert not is_primitive(doubled)
    closed = primitive_closure(doubled)
    assert is_primitive(closed)
    assert [list(c) for c in closed.columns] == [[1, 0]]

    k3 = standard_lattice("K3")
    v = _e(22, 0, 2)
    v[1] = 2
    sub = EmbeddedSublattice(k3, [v])
    closed = primitive_closure(sub)
    assert induced_gram(closed).gram == ((2,),)  # (e+f)/1 has square 2 after saturation


def test_support_kernels_match_the_full_matrix_on_k3_sublattices():
    # is_primitive and induced_gram work on the rows of B that are nonzero;
    # here they are checked against the Smith form and B^T G B of all 22 rows
    k3 = standard_lattice("K3")
    g = k3.gram
    rng = random.Random(20261019)
    subs = [EmbeddedSublattice(k3, family(fid, 1 if fid == 1 else None).generators) for fid in range(1, 6)]
    while len(subs) < 60:
        support = rng.sample(range(22), rng.randint(1, 6))
        cols = []
        for _ in range(rng.randint(1, min(3, len(support)))):
            col = [0] * 22
            for i in support:
                col[i] = rng.randint(-3, 3)
            cols.append(col)
        try:
            subs.append(EmbeddedSublattice(k3, cols))
        except ValueError:
            continue
    primitive = 0
    for sub in subs:
        b = sub.basis_matrix()
        assert any(not any(row) for row in b)
        full = all(f == 1 for f in smith_normal_form(b).invariant_factors())
        assert is_primitive(sub) == full, sub.columns
        primitive += full
        want = tuple(
            tuple(sum(x[i] * g[i][j] * y[j] for i in range(22) for j in range(22)) for y in sub.columns)
            for x in sub.columns
        )
        assert induced_gram(sub).gram == want, sub.columns
    assert 10 <= primitive <= len(subs) - 10


def test_primitive_closure_keeps_rational_span():
    rng = random.Random(41)
    amb = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    for _ in range(40):
        cols = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        try:
            sub = EmbeddedSublattice(amb, cols)
        except ValueError:
            continue
        closed = primitive_closure(sub)
        assert is_primitive(closed)
        assert closed.rank == sub.rank
        # every original column is an integer combination of the closure
        b = closed.basis_matrix()
        k = closed.rank
        inv = rational_inverse_reference([[sum(b[i][r] * b[i][j] for i in range(3)) for j in range(k)] for r in range(k)])
        for col in sub.columns:
            rhs = [sum(b[i][r] * col[i] for i in range(3)) for r in range(k)]
            sol = [sum(inv[r][j] * rhs[j] for j in range(k)) for r in range(k)]
            assert all(x.denominator == 1 for x in sol)


def test_orthogonal_complement():
    amb = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    sub = EmbeddedSublattice(amb, [[0, 0, 1]])
    comp = orthogonal_complement(sub)
    assert induced_gram(comp).gram == ((0, 1), (1, 0))

    u = standard_lattice("U")
    iso = EmbeddedSublattice(u, [[1, 0]])
    comp = orthogonal_complement(iso)
    assert comp.rank == 1
    assert induced_gram(comp).gram == ((0,),)

    degenerate = GramLattice(3, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="requires a nondegenerate ambient lattice"):
        orthogonal_complement(EmbeddedSublattice(degenerate, [[1, 0, 0]]))


def test_isometry_validation_and_apply():
    u = standard_lattice("U")
    swap = IsometryMap(u, [[0, 1], [1, 0]])
    assert swap.apply((1, 2)) == [2, 1]
    minus = IsometryMap(u, [[-1, 0], [0, -1]])
    assert minus.apply((1, 2)) == [-1, -2]
    with pytest.raises(ValueError):
        IsometryMap(u, [[1, 1], [0, 1]])  # does not preserve the pairing
    with pytest.raises(ValueError, match="shape does not match the lattice rank"):
        IsometryMap(u, [[1, 0, 0], [0, 1, 0]])


def test_extend_by_identity_across_k3():
    k3 = standard_lattice("K3")
    u = standard_lattice("U")
    sub = EmbeddedSublattice(k3, [_e(22, 0), _e(22, 1)])
    g = IsometryMap(u, [[0, 1], [1, 0]])
    ext = extend_by_identity(g, sub)
    rows = ext.matrix
    # swaps the first two coordinates, fixes the remaining twenty
    assert ext.apply(_e(22, 0)) == _e(22, 1)
    assert ext.apply(_e(22, 1)) == _e(22, 0)
    for i in range(2, 22):
        assert ext.apply(_e(22, i)) == _e(22, i)
    from k3lattice import matrices

    gm = [list(r) for r in k3.gram]
    assert matrices.mat_mul(matrices.mat_mul(matrices.transpose(rows), gm), rows) == gm


def test_extend_minus_one_on_a_root_is_its_reflection():
    # -1 on <r> for r.r = -2, extended by the identity on r-perp, is the
    # reflection x -> x + (x.r) r; checked for the 16 simple roots e_6..e_21
    # of the two E8(-1) blocks of the K3 lattice
    k3 = standard_lattice("K3")
    gram = k3.gram
    minus_one = IsometryMap(GramLattice(1, ((-2,),)), [[-1]])
    for i in range(6, 22):
        r = _e(22, i)
        gr = [sum(gram[j][k] * r[k] for k in range(22)) for j in range(22)]
        reflection = tuple(tuple(int(a == b) + r[a] * gr[b] for b in range(22)) for a in range(22))
        ext = extend_by_identity(minus_one, EmbeddedSublattice(k3, [r]))
        assert ext.matrix == reflection, i


def test_extend_minus_one_on_minus8():
    # -1 moves the Z/8 generator coset of <-8>, yet on U + <-8> the
    # complement U is unimodular and diag(1, 1, -1) extends it
    minus_one = IsometryMap(GramLattice(1, ((-8,),)), [[-1]])
    amb = direct_sum(standard_lattice("U"), GramLattice(1, ((-8,),)))
    ext = extend_by_identity(minus_one, EmbeddedSublattice(amb, [[0, 0, 1]]))
    assert ext.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    # inside the unimodular K3 lattice the complement of family 3's <-8>
    # vector glues to it along Z/8, where -1 is not the identity
    sub = EmbeddedSublattice(standard_lattice("K3"), [family(3).generators[2]])
    with pytest.raises(ValueError, match="extension is not integral on the ambient lattice"):
        extend_by_identity(minus_one, sub)


def test_extend_by_identity_refuses_a_degenerate_sublattice():
    # e1 in U is isotropic, and so is span(e1, e3) in U + U: each lies in its
    # own complement, so [B | C] would be singular; the induced Gram's
    # determinant 0 refuses it first, never a division by 0
    u = standard_lattice("U")
    for ambient, basis, gram, iso in (
        (u, [[1, 0]], ((0,),), [[-1]]),
        (direct_sum(u, u), [[1, 0, 0, 0], [0, 0, 1, 0]], ((0, 0), (0, 0)), [[0, 1], [1, 0]]),
    ):
        sub = EmbeddedSublattice(ambient, basis)
        with pytest.raises(ValueError, match="sublattice is degenerate inside the ambient lattice"):
            extend_by_identity(IsometryMap(GramLattice(len(gram), gram), iso), sub)
    # span((2, 2, 0, 0)) in U + U has induced Gram <8> and is not primitive;
    # an isometry of another lattice is refused before that
    sub = EmbeddedSublattice(direct_sum(u, u), [[2, 2, 0, 0]])
    for square, message in (
        (8, "sublattice is not primitive"),
        (4, "isometry domain does not match the induced pairing"),
    ):
        with pytest.raises(ValueError, match=message):
            extend_by_identity(IsometryMap(GramLattice(1, ((square,),)), [[-1]]), sub)


def test_sublattice_json_roundtrip():
    k3 = standard_lattice("K3")
    sub = EmbeddedSublattice(k3, [_e(22, 0), _e(22, 1)])
    obj = sublattice_to_json(sub)
    again = sublattice_from_json(obj)
    assert again.columns == sub.columns
    assert again.ambient.gram == k3.gram
    with pytest.raises(ValueError):
        sublattice_from_json({"ambient": {"name": "U"}})


@pytest.mark.parametrize(
    "obj, extra",
    [
        ({"ambient": {"name": "U"}, "basis": [[1, 0]], "gram": [[4]]}, "['gram']"),
        ({"ambient": {"name": "U"}, "basis": [[1, 0]], "name": "U", "rank": 1}, "['name', 'rank']"),
        ({"ambient": {"name": "U", "rank": 2}, "basis": [[1, 0]]}, "['rank']"),
    ],
)
def test_sublattice_from_json_refuses_extra_keys(obj, extra):
    with pytest.raises(ValueError, match=re.escape(f"got {extra}")):
        sublattice_from_json(obj)
    # the CLI's lattice-or-sublattice reader goes through the same check
    with pytest.raises(ValueError, match=re.escape(f"got {extra}")):
        lattice_or_sublattice_from_json(obj)


def test_embedded_sublattice_and_isometry_refuse_non_integers():
    u = standard_lattice("U")
    # truncated to [[1, 0]], the basis would be a primitive sublattice
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        sublattice_from_json({"ambient": {"name": "U"}, "basis": [[1.5, 0]]})
    with pytest.raises(ValueError, match="expected an integer"):
        EmbeddedSublattice(u, [[True, 0]])
    with pytest.raises(ValueError, match="expected an integer"):
        IsometryMap(u, [[0, 1.0], [1, 0]])
