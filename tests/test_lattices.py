import random
from fractions import Fraction

import pytest

from k3lattice import lattices
from k3lattice.lattices import (
    AUT_INDEX_FACTOR,
    GramLattice,
    Signature,
    aut_index_bound,
    aut_order_finite_abelian,
    det,
    direct_sum,
    discriminant_group,
    lattice_from_json,
    lattice_to_json,
    signature,
    standard_lattice,
)
from oracles import aut_count_direct, aut_count_moebius, det_cofactor


def test_standard_lattices():
    u = standard_lattice("U")
    assert u.gram == ((0, 1), (1, 0))
    assert det(u) == -1
    assert signature(u) == Signature(1, 1, 0)

    a1 = standard_lattice("A1_neg")
    assert a1.gram == ((-2,),)
    assert standard_lattice("A1(-1)").gram == a1.gram

    e8 = standard_lattice("E8_neg")
    assert e8.rank == 8
    assert det(e8) == 1
    assert signature(e8) == Signature(0, 8, 0)
    assert all(e8.gram[i][i] == -2 for i in range(8))
    # the Dynkin diagram of E8: exactly 7 bonds, graph is connected
    bonds = [(i, j) for i in range(8) for j in range(i + 1, 8) if e8.gram[i][j] != 0]
    assert len(bonds) == 7
    assert all(e8.gram[i][j] == 1 for i, j in bonds)
    reach = {0}
    changed = True
    while changed:
        changed = False
        for i, j in bonds:
            if (i in reach) != (j in reach):
                reach |= {i, j}
                changed = True
    assert reach == set(range(8))

    k3 = standard_lattice("K3")
    assert k3.rank == 22
    assert det(k3) == -1
    assert signature(k3) == Signature(3, 19, 0)

    with pytest.raises(ValueError):
        standard_lattice("nope")


def test_standard_lattice_is_built_once_per_name():
    for names in (("U",), ("A1_neg", "A1(-1)"), ("E8_neg", "E8(-1)"), ("K3",)):
        first = standard_lattice(names[0])
        # immutable all the way down, so no caller can change the cached lattice
        assert type(first.gram) is tuple and all(type(row) is tuple for row in first.gram)
        for name in names + names:
            assert standard_lattice(name) is standard_lattice(name)
            assert standard_lattice(name) == first
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown lattice name"):
            standard_lattice("nope")


def test_gram_lattice_validation_and_pairing():
    u = standard_lattice("U")
    assert u.square((1, 1)) == 2
    assert u.square((1, -1)) == -2
    assert u.pairing((1, 0), (0, 1)) == 1
    with pytest.raises(ValueError):
        GramLattice(2, ((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        GramLattice(2, ((0, 1),))  # wrong shape
    with pytest.raises(ValueError):
        u.square((1, 0, 0))  # wrong length


def test_pairing_matches_index_loop():
    rng = random.Random(11)
    for name in ("U", "A1_neg", "E8_neg", "K3"):
        lat = standard_lattice(name)
        g, n = lat.gram, lat.rank
        for _ in range(20):
            u = [rng.randint(-9, 9) for _ in range(n)]
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for a, b in ((u, u), (u, v), (v, u)):
                want = sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n))
                assert lat.pairing(a, b) == want
                assert lat.pairing(a, b) == lat.pairing(b, a)
        with pytest.raises(ValueError):
            lat.pairing([0] * n, [0] * (n + 1))


def test_direct_sum_blocks():
    s = direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))
    assert s.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -2))
    assert det(s) == 2
    assert signature(s) == Signature(1, 2, 0)


def test_det_matches_cofactor():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        assert det(GramLattice(n, g)) == det_cofactor(g)


def test_discriminant_groups_known():
    assert discriminant_group(standard_lattice("U")).invariant_factors == ()
    assert discriminant_group(standard_lattice("E8_neg")).invariant_factors == ()
    assert discriminant_group(standard_lattice("A1_neg")).invariant_factors == (2,)
    assert discriminant_group(standard_lattice("K3")).invariant_factors == ()

    fam1 = GramLattice(3, ((6, 0, 0), (0, -2, 0), (0, 0, -2)))
    g = discriminant_group(fam1)
    assert g.invariant_factors == (2, 2, 6)
    assert g.order == 24

    u8 = direct_sum(standard_lattice("U"), GramLattice(1, ((-8,),)))
    assert discriminant_group(u8).invariant_factors == (8,)

    with pytest.raises(ValueError):
        discriminant_group(GramLattice(1, ((0,),)))


def test_discriminant_group_order_is_abs_det():
    rng = random.Random(32)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        lat = GramLattice(n, g)
        d = det(lat)
        if d == 0:
            continue
        assert discriminant_group(lat).order == abs(d)
        done += 1


def test_aut_order_finite_abelian_vs_oracles():
    cases = [(2,), (3,), (4,), (2, 2), (2, 4), (6,), (2, 6), (3, 3), (2, 2, 6), (12,), (2, 2, 2)]
    for chain in cases:
        expected = aut_count_moebius(chain)
        assert aut_order_finite_abelian(chain) == expected
        order = 1
        for d in chain:
            order *= d
        if order <= 16:
            assert aut_count_direct(chain) == expected


def test_aut_order_validation():
    with pytest.raises(ValueError):
        aut_order_finite_abelian((1, 2))
    with pytest.raises(ValueError):
        aut_order_finite_abelian((2, 3))  # not a divisibility chain
    assert aut_order_finite_abelian(()) == 1


def test_aut_index_bound_values():
    assert AUT_INDEX_FACTOR == 66
    assert aut_index_bound((2,)) == 66
    assert aut_index_bound((2, 2)) == 396


def test_lattice_json_roundtrip():
    for obj in (
        {"name": "U"},
        {"rank": 2, "gram": [[2, 1], [1, -2]]},
        {"gram": [[2]]},
        {"sum": [{"name": "U"}, {"gram": [[-8]]}]},
    ):
        lat = lattice_from_json(obj)
        again = lattice_from_json(lattice_to_json(lat))
        assert again.gram == lat.gram
    with pytest.raises(ValueError):
        lattice_from_json({"nope": 1})
    with pytest.raises(ValueError):
        lattice_from_json([1, 2])
    with pytest.raises(ValueError, match='"sum" must be a list of lattices'):
        lattice_from_json({"sum": 3})


def test_gram_lattice_refuses_non_integers():
    # 2.0 == 2 passes the shape check, so the rank needs its own check
    with pytest.raises(ValueError, match="expected an integer, got 2.0"):
        lattice_from_json({"rank": 2.0, "gram": [[1, 0], [0, 1]]})
    for gram in ([[1.0, 0], [0, 1]], [[True, 0], [0, 1]], [["1", 0], [0, 1]]):
        with pytest.raises(ValueError, match="expected an integer"):
            GramLattice(2, gram)
    with pytest.raises(ValueError, match="expected an integer"):
        aut_order_finite_abelian((2.0, 4))


def test_discriminant_group_refuses_degenerate_lattice():
    for gram in ([[0]], [[1, 1], [1, 1]], [[0, 0, 0], [0, 2, 1], [0, 1, 2]]):
        with pytest.raises(ValueError, match="degenerate lattice has no discriminant group"):
            discriminant_group(GramLattice(len(gram), gram))
