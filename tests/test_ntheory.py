import random
from math import gcd

import pytest

from k3lattice.ntheory import (
    divides,
    divisors,
    factorize,
    is_square,
    sqrt_exact,
    squarefree_split,
    vec_gcd,
)


def test_is_square_small_table():
    squares = {n * n for n in range(100)}
    for n in range(-50, 10_000):
        assert is_square(n) == (n in squares)


def test_is_square_large():
    big = (10**18 + 7) ** 2
    assert is_square(big)
    assert not is_square(big + 1)
    assert not is_square(big - 1)


def test_sqrt_exact():
    assert sqrt_exact(0) == 0
    assert sqrt_exact(144) == 12
    assert sqrt_exact(145) is None
    assert sqrt_exact(-4) is None


def test_divides_gcd_convention():
    assert divides(0, 0)
    assert not divides(0, 5)
    assert divides(3, -9)
    assert divides(-3, 9)
    assert not divides(4, 6)


def test_factorize_reconstructs():
    rng = random.Random(20260818)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
            # primality of each factor by trial division
            assert p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
        assert prod == n
    assert factorize(0) == {}
    assert factorize(1) == {}
    assert factorize(-12) == {2: 2, 3: 1}


def test_divisors_against_brute():
    for n in list(range(1, 200)) + [360, 1024, 9973]:
        brute = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == brute
        assert divisors(-n) == brute
    with pytest.raises(ValueError):
        divisors(0)


def test_squarefree_split():
    for n in range(-500, 501):
        s, f = squarefree_split(n)
        assert s * f * f == n
        if n != 0:
            # squarefree: no prime appears twice
            assert all(e == 1 for e in factorize(s).values())
            assert f >= 1


def test_vec_gcd():
    assert vec_gcd([]) == 0
    assert vec_gcd([0, 0]) == 0
    assert vec_gcd([4, -6]) == 2
    assert vec_gcd([5]) == 5
    assert vec_gcd([-5]) == 5
    assert vec_gcd(x for x in (12, -18, 30)) == 6
    assert vec_gcd(iter(())) == 0

    def fold(values):
        g = 0
        for v in values:
            g = gcd(g, v)
        return g

    rng = random.Random(7)
    for _ in range(2000):
        values = [
            rng.choice((0, rng.randint(-60, 60), rng.randint(-(10**20), 10**20))) for _ in range(rng.randint(0, 6))
        ]
        assert vec_gcd(values) == vec_gcd(iter(values)) == fold(values), values
