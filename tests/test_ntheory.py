import random
from math import prod

import pytest

from k3lattice import ntheory
from k3lattice.ntheory import (
    RHO_LIMIT,
    FactorBudgetError,
    divides,
    divisors,
    factorize,
    is_square,
    sqrt_exact,
    squarefree_split,
)

from oracles import is_prime_trial


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
        s, f, primes = squarefree_split(n)
        assert s * f * f == n
        # the primes of s are the odd-exponent primes of n
        assert primes == {p for p, e in factorize(n).items() if e % 2}
        if n != 0:
            # squarefree: no prime appears twice
            assert all(e == 1 for e in factorize(s).values())
            assert f >= 1


def test_primality_matches_trial_division_below_1e5():
    # factorize tries the primes below 1000 and then Miller-Rabin, which is
    # also checked on its own at every odd n past its smallest base
    for n in range(2, 10**5):
        prime = is_prime_trial(n)
        assert (factorize(n) == {n: 1}) == prime, n
        if n > 41 and n % 2:
            assert ntheory._strong_probable_prime(n) == prime, n


def test_miller_rabin_refuses_pseudoprimes():
    # Carmichael numbers, then strong pseudoprimes: 3215031751 to the bases
    # 2, 3, 5, 7; 2152302898747 to 2 ... 11; 3474749660383 to 2 ... 13, where
    # six bases stop sufficing; 3825123056546413051 to 2 ... 31
    for n in (561, 41041, 825265, 3215031751, 2152302898747, 3474749660383, 3825123056546413051):
        assert not ntheory._strong_probable_prime(n), n
        fac = factorize(n)
        assert len(fac) > 1 and prod(p**e for p, e in fac.items()) == n, n
    for p in (999983, 10**12 + 39, 10**16 + 61, 10**18 + 9, 2**61 - 1):
        assert ntheory._strong_probable_prime(p) and factorize(p) == {p: 1}, p
    # 13 bases prove nothing above 3.3 * 10**24: a prime there is refused
    with pytest.raises(FactorBudgetError):
        factorize(10**25 + 13)
    assert factorize(2**100 * 3) == {2: 100, 3: 1}


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    cases = []
    for _ in range(440):
        n = rng.randint(2, 10**20)
        cases.append((n, sympy.factorint(n)))
    for _ in range(30):
        p = sympy.nextprime(rng.randint(10**3, 10**10))
        cases.append((p * p, {p: 2}))
    for _ in range(30):
        p, q = (sympy.nextprime(rng.randint(10**9, 2 * 10**9)) for _ in range(2))
        cases.append((p * q, {p: 2} if p == q else {p: 1, q: 1}))
    for n, expected in cases:
        fac = factorize(n)
        assert fac == expected, n
        assert list(fac) == sorted(fac), n


def test_factorize_under_a_step_limit():
    # seeded products of two primes past trial division: under a limit
    # factorize agrees with sympy, and it needs exactly the rho steps that
    # the one split takes: one step fewer raises, naming the limit
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261020)
    for _ in range(30):
        p = sympy.nextprime(rng.randint(10**4, 10**8))
        q = sympy.nextprime(p + rng.randint(1, 10**8))
        n = p * q
        expected = sympy.factorint(n)
        needed = ntheory._rho_factor(n, 0, RHO_LIMIT)[1]
        assert factorize(n, needed) == expected == {p: 1, q: 1}, n
        with pytest.raises(FactorBudgetError, match=f"within {needed - 1} rho steps"):
            factorize(n, needed - 1)
