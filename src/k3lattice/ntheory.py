"""Small exact number-theory helpers shared by the form deciders."""

from __future__ import annotations

from math import gcd, isqrt

__all__ = [
    "is_square",
    "sqrt_exact",
    "divides",
    "factorize",
    "divisors",
    "squarefree_split",
    "vec_gcd",
    "exact_int",
]


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negative numbers never are)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def sqrt_exact(n: int) -> int | None:
    """Integer square root of n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def divides(d: int, n: int) -> bool:
    """Divisibility with the gcd convention: 0 divides only 0."""
    if d == 0:
        return n == 0
    return n % d == 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division; {} for n in {-1, 0, 1}."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining factors are of the form 6k +- 1
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|; n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree carrying the sign; returns (s, f)."""
    if n == 0:
        return 0, 1
    s, f = 1 if n > 0 else -1, 1
    for p, e in factorize(n).items():
        f *= p ** (e // 2)
        if e % 2:
            s *= p
    return s, f


def vec_gcd(values) -> int:
    """gcd of an iterable of integers (0 for an empty or all-zero input)."""
    return gcd(*values)


def exact_int(x) -> int:
    """x itself when it is an int; ValueError for anything else (a float,
    bool or string), so an input value is never rounded or parsed."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x
