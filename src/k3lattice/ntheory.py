"""Small exact number-theory helpers shared by the form deciders, and the
package's two input rules, exact_int for numbers and exact_keys for objects."""

from __future__ import annotations

from math import gcd, isqrt

__all__ = [
    "is_square",
    "sqrt_exact",
    "divides",
    "trial_division",
    "factorize",
    "FactorBudgetError",
    "RHO_LIMIT",
    "divisors",
    "squarefree_split",
    "exact_int",
    "exact_keys",
]


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negative numbers never are)."""
    return sqrt_exact(n) is not None


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


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


# the primes below 1000, tried by division before any other test
_SMALL_PRIMES = _primes_below(1000)
_TRIAL_SQUARE = 1000 * 1000
# Miller-Rabin with the first 6 prime bases is deterministic below this bound
# (Jaeschke, Math. Comp. 61, 1993), with the first 13 below _MR_LIMIT
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_SIX_BASES_LIMIT = 3_474_749_660_383
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Pollard-Brent rho steps one factorize call may take in all, by default and
# in qform's LOCAL step, which splits the cofactor trial division leaves
RHO_LIMIT = 1 << 19
_LOCAL_RHO_LIMIT = 1 << 12
_RHO_BATCH = 64


class FactorBudgetError(ValueError):
    """factorize ran past its limit of rho steps, or met a cofactor above
    _MR_LIMIT that passes every Miller-Rabin base, which proves nothing."""


def _strong_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41 (FactorBudgetError at or
    above _MR_LIMIT when every base passes)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[: 6 if n < _MR_SIX_BASES_LIMIT else 13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise FactorBudgetError(f"{n} passes Miller-Rabin above its proven range")
    return True


def _rho_factor(n: int, steps: int, limit: int) -> tuple[int, int]:
    """A proper factor of the odd composite non-square n by Pollard-Brent rho
    (Brent, BIT 20, 1980) and the step count so far, which never passes
    limit. The step y -> y**2 + c is written out in each loop."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x, k = y, 0
            # the r steps of y, then each batch, are counted before they run
            while k < r and g == 1:
                if steps + r + min(k + _RHO_BATCH, r) > limit:
                    raise FactorBudgetError(f"no factor of {n} within {limit} rho steps")
                if k == 0:
                    for _ in range(r):
                        y = (y * y + c) % n
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps
    raise AssertionError("internal error: rho found no factor")


def trial_division(n: int) -> tuple[dict[int, int], int]:
    """Divide |n| by the primes below 1000, stopping at p**2 > n: (the prime
    factors found, in increasing order with exponents, and the cofactor left:
    1, or a number above 1000**2 with no prime factor below 1000)."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n < _TRIAL_SQUARE:
        if n > 1:
            out[n] = 1
        n = 1
    return out, n


def factorize(n: int, limit: int = RHO_LIMIT) -> dict[int, int]:
    """Prime factorization of |n| in increasing order; {} for n in {-1, 0, 1}.

    trial_division, then deterministic Miller-Rabin and Pollard-Brent rho on
    the cofactor; FactorBudgetError past limit rho steps in all."""
    out, n = trial_division(n)
    stack, steps = ([n] if n > 1 else []), 0
    while stack:
        m = stack.pop()
        # no prime below 1000 divides m, so m below 1000**2 is prime
        if m < _TRIAL_SQUARE or _strong_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = sqrt_exact(m)
        if r is not None:
            stack += (r, r)
        else:
            f, steps = _rho_factor(m, steps, limit)
            stack += (f, m // f)
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|; n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_split(n: int) -> tuple[int, int, set[int]]:
    """Write n = s * f**2 with s squarefree carrying the sign, from one
    factorize; returns (s, f, the primes of s)."""
    s, f, primes = (1 if n > 0 else -1 if n < 0 else 0), 1, set()
    for p, e in factorize(n).items():
        f *= p ** (e // 2)
        if e % 2:
            s *= p
            primes.add(p)
    return s, f, primes


def exact_int(x) -> int:
    """x itself when it is an int; ValueError for anything else (a float,
    bool or string), so an input value is never rounded or parsed."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def exact_keys(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    """obj itself when it is a dict with every key of required and none outside
    required and optional; else ValueError naming the missing or extra keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    missing = [key for key in required if key not in obj]
    extra = [key for key in obj if key not in required + optional]
    if missing or extra:
        *head, last = (f'"{key}"' for key in missing or required + optional)
        keys = f"{', '.join(head)} and {last}" if head else last
        raise ValueError(f"{what} JSON needs {keys}" if missing else f"{what} JSON takes only {keys}; got {extra}")
    return obj
