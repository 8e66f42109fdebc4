"""Independent oracles for the test suite.

Everything here recomputes results from first principles (cofactor
expansions, minor gcds, brute-force witness scans, Moebius-counted
generating tuples) and shares no code path with the package internals it
checks. The exceptions are references for candidate walks only:
claim3_reference_walk asks the package's binary deciders for its verdicts,
theorem3_reference_walk is the plain theorem-3 walk built from package
code (primitive closure, induced Gram, deciders), and
theorem3_planes_reference lists that walk's planes with the package's
primitive closure and induced Gram.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

from k3lattice.qform import (
    BinaryForm,
    binary_represents,
    binary_represents_zero,
    verdict_to_json,
)

# ------------------------------------------------------------- determinants


def det_cofactor(m) -> int:
    """Cofactor-expansion determinant; fine for n <= 6."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def snf_diagonal_minor_gcd(m) -> list[int]:
    """Smith diagonal via determinantal divisors: d_k = gcd of all k x k
    minors, diagonal entry k = d_k / d_{k-1}. Exponential; keep n <= 4ish."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = [[m[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_cofactor(minor))
        if g == 0:
            out.extend([0] * (min(rows, cols) - len(out)))
            return out
        out.append(g // prev)
        prev = g
    return out


def rational_inverse_reference(m) -> list[list[Fraction]]:
    """Inverse over Q by Fraction Gauss-Jordan; ValueError when the matrix is
    not square or is singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


# ------------------------------------------------- finite abelian aut counts


def _subspaces(p: int, k: int):
    """All subspaces of F_p^k as (dimension, frozenset of vectors), via
    reduced row-echelon enumeration."""
    vectors = list(product(range(p), repeat=k))
    zero = tuple([0] * k)
    out = [(0, frozenset({zero}))]
    for r in range(1, k + 1):
        for pivots in combinations(range(k), r):
            free_positions = []
            for i, pc in enumerate(pivots):
                for j in range(pc + 1, k):
                    if j not in pivots:
                        free_positions.append((i, j))
            for fill in product(range(p), repeat=len(free_positions)):
                rows = [[0] * k for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), val in zip(free_positions, fill):
                    rows[i][j] = val
                span = set()
                for coeffs in product(range(p), repeat=r):
                    v = [0] * k
                    for c, row in zip(coeffs, rows):
                        for idx in range(k):
                            v[idx] = (v[idx] + c * row[idx]) % p
                    span.add(tuple(v))
                out.append((r, frozenset(span)))
    return out


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _aut_count_p_group(p: int, exps: list[int]) -> int:
    """|Aut| of prod_i Z_{p^exps[i]} by Moebius inversion over the subspace
    lattice of the Frattini quotient: counts ordered tuples (x_1..x_k) with
    ord(x_i) | p^exps[i] whose image spans the quotient (equivalently,
    generates the group)."""
    k = len(exps)
    moduli = [p**e for e in exps]
    elements = list(product(*[range(m) for m in moduli]))
    total = 0
    for dim, span in _subspaces(p, k):
        codim = k - dim
        moebius = (-1) ** codim * p ** (codim * (codim - 1) // 2)
        preimage = [g for g in elements if tuple(x % p for x in g) in span]
        count = 1
        for d in moduli:
            count *= sum(1 for g in preimage if all((x * d) % m == 0 for x, m in zip(g, moduli)))
        total += moebius * count
    return total


def aut_count_moebius(invariant_factors) -> int:
    """|Aut| of the finite abelian group with the given divisor chain,
    multiplied over its primary components."""
    by_prime: dict[int, list[int]] = {}
    for d in invariant_factors:
        for p, e in _factor(d).items():
            by_prime.setdefault(p, []).append(e)
    total = 1
    for p, exps in by_prime.items():
        total *= _aut_count_p_group(p, sorted(exps))
    return total


def aut_count_direct(invariant_factors) -> int:
    """Literal count: tuples (x_1..x_k) with ord(x_i) | d_i generating the
    whole group. Only for tiny groups (order <= ~16)."""
    chain = list(invariant_factors)
    elements = list(product(*[range(d) for d in chain]))
    order = len(elements)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, chain))

    def generates(gens) -> bool:
        seen = {tuple([0] * len(chain))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    s = add(h, g)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
            if len(seen) == order:
                return True
        return len(seen) == order

    count = 0
    candidates = []
    for d in chain:
        candidates.append([g for g in elements if all((x * d) % m == 0 for x, m in zip(g, chain))])
    for combo in product(*candidates):
        if generates(combo):
            count += 1
    return count


# ------------------------------------------------------------ number theory


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def legendre_reduce_reference(d1: int, d2: int, d3: int):
    """The Legendre reduction by trial division: content, the squarefree part
    of each coefficient, then merges of the least prime shared by the first
    pair of coefficients that share one. Returns (reduced, steps)."""
    d = [d1, d2, d3]
    steps = []
    g = gcd(*d)
    if g > 1:
        d = [x // g for x in d]
        steps.append({"op": "content", "g": g})
    for i in range(3):
        s, f = (1 if d[i] > 0 else -1), 1
        for p, e in _factor(abs(d[i])).items():
            f *= p ** (e // 2)
            s *= p ** (e % 2)
        if f > 1:
            d[i] = s
            steps.append({"op": "square", "axis": i, "factor": f})
    while True:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            shared = gcd(d[i], d[j])
            if shared > 1:
                p = min(_factor(shared))
                k = 3 - i - j
                d[i] //= p
                d[j] //= p
                d[k] *= p
                steps.append({"op": "merge", "axes": [i, j], "prime": p})
                break
        else:
            return d, steps


def legendre_certificate_reference(d1: int, d2: int, d3: int):
    """LEGENDRE certificate data for a mixed-sign diagonal form, from the
    trial-division reduction and a scan of every residue of the modulus for
    a square root of the target; None when all three conditions hold."""
    (a, b, c), steps = legendre_reduce_reference(d1, d2, d3)
    for idx, (u, w) in enumerate(((a, b * c), (b, a * c), (c, a * b))):
        m, v = abs(u), -w % abs(u)
        if not any(x * x % m == v for x in range(m // 2 + 1)):
            return {"reduced": [a, b, c], "steps": steps, "condition": idx, "modulus": m, "target": v}
    return None


def binary_zp_represents(a: int, b: int, c: int, t: int, p: int) -> bool:
    """True iff a x^2 + b x y + c y^2 = t != 0 has a solution over Z_p, by
    search, for D = b^2 - 4ac != 0. A solution with x or y prime to p has a
    gradient (2ax + by, bx + 2cy) of valuation at most v = v_p(D), since
    [[2a, b], [b, 2c]] has determinant -D; so Hensel's lemma lifts every such
    solution mod p^(2v + 1), and a depth-first search through the solutions
    mod p, p^2, ..., p^(2v + 1) decides it. A solution (x, y) mod m = p^j,
    j >= 1, lifts to (x + m u, y + m w) mod m p exactly when (q(x, y) - t) / m
    + (2ax + by) u + (bx + 2cy) w = 0 mod p, as m^2 q(u, w) = 0 mod m p, so
    each step solves that linear congruence. Any other solution is p times
    a solution of q = t / p^2, so the search repeats on that target."""
    disc, v = b * b - 4 * a * c, 0
    while disc % p ** (v + 1) == 0:
        v += 1
    top = p ** (2 * v + 1)

    def lifts_to_the_top(x: int, y: int, m: int) -> bool:
        if m == top:
            return True
        r, gx, gy = (a * x * x + b * x * y + c * y * y - t) // m, 2 * a * x + b * y, b * x + 2 * c * y
        for u in range(p):
            rest = (r + gx * u) % p
            if gy % p:
                ws = [-rest * pow(gy, -1, p) % p]
            else:
                ws = range(p) if rest == 0 else []
            if any(lifts_to_the_top(x + m * u, y + m * w, m * p) for w in ws):
                return True
        return False

    while True:
        if any(
            (a * x * x + b * x * y + c * y * y - t) % p == 0 and lifts_to_the_top(x, y, p)
            for x in range(p)
            for y in range(p)
            if x or y
        ):
            return True
        if t % (p * p):
            return False
        t //= p * p


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity and
    the supplement for 2, not by Euler's criterion."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def binary_local_prime_reference(a: int, b: int, c: int, t: int):
    """The prime of a LOCAL certificate for the primitive form a, b, c and
    t != 0. First the least odd prime p of D t dividing only one of D and t
    with (i) p | D and (t a' / p) = -1, for a' = a unless p | a, then c; or
    (ii) the power of p in t odd and (D / p) = -1. Then the least odd prime
    of gcd(D, t), then 2, at which binary_zp_represents finds no solution.
    Every prime of D t is tried, so this is the decider's choice where trial
    division below 1000 factors D and t completely (both below 10^6). None
    when no prime works, and for t = 0, which takes no LOCAL certificate."""
    if t == 0:
        return None
    disc = b * b - 4 * a * c
    primes = sorted((set(_factor(abs(disc))) | set(_factor(abs(t)))) - {2})
    for p in primes:
        if disc % p == 0:
            if t % p and jacobi(t * (a if a % p else c), p) == -1:
                return p
            continue
        v, u = 0, t
        while u % p == 0:
            u, v = u // p, v + 1
        if v % 2 and jacobi(disc, p) == -1:
            return p
    for p in [p for p in primes if disc % p == 0 == t % p] + [2]:
        if not binary_zp_represents(a, b, c, t, p):
            return p
    return None


# ------------------------------------------------------------ witness scans


def binary_witness(a: int, b: int, c: int, t: int, box: int):
    """First witness of a x^2 + b x y + c y^2 = t with |x|,|y| <= box
    (nontrivial when t = 0), or None."""
    for x in range(-box, box + 1):
        axx = a * x * x
        for y in range(-box, box + 1):
            if t == 0 and x == 0 and y == 0:
                continue
            if axx + b * x * y + c * y * y == t:
                return (x, y)
    return None


def ternary_zero_witness(d1: int, d2: int, d3: int, box: int):
    """Nontrivial zero of d1 x^2 + d2 y^2 + d3 z^2 with 0 <= coords <= box
    (signs are irrelevant for diagonal forms), or None."""
    if d1 > 0 and d2 > 0 and d3 > 0:
        return None
    if d1 < 0 and d2 < 0 and d3 < 0:
        return None
    xs = [d1 * x * x for x in range(box + 1)]
    ys = [d2 * y * y for y in range(box + 1)]
    for x in range(box + 1):
        for y in range(box + 1):
            r = -(xs[x] + ys[y])
            if r % d3 != 0:
                continue
            zz = r // d3
            if zz < 0:
                continue
            z = isqrt(zz)
            if z * z != zz or z > box:
                continue
            if x or y or z:
                return (x, y, z)
    return None


def primitive_zeros_reference(d1: int, d2: int, d3: int, height: int):
    """Every primitive zero of d1 x^2 + d2 y^2 + d3 z^2 in the full box
    max |x_i| <= height, first nonzero entry positive, sorted. Each (x, y)
    of the box is matched against a table of d3 z^2 over every z of the box."""
    box = range(-height, height + 1)
    zs: dict[int, list[int]] = {}
    for z in box:
        zs.setdefault(d3 * z * z, []).append(z)
    out = set()
    for x in box:
        for y in box:
            for z in zs.get(-(d1 * x * x + d2 * y * y), ()):
                v = (x, y, z)
                if gcd(gcd(x, y), z) != 1:
                    continue
                if next(c for c in v if c) < 0:
                    v = (-x, -y, -z)
                out.add(v)
    return sorted(out)


def ternary_witness(d1: int, d2: int, d3: int, t: int, box: int):
    """Witness of d1 x^2 + d2 y^2 + d3 z^2 = t with 0 <= coords <= box."""
    for x in range(box + 1):
        r1 = t - d1 * x * x
        for y in range(box + 1):
            r = r1 - d2 * y * y
            if r % d3 != 0:
                continue
            zz = r // d3
            if zz < 0:
                continue
            z = isqrt(zz)
            if z * z == zz and z <= box:
                return (x, y, z)
    return None


def exact_roots_reference(d1: int, d2: int, d3: int, t: int, xs, ys):
    """Every (x, y, z) with z >= 0 and d1 x^2 + d2 y^2 + d3 z^2 = t, for x in
    xs and y in ys(x), x then y ascending: every cell of every row is tried."""
    out = []
    for x in xs:
        for y in ys(x):
            r = t - d1 * x * x - d2 * y * y
            if r % d3 == 0 and r // d3 >= 0 and isqrt(r // d3) ** 2 == r // d3:
                out.append((x, y, isqrt(r // d3)))
    return out


def ternary_residue_hit_reference(d1: int, d2: int, d3: int, t: int, m: int) -> bool:
    """Whether d1 x^2 + d2 y^2 + d3 z^2 = t (mod m) has a solution, by trying
    every (x, y, z) in (Z/m)^3."""
    tm = t % m
    return any(
        (d1 * x * x + d2 * y * y + d3 * z * z) % m == tm
        for x in range(m)
        for y in range(m)
        for z in range(m)
    )


def ternary_ladder_reference(d1: int, d2: int, d3: int, t: int):
    """The first modulus of the fixed ladder 3, 4, 5, 7, 8, 9, 11, 13, 16, 25,
    27, 32, 64 that the ternary sieve walked for every form until its moduli
    came from the input, at which t is not a value of d1 x^2 + d2 y^2 + d3 z^2,
    or None. The value set mod m is the sum of the three sets d_i x^2 mod m
    over every x < m."""
    for m in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 64):
        sets = [{d * x * x % m for x in range(m)} for d in (d1, d2, d3)]
        values = {(u + v + w) % m for u in sets[0] for v in sets[1] for w in sets[2]}
        if t % m not in values:
            return m
    return None


def ternary_sieve_walk_reference(d1: int, d2: int, d3: int, t: int):
    """The first prime power 2 < m <= 64 of a prime p | 2 d1 d2 d3, walking
    every such m in increasing order, at which t is not a value of d1 x^2 +
    d2 y^2 + d3 z^2 mod m, or None. The value set mod m is the sum of the
    three sets d_i x^2 mod m over every x < m."""
    for m in range(3, 65):
        p = next(r for r in range(2, m + 1) if m % r == 0)
        if m != p ** _valuation(m, p) or 2 * d1 * d2 * d3 % p:
            continue
        sets = [{d * x * x % m for x in range(m)} for d in (d1, d2, d3)]
        if t % m not in {(u + v + w) % m for u in sets[0] for v in sets[1] for w in sets[2]}:
            return m
    return None


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k


def ternary_zp_exponent(d1: int, d2: int, d3: int, t: int, p: int) -> int:
    """N = v_p(t) + max v_p(d_i) + 1, plus 2 at p = 2, for t and the d_i
    nonzero: the power p^N at which the ternary sieve's test at p is exact."""
    return _valuation(t, p) + max(_valuation(d, p) for d in (d1, d2, d3)) + 1 + 2 * (p == 2)


_SQUARES: dict[int, frozenset] = {}


def ternary_zp_represents(d1: int, d2: int, d3: int, t: int, p: int) -> bool:
    """True iff d1 x^2 + d2 y^2 + d3 z^2 = t != 0 (every d_i != 0) has a
    solution over Z_p, by a search for one mod m = p^(N + 2), two powers past
    ternary_zp_exponent's N. A solution mod m has a coordinate with v_p(d_i)
    + 2 v_p(x_i) <= v_p(t), so the derivative 2 d_i x_i along it has a
    valuation e with 2e < N (the 2 more at p = 2 pay for its factor 2), and
    Hensel's lemma lifts the solution to Z_p along that coordinate. The
    search runs over the squares mod m, on the axes ordered by falling
    valuation: each value of the outer axis once, and the last axis matched
    against the squares after dividing by its coefficient when that is a
    unit, else against its values."""
    m = p ** (ternary_zp_exponent(d1, d2, d3, t, p) + 2)
    if m not in _SQUARES:
        _SQUARES[m] = frozenset(x * x % m for x in range(m // 2 + 1))
    squares = _SQUARES[m]
    a, b, c = sorted((d1, d2, d3), key=lambda d: -_valuation(d, p))
    if c % p:
        inverse = pow(c, -1, m)
        last = lambda r: r * inverse % m in squares  # noqa: E731
    else:
        last = {c * s % m for s in squares}.__contains__
    # a unit a gives distinct values already, and the search stops at the first hit
    outer = (a * s % m for s in squares) if a % p else {a * s % m for s in squares}
    return any(last((t - u - b * s) % m) for u in outer for s in squares)


def witness_scan_reference(gram, t: int):
    """First vector of square t found by the k3 witness scan's plain walk:
    basis vectors, then e_i +- e_j, then every nonzero vector of the box
    |v_i| <= 2 (rank 3 or 4) in product order, squared by the index loop and
    returned with its first nonzero entry positive. None when nothing hits."""
    n = len(gram)
    for i in range(n):
        if gram[i][i] == t:
            return tuple(int(k == i) for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if gram[i][i] + gram[j][j] + 2 * s * gram[i][j] == t:
                    v = [0] * n
                    v[i], v[j] = 1, s
                    return tuple(v)
    if 3 <= n <= 4:
        for v in product(range(-2, 3), repeat=n):
            if not any(v):
                continue
            if sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)) == t:
                first = next(x for x in v if x)
                return v if first > 0 else tuple(-x for x in v)
    return None


# ----------------------------------------------------------- random helpers


def random_matrix(rng, rows: int, cols: int, lo: int = -9, hi: int = 9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_symmetric(rng, n: int, lo: int = -9, hi: int = 9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def random_unimodular(rng, n: int, ops: int = 12):
    """Product of elementary integer row operations: always det +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return m


def congruence(p, g):
    """p^T g p over exact integers."""
    n = len(g)
    rows = range(n)
    pt = [[p[i][j] for i in rows] for j in rows]
    tmp = [[sum(pt[i][k] * g[k][j] for k in rows) for j in rows] for i in rows]
    return [[sum(tmp[i][k] * p[k][j] for k in rows) for j in rows] for i in rows]


def signature_by_rational_diagonalization(gram):
    """Independent inertia count: symmetric Gaussian congruence over
    Fraction, counting signs of the resulting diagonal."""
    n = len(gram)
    work = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for k in range(n):
        # find a nonzero diagonal pivot, fixing one up from off-diagonal mass
        pivot = None
        for i in range(k, n):
            if work[i][i] != 0:
                pivot = i
                break
        if pivot is None:
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if work[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if not found:
                zero += n - k
                break
            i, j = found
            for col in range(n):
                work[i][col] += work[j][col]
            for row in range(n):
                work[row][i] += work[row][j]
            pivot = i
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            for row in range(n):
                work[row][k], work[row][pivot] = work[row][pivot], work[row][k]
        d = work[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if work[i][k] != 0:
                f = work[i][k] / d
                for col in range(n):
                    work[i][col] -= f * work[k][col]
        for j in range(k + 1, n):
            if work[k][j] != 0:
                f = work[k][j] / d
                for row in range(n):
                    work[row][j] -= f * work[row][k]
    return (pos, neg, zero)


def det_subset_dp(m) -> int:
    """Determinant by Laplace expansion memoized over column subsets:
    O(2^n * n), fine through n = 12. Independent of Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("square matrices only")
    # state: after processing the first r rows using the column set `mask`
    memo = {0: 1}
    for r in range(n):
        nxt: dict[int, int] = {}
        for mask, value in memo.items():
            if value == 0:
                continue
            seen = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    seen += 1
                    continue
                if m[r][j] != 0:
                    sign = -1 if (r - seen) % 2 else 1  # parity of the permutation so far
                    key = mask | bit
                    nxt[key] = nxt.get(key, 0) + sign * value * m[r][j]
        memo = nxt
    return memo.get((1 << n) - 1, 0)


def binary_box_witness(a: int, b: int, c: int, t: int, box: int):
    """Witness of a x^2 + b x y + c y^2 = t with |x|,|y| <= box (nontrivial
    when t = 0), or None. Scans x and solves the quadratic in y exactly, so
    the box can be large; the searched region is identical to binary_witness.
    """

    def int_roots(qa: int, qb: int, qc: int):
        if qa == 0:
            if qb == 0:
                # constant: either no y works or every y does
                return (0, 1, -1) if qc == 0 else ()
            return (-qc // qb,) if qc % qb == 0 else ()
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return ()
        r = isqrt(disc)
        if r * r != disc:
            return ()
        out = []
        for num in (-qb + r, -qb - r):
            if num % (2 * qa) == 0:
                out.append(num // (2 * qa))
        return tuple(out)

    for x in range(-box, box + 1):
        for y in int_roots(c, b * x, a * x * x - t):
            if abs(y) > box:
                continue
            if t == 0 and x == 0 and y == 0:
                continue
            return (x, y)
    return None


def binary_scan_reference(a: int, b: int, c: int, t: int, bound: int):
    """verdict_to_json of binary_represents for a x^2 + b x y + c y^2 = t
    with search bound `bound` where a witness scan answers, or None where
    another branch does (t = 0, content, definite sign, square discriminant,
    cycle). An indefinite form first meets the LOCAL step, whose prime is
    binary_local_prime_reference's, so D and t / content must stay below
    10^6. The scans keep the first witness in this order:

    - definite: rows y = 0..by of the box from 4a q = (2ax + by)^2 + |D| y^2,
      and in a row the x with 2ax + by = +r before the one with -r;
    - indefinite past the LOCAL step: x = 0..bound solving for y, then
      y = 0..bound solving for x, each with the +r root first.
    """

    def roots(qa: int, qb: int, qc: int):
        # integer u with qa u^2 + qb u + qc = 0 (qa != 0), (-qb + r) / 2qa first
        disc = qb * qb - 4 * qa * qc
        r = isqrt(max(disc, 0))
        if r * r != disc:
            return []
        return [num // (2 * qa) for num in (-qb + r, -qb - r) if num % (2 * qa) == 0]

    g = gcd(gcd(a, b), c)
    if t == 0 or t % g:
        return None
    a1, b1, c1, t1 = a // g, b // g, c // g, t // g
    disc = b1 * b1 - 4 * a1 * c1
    if disc < 0:
        if t1 * a1 < 0:
            return None
        bx = isqrt(4 * abs(c1 * t1) // -disc)
        by = isqrt(4 * abs(a1 * t1) // -disc)
        for y in range(by + 1):
            for x in roots(a1, b1 * y, c1 * y * y - t1):
                return {"kind": "YES", "witness": [x, y]}
        data = {"content": g, "bound_x": bx, "bound_y": by}
        return {"kind": "NO", "certificate": {"kind": "DEFINITE_EXHAUST", "data": data}}
    if isqrt(disc) ** 2 == disc:
        return None
    p = binary_local_prime_reference(a1, b1, c1, t1)
    if p is not None:
        return {"kind": "NO", "certificate": {"kind": "LOCAL", "data": {"content": g, "prime": p}}}
    if 4 * t1 * t1 < disc:
        return None
    for x in range(bound + 1):
        for y in roots(c1, b1 * x, a1 * x * x - t1):
            return {"kind": "YES", "witness": [x, y]}
    for y in range(bound + 1):
        for x in roots(a1, b1 * y, c1 * y * y - t1):
            return {"kind": "YES", "witness": [x, y]}
    return {"kind": "UNDECIDED", "bounds": {"search_bound": bound}}


def binary_cycle_reference(a: int, b: int, c: int, t: int, limit: int = 100_000):
    """verdict_to_json of binary_represents for a x^2 + b x y + c y^2 = t in
    the cycle regime (t != 0 divisible by the content g, and for the
    primitive part a positive nonsquare discriminant D > 4 (t/g)^2), walked
    the old way: the 2x2 transform from the form rides along every step and
    the whole cycle is kept with one transform per form. None outside the
    regime. limit caps reduction plus cycle steps, as the decider's does.
    """
    g = gcd(gcd(a, b), c)
    if t == 0 or t % g:
        return None
    a, b, c, t = a // g, b // g, c // g, t // g
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc > 0 else 0
    if disc <= 0 or s * s == disc or 4 * t * t >= disc:
        return None

    def reduced(f):
        # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b
        return 0 < f[1] <= s and s < 2 * abs(f[0]) + f[1] and 2 * abs(f[0]) - f[1] <= s

    def step(f):
        # move m picks the middle coefficient r = 2 c m - b in (lo, lo + 2|c|]
        fa, fb, fc = f
        lo = s - 2 * abs(fc) if abs(fc) <= s else -abs(fc)
        r = -fb + 2 * abs(fc) * ((lo + fb) // (2 * abs(fc)) + 1)
        m = (r + fb) // (2 * fc)
        return (fc, 2 * fc * m - fb, fa - fb * m + fc * m * m), m

    f, tr = (a, b, c), ((1, 0), (0, 1))
    cycle, transforms = [], []
    for _ in range(limit):
        if cycle and f == cycle[0]:
            break
        if cycle or reduced(f):
            cycle.append(f)
            transforms.append(tr)
        f, m = step(f)
        (p, q), (u, v) = tr
        tr = ((q, m * q - p), (v, m * v - u))
    else:
        return {"kind": "UNDECIDED", "bounds": {"cycle_limit": limit}}
    k = 1
    while k * k <= abs(t):
        if t % (k * k) == 0:
            for i, form in enumerate(cycle):
                if form[0] == t // (k * k):
                    return {"kind": "YES", "witness": [k * transforms[i][0][0], k * transforms[i][1][0]]}
        k += 1
    data = {
        "content": g,
        "disc": disc,
        "transform": [list(row) for row in transforms[0]],
        "cycle": [list(form) for form in cycle],
    }
    return {"kind": "NO", "certificate": {"kind": "CYCLE", "data": data}}


# ---------------------------------------------------------- claim3 reference


def _u3_pairing(x, y) -> int:
    """Pairing of K3-basis vectors supported on the three hyperbolic planes."""
    return sum(x[i] * y[i + 1] + x[i + 1] * y[i] for i in (0, 2, 4))


def claim3_reference_walk(a: int, b: int, c: int, bound: int):
    """The claim3 search candidate by candidate, as claim3_result_to_json
    would print its result, or None when the bound is exhausted.

    Walks every (N, M) of each diagonal N + M = s, builds both vectors and the
    form for each, and skips non-hyperbolic planes one at a time (no early
    exit). Primitivity comes from minor gcds and the Gram from the U^3
    pairing, not from the package's matrix code.
    """
    vec_l = [1, a] + [0] * 20
    for s in range(2, 2 * bound + 1):
        for big_n in range(max(1, s - bound), min(bound, s - 1) + 1):
            big_m = s - big_n
            k = a if a >= 2 else 4
            n, m = k * big_n, k * big_m
            gen = [0, n * b, n, n * c, 1, -m] + [0] * 16
            q = BinaryForm(2 * a, 2 * n * b, 2 * (n * n * c - m))
            if q.disc <= 0:
                continue
            zero = binary_represents_zero(q)
            if zero.kind != "NO":
                continue
            minus2 = binary_represents(q, -2)
            if minus2.kind != "NO":
                continue
            factors = snf_diagonal_minor_gcd([[x, y] for x, y in zip(vec_l, gen)])
            if factors != [1, 1]:
                continue
            gram = [[_u3_pairing(u, v) for v in (vec_l, gen)] for u in (vec_l, gen)]
            return {
                "inputs": {"A": a, "B": b, "C": c},
                "N": big_n,
                "M": big_m,
                "n": n,
                "m": m,
                "l": vec_l,
                "generator": gen,
                "gram": gram,
                "zero": verdict_to_json(zero),
                "minus2": verdict_to_json(minus2),
                "invariant_factors": factors,
            }
    return None


# -------------------------------------------------------- theorem3 reference


def plane_normal_reference(u, w):
    """Normal of the rational plane span(u, w) in Q^3: the cross product
    divided by the gcd of its entries, first nonzero entry positive; None
    when the cross product is 0."""
    n = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
    g = 0
    for x in n:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    n = [x // g for x in n]
    if next(x for x in n if x) < 0:
        n = [-x for x in n]
    return tuple(n)



def _theorem3_ambient():
    from k3lattice.lattices import direct_sum, standard_lattice

    return direct_sum(standard_lattice("U"), standard_lattice("A1_neg"))


def _theorem3_pair(u, v) -> int:
    """Pairing of U + A1(-1) by the double index loop over its Gram."""
    g = ((0, 1, 0), (1, 0, 0), (0, 0, -2))
    return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))


def _theorem3_pool() -> list[tuple[int, ...]]:
    """The primitive vectors u of the box |u_i| <= 2 whose first nonzero
    entry is positive and whose square is neither 0 nor -2, by height, then
    lexicographically."""
    box = [
        v
        for v in product(range(-2, 3), repeat=3)
        if gcd(*v) == 1 and next(x for x in v if x) > 0
    ]
    box.sort(key=lambda v: (max(map(abs, v)), v))
    return [u for u in box if _theorem3_pair(u, u) not in (0, -2)]


def theorem3_basis_reference(u, n) -> list[int]:
    """The primitive vector v with v_i = 0, for i the first index with
    u_i = +-1, of the plane through u with normal n: n times e_i, divided
    by its gcd (up to sign). Zu + Zv is the plane's integer points."""
    i = next(k for k, x in enumerate(u) if x in (1, -1))
    v = [n[(i + 1) % 3] * (k == (i + 2) % 3) - n[(i + 2) % 3] * (k == (i + 1) % 3) for k in range(3)]
    return [x // gcd(*v) for x in v]


def theorem3_planes_reference(height_bound: int, pool=None) -> dict:
    """For each u of the theorem-3 pool (or of `pool`), the rational planes
    span(u, w) in the order the shells max |w_i| = 1 .. height_bound, each in
    product order, first meet them: a list of (normal, det). det is the
    determinant of the Gram of the plane's primitive closure, or None when
    the plane is retired at first sight: its discriminant -4 det is <= 0 or a
    square, the first w that meets it has w.w == -2, or -2 is one of v.v and
    (u +- v).(u +- v) for v the plane's primitive vector with v_i = 0 at the
    first i with u_i = +-1 (the normal times e_i, divided by its gcd).
    """
    from k3lattice.embeddings import EmbeddedSublattice, induced_gram, primitive_closure

    ambient = _theorem3_ambient()
    out = {}
    for u in _theorem3_pool() if pool is None else pool:
        planes, seen = [], set()
        for shell in range(1, height_bound + 1):
            for w in product(range(-shell, shell + 1), repeat=3):
                if max(abs(x) for x in w) != shell:
                    continue
                normal = plane_normal_reference(u, w)
                if normal is None or normal in seen:
                    continue
                seen.add(normal)
                (p, r), (_, t) = induced_gram(primitive_closure(EmbeddedSublattice(ambient, [u, w]))).gram
                det = p * t - r * r
                disc = -4 * det
                v = theorem3_basis_reference(u, normal)
                squares = [_theorem3_pair(x, x) for x in (w, v, [a + b for a, b in zip(u, v)], [a - b for a, b in zip(u, v)])]
                retired = disc <= 0 or isqrt(disc) ** 2 == disc or -2 in squares
                planes.append((normal, None if retired else det))
        out[u] = planes
    return out


def theorem3_reference_walk(height_bound: int, limits=None):
    """The theorem-3 search candidate by candidate, as theorem3_to_json would
    print its result, or None when the height bound is exhausted.

    Scans the full cube of each shell and filters it to max |w_i| = shell,
    pairs by the double index loop over the Gram, and closes every hyperbolic
    candidate plane; verdicts are memoized by the closure's Gram. The
    deciders are looked up on the qform module at call time, so a test that
    patches them reaches this walk too. The pool of vectors u is built here
    from the box, the gcd and the sign, not taken from the package.
    """
    from k3lattice import qform
    from k3lattice.catalog import Theorem3Example, theorem3_to_json
    from k3lattice.embeddings import EmbeddedSublattice, induced_gram, primitive_closure
    from k3lattice.k3 import lattice_form

    ambient = _theorem3_ambient()
    pool = _theorem3_pool()
    memo: dict = {}
    for u in pool:
        uu = _theorem3_pair(u, u)
        for shell in range(1, height_bound + 1):
            for w in product(range(-shell, shell + 1), repeat=3):
                if max(abs(x) for x in w) != shell:
                    continue
                ww = _theorem3_pair(w, w)
                if ww in (0, -2):
                    continue
                uw = _theorem3_pair(u, w)
                disc = 4 * (uw * uw - uu * ww)
                if disc <= 0 or isqrt(disc) ** 2 == disc:
                    continue
                sub = EmbeddedSublattice(ambient, [list(u), list(w)])
                closed = primitive_closure(sub)
                lat = induced_gram(closed)
                key = lat.gram
                if key in memo:
                    verdicts = memo[key]
                else:
                    q = lattice_form(lat)
                    verdicts = (
                        qform.binary_represents_zero(q),
                        qform.binary_represents(q, -2, limits),
                    )
                    memo[key] = verdicts
                zero, minus2 = verdicts
                if zero.kind == "NO" and minus2.kind == "NO":
                    return theorem3_to_json(
                        Theorem3Example(
                            generators=tuple(tuple(c) for c in closed.columns),
                            gram=key,
                            zero_verdict=zero,
                            minus2_verdict=minus2,
                            height_bound=height_bound,
                        )
                    )
    return None
