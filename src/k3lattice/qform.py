"""Certificate-producing deciders for "does the form represent t".

Verdicts are YES with an exact witness, NO with a certificate that
verify_certificate can replay without any unbounded search, or UNDECIDED
with the bounds that were exhausted. NO is never "search gave up".
Binary t != 0 tries LOCAL before the cycle and the search; ternary t != 0
first sieves at the prime powers <= _SIEVE_CAP of the primes of 2 d1 d2 d3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd, inf, isqrt

from .ntheory import (
    _LOCAL_RHO_LIMIT,
    _SMALL_PRIMES,
    RHO_LIMIT,
    FactorBudgetError,
    divides,
    divisors,
    exact_int,
    factorize,
    is_square,
    sqrt_exact,
    squarefree_split,
    trial_division,
)

__all__ = [
    "UnaryForm",
    "BinaryForm",
    "DiagonalTernaryForm",
    "Certificate",
    "RepresentationVerdict",
    "SearchLimits",
    "DEFAULT_SEARCH_BOUND",
    "DIVISIBILITY",
    "SIEVE",
    "LEGENDRE",
    "SQUARE_DISC_EXHAUST",
    "NONSQUARE_DISC",
    "DEFINITE",
    "DEFINITE_EXHAUST",
    "CYCLE",
    "LOCAL",
    "represents",
    "unary_represents",
    "binary_represents_zero",
    "binary_represents",
    "ternary_represents_zero",
    "ternary_represents",
    "enumerate_primitive_zeros",
    "verify_certificate",
    "form_from_json",
    "form_to_json",
    "verdict_to_json",
]

DIVISIBILITY = "DIVISIBILITY"
SIEVE = "SIEVE"
LEGENDRE = "LEGENDRE"
SQUARE_DISC_EXHAUST = "SQUARE_DISC_EXHAUST"
NONSQUARE_DISC = "NONSQUARE_DISC"
DEFINITE = "DEFINITE"
DEFINITE_EXHAUST = "DEFINITE_EXHAUST"
CYCLE = "CYCLE"
LOCAL = "LOCAL"

DEFAULT_SEARCH_BOUND = 10_000

# cells a definite exhaust may scan, in the decider and again in its replay;
# past it the decider answers UNDECIDED, so every DEFINITE_EXHAUST NO replays
_EXHAUST_CELL_LIMIT = 4_000_000

# steps the cycle walk may take, and the longest cycle its replay accepts;
# past it the decider answers UNDECIDED, so every CYCLE NO replays
_CYCLE_LIMIT = 100_000


def _check_coefficients(form):
    for x in form.coefficients():
        exact_int(x)


@dataclass(frozen=True)
class UnaryForm:
    """q(x) = d * x**2."""

    d: int

    __post_init__ = _check_coefficients

    def coefficients(self) -> tuple[int, ...]:
        return (self.d,)

    @property
    def definite_sign(self) -> int | None:
        """+1 or -1 when every nonzero value has that sign; None otherwise."""
        if self.d == 0:
            return None
        return 1 if self.d > 0 else -1

    def evaluate(self, v) -> int:
        (x,) = v
        return self.d * x * x


@dataclass(frozen=True)
class BinaryForm:
    """q(x, y) = a x**2 + b x y + c y**2."""

    a: int
    b: int
    c: int

    __post_init__ = _check_coefficients

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def definite_sign(self) -> int | None:
        """+1 or -1 when every nonzero value has that sign; None otherwise."""
        if self.disc >= 0:
            return None
        return 1 if self.a > 0 else -1

    def coefficients(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c)

    def evaluate(self, v) -> int:
        x, y = v
        return self.a * x * x + self.b * x * y + self.c * y * y


@dataclass(frozen=True)
class DiagonalTernaryForm:
    """q(x, y, z) = d1 x**2 + d2 y**2 + d3 z**2, every coefficient nonzero."""

    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        _check_coefficients(self)
        if 0 in self.coefficients():
            raise ValueError("diagonal coefficients must be nonzero")

    def coefficients(self) -> tuple[int, ...]:
        return (self.d1, self.d2, self.d3)

    @property
    def definite_sign(self) -> int | None:
        """+1 or -1 when every nonzero value has that sign; None otherwise."""
        if self.d1 > 0 and self.d2 > 0 and self.d3 > 0:
            return 1
        if self.d1 < 0 and self.d2 < 0 and self.d3 < 0:
            return -1
        return None

    def evaluate(self, v) -> int:
        x, y, z = v
        return self.d1 * x * x + self.d2 * y * y + self.d3 * z * z


@dataclass(frozen=True)
class SearchLimits:
    """Coordinate bound of the witness searches that run once binary LOCAL
    or the ternary sieve finds no obstruction."""

    search_bound: int = DEFAULT_SEARCH_BOUND

    def __post_init__(self):
        if exact_int(self.search_bound) < 1:
            raise ValueError("search bound must be positive")


@dataclass(frozen=True)
class Certificate:
    """A replayable non-representability proof; kind picks the argument."""

    kind: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "data": dict(self.data)}

    @staticmethod
    def from_json(obj) -> "Certificate":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("certificate JSON needs a kind")
        data = obj.get("data", {})
        if not isinstance(data, dict):
            raise ValueError("certificate data must be a JSON object")
        return Certificate(str(obj["kind"]), dict(data))


@dataclass(frozen=True)
class RepresentationVerdict:
    kind: str  # YES | NO | UNDECIDED
    witness: tuple[int, ...] | None = None
    certificate: Certificate | None = None
    bounds: dict | None = None

    @staticmethod
    def yes(witness) -> "RepresentationVerdict":
        return RepresentationVerdict("YES", witness=tuple(exact_int(x) for x in witness))

    @staticmethod
    def no(certificate: Certificate) -> "RepresentationVerdict":
        return RepresentationVerdict("NO", certificate=certificate)

    @staticmethod
    def undecided(bounds: dict) -> "RepresentationVerdict":
        return RepresentationVerdict("UNDECIDED", bounds=dict(bounds))


def verdict_to_json(v: RepresentationVerdict) -> dict:
    out: dict = {"kind": v.kind}
    if v.witness is not None:
        out["witness"] = list(v.witness)
    if v.certificate is not None:
        out["certificate"] = v.certificate.to_json()
    if v.bounds is not None:
        out["bounds"] = dict(v.bounds)
    return out


# JSON key, form class, coefficient count; the first key present wins
_FORM_JSON = (("binary", BinaryForm, 3), ("diag", DiagonalTernaryForm, 3), ("unary", UnaryForm, 1))


def form_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("form JSON must be an object")
    for key, cls, count in _FORM_JSON:
        if key in obj:
            value = obj[key]
            if not isinstance(value, (list, tuple)) or len(value) != count:
                raise ValueError(f'form JSON "{key}" needs exactly {count} integers')
            return cls(*value)  # the constructor refuses non-integers
    raise ValueError("form JSON needs one of " + ", ".join(f'"{key}"' for key, _, _ in _FORM_JSON))


def form_to_json(q) -> dict:
    for key, cls, _ in _FORM_JSON:
        if isinstance(q, cls):
            return {key: list(q.coefficients())}
    raise ValueError("unknown form type")


def _canonical_sign(vec):
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def _checked_yes(q, t, witness) -> RepresentationVerdict:
    v = RepresentationVerdict.yes(witness)
    if q.evaluate(v.witness) != t or (t == 0 and not any(v.witness)):
        raise AssertionError("internal error: invalid witness")
    return v


# ---------------------------------------------------------------- unary


def unary_represents(q: UnaryForm, t: int) -> RepresentationVerdict:
    """Decide d x**2 = t; always decides."""
    t = exact_int(t)
    d = q.d
    if t == 0:
        if d == 0:
            return _checked_yes(q, 0, (1,))
        return RepresentationVerdict.no(Certificate(DEFINITE, {"note": "only the trivial zero"}))
    if not divides(d, t):
        return RepresentationVerdict.no(Certificate(DIVISIBILITY, {"divisor": d}))
    quot = t // d
    if quot < 0:
        return RepresentationVerdict.no(Certificate(DEFINITE, {"sign": q.definite_sign}))
    r = sqrt_exact(quot)
    if r is not None:
        return _checked_yes(q, t, (r,))
    return RepresentationVerdict.no(
        Certificate(DEFINITE_EXHAUST, {"bound": isqrt(abs(t) // abs(d))})
    )


# ---------------------------------------------------------------- binary


def binary_represents_zero(q: BinaryForm) -> RepresentationVerdict:
    """Nontrivial zero of a binary form: exists iff the discriminant is a
    nonnegative perfect square."""
    if q.a == 0 and q.b == 0 and q.c == 0:
        raise ValueError("the zero form is excluded")
    d = q.disc
    if not is_square(d):
        return RepresentationVerdict.no(Certificate(NONSQUARE_DISC, {"disc": d}))
    if q.a == 0:
        return _checked_yes(q, 0, (1, 0))
    s = isqrt(d)
    x0, y0 = s - q.b, 2 * q.a
    g = gcd(x0, y0)
    return _checked_yes(q, 0, _canonical_sign((x0 // g, y0 // g)))


def _is_reduced(a: int, b: int, c: int, s: int) -> bool:
    # integer translation of 0 < b < sqrt(D) < b + 2|a| and 2|a| - b < sqrt(D)
    return 1 <= b <= s and 2 * abs(a) + b > s and 2 * abs(a) - b <= s


def _rho_step(form, disc: int, s: int):
    """One reduction step; returns the successor form and the column move m,
    with transform matrix [[0, -1], [1, m]]."""
    a, b, c = form
    ac = abs(c)
    hi = s if ac <= s else ac
    r = hi - ((hi + b) % (2 * ac))
    m = (r + b) // (2 * c)
    nxt = (c, r, (r * r - disc) // (4 * c))
    return nxt, m


def _cycle_of(form, disc: int, stop: int):
    """Reduced cycle of the proper class of form, or None when reducing form
    and closing its cycle take more than _CYCLE_LIMIT steps in all. The walk
    ends early, and cycle with it, at the first cycle form whose leading
    coefficient is stop.

    Returns (moves, start, cycle): _rho_step's move m at every step of the
    walk, so _transform(moves[:start + i]) carries form onto cycle[i].
    """
    s = isqrt(disc)
    f = form
    cycle, moves = [], []
    for _ in range(_CYCLE_LIMIT):
        if cycle and f == cycle[0]:
            return moves, start, cycle
        # every successor of a reduced form is reduced
        if cycle or _is_reduced(*f, s):
            if not cycle:
                start = len(moves)
            cycle.append(f)
            if f[0] == stop:
                return moves, start, cycle
        f, m = _rho_step(f, disc, s)
        moves.append(m)
    return None


def _transform(moves):
    """The product of [[0, -1], [1, m]] over the moves, as rows (unimodular)."""
    x, x1, y, y1 = 1, 0, 0, 1
    for m in moves:
        x, x1, y, y1 = x1, m * x1 - x, y1, m * y1 - y
    return (x, x1), (y, y1)


def _cycle_decide(q1: BinaryForm, t1: int, g: int) -> RepresentationVerdict:
    """Decide q1 = t1 under 4 t1**2 < disc (nonsquare), for q1 the primitive
    part of a form of content g; the verdict holds for g q1 = g t1 too.

    A value u with 4 u**2 < disc is primitively represented exactly when u
    is a leading coefficient on the reduced cycle, so q1 = t1 exactly when
    some t1 / f**2 is one.
    """
    disc = q1.disc
    walk = _cycle_of((q1.a, q1.b, q1.c), disc, stop=t1)
    if walk is None:
        return RepresentationVerdict.undecided({"cycle_limit": _CYCLE_LIMIT})
    moves, start, cycle = walk
    leading = {}
    for i, f in enumerate(cycle):
        leading.setdefault(f[0], i)
    try:
        # f = 1 comes first, so a t1 on the cycle needs no factoring
        fs = [1] if t1 in leading else divisors(squarefree_split(t1)[1])
    except FactorBudgetError:
        return RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})
    # f**2 divides t1 exactly when f divides its square factor; smallest f first
    for f in fs:
        u = t1 // (f * f)
        if u in leading:
            # the cycle form led by u takes the value u at (1, 0)
            (x, _), (y, _) = _transform(moves[: start + leading[u]])
            return _checked_yes(q1, t1, (f * x, f * y))
    cert = Certificate(
        CYCLE,
        {
            "content": g,
            "disc": disc,
            "transform": [list(row) for row in _transform(moves[:start])],
            "cycle": [list(x) for x in cycle],
        },
    )
    return RepresentationVerdict.no(cert)


def _binary_roots(a: int, b: int, c: int, t: int, ys):
    """Every (x, y) with a x**2 + b x y + c y**2 = t (a != 0) for y in ys, in
    scan order: 4a t = (2ax + by)**2 - D y**2, so take the exact root r of
    4a t + D y**2 and keep x = (s - by) / 2a for s = +r, then s = -r."""
    disc = b * b - 4 * a * c
    for y in ys:
        r = sqrt_exact(4 * a * t + disc * y * y)
        if r is None:
            continue
        for s in (r, -r):
            if (s - b * y) % (2 * a) == 0:
                yield (s - b * y) // (2 * a), y


def _square_disc_search(q1: BinaryForm, t1: int):
    """Solve a form with square discriminant by factoring into linear forms
    and walking the divisor systems of the target."""
    s = isqrt(q1.disc)
    if q1.a != 0:
        k = 4 * q1.a
        l1 = (2 * q1.a, q1.b - s)
        l2 = (2 * q1.a, q1.b + s)
    else:
        k = 1
        l1 = (0, 1)
        l2 = (q1.b, q1.c)
    target = k * t1
    det = l1[0] * l2[1] - l1[1] * l2[0]
    pairs = 0
    for d in divisors(target):
        for u in (d, -d):
            v = target // u
            pairs += 1
            xn = u * l2[1] - v * l1[1]
            yn = v * l1[0] - u * l2[0]
            if xn % det == 0 and yn % det == 0:
                w = (xn // det, yn // det)
                if q1.evaluate(w) == t1:
                    return w, pairs
    return None, pairs


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, w) with n = p**v w and p not dividing w, for n != 0."""
    if n == 0:
        raise ValueError("0 has no finite p-adic valuation")
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v, n


def _local_no(q1: BinaryForm, t1: int, p: int) -> bool:
    """q1 = t1 has no solution over Z_p, for q1 primitive with D != 0 (else
    _split raises), t1 = p**k w != 0 and p prime (Cassels, ch. 8).

    Odd p not dividing D: q1 is unimodular at p and represents every unit,
    and p**k w with k odd only when (D / p) = 1. Odd p | D, D = p**m D0:
    4 a' q1 = (2 a' x + b1 y)**2 - D y**2 gives q1 = <e1, e2 p**m> with
    e1 = a', e2 = -D0 a' for a' the one of a1, c1 prime to p, and t1 is a
    value iff k is even with (w e1 / p) = 1, or k >= m, k = m mod 2 with
    (w e2 / p) = 1, or m is even, k >= m and k is even or (-e1 e2 / p) = 1.
    p = 2, b1 odd: q1 is the hyperbolic plane when D = 1 mod 8, else
    x**2 + x y + y**2, whose values have even v_2. p = 2, b1 even: for a'
    odd, a' q1 = X**2 + d Y**2 with d = a' c' - (b1 / 2)**2, and n = a' t1
    is a value iff n = 1 + d s mod 8 for some square s in {0, 1, 4} (X odd),
    or n - d is an even square mod 2**(v_2(d) + 3) (X even, Y odd, Hensel),
    or 4 | n and n / 4 is a value (X, Y even)."""
    a, b, c = q1.coefficients()
    disc = q1.disc
    k, w = _split(t1, p)
    if p == 2:
        if b % 2:
            return disc % 8 == 5 and k % 2 == 1
        if a % 2 == 0:
            a, c = c, a
        d, n = a * c - b * b // 4, a * t1
        e = _split(d, 2)[0] + 3
        while (n - 1) % 8 not in (0, d % 8, 4 * d % 8):
            r = (n - d) % (1 << e)
            v = (r & -r).bit_length() - 1
            # r = X**2 mod 2**e for an even X: 0, or 4**j times 1 mod 2**min(3, e - v)
            if r == 0 or (v >= 2 and v % 2 == 0 and (r >> v) % (1 << min(3, e - v)) == 1):
                return False
            if n % 4:
                return True
            n //= 4
        return False
    h = (p - 1) // 2
    if disc % p:
        return k % 2 == 1 and pow(disc, h, p) == p - 1
    m, d0 = _split(disc, p)
    e1 = a if a % p else c
    e2 = -d0 * e1
    return not (
        (k % 2 == 0 and pow(w * e1, h, p) == 1)
        or (k >= m and (k - m) % 2 == 0 and pow(w * e2, h, p) == 1)
        or (m % 2 == 0 and k >= m and (k % 2 == 0 or pow(-e1 * e2, h, p) == 1))
    )


def _local_prime(q1: BinaryForm, t1: int) -> int | None:
    """The first prime _local_no holds at, or None, trying the odd primes of
    D t1 that ntheory.trial_division finds in increasing order, those that
    divide only one of D and t1 (one Legendre symbol each) before those
    that divide both, and then 2. Last come the primes of the cofactor that
    trial division leaves, in increasing order, when factorize splits it
    within _LOCAL_RHO_LIMIT rho steps; past that budget none are tried."""
    disc = q1.disc
    small, rest = trial_division(disc * t1)
    odd = [p for p in small if p > 2]
    order = sorted(odd, key=lambda p: disc % p == 0 == t1 % p) + [2]
    p = next((p for p in order if _local_no(q1, t1, p)), None)
    if p is not None or rest == 1:
        return p
    try:
        return next((p for p in factorize(rest, _LOCAL_RHO_LIMIT) if _local_no(q1, t1, p)), None)
    except FactorBudgetError:
        return None


def _binary_bounded_search(q1: BinaryForm, t1: int, bound: int):
    # only reached with positive nonsquare discriminant, so a, c != 0;
    # solutions with a negative scanned coordinate are sign-flips of these;
    # the x axis first, as the same scan with the pair swapped
    a, b, c = q1.a, q1.b, q1.c
    for y, x in _binary_roots(c, b, a, t1, range(bound + 1)):
        return (x, y)
    return next(_binary_roots(a, b, c, t1, range(bound + 1)), None)


def binary_represents(q: BinaryForm, t: int, limits: SearchLimits | None = None) -> RepresentationVerdict:
    """Decide q = t for nondegenerate binary q (t = 0 is routed to the
    discriminant test). Past the content, the definite box and the square-disc
    walk: a LOCAL obstruction over Z_p at a prime of 2 D t1 (those past trial
    division only when a budgeted rho split finds them), then the reduced
    cycle when 4 t1**2 < D, else the bounded search. LOCAL is exact over
    Z_p, so no binary NO is a SIEVE."""
    t = exact_int(t)
    if t == 0:
        return binary_represents_zero(q)
    if q.disc == 0:
        raise ValueError("degenerate form")
    limits = limits or SearchLimits()
    g = gcd(*q.coefficients())
    if t % g != 0:
        return RepresentationVerdict.no(Certificate(DIVISIBILITY, {"divisor": g}))
    a1, b1, c1, t1 = q.a // g, q.b // g, q.c // g, t // g
    q1 = BinaryForm(a1, b1, c1)
    d1 = q1.disc
    sign = q1.definite_sign
    if sign is not None:
        if t1 * sign < 0:
            return RepresentationVerdict.no(Certificate(DEFINITE, {"sign": sign}))
        # from 4a q = (2ax + by)**2 + |D| y**2: solutions fit in this box
        bx = isqrt(4 * abs(c1 * t1) // -d1)
        by = isqrt(4 * abs(a1 * t1) // -d1)
        if by + 1 > _EXHAUST_CELL_LIMIT:
            return RepresentationVerdict.undecided(
                {"bound_x": bx, "bound_y": by, "cell_limit": _EXHAUST_CELL_LIMIT}
            )
        for w in _binary_roots(a1, b1, c1, t1, range(by + 1)):
            return _checked_yes(q, t, w)
        return RepresentationVerdict.no(
            Certificate(DEFINITE_EXHAUST, {"content": g, "bound_x": bx, "bound_y": by})
        )
    if is_square(d1):
        try:
            w, pairs = _square_disc_search(q1, t1)
        except FactorBudgetError:
            return RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})
        if w is not None:
            return _checked_yes(q, t, w)
        return RepresentationVerdict.no(
            Certificate(SQUARE_DISC_EXHAUST, {"content": g, "pairs_tried": pairs})
        )
    p = _local_prime(q1, t1)
    if p is not None:
        return RepresentationVerdict.no(Certificate(LOCAL, {"content": g, "prime": p}))
    if 4 * t1 * t1 < d1:
        return _cycle_decide(q1, t1, g)
    w = _binary_bounded_search(q1, t1, limits.search_bound)
    if w is not None:
        return _checked_yes(q, t, w)
    return RepresentationVerdict.undecided({"search_bound": limits.search_bound})


# ---------------------------------------------------------------- ternary


def _legendre_reduce(q: DiagonalTernaryForm):
    """Normalize to squarefree pairwise-coprime coefficients.

    Every step is logged so zero witnesses can be mapped back: content
    division keeps zeros unchanged; removing a square factor f**2 from one
    coefficient multiplies the other two witness coordinates by f; merging a
    prime shared by two coefficients multiplies the third coordinate by it.

    Each coefficient is factored once and the steps move its primes: returns
    (reduced coefficients, steps, primes[i] dividing reduced coefficient i).
    One pass over the pairs merges every shared prime: a merged prime moves to
    a coefficient that content division left without it, so no pair gains one.
    """
    g = gcd(*q.coefficients())
    d = [x // g for x in q.coefficients()]
    steps = [{"op": "content", "g": g}] if g > 1 else []
    primes = []
    for i in range(3):
        d[i], f, odd = squarefree_split(d[i])
        if f > 1:
            steps.append({"op": "square", "axis": i, "factor": f})
        primes.append(odd)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k, shared = 3 - i - j, primes[i] & primes[j]
        for p in sorted(shared):
            d[i], d[j], d[k] = d[i] // p, d[j] // p, d[k] * p
            steps.append({"op": "merge", "axes": [i, j], "prime": p})
        primes[i] -= shared
        primes[j] -= shared
        primes[k] |= shared
    return tuple(d), steps, primes


def _legendre_conditions(a: int, b: int, c: int):
    return (
        (abs(a), (-b * c) % abs(a)),
        (abs(b), (-a * c) % abs(b)),
        (abs(c), (-a * b) % abs(c)),
    )


def _is_square_mod(v: int, primes) -> bool:
    """v is a square modulo the squarefree product of primes: Euler's
    criterion at each prime (every v is a square mod 2)."""
    return all(v % p == 0 or pow(v, (p - 1) // 2, p) == 1 for p in primes)


def _backmap_zero(w, steps):
    w = list(w)
    for step in reversed(steps):
        if step["op"] == "square":
            f = step["factor"]
            for k in range(3):
                if k != step["axis"]:
                    w[k] *= f
        elif step["op"] == "merge":
            k = 3 - step["axes"][0] - step["axes"][1]
            w[k] *= step["prime"]
        # content: zero sets coincide
    return w


def _exact_roots(d1: int, d2: int, d3: int, t: int, xs, ys):
    """Every (x, y, z) with z >= 0 and d1 x**2 + d2 y**2 + d3 z**2 = t, for x in
    the range xs and y in the row ys(x) = range(n), never narrowing as x grows;
    x then y ascending. Only y with (d2/g) y**2 = (t - d1 x**2)/g mod m = |d3|/g,
    g = gcd(d2, d3), can hit: if 1 < m <= the widest row, once m cells have been
    scanned one by one, a table of those classes sends each row to its ranges."""
    g = gcd(d2, d3)
    m = abs(d3) // g
    price = m if 1 < m <= (len(ys(xs[-1])) if xs else 0) else inf  # the widest row is the last
    scanned, head = 0, None
    for x in xs:
        rest = t - d1 * x * x
        if head is None and scanned >= price:
            # head[r]: least y < m in class r, nxt[y]: the next one, or -1
            head, nxt, e = [-1] * m, [-1] * m, d2 // g
            for y in reversed(range(m)):
                r = e * y * y % m
                head[r], nxt[y] = y, head[r]
        if head is None:
            scanned += len(row := ys(x))
        elif rest % g or (y0 := head[rest // g % m]) < 0:
            continue
        else:
            n, row = len(ys(x)), []
            while 0 <= y0 < n:
                row += range(y0, n, m)
                y0 = nxt[y0]
            row.sort()
        for y in row:
            num = rest - d2 * y * y
            if num % d3 == 0 and (z2 := num // d3) >= 0 and (z := isqrt(z2)) * z == z2:
                yield x, y, z


def _holzer_scan(a: int, b: int, c: int):
    """Witness of a x**2 + b y**2 + c z**2 = 0 in the box |x| <= sqrt|bc|,
    |y| <= sqrt|ac|. For squarefree, pairwise coprime a, b, c of mixed sign
    that meet the residue conditions, Holzer's theorem puts a nontrivial zero
    there, so one scan of the box is complete; past _EXHAUST_CELL_LIMIT cells
    the scan stops and answers None."""
    bx, ys = isqrt(abs(b * c)), range(isqrt(abs(a * c)) + 1)
    rows = min(bx + 1, _EXHAUST_CELL_LIMIT // len(ys))
    for w in _exact_roots(a, b, c, 0, range(rows), lambda x: ys):
        if any(w):
            return w
    if rows <= bx:
        return None
    raise AssertionError("internal error: no zero in the Holzer box")


def ternary_represents_zero(q: DiagonalTernaryForm) -> RepresentationVerdict:
    """Decision of nontrivial isotropy for diagonal ternary forms: squarefree
    pairwise-coprime reduction, then Legendre's three solvability conditions
    by Euler's criterion at each prime, and on the solvable side one scan of
    the Holzer box for the witness. Complete, except for UNDECIDED when
    factoring runs past ntheory.RHO_LIMIT or the box past its cell limit."""
    sign = q.definite_sign
    if sign is not None:
        return RepresentationVerdict.no(Certificate(DEFINITE, {"sign": sign}))
    try:
        (a, b, c), steps, primes = _legendre_reduce(q)
    except FactorBudgetError:
        return RepresentationVerdict.undecided({"factor_budget": RHO_LIMIT})
    for idx, (m, v) in enumerate(_legendre_conditions(a, b, c)):
        if not _is_square_mod(v, primes[idx]):
            return RepresentationVerdict.no(
                Certificate(
                    LEGENDRE,
                    {"reduced": [a, b, c], "steps": steps, "condition": idx, "modulus": m, "target": v},
                )
            )
    w = _holzer_scan(a, b, c)
    if w is None:
        bounds = [isqrt(abs(b * c)), isqrt(abs(a * c))]
        return RepresentationVerdict.undecided({"bounds": bounds, "cell_limit": _EXHAUST_CELL_LIMIT})
    w = _backmap_zero(w, steps)
    g = gcd(*w)
    w = [x // g for x in w]
    return _checked_yes(q, 0, _canonical_sign(w))


def _ternary_residues(q: DiagonalTernaryForm, m: int):
    s1 = {q.d1 * x * x % m for x in range(m)}
    s2 = {q.d2 * x * x % m for x in range(m)}
    s3 = {q.d3 * x * x % m for x in range(m)}
    s12 = {(u + v) % m for u in s1 for v in s2}
    return {(u + v) % m for u in s12 for v in s3}


_SIEVE_CAP = 64  # the largest SIEVE modulus: one bound for the ternary sieve and its replay
# (m, p) for each prime power 2 < m = p**j <= _SIEVE_CAP, in increasing order
_SIEVE_POWERS = sorted((p**j, p) for p in _SMALL_PRIMES for j in range(1, _SIEVE_CAP.bit_length()) if 2 < p**j <= _SIEVE_CAP)
# the squares mod m, once per m: x**2 = (m - x)**2 mod m, so x <= m // 2 gives every one
_squares_mod = cache(lambda m: frozenset(x * x % m for x in range(m // 2 + 1)))


def _ternary_hit(q: DiagonalTernaryForm, t: int, m: int) -> bool:
    # t % m in _ternary_residues(q, m), stopping at the first hit; the SIEVE replay builds the whole set
    s1, s2, s3 = ({d * s % m for s in _squares_mod(m)} for d in q.coefficients())
    return any((t - u - v) % m in s3 for u in s1 for v in s2)


def _ternary_sieve(q: DiagonalTernaryForm, t: int) -> int | None:
    """Least prime power m of _SIEVE_POWERS, of a prime p | 2 d1 d2 d3, at
    which t != 0 (past DIVISIBILITY, so a value mod 2) is not a value of q,
    or None; at any other odd p, q is unimodular and represents all of Z_p.
    For N = v_p(t) + max v_p(d_i) + 1 (+ 2 at p = 2), a solution mod p**N has
    a coordinate with v_p(d_i) + 2 v_p(x_i) <= v_p(t) that Hensel's lemma
    lifts along: a miss at any power of p is a miss at p**N, and where p**N
    <= _SIEVE_CAP the sieve decides q = t over Z_p exactly."""
    prod = 2 * q.d1 * q.d2 * q.d3
    return next((m for m, p in _SIEVE_POWERS if prod % p == 0 and not _ternary_hit(q, t, m)), None)


def ternary_represents(q: DiagonalTernaryForm, t: int, limits: SearchLimits | None = None) -> RepresentationVerdict:
    """Decide q = t for diagonal ternary q (t = 0 goes to the isotropy decider):
    a box exhaust, or the sieve and a search, both by _exact_roots' class scan."""
    t = exact_int(t)
    if t == 0:
        return ternary_represents_zero(q)
    limits = limits or SearchLimits()
    d = q.coefficients()
    g = gcd(*d)
    if t % g != 0:
        return RepresentationVerdict.no(Certificate(DIVISIBILITY, {"divisor": g}))
    sign = q.definite_sign
    if sign is not None:
        if t * sign < 0:
            return RepresentationVerdict.no(Certificate(DEFINITE, {"sign": sign}))
        bounds = [isqrt(abs(t) // abs(x)) for x in d]
        if (bounds[0] + 1) * (bounds[1] + 1) > _EXHAUST_CELL_LIMIT:
            return RepresentationVerdict.undecided({"bounds": bounds, "cell_limit": _EXHAUST_CELL_LIMIT})
        ys = range(bounds[1] + 1)
        for w in _exact_roots(*d, t, range(bounds[0] + 1), lambda x: ys):
            return _checked_yes(q, t, w)
        return RepresentationVerdict.no(
            Certificate(DEFINITE_EXHAUST, {"bounds": bounds})
        )
    m = _ternary_sieve(q, t)
    if m is not None:
        return RepresentationVerdict.no(Certificate(SIEVE, {"modulus": m}))
    # separable search: negate if needed so exactly one coefficient is
    # positive (witnesses transfer unchanged), then scan the positive axis
    # and keep y inside p x**2 - t >= |n1| y**2
    flip = -1 if sum(1 for x in d if x > 0) == 2 else 1
    p_axis = next(i for i in range(3) if flip * d[i] > 0)
    n1, n2 = [i for i in range(3) if i != p_axis]
    dp, dn1, dn2, tt = flip * d[p_axis], flip * d[n1], flip * d[n2], flip * t

    def ys(x):
        rhs = dp * x * x - tt
        return range(isqrt(rhs // -dn1) + 1) if rhs >= 0 else ()

    for x, y, z in _exact_roots(dp, dn1, dn2, tt, range(limits.search_bound + 1), ys):
        w = [0, 0, 0]
        w[p_axis], w[n1], w[n2] = x, y, z
        return _checked_yes(q, t, w)
    return RepresentationVerdict.undecided({"search_bound": limits.search_bound})


def enumerate_primitive_zeros(q: DiagonalTernaryForm, height: int) -> list[tuple[int, int, int]]:
    """All primitive zeros with max-abs coordinate <= height, one per sign
    pair, sorted lexicographically."""
    if exact_int(height) < 0:
        raise ValueError("height must be nonnegative")
    found: set[tuple[int, int, int]] = set()
    box = range(height + 1)
    # x, y, z >= 0 and all sign flips: a diagonal form's zeros are closed under each
    for x, y, z in _exact_roots(q.d1, q.d2, q.d3, 0, box, lambda x: box):
        if z <= height and gcd(x, y, z) == 1:
            found.update(_canonical_sign((sx, sy, z)) for sx in (x, -x) for sy in (y, -y))
    return sorted(found)


# ---------------------------------------------------------------- dispatch


def represents(q, t: int, limits: SearchLimits | None = None) -> RepresentationVerdict:
    """Decide q = t with the decider for the shape of q."""
    # deciders are looked up as module globals at call time, so a caller
    # that rebinds them (tracing, mocking) sees every dispatched call
    if isinstance(q, UnaryForm):
        return unary_represents(q, t)
    if isinstance(q, BinaryForm):
        return binary_represents(q, t, limits)
    if isinstance(q, DiagonalTernaryForm):
        return ternary_represents(q, t, limits)
    raise TypeError(f"no decider for {type(q).__name__}")


# ---------------------------------------------------------------- verifier


def _verify_divisibility(q, t, data) -> bool:
    d = data["divisor"]
    if type(d) is not int:
        return False
    return all(divides(d, c) for c in q.coefficients()) and not divides(d, t)


def _verify_sieve(q, t, data) -> bool:
    # only the ternary decider emits SIEVE, for t != 0 and m of _SIEVE_POWERS
    # (NONSQUARE_DISC, LEGENDRE or DEFINITE settle every t = 0 question)
    m = data["modulus"]
    if not isinstance(q, DiagonalTernaryForm) or t == 0 or type(m) is not int or m not in dict(_SIEVE_POWERS):
        return False
    return t % m not in _ternary_residues(q, m)


def _verify_nonsquare_disc(q, t, data) -> bool:
    # the zero form has disc 0, a square, so it is refused as well
    return isinstance(q, BinaryForm) and t == 0 and not is_square(q.disc)


def _verify_definite(q, t, data) -> bool:
    sign = q.definite_sign
    return sign is not None and (t == 0 or t * sign < 0)


def _verify_definite_exhaust(q, t, data) -> bool:
    # (x, y, z) -> -(x, y, z) and, for a diagonal form, each single sign flip
    # keep the value, so the replay scans the nonnegative cells of the box
    # and solves the last coordinate exactly, as the deciders do
    if t == 0 or q.definite_sign is None:
        return False
    if isinstance(q, UnaryForm):
        return t % q.d != 0 or sqrt_exact(t // q.d) is None
    if isinstance(q, BinaryForm):
        # 4a q(x, y) = (2ax + by)**2 - D y**2 with D < 0 caps y**2 at 4at / |D|
        a, b, disc = q.a, q.b, q.disc
        by = isqrt(abs(4 * a * t) // -disc)
        if by + 1 > _EXHAUST_CELL_LIMIT:
            return False
        for y in range(by + 1):
            s = sqrt_exact(4 * a * t + disc * y * y)
            if s is not None and ((s - b * y) % (2 * a) == 0 or (-s - b * y) % (2 * a) == 0):
                return False
        return True
    if isinstance(q, DiagonalTernaryForm):
        d1, d2, d3 = q.coefficients()
        bx, by = isqrt(abs(t) // abs(d1)), isqrt(abs(t) // abs(d2))
        if (bx + 1) * (by + 1) > _EXHAUST_CELL_LIMIT:
            return False
        for x in range(bx + 1):
            for y in range(by + 1):
                rest = t - d1 * x * x - d2 * y * y
                if rest % d3 == 0 and sqrt_exact(rest // d3) is not None:
                    return False
        return True
    return False


def _content_reduced(q, t, data):
    """(q / g, t / g) for the certificate's content g (default 1), or None
    unless q is binary, t != 0 and g is a positive integer dividing q and t."""
    if not isinstance(q, BinaryForm) or t == 0:
        return None
    g = data.get("content", 1)
    if type(g) is not int or g < 1 or any(c % g for c in q.coefficients()) or t % g:
        return None
    return BinaryForm(q.a // g, q.b // g, q.c // g), t // g


def _verify_square_disc(q, t, data) -> bool:
    reduced = _content_reduced(q, t, data)
    if reduced is None:
        return False
    q1, t1 = reduced
    if q1.disc <= 0 or not is_square(q1.disc):
        return False
    w, _ = _square_disc_search(q1, t1)
    return w is None


def _verify_legendre(q, t, data) -> bool:
    if not isinstance(q, DiagonalTernaryForm) or t != 0:
        return False
    reduced, _, primes = _legendre_reduce(q)
    # a non-integer entry raises, and verify_certificate answers False
    if list(map(exact_int, data.get("reduced", []))) != list(reduced):
        return False
    idx = data.get("condition")
    if type(idx) is not int or idx not in (0, 1, 2):
        return False
    _, v = _legendre_conditions(*reduced)[idx]
    return not _is_square_mod(v, primes[idx])


def _verify_local(q, t, data) -> bool:
    reduced, p = _content_reduced(q, t, data), data.get("prime")
    if reduced is None or type(p) is not int or p < 2 or reduced[0].disc == 0:
        return False
    if gcd(*reduced[0].coefficients()) != 1:
        return False
    # past ntheory.RHO_LIMIT factorize raises, and verify_certificate answers False
    return factorize(p) == {p: 1} and _local_no(*reduced, p)


def _verify_cycle(q, t, data) -> bool:
    reduced = _content_reduced(q, t, data)
    if reduced is None:
        return False
    q1, t1 = reduced
    disc = q1.disc
    if disc <= 0 or is_square(disc) or 4 * t1 * t1 >= disc:
        return False
    cycle = data.get("cycle")
    tr = data.get("transform")
    if not isinstance(cycle, list) or not cycle or len(cycle) > _CYCLE_LIMIT:
        return False
    # a malformed or non-integer entry raises, and verify_certificate answers False
    cycle = [(exact_int(x), exact_int(y), exact_int(z)) for x, y, z in cycle]
    (t00, t01), (t10, t11) = ([exact_int(x) for x in row] for row in tr)
    if abs(t00 * t11 - t01 * t10) != 1:
        return False
    # the columns c0, c1 carry q1 onto cycle[0] = (q1(c0), q1(c0 + c1) - q1(c0) - q1(c1), q1(c1))
    a, c = q1.evaluate((t00, t10)), q1.evaluate((t01, t11))
    if cycle[0] != (a, q1.evaluate((t00 + t01, t10 + t11)) - a - c, c):
        return False
    s = isqrt(disc)
    for fa, fb, fc in cycle:
        if fb * fb - 4 * fa * fc != disc or not _is_reduced(fa, fb, fc, s):
            return False
    for i, f in enumerate(cycle):
        nxt, _ = _rho_step(f, disc, s)
        if nxt != cycle[(i + 1) % len(cycle)]:
            return False
    leading = {f[0] for f in cycle}
    # past ntheory.RHO_LIMIT factorize raises, and verify_certificate answers False
    return all(t1 // (f * f) not in leading for f in divisors(squarefree_split(t1)[1]))


_VERIFIERS = {
    DIVISIBILITY: _verify_divisibility,
    SIEVE: _verify_sieve,
    NONSQUARE_DISC: _verify_nonsquare_disc,
    DEFINITE: _verify_definite,
    DEFINITE_EXHAUST: _verify_definite_exhaust,
    SQUARE_DISC_EXHAUST: _verify_square_disc,
    LEGENDRE: _verify_legendre,
    CYCLE: _verify_cycle,
    LOCAL: _verify_local,
}


def verify_certificate(q, t, cert) -> bool:
    """Replay a non-representability certificate; False on anything malformed,
    never an exception."""
    try:
        if isinstance(cert, dict):
            cert = Certificate.from_json(cert)
        if not isinstance(cert, Certificate):
            return False
        checker = _VERIFIERS.get(cert.kind)
        if checker is None:
            return False
        if not isinstance(cert.data, dict):
            return False
        if type(t) is not int:  # the exact_int rule: a bool is not a target
            return False
        return bool(checker(q, t, cert.data))
    except Exception:
        return False
