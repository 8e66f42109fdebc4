"""The benchmark's four workloads: seeded input streams, the timed call each
input drives, and the independent check of each result.

A workload is an object with ``next_op()``. Each `Op` carries a tag (for
per-cell reports), a key naming its input (the same input, timed again in a
later pass, has the same key), ``run()`` (the timed call into k3lattice) and
``check(result)``, which runs off the clock and returns OK, UNDECIDED or a
string starting with "wrong". Checks use the benchmark's own arithmetic for
witnesses and `verify_certificate` / `revalidate_report` for proofs.

Every call goes through a module attribute (``kl.x``, ``cli.main``) so that
the tracer, which rebinds those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

import k3lattice as kl
from k3lattice import cli

OK = "ok"
UNDECIDED = "undecided"


class Op(NamedTuple):
    tag: str
    key: int
    inputs: tuple
    run: Callable[[], object]
    check: Callable[[object], str]


# ------------------------------------------------------------------ checks


VARIABLES = {"BinaryForm": 2, "DiagonalTernaryForm": 3, "UnaryForm": 1}


def form_value(form, w) -> int:
    """q(w) computed here, not by the form's own evaluate()."""
    if isinstance(form, kl.BinaryForm):
        x, y = w
        return form.a * x * x + form.b * x * y + form.c * y * y
    if isinstance(form, kl.DiagonalTernaryForm):
        x, y, z = w
        return form.d1 * x * x + form.d2 * y * y + form.d3 * z * z
    if isinstance(form, kl.UnaryForm):
        (x,) = w
        return form.d * x * x
    raise TypeError(f"no evaluator for {type(form).__name__}")


def gram_value(gram, w) -> int:
    n = len(gram)
    return sum(gram[i][j] * w[i] * w[j] for i in range(n) for j in range(n))


def check_witness(value_of, size: int, t: int, w) -> str:
    if w is None or len(w) != size:
        return "wrong: witness has the wrong length"
    if t == 0 and not any(w):
        return "wrong: zero witness for t = 0"
    if value_of(w) != t:
        return "wrong: witness does not evaluate to t"
    return OK


def check_verdict(form, t: int, verdict) -> str:
    """Outcome of a decider verdict: YES witnesses are evaluated here, NO
    certificates are replayed through verify_certificate."""
    if verdict.kind == "YES":
        size = VARIABLES[type(form).__name__]
        return check_witness(lambda w: form_value(form, w), size, t, verdict.witness)
    if verdict.kind == "NO":
        if verdict.certificate is None or not kl.verify_certificate(form, t, verdict.certificate):
            return "wrong: NO certificate does not replay"
        return OK
    if verdict.kind == "UNDECIDED":
        return UNDECIDED
    return f"wrong: unknown verdict kind {verdict.kind!r}"


def check_report(data, report) -> str:
    """A classify report passes revalidate_report, and its YES witnesses
    evaluate to -2 and 0 under the benchmark's own Gram arithmetic."""
    if not kl.revalidate_report(data, report):
        return "wrong: report does not revalidate"
    gram = data.lattice.gram
    for t, verdict in ((-2, report.has_minus2), (0, report.has_isotropic)):
        if verdict.kind == "YES":
            outcome = check_witness(lambda w: gram_value(gram, w), len(gram), t, verdict.witness)
            if outcome != OK:
                return outcome
    return UNDECIDED if report.aut.verdict == "UNKNOWN" else OK


def _replayed(form, t: int, verdict):
    """Decider verdict plus the in-operation replay of a NO certificate."""
    replay = verdict.kind != "NO" or kl.verify_certificate(form, t, verdict.certificate)
    return verdict, replay


def _check_replayed(form, t: int):
    def check(result) -> str:
        verdict, replay = result
        if not replay:
            return "wrong: NO certificate did not replay inside the operation"
        return check_verdict(form, t, verdict)

    return check


# ------------------------------------------------------------- generators


def _nonzero(rng: random.Random, bound: int) -> int:
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v


def _leading_minors(gram) -> list[Fraction]:
    """Leading principal minors by fraction-exact elimination; stops at the
    first zero pivot."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    minors, prod = [], Fraction(1)
    for k in range(n):
        if a[k][k] == 0:
            return minors
        prod *= a[k][k]
        minors.append(prod)
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return minors


def random_hyperbolic_gram(rng: random.Random, rank: int, entry: int = 5):
    """An even Gram matrix of signature (1, rank - 1): diagonal entries even
    in [-2 entry, 2 entry], off-diagonal in [-entry, entry]. The signature
    is read from the leading minors (Sylvester), so samples with a zero
    leading minor are redrawn."""
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randint(-entry, entry)
            for j in range(i + 1, rank):
                g[i][j] = g[j][i] = rng.randint(-entry, entry)
        minors = _leading_minors(g)
        if len(minors) != rank:
            continue
        signs = [1] + [1 if m > 0 else -1 for m in minors]
        negatives = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if negatives == rank - 1:
            return g


def random_indefinite_binary(rng: random.Random, lo: int, hi: int) -> "kl.BinaryForm":
    """Coefficient magnitudes in [lo, hi], positive nonsquare discriminant."""
    while True:
        a, b, c = (rng.choice((-1, 1)) * rng.randint(lo, hi) for _ in range(3))
        d = b * b - 4 * a * c
        if d > 0 and isqrt(d) ** 2 != d:
            return kl.BinaryForm(a, b, c)


def random_indefinite_ternary(rng: random.Random, lo: int, hi: int) -> "kl.DiagonalTernaryForm":
    signs = [1, 1, -1]
    rng.shuffle(signs)
    if rng.random() < 0.5:
        signs = [-s for s in signs]
    return kl.DiagonalTernaryForm(*(s * rng.randint(lo, hi) for s in signs))


# -------------------------------------------------------------- workloads


class PaperVerify:
    """Repeats the paper's reproduction command; every operation's stdout
    must be byte-identical to the first one's."""

    ARGV = ["paper-verify", "--format", "json"]

    def __init__(self, seed: int):
        self.reference: str | None = None

    @staticmethod
    def _run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(PaperVerify.ARGV)
        return code, buf.getvalue()

    def _check(self, result) -> str:
        code, out = result
        if code != 0:
            return f"wrong: exit code {code}"
        if self.reference is None:
            outcome = check_paper_document(out)
            if outcome != OK:
                return outcome
            self.reference = out
        elif out != self.reference:
            return "wrong: stdout differs from the first operation's"
        return OK

    def next_op(self) -> Op:
        return Op("paper-verify", 0, tuple(self.ARGV), self._run, self._check)


def check_paper_document(out: str) -> str:
    """all_passed, every row passing, and every claim3 / theorem-3 NO
    certificate replayed from the JSON against its Gram."""
    try:
        doc = json.loads(out)
    except ValueError:
        return "wrong: stdout is not JSON"
    if doc.get("all_passed") is not True or not all(r.get("pass") for r in doc.get("rows", ())):
        return "wrong: paper-verify reports a failing row"
    for row in doc["rows"]:
        if row["kind"] not in ("claim3", "theorem3"):
            continue
        (g00, g01), (_, g11) = row["result"]["gram"]
        q = kl.BinaryForm(g00, 2 * g01, g11)
        for t, key in ((0, "zero"), (-2, "minus2")):
            verdict = row["result"][key]
            if verdict["kind"] != "NO" or not kl.verify_certificate(q, t, verdict["certificate"]):
                return f"wrong: {row['row']} {key} certificate does not replay"
    return OK


class Claim3Grid:
    """One claim3_search per operation over A in 1..12, B, C in 0..11, each
    pass in a fresh seeded order."""

    BOUND = 50
    GRID = [(a, b, c) for a in range(1, 13) for b in range(12) for c in range(12)]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.queue: list = []
        self.k3_gram = kl.standard_lattice("K3").gram

    def next_op(self) -> Op:
        if not self.queue:
            self.queue = list(range(len(self.GRID)))
            self.rng.shuffle(self.queue)
        key = self.queue.pop()
        a, b, c = self.GRID[key]
        inputs = kl.Claim3Input(a, b, c)

        def run():
            try:
                return kl.claim3_search(inputs, self.BOUND)
            except kl.SearchExhausted as exc:
                return exc

        return Op("claim3", key, (a, b, c), run, lambda res: self.check(inputs, res))

    def check(self, inputs, res) -> str:
        if isinstance(res, kl.SearchExhausted):
            return UNDECIDED if res.bound == self.BOUND else "wrong: exhausted with another bound"
        a, b, c = inputs.A, inputs.B, inputs.C
        if res.inputs != inputs or not (1 <= res.N <= self.BOUND and 1 <= res.M <= self.BOUND):
            return "wrong: result does not match its inputs"
        scale = a if a >= 2 else 4
        n, m = scale * res.N, scale * res.M
        if (res.n, res.m) != (n, m):
            return "wrong: scaling of N, M"
        closed = ((2 * a, n * b), (n * b, 2 * (n * n * c - m)))
        g = self.k3_gram
        vecs = (res.vector_l, res.vector_generator)
        measured = tuple(
            tuple(sum(u[i] * g[i][j] * v[j] for i in range(22) for j in range(22) if g[i][j]) for v in vecs)
            for u in vecs
        )
        if res.gram != closed or measured != closed:
            return "wrong: Gram differs from the closed form"
        if len(res.invariant_factors) != 2 or any(f != 1 for f in res.invariant_factors):
            return "wrong: plane is not primitive"
        q = kl.BinaryForm(closed[0][0], 2 * closed[0][1], closed[1][1])
        for t, verdict in ((0, res.zero_verdict), (-2, res.minus2_verdict)):
            if verdict.kind != "NO" or check_verdict(q, t, verdict) != OK:
                return "wrong: double-NO certificate does not replay"
        return OK


class K3Queries:
    """A seeded stream of the paper's three questions on small inputs:
    binary forms (t = 0, -2 or random), diagonal ternary forms (t = 0, -2)
    and classify on random even hyperbolic lattices of rank 2 to 4. NO
    verdicts are replayed inside the operation. A pass is the first POOL
    inputs of the seed's stream, in the same order every pass."""

    # A work budget far below the default 10 000. The separable search for
    # indefinite ternary t = -2 costs about bound**2 steps: at the default,
    # about 1% of these queries spend about 12 s before ending UNDECIDED;
    # at 100 they stay below the slowest classify calls (rank 4, about
    # 4 ms), so the latency tail sits on that plateau.
    LIMITS = kl.SearchLimits(search_bound=100)
    COEFF = 60
    T_RANGE = 500
    POOL = 20000

    def __init__(self, seed: int):
        self.seed, self.count = seed, 0

    def next_op(self) -> Op:
        key = self.count % self.POOL
        self.count += 1
        if key == 0:
            self.rng = random.Random(self.seed)
        rng = self.rng
        kind = rng.choices(("binary", "ternary", "classify"), weights=(4, 3, 3))[0]
        if kind == "binary":
            while True:
                a, b, c = (rng.randint(-self.COEFF, self.COEFF) for _ in range(3))
                if b * b - 4 * a * c != 0:
                    break
            q = kl.BinaryForm(a, b, c)
            t = rng.choice((0, -2, None))
            if t is None:
                t = _nonzero(rng, self.T_RANGE)
            return Op(
                f"binary t={'random' if t not in (0, -2) else t}",
                key,
                (q, t),
                lambda: _replayed(q, t, kl.binary_represents(q, t, self.LIMITS)),
                _check_replayed(q, t),
            )
        if kind == "ternary":
            q = kl.DiagonalTernaryForm(*(_nonzero(rng, self.COEFF) for _ in range(3)))
            t = rng.choice((0, -2))
            return Op(
                f"ternary t={t}",
                key,
                (q, t),
                lambda: _replayed(q, t, kl.ternary_represents(q, t, self.LIMITS)),
                _check_replayed(q, t),
            )
        rank = rng.choice((2, 3, 4))
        gram = random_hyperbolic_gram(rng, rank)

        def run():
            data = kl.PicardData(kl.GramLattice(rank, gram))
            return data, kl.classify(data, self.LIMITS)

        return Op(f"classify rank={rank}", key, (gram,), run, lambda res: check_report(*res))


class ScaleSweep:
    """Seeded forms at coefficient magnitudes 10^1 .. 10^12 (drawn from
    [10^(k-1), 10^k]) for four questions, one operation per (kind, decade)
    cell per pass, cells in a fresh seeded order each pass. Every operation
    draws a fresh form: a pool of a few forms per cell would let the seed
    pick the run's latencies. Default limits, so the exponential scans show
    as deadline hits."""

    KINDS = ("ternary-zero", "binary-minus2", "binary-t", "ternary-t")
    DECADES = range(1, 13)
    T_RANGE = 500

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.queue: list = []
        self.count = 0

    def next_op(self) -> Op:
        rng = self.rng
        if not self.queue:
            self.queue = [(kind, k) for kind in self.KINDS for k in self.DECADES]
            rng.shuffle(self.queue)
        kind, k = self.queue.pop()
        key = self.count
        self.count += 1
        lo, hi = 10 ** (k - 1), 10**k
        if kind.startswith("binary"):
            q = random_indefinite_binary(rng, lo, hi)
            t = -2 if kind == "binary-minus2" else _nonzero(rng, self.T_RANGE)
            run = lambda: kl.binary_represents(q, t)  # noqa: E731
        else:
            q = random_indefinite_ternary(rng, lo, hi)
            t = 0 if kind == "ternary-zero" else _nonzero(rng, self.T_RANGE)
            run = (lambda: kl.ternary_represents_zero(q)) if t == 0 else (lambda: kl.ternary_represents(q, t))
        return Op(f"{kind} 1e{k}", key, (q, t), run, lambda v: check_verdict(q, t, v))


WORKLOADS = {
    "paper-verify": PaperVerify,
    "claim3-grid": Claim3Grid,
    "k3-queries": K3Queries,
    "scale-sweep": ScaleSweep,
}
