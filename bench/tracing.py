"""Per-layer tracing of k3lattice from outside the package.

`Tracer.install()` rebinds each traced public function at every binding
site: the defining module, every k3lattice module that from-imported it
(``smith_normal_form`` in embeddings and lattices, ``classify`` in catalog,
``factorize`` in lattices, ...) and the package namespace. Each call
records a span (function, start, end, parent span, operation index,
outcome) in flat arrays kept in memory; `metrics()` derives self time from
the parent/child spans and `write_spans()` writes them out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import re
import statistics
import subprocess
import sys
import time
from array import array

# module -> traced public functions
FUNCTIONS = {
    "ntheory": ("factorize",),
    "matrices": ("rational_inverse", "unimodular_inverse", "smith_normal_form", "det", "inertia"),
    "lattices": ("standard_lattice", "signature", "discriminant_group"),
    "embeddings": ("primitive_closure", "induced_gram", "is_primitive", "orthogonal_complement"),
    "qform": (
        "unary_represents",
        "binary_represents",
        "binary_represents_zero",
        "ternary_represents",
        "ternary_represents_zero",
        "verify_certificate",
    ),
    "k3": ("classify", "revalidate_report"),
    "catalog": ("claim3_search", "theorem3_example", "certify_family", "paper_verification"),
    "elliptic": (
        "mordell_weil_rank",
        "section_intersection_from_height",
        "pencil_class_from_sections",
        "max_singular_fibers_bound",
    ),
    "cli": ("main",),
}
# classes whose construction is traced (their __init__ is wrapped)
CONSTRUCTORS = {"embeddings": ("EmbeddedSublattice",)}

DECIDERS = (
    "qform.unary_represents",
    "qform.binary_represents",
    "qform.binary_represents_zero",
    "qform.ternary_represents",
    "qform.ternary_represents_zero",
)
# outcomes reported per decider: YES, each NO certificate kind the decider
# can return, UNDECIDED, and a per-call deadline hit
DECIDER_OUTCOMES = {
    "qform.binary_represents": (
        "YES", "NONSQUARE_DISC", "DIVISIBILITY", "DEFINITE", "DEFINITE_EXHAUST",
        "SQUARE_DISC_EXHAUST", "CYCLE", "SIEVE", "UNDECIDED", "deadline",
    ),
    "qform.binary_represents_zero": ("YES", "NONSQUARE_DISC"),
    "qform.ternary_represents": (
        "YES", "DIVISIBILITY", "DEFINITE", "DEFINITE_EXHAUST", "SIEVE", "LEGENDRE", "UNDECIDED", "deadline",
    ),
    "qform.ternary_represents_zero": ("YES", "DEFINITE", "LEGENDRE", "deadline"),
}
ELLIPTIC_CALLS_ONLY = "elliptic."
IMPORT_MODULES = ("", ".ntheory", ".matrices", ".lattices", ".embeddings", ".qform", ".k3", ".elliptic", ".catalog")

RAISED = "raised"
DEADLINE = "deadline"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}" for mod, classes in CONSTRUCTORS.items() for cls in classes]
    return names


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        if not name.startswith(ELLIPTIC_CALLS_ONLY):
            out.append((f"{name}.self_ms", "ms"))
    out.append(("catalog.claim3_search.raised", "count"))
    out.append(("catalog.claim3_search.zero_tests_per_call", "count"))
    for name, outcomes in DECIDER_OUTCOMES.items():
        for o in outcomes:
            out.append((f"{name}.{o}.calls", "count"))
            out.append((f"{name}.{o}.ms", "ms"))
    out.append(("qform.verify_certificate.rejected.calls", "count"))
    out.append(("qform.decided_ratio", "ratio"))
    out.append(("k3.classify.aut_unknown.calls", "count"))
    out.append(("import.k3lattice_ms", "ms"))
    for suffix in IMPORT_MODULES:
        out.append((f"import.k3lattice{suffix}.self_ms", "ms"))
    out.append(("host.calib_per_s", "1/s"))
    out.append(("trace.overhead_pct", "%"))
    return out


def _outcome_of(name: str):
    """Result -> outcome label for functions whose outcome is reported."""
    if name in DECIDERS:
        return lambda v: v.kind if v.kind != "NO" else v.certificate.kind
    if name == "qform.verify_certificate":
        return lambda ok: "accepted" if ok else "rejected"
    if name == "k3.classify":
        return lambda report: "aut_unknown" if report.aut.verdict == "UNKNOWN" else "aut_known"
    return None


class Tracer:
    def __init__(self, deadline_type: type):
        self.deadline_type = deadline_type
        self.names = span_names()
        self.outcomes: list[str] = ["", RAISED, DEADLINE]
        self._outcome_ids = {o: i for i, o in enumerate(self.outcomes)}
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.ops_started = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _outcome_id(self, label: str) -> int:
        i = self._outcome_ids.get(label)
        if i is None:
            i = self._outcome_ids[label] = len(self.outcomes)
            self.outcomes.append(label)
        return i

    def _wrap(self, fid: int, fn, outcome_of):
        fids, parents, ops, outs, starts, ends = self.fid, self.parent, self.op, self.outcome, self.start, self.end
        stack, now = self.stack, time.perf_counter_ns
        raised, deadline, deadline_type = self._outcome_ids[RAISED], self._outcome_ids[DEADLINE], self.deadline_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            outs.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = now()
                outs[idx] = deadline if isinstance(exc, deadline_type) else raised
                stack.pop()
                raise
            ends[idx] = now()
            stack.pop()
            if outcome_of is not None:
                outs[idx] = self._outcome_id(outcome_of(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every module attribute bound to it."""
        pkg = importlib.import_module("k3lattice")
        modules = [pkg] + [importlib.import_module(f"k3lattice.{m}") for m in FUNCTIONS]
        fid = 0
        for mod_name, fns in FUNCTIONS.items():
            home = importlib.import_module(f"k3lattice.{mod_name}")
            for fn_name in fns:
                orig = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(fid, orig, _outcome_of(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
                fid += 1
        for mod_name, classes in CONSTRUCTORS.items():
            home = importlib.import_module(f"k3lattice.{mod_name}")
            for cls_name in classes:
                cls = getattr(home, cls_name)
                self._restore.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(fid, cls.__init__, None)
                fid += 1

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def begin_op(self) -> None:
        self.current_op = self.ops_started
        self.ops_started += 1

    def end_op(self) -> None:
        """A deadline can interrupt a wrapper between its clock read and its
        stack pop, so close whatever is left open."""
        if self.stack:
            t = time.perf_counter_ns()
            for idx in self.stack:
                if self.end[idx] == 0:
                    self.end[idx] = t
            self.stack.clear()
        self.current_op = -1

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans: calls, self time (duration
        minus the time covered by direct child spans), outcome splits."""
        n = len(self.fid)
        fids, parents, outs, starts, ends = self.fid, self.parent, self.outcome, self.start, self.end
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, self_ns = [0] * k, [0] * k
        by_outcome: dict[tuple[int, int], list[int]] = {}
        claim3 = self.names.index("catalog.claim3_search")
        zero = self.names.index("qform.binary_represents_zero")
        deciders = {self.names.index(d) for d in DECIDERS}
        zero_tests = top_decisions = top_decided = 0
        undecided_ids = {self._outcome_ids.get(o) for o in ("UNDECIDED", DEADLINE, RAISED)}
        for i in range(n):
            f, dur, p = fids[i], ends[i] - starts[i], parents[i]
            calls[f] += 1
            self_ns[f] += dur - child_ns[i]
            cell = by_outcome.setdefault((f, outs[i]), [0, 0])
            cell[0] += 1
            cell[1] += dur
            if f == zero and p >= 0 and fids[p] == claim3:
                zero_tests += 1
            if f in deciders and (p < 0 or fids[p] not in deciders):
                top_decisions += 1
                top_decided += outs[i] not in undecided_ids

        out: dict[str, float] = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_ms"] = self_ns[f] / 1e6
        for (f, o), (count, ns) in by_outcome.items():
            label = self.outcomes[o] or "done"
            out[f"{self.names[f]}.{label}.calls"] = count
            out[f"{self.names[f]}.{label}.ms"] = ns / 1e6
        out["catalog.claim3_search.raised"] = out.get("catalog.claim3_search.raised.calls", 0)
        out["catalog.claim3_search.zero_tests_per_call"] = zero_tests / max(calls[claim3], 1)
        out["qform.decided_ratio"] = top_decided / max(top_decisions, 1)
        return out

    def write_spans(self, path: str) -> None:
        """All spans as gzipped TSV: id, parent, op, function, start_ns,
        end_ns, outcome."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\top\tfunction\tstart_ns\tend_ns\toutcome\n")
            for i in range(len(self.fid)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.fid[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.outcomes[self.outcome[i]]}\n"
                )


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)\s*$")


def import_times(src_dir: str, repeats: int = 3) -> dict[str, float]:
    """`import k3lattice` in fresh interpreters under -X importtime: the
    package's cumulative time and each k3lattice module's self time, as
    medians over the repeats, in ms."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import k3lattice"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m or not m.group(3).startswith("k3lattice"):
                continue
            self_us, cumulative_us, module = int(m.group(1)), int(m.group(2)), m.group(3)
            samples.setdefault(f"import.{module}.self_ms", []).append(self_us / 1000)
            if module == "k3lattice":
                samples.setdefault("import.k3lattice_ms", []).append(cumulative_us / 1000)
    return {name: statistics.median(values) for name, values in samples.items()}
