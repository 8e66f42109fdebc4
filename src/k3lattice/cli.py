"""Command-line interface.

Output is deterministic: the JSON format renders with sorted keys, two-space
indent, and a trailing newline; the table format is a flattened view of the
same object. Inputs may be a file path, "-" for stdin, or inline JSON.

Flags are the only settings. Every subcommand takes --format (default
json). --search-bound (default qform.DEFAULT_SEARCH_BOUND) is read only by
"qform represents" and "k3 classify", and --claim3-bound (default 50) only by
"claim3"; no other subcommand accepts them. Their range checks are the
library's: SearchLimits and claim3_search raise ValueError on a bound below 1.

Exit codes: 0 for a decided result, 2 when a verdict is UNDECIDED or a search
reports NOT_FOUND, 1 for errors (bad input or a failed aggregate
verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, elliptic, k3, lattices, qform
from .catalog import Claim3Input, SearchExhausted
from .embeddings import is_primitive, lattice_or_sublattice_from_json
from .lattices import aut_index_bound, aut_order_finite_abelian, discriminant_group, lattice_to_json
from .qform import SearchLimits

__all__ = ["main", "EXIT_OK", "EXIT_ERROR", "EXIT_UNDECIDED"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class CliError(Exception):
    """User-facing error: message goes to stderr, process exits 1."""


def _load_input(text: str, from_json):
    """Build an input with from_json from a JSON argument: a file path, "-"
    for stdin, or inline JSON (starts with { or [). A wrong JSON type (a
    number where a list belongs) raises TypeError in a builder, and nesting
    past the recursion limit RecursionError in the parser or a builder ("sum"
    recurses); both are bad input and reported as such."""
    if text == "-":
        raw, source = sys.stdin.read(), "<stdin>"
    elif text.lstrip().startswith(("{", "[")):
        raw, source = text, "<inline>"
    else:
        try:
            with open(text, encoding="utf-8") as fh:
                raw, source = fh.read(), text
        except OSError as exc:
            raise CliError(f"cannot read {text}: {exc}") from exc
    try:
        return from_json(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {source}: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    except TypeError as exc:
        raise CliError(f"malformed input JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"JSON in {source} is nested too deeply") from exc


# ------------------------------------------------------------------ commands


def _cmd_lattice_info(args):
    lattice, sub = _load_input(args.lattice, lattice_or_sublattice_from_json)
    d = lattices.det(lattice)
    out = {
        **lattice_to_json(lattice),
        "det": d,
        "signature": list(lattices.signature(lattice)),
    }
    if d != 0:
        out["disc_invariant_factors"] = list(discriminant_group(lattice).invariant_factors)
    if sub is not None:
        out["primitive"] = is_primitive(sub)
    return out, EXIT_OK


def _cmd_lattice_disc_group(args):
    lattice, _ = _load_input(args.lattice, lattice_or_sublattice_from_json)
    group = discriminant_group(lattice)
    factors = group.invariant_factors
    out = {
        "invariant_factors": list(factors),
        "order": group.order,
        "aut_order": aut_order_finite_abelian(factors),
        "aut_index_bound": aut_index_bound(factors),
    }
    return out, EXIT_OK


def _cmd_qform_represents(args):
    form = _load_input(args.form, qform.form_from_json)
    t = args.t
    verdict = qform.represents(form, t, SearchLimits(args.search_bound))
    out = {"form": qform.form_to_json(form), "t": t, "verdict": qform.verdict_to_json(verdict)}
    return out, EXIT_OK if verdict.kind in ("YES", "NO") else EXIT_UNDECIDED


def _cmd_k3_classify(args):
    data = _load_input(args.picard, k3.picard_from_json)
    report = k3.classify(data, SearchLimits(args.search_bound))
    undecided = "UNDECIDED" in (report.has_minus2.kind, report.has_isotropic.kind)
    return k3.report_to_json(report), EXIT_UNDECIDED if undecided else EXIT_OK


def _cmd_claim3(args):
    inputs = Claim3Input(args.A, args.B, args.C)
    try:
        res = catalog.claim3_search(inputs, args.claim3_bound)
    except SearchExhausted as exc:
        out = {
            "status": "NOT_FOUND",
            "bound": exc.bound,
            "inputs": {"A": inputs.A, "B": inputs.B, "C": inputs.C},
            "message": str(exc),
        }
        return out, EXIT_UNDECIDED
    out = catalog.claim3_result_to_json(res)
    out["status"] = "FOUND"
    return out, EXIT_OK


def _cmd_mw_rank(args):
    data = _load_input(args.fibration, elliptic.fibration_from_json)
    out = elliptic.fibration_to_json(data)
    out["mordell_weil_rank"] = elliptic.mordell_weil_rank(data)
    out["max_singular_fibers"] = elliptic.max_singular_fibers_bound()
    return out, EXIT_OK


def _cmd_paper_verify(args):
    result = catalog.paper_verification()
    return result, EXIT_OK if result["all_passed"] else EXIT_ERROR


# ----------------------------------------------------------------- rendering


def render(obj, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _render_table(obj)


def _render_table(obj) -> str:
    if isinstance(obj, dict) and isinstance(obj.get("rows"), list):
        return _render_rows(obj)
    lines = []
    _flatten("", obj, lines)
    width = max((len(k) for k, _ in lines), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in lines)


def _flatten(prefix: str, obj, lines: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    elif isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append((prefix, json.dumps(obj, sort_keys=True)))


def _row_summary(row: dict) -> str:
    if row.get("kind") == "family":
        rep = row["report"]
        aut = rep["aut"]
        return (
            f"rank={rep['rank']} det={rep['det']} minus2={rep['has_minus2']['kind']} "
            f"isotropic={rep['has_isotropic']['kind']} aut={aut['verdict']}[{aut.get('status', '-')}]"
        )
    if row.get("kind") == "claim3":
        res = row["result"]
        return f"N={res['N']} M={res['M']} gram={json.dumps(res['gram'])}"
    if row.get("kind") == "theorem3":
        res = row["result"]
        return f"gram={json.dumps(res['gram'])}"
    return ""


def _render_rows(obj: dict) -> str:
    rows = [(r.get("row", ""), _row_summary(r), "pass" if r.get("pass") else "FAIL") for r in obj["rows"]]
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    out = [f"{r[0].ljust(w0)}  {r[1].ljust(w1)}  {r[2]}" for r in rows]
    out.append(f"all_passed  {json.dumps(obj['all_passed'])}")
    return "\n".join(out) + "\n"


# -------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise CliError(f"{self.prog}: {message}")


@functools.cache  # rebuilding the argparse tree costs more than most commands; parse_args does not change it
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json", help="output format")
    searched = argparse.ArgumentParser(add_help=False, parents=[common])
    searched.add_argument("--search-bound", dest="search_bound", type=int, default=qform.DEFAULT_SEARCH_BOUND, help="coordinate bound for witness searches")

    parser = _Parser(prog="k3lattice", description="exact-arithmetic toolkit for K3 Picard lattices")
    sub = parser.add_subparsers(dest="command")

    lat = sub.add_parser("lattice", help="lattice inspection")
    lat_sub = lat.add_subparsers(dest="subcommand")
    p = lat_sub.add_parser("info", parents=[common], help="rank, Gram, det, signature")
    p.add_argument("lattice", help="lattice JSON (path, -, or inline)")
    p.set_defaults(handler=_cmd_lattice_info)
    p = lat_sub.add_parser("disc-group", parents=[common], help="discriminant group data")
    p.add_argument("lattice", help="lattice JSON (path, -, or inline)")
    p.set_defaults(handler=_cmd_lattice_disc_group)

    qf = sub.add_parser("qform", help="quadratic-form deciders")
    qf_sub = qf.add_subparsers(dest="subcommand")
    p = qf_sub.add_parser("represents", parents=[searched], help="decide q = t with a certificate")
    p.add_argument("form", help="form JSON (path, -, or inline)")
    p.add_argument("--t", type=int, required=True, help="target value")
    p.set_defaults(handler=_cmd_qform_represents)

    k3p = sub.add_parser("k3", help="Picard-lattice predicates")
    k3_sub = k3p.add_subparsers(dest="subcommand")
    p = k3_sub.add_parser("classify", parents=[searched], help="full verdict report")
    p.add_argument("picard", help="Picard data JSON (path, -, or inline)")
    p.set_defaults(handler=_cmd_k3_classify)

    p = sub.add_parser("claim3", parents=[common], help="search the certified double-NO plane")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--claim3-bound", dest="claim3_bound", type=int, default=50, help="N, M bound for the claim3 search")
    p.set_defaults(handler=_cmd_claim3)

    mw = sub.add_parser("mw", help="Mordell-Weil arithmetic")
    mw_sub = mw.add_subparsers(dest="subcommand")
    p = mw_sub.add_parser("rank", parents=[common], help="Shioda-Tate rank from fibration data")
    p.add_argument("fibration", help="fibration JSON (path, -, or inline)")
    p.set_defaults(handler=_cmd_mw_rank)

    p = sub.add_parser("paper-verify", parents=[common], help="run the full certified check table")
    p.set_defaults(handler=_cmd_paper_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR
    try:
        out, code = handler(args)
    except (CliError, ValueError, catalog.CatalogMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    # a witness can have more digits than Python 3.11+ converts to str by default: lift the limit to render only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        sys.stdout.write(render(out, args.format))
    finally:
        set_limit(limit)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
