"""Command-line interface: output shape, exit codes, flag handling."""

import json
import re
import sys
from pathlib import Path

import pytest

from k3lattice import cli
from k3lattice.cli import EXIT_ERROR, EXIT_OK, EXIT_UNDECIDED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_info_inline(capsys):
    code, out, err = run(capsys, "lattice", "info", '{"name": "U"}')
    assert code == EXIT_OK and err == ""
    obj = json.loads(out)
    assert obj["rank"] == 2
    assert obj["gram"] == [[0, 1], [1, 0]]
    assert obj["det"] == -1
    assert obj["signature"] == [1, 1, 0]
    assert obj["disc_invariant_factors"] == []


def test_lattice_info_sublattice_reports_primitivity(capsys):
    spec = {"ambient": {"name": "U"}, "basis": [[2, 0]]}
    code, out, _ = run(capsys, "lattice", "info", json.dumps(spec))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["primitive"] is False
    assert obj["gram"] == [[0]]


def test_lattice_disc_group(capsys):
    spec = {"gram": [[6, 0, 0], [0, -2, 0], [0, 0, -2]]}
    code, out, _ = run(capsys, "lattice", "disc-group", json.dumps(spec))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["invariant_factors"] == [2, 2, 6]
    assert obj["order"] == 24
    assert obj["aut_order"] == 336
    assert obj["aut_index_bound"] == 66 * obj["aut_order"]


def test_qform_represents_yes_no_undecided(capsys):
    code, out, _ = run(capsys, "qform", "represents", '{"binary": [1, 0, -2]}', "--t", "-1")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["kind"] == "YES"

    code, out, _ = run(capsys, "qform", "represents", '{"binary": [1, 0, -2]}', "--t", "3")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["verdict"]["kind"] == "NO"
    assert obj["verdict"]["certificate"] == {"kind": "LOCAL", "data": {"content": 1, "prime": 3}}

    # 3 divides both D = 24 and t = -3
    code, out, _ = run(capsys, "qform", "represents", '{"binary": [1, 0, -6]}', "--t", "-3")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["certificate"] == {"kind": "LOCAL", "data": {"content": 1, "prime": 3}}

    # no prime obstructs x**2 - 7 y**2 = 8 and its witness (6, ±2) lies past
    # the capped scan: the question becomes undecided
    code, out, _ = run(
        capsys, "qform", "represents", '{"binary": [1, 0, -7]}', "--t", "8", "--search-bound", "1",
    )
    assert code == EXIT_UNDECIDED
    obj = json.loads(out)
    assert obj["verdict"]["kind"] == "UNDECIDED"
    assert obj["verdict"]["bounds"] == {"search_bound": 1}

    code, out, _ = run(capsys, "qform", "represents", '{"diag": [4, -4, -4]}', "--t", "-2")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["certificate"]["kind"] == "DIVISIBILITY"

    code, out, _ = run(capsys, "qform", "represents", '{"unary": [2]}', "--t", "8")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["witness"] == [2]


def test_qform_represents_prints_witnesses_past_the_int_str_limit(capsys):
    # the witness has more digits than Python 3.11+ converts to str by
    # default; main lifts that limit only while it renders, so reading the
    # output back lifts it too
    code, out, err = run(capsys, "qform", "represents", '{"binary": [53745, -67465, -20478]}', "--t", "-2")
    assert code == EXIT_OK and err == ""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        x, y = json.loads(out)["verdict"]["witness"]
    finally:
        set_limit(limit)
    assert 53745 * x * x - 67465 * x * y - 20478 * y * y == -2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.10 has no int-str limit")
@pytest.mark.parametrize("limit", [4300, 640])
def test_main_restores_the_int_str_limit(capsys, limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, _, _ = run(capsys, "qform", "represents", '{"binary": [53745, -67465, -20478]}', "--t", "-2")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_k3_classify(capsys):
    picard = {"lattice": {"gram": [[4, 0, 0], [0, -4, 0], [0, 0, -4]]}}
    code, out, _ = run(capsys, "k3", "classify", json.dumps(picard))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["aut"]["verdict"] == "INFINITE"
    assert obj["aut"]["status"] == "PROVEN"
    # a rank-4 lattice has no certified decider and an inconclusive scan
    picard = {"lattice": {"gram": [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -4, 0], [0, 0, 0, -6]]}}
    code, out, _ = run(capsys, "k3", "classify", json.dumps(picard))
    obj = json.loads(out)
    kinds = {obj["has_minus2"]["kind"], obj["has_isotropic"]["kind"]}
    if "UNDECIDED" in kinds:
        assert code == EXIT_UNDECIDED
    else:
        assert code == EXIT_OK


def test_k3_classify_refuses_a_lattice_of_no_k3(capsys):
    gram = [[2 if i == j == 0 else -2 if i == j else 0 for j in range(12)] for i in range(12)]
    code, out, err = run(capsys, "k3", "classify", json.dumps({"lattice": {"gram": gram}}))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: no K3 Picard lattice: rank 12, discriminant length 12 (a K3 needs rank <= 20, rank + length <= 22)\n"
    # an odd lattice, <1> + <-1>, is the Picard lattice of no K3 either
    code, out, err = run(capsys, "k3", "classify", '{"lattice": {"gram": [[1, 0], [0, -1]]}}')
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: no K3 Picard lattice: odd diagonal entries [1, -1] (a K3 Picard lattice is even)\n"


def test_qform_represents_refuses_a_zero_diagonal_coefficient(capsys):
    code, out, err = run(capsys, "qform", "represents", '{"diag": [0, 1, 1]}', "--t", "0")
    assert (code, out, err) == (EXIT_ERROR, "", "error: diagonal coefficients must be nonzero\n")


def test_claim3_found_and_not_found(capsys):
    code, out, _ = run(capsys, "claim3", "--A", "1", "--B", "0", "--C", "0")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["status"] == "FOUND"
    assert obj["N"] == 1 and obj["M"] == 2
    assert obj["gram"] == [[2, 0], [0, -16]]

    code, out, _ = run(capsys, "claim3", "--A", "1", "--B", "0", "--C", "0", "--claim3-bound", "1")
    assert code == EXIT_UNDECIDED
    obj = json.loads(out)
    assert obj["status"] == "NOT_FOUND" and obj["bound"] == 1

    code, _, err = run(capsys, "claim3", "--A", "0", "--B", "0", "--C", "0")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_mw_rank(capsys):
    code, out, _ = run(capsys, "mw", "rank", '{"rho": 5, "reducible_fiber_component_counts": [2, 3]}')
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["mordell_weil_rank"] == 0
    assert obj["max_singular_fibers"] == 24


def test_paper_verify(capsys):
    code, out, _ = run(capsys, "paper-verify")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert len(obj["rows"]) == 8


def test_paper_verify_table_format(capsys):
    code, out, _ = run(capsys, "paper-verify", "--format", "table")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 9  # 8 rows + all_passed
    assert lines[0].startswith("family-1(n=5)")
    assert all(line.rstrip().endswith("pass") for line in lines[:8])
    assert lines[-1].split() == ["all_passed", "true"]


@pytest.mark.parametrize("fmt, golden", [("json", "paper_verify.json"), ("table", "paper_verify.txt")])
def test_paper_verify_matches_golden_output(capsys, fmt, golden):
    # a change that alters verdicts on purpose regenerates these files
    code, out, _ = run(capsys, "paper-verify", "--format", fmt)
    assert code == EXIT_OK
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_one_process_reuses_the_parser_across_calls(capsys):
    # the parser is built once per process: a usage error between two
    # paper-verify calls leaves each call's exit code and bytes unchanged
    data = Path(__file__).parent / "data"
    code, out, err = run(capsys, "paper-verify", "--format", "table")
    assert (code, err) == (EXIT_OK, "") and out == (data / "paper_verify.txt").read_text()
    code, out, err = run(capsys, "paper-verify", "--format", "xml")
    assert code == EXIT_ERROR and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "paper-verify", "--format", "json")
    assert (code, err) == (EXIT_OK, "") and out == (data / "paper_verify.json").read_text()


def _k3_vector(entries):
    return [entries.get(i, 0) for i in range(22)]


_K3_SUBLATTICE = json.dumps(
    {"ambient": {"name": "K3"}, "basis": [_k3_vector({0: 1, 1: 3}), _k3_vector({6: 1}), _k3_vector({14: 1})]}
)


@pytest.mark.parametrize(
    "args, golden",
    [
        (("lattice", "info", '{"name": "K3"}'), "lattice_info_k3.json"),
        (("lattice", "disc-group", '{"sum": [{"name": "U"}, {"gram": [[-8]]}]}'), "disc_group_u_m8.json"),
        # a zero row and column: det 0, signature [1, 1, 1]
        (("lattice", "info", '{"gram": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}'), "lattice_info_degenerate.json"),
        # a primitive K3 sublattice: e1 + 3 e2 and the first simple root of each E8(-1) block
        (("lattice", "info", _K3_SUBLATTICE, "--format", "table"), "lattice_info_k3_sublattice.txt"),
    ],
)
def test_lattice_commands_match_golden_output(capsys, args, golden):
    # the same commands and files are compared in CI through the entry point
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert out == (Path(__file__).parent / "data" / golden).read_text()


@pytest.mark.parametrize(
    "args, expected_code, golden",
    [
        (("k3", "classify", '{"lattice": {"gram": [[0,1,0],[1,0,0],[0,0,-8]]}}'), EXIT_OK, "k3_classify_u_m8.json"),
        (("claim3", "--A", "1", "--B", "0", "--C", "0", "--format", "table"), EXIT_OK, "claim3_a1_table.txt"),
        (("claim3", "--A", "1", "--B", "0", "--C", "0", "--claim3-bound", "1"), EXIT_UNDECIDED, "claim3_a1_not_found.json"),
        (("mw", "rank", '{"rho": 20, "reducible_fiber_component_counts": [9, 9, 3]}'), EXIT_OK, "mw_rank.json"),
        # rank-2 PROVEN INFINITE: the aut entry repeats two NO certificates
        (("k3", "classify", '{"lattice": {"gram": [[2, 0], [0, -16]]}}'), EXIT_OK, "k3_classify_2_m16.json"),
        # a LOCAL NO at 5 | D, (-2 * 264606 / 5) = -1, where the cycle walk
        # runs past its 100000 steps
        (("qform", "represents", '{"binary": [264606, 439487, -151714]}', "--t", "-2"), EXIT_OK,
         "qform_represents_local.json"),
        # a LOCAL NO at 2, where the cycle walk runs past its 100000 steps
        (("qform", "represents", '{"binary": [723537, 636064, -623498]}', "--t", "-2"), EXIT_OK,
         "qform_represents_local2.json"),
        # a SIEVE NO mod 23, a prime of the coefficients that no fixed ladder tried
        (("qform", "represents", '{"diag": [23, 46, -5]}', "--t", "-2"), EXIT_OK, "qform_represents_sieve.json"),
        # a LOCAL NO at 1386787, a prime of D past trial division that the
        # budgeted rho split finds, where the cycle walk runs past its 100000 steps
        (("qform", "represents", '{"binary": [-333292374, 949056661, 595529271]}', "--t", "13"), EXIT_OK,
         "qform_represents_local3.json"),
        # s0 = 2 + 4 * 10**12 lies past 2 * bound, so the walk visits no pair
        (("claim3", "--A", "1", "--B", "0", "--C", "1000000000000", "--claim3-bound", "1000000000"), EXIT_UNDECIDED,
         "claim3_far_not_found.json"),
        # A = 5, d = -31: found at N = 1, M = 9, and the generator is nonzero at
        # U^3 coordinates 1 to 5, every one a generator can reach
        (("claim3", "--A", "5", "--B", "-3", "--C", "2"), EXIT_OK, "claim3_a5_bm3_c2.json"),
    ],
)
def test_other_commands_match_golden_output(capsys, args, expected_code, golden):
    # the same commands and files are compared in CI through the entry point
    code, out, _ = run(capsys, *args)
    assert code == expected_code
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_undecided_bounds_match_golden_output(capsys):
    # a ternary UNDECIDED names only its search bound, as a binary one does;
    # compared in CI as well
    args = ("qform", "represents", '{"diag": [1, -1, -1]}', "--t", "7", "--search-bound", "1")
    code, out, _ = run(capsys, *args)
    assert code == EXIT_UNDECIDED
    assert out == (Path(__file__).parent / "data" / "qform_represents_undecided.json").read_text()


def test_every_golden_is_compared_here_and_in_ci():
    # each file under tests/data is read by a test in this module and named in
    # the workflow's CLI step, and every tests/data path the workflow names
    # exists, so a new golden cannot be added in one place only
    tests = Path(__file__).parent
    goldens = {p.name for p in (tests / "data").iterdir()}
    workflow = (tests.parent / ".github" / "workflows" / "tests.yml").read_text()
    cli_step = workflow.split("- name: CLI commands")[1].split("- name:")[0]
    assert {g for g in goldens if f'"{g}"' not in Path(__file__).read_text()} == set()
    assert goldens - set(re.findall(r"tests/data/([\w.-]+)", cli_step)) == set()
    assert set(re.findall(r"tests/data/([\w.-]+)", workflow)) - goldens == set()


def test_table_format_flattens_nested_json(capsys):
    code, out, _ = run(capsys, "lattice", "info", '{"name": "U"}', "--format", "table")
    assert code == EXIT_OK
    mapping = {}
    for line in out.splitlines():
        key, _, value = line.partition("  ")
        mapping[key.strip()] = value.strip()
    assert mapping["rank"] == "2"
    assert mapping["gram[0]"] == "[0, 1]"
    assert mapping["signature"] == "[1, 1, 0]"


def test_output_is_deterministic(capsys):
    first = run(capsys, "paper-verify")
    second = run(capsys, "paper-verify")
    assert first == second
    third = run(capsys, "lattice", "disc-group", '{"gram": [[6, 0, 0], [0, -2, 0], [0, 0, -2]]}')
    fourth = run(capsys, "lattice", "disc-group", '{"gram": [[6, 0, 0], [0, -2, 0], [0, 0, -2]]}')
    assert third == fourth


def test_input_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "lattice.json"
    path.write_text('{"name": "U"}', encoding="utf-8")
    code, out, _ = run(capsys, "lattice", "info", str(path))
    assert code == EXIT_OK and json.loads(out)["rank"] == 2

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"name": "E8_neg"}'))
    code, out, _ = run(capsys, "lattice", "info", "-")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["rank"] == 8 and obj["det"] == 1
    assert obj["signature"] == [0, 8, 0]


def test_error_reporting(capsys, tmp_path):
    # malformed inline JSON names the source and position
    code, _, err = run(capsys, "lattice", "info", '{"name": }')
    assert code == EXIT_ERROR
    assert "invalid JSON in <inline>" in err and "line 1" in err

    # missing file
    code, _, err = run(capsys, "lattice", "info", str(tmp_path / "nope.json"))
    assert code == EXIT_ERROR and "cannot read" in err

    # semantic error from the library surfaces as error:, not a traceback
    code, _, err = run(capsys, "mw", "rank", '{"rho": 1}')
    assert code == EXIT_ERROR and "error:" in err

    # bad flag value
    code, _, err = run(capsys, "qform", "represents", '{"unary": [2]}', "--t", "x")
    assert code == EXIT_ERROR and "error:" in err

    # no arguments: usage on stderr, exit 1
    code, _, err = run(capsys)
    assert code == EXIT_ERROR and "usage" in err.lower()

    # unknown subcommand
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "args",
    [
        ("lattice", "info", '{"gram": 5}'),
        ("lattice", "info", '{"gram": [5]}'),
        ("lattice", "info", '{"name": []}'),
        ("lattice", "info", '{"ambient": {"name": "U"}, "basis": 5}'),
        ("mw", "rank", '{"rho": 20, "reducible_fiber_component_counts": 5}'),
        ("k3", "classify", '{"lattice": 5}'),
        ("k3", "classify", '{"lattice": {"ambient": {"name": "U"}, "basis": 5}}'),
    ],
)
def test_json_of_the_wrong_type_is_an_input_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("lattice", "info", "[" * 100000 + "]" * 100000),
        ("lattice", "disc-group", '{"sum": [' * 50000 + '{"name": "U"}' + "]}" * 50000),
        ("qform", "represents", '{"diag": ' + "[" * 100000 + "]" * 100000 + "}", "--t", "1"),
        ("k3", "classify", '{"lattice": ' + '{"sum": [' * 50000 + '{"name": "U"}' + "]}" * 50000 + "}"),
    ],
    ids=["lattice-info", "disc-group-sum", "qform-represents", "k3-classify-sum"],
)
def test_json_nested_past_the_recursion_limit_is_an_input_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == EXIT_ERROR and out == ""
    assert err == "error: JSON in <inline> is nested too deeply\n"


def test_a_builder_past_the_recursion_limit_is_an_input_error(tmp_path):
    # JSON that parses but recurses too deeply in its builder, as a deep
    # "sum" can when the parser's limit leaves the builder less room
    def endless(obj):
        return endless(obj)

    path = tmp_path / "input.json"
    path.write_text('{"name": "U"}', encoding="utf-8")
    with pytest.raises(cli.CliError) as info:
        cli._load_input(str(path), endless)
    assert str(info.value) == f"JSON in {path} is nested too deeply"


@pytest.mark.parametrize(
    "form, message",
    [
        ("[1, 2, 3]", "form JSON must be an object"),
        ('{"binary": [1, 2]}', 'form JSON "binary" needs exactly 3 integers'),
        ('{"ternary": [1, 2, 3]}', 'form JSON needs one of "binary", "diag", "unary"'),
    ],
)
def test_form_json_refusals_exit_1_with_their_message(capsys, form, message):
    code, out, err = run(capsys, "qform", "represents", form, "--t", "2")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, bad",
    [
        (("qform", "represents", '{"binary": [1.9, 0, -7]}', "--t", "2"), "1.9"),
        (("lattice", "info", '{"rank": 2.0, "gram": [[1,0],[0,1]]}'), "2.0"),
        (("lattice", "info", '{"ambient": {"name": "U"}, "basis": [[1.5, 0]]}'), "1.5"),
        (("mw", "rank", '{"rho": 20.9, "reducible_fiber_component_counts": [2.5]}'), "20.9"),
        (("mw", "rank", '{"rho": 20, "reducible_fiber_component_counts": [2.5]}'), "2.5"),
        (("lattice", "info", '{"gram": [[true, 0], [0, 1]]}'), "True"),
        (("k3", "classify", '{"lattice": {"gram": [[0, "1"], [1, 0]]}}'), "'1'"),
        (("k3", "classify", '{"lattice": {"ambient": {"name": "U"}, "basis": [[1.0, -1]]}}'), "1.0"),
    ],
)
def test_non_integer_json_numbers_are_refused_not_truncated(capsys, args, bad):
    code, out, err = run(capsys, *args)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: expected an integer, got {bad}\n"


def test_picard_data_keys_other_than_lattice_are_refused(capsys):
    code, out, err = run(capsys, "k3", "classify", '{"lattice": {"name": "U"}, "polarization": [1, 2]}')
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and '"lattice"' in err and "polarization" in err


@pytest.mark.parametrize("value, shown", [('"no"', "'no'"), ("0", "0"), ("null", "None")])
def test_has_section_accepts_only_json_booleans(capsys, value, shown):
    code, out, err = run(capsys, "mw", "rank", '{"rho": 20, "has_section": %s}' % value)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: expected true or false, got {shown}\n"


def test_a_picard_rank_past_20_is_refused(capsys):
    # a complex K3 has rho <= 20, so its Mordell-Weil rank is at most 18
    code, out, err = run(capsys, "mw", "rank", '{"rho": 21}')
    assert code == EXIT_ERROR and out == ""
    assert err == "error: a complex K3 has Picard rank at most 20, got rho = 21\n"


# the flags each subcommand accepts besides --format, which all of them take
_SUBCOMMAND_FLAGS = [
    (("lattice", "info", '{"name": "U"}'), set()),
    (("lattice", "disc-group", '{"name": "U"}'), set()),
    (("qform", "represents", '{"unary": [2]}', "--t", "8"), {"--search-bound"}),
    (("k3", "classify", '{"lattice": {"name": "U"}}'), {"--search-bound"}),
    (("claim3", "--A", "1", "--B", "0", "--C", "0"), {"--claim3-bound"}),
    (("mw", "rank", '{"rho": 5}'), set()),
    (("paper-verify",), set()),
]


@pytest.mark.parametrize("args, accepted", _SUBCOMMAND_FLAGS)
def test_each_flag_parses_only_where_it_acts(capsys, args, accepted):
    for flag, value in (("--format", "table"), ("--search-bound", "1"), ("--claim3-bound", "1"), ("--sieve-max", "7")):
        code, _, err = run(capsys, *args, flag, value)
        rejected = code == EXIT_ERROR and "unrecognized arguments" in err
        assert rejected == (flag != "--format" and flag not in accepted), (args, flag, err)


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "paper-verify" in out


@pytest.mark.parametrize(
    "args",
    [
        ("qform", "represents", '{"binary": [1, 0, -7]}', "--t", "8"),
        ("qform", "represents", '{"binary": [1, 0, -7]}', "--t", "0"),
        ("qform", "represents", '{"diag": [1, 1, -3]}', "--t", "0"),
        ("k3", "classify", '{"lattice": {"name": "U"}}'),
    ],
)
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_search_bound_below_one_is_an_error(capsys, args, bound):
    # refused even at t = 0, where no decider reads the bound
    code, out, err = run(capsys, *args, "--search-bound", bound)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and "search bound must be positive" in err


def test_claim3_bound_below_one_is_an_error(capsys):
    code, out, err = run(capsys, "claim3", "--A", "1", "--B", "0", "--C", "0", "--claim3-bound", "0")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and "bound must be positive" in err


@pytest.mark.parametrize("config", [None, '{"format": "table", "search_bound": 1}'])
def test_config_env_var_is_ignored(tmp_path, capsys, monkeypatch, config):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config, encoding="utf-8")
    monkeypatch.setenv("K3LATTICE_CONFIG", str(path))
    data = Path(__file__).parent / "data"
    code, out, err = run(capsys, "paper-verify")
    assert (code, err) == (EXIT_OK, "")
    assert out == (data / "paper_verify.json").read_text()
    code, out, err = run(capsys, "qform", "represents", '{"diag": [1, -1, -1]}', "--t", "7", "--search-bound", "1")
    assert (code, err) == (EXIT_UNDECIDED, "")
    assert out == (data / "qform_represents_undecided.json").read_text()
