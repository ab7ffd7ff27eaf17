"""Command line interface: outputs and the exit code contract."""

import argparse
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arithlab
from arithlab.cli import COMMANDS, build_parser, main
from arithlab.corpus import build_all
from arithlab.godel import NumberingConfig, encode_expr, encode_proof
from arithlab.models import WITNESS_MODEL, RestrictError, format_interpretation
from arithlab.proofs import format_proof
from arithlab.syntax import (
    ArithlabError,
    CaptureError,
    NotTextError,
    ParseError,
    Refusal,
    parse_formula,
)

MEND_PAIR = NumberingConfig(scheme="mendelson", seq="pairing")


@pytest.fixture()
def witness_file(tmp_path):
    path = tmp_path / "witness.model"
    path.write_text(format_interpretation(WITNESS_MODEL))
    return str(path)


@pytest.fixture()
def proof_file(tmp_path):
    path = tmp_path / "one_plus_one.prf"
    path.write_text(format_proof(build_all()["one_plus_one"]))
    return str(path)


def test_parse_echoes_canonical_text(capsys):
    assert main(["parse", "( x1 =   0 )"]) == 0
    assert capsys.readouterr().out == "(x1 = 0)\n"


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["arithlab", "parse", "( x1 = 0 )"])
    assert main() == 0
    assert capsys.readouterr().out == "(x1 = 0)\n"


def test_parse_deep_sum_exits_zero(capsys):
    depth = 10**4
    text = "(x1 + " * depth + "0" + ")" * depth
    assert main(["parse", text]) == 0
    assert capsys.readouterr().out.strip() == text


def test_parse_error_exit_code(capsys):
    assert main(["parse", "x1 ="]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_encode_decode_round_trip(capsys):
    assert main(["encode", "0"]) == 0
    code = capsys.readouterr().out.strip()
    assert int(code) == 2**15
    assert main(["decode", code]) == 0
    assert capsys.readouterr().out == "0\n"


def test_encode_pairing_flag(capsys):
    assert main(["encode", "--seq", "pair", "(0 = 0)"]) == 0
    code = int(capsys.readouterr().out)
    assert code == encode_expr(parse_formula("(0 = 0)"), MEND_PAIR)


def test_encode_guard_exit_code(capsys):
    assert main(["encode", "num(1000000)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_num_neg_sub_pipeline(capsys):
    # build code((0 = 0)), negate it, then compare against encode
    assert main(["encode", "--seq", "pair", "(x1 = 0)"]) == 0
    b = capsys.readouterr().out.strip()
    assert main(["num", "--seq", "pair", "4"]) == 0
    t = capsys.readouterr().out.strip()
    assert main(["encode", "--seq", "pair", "x1"]) == 0
    # variable symbol code is what sub wants, not the expression code
    capsys.readouterr()
    assert main(["sub", "--seq", "pair", b, t, "21"]) == 0
    got = int(capsys.readouterr().out)
    assert got == encode_expr(parse_formula("(num(4) = 0)"), MEND_PAIR)


def test_neg_matches_encode(capsys):
    assert main(["encode", "--seq", "pair", "(0 = 0)"]) == 0
    code = capsys.readouterr().out.strip()
    assert main(["neg", "--seq", "pair", code]) == 0
    got = int(capsys.readouterr().out)
    assert got == encode_expr(parse_formula("~(0 = 0)"), MEND_PAIR)


def test_check_proof_accepts_corpus(proof_file, capsys):
    assert main(["check-proof", proof_file]) == 0
    out = capsys.readouterr().out
    assert "accepted" in out


def test_check_proof_rejects_mutation(tmp_path, capsys):
    text = format_proof(build_all()["zero_plus_zero"])
    bad = text.replace("((0 + 0) = 0)", "((0 + 0) = S(0))")
    path = tmp_path / "bad.prf"
    path.write_text(bad)
    assert main(["check-proof", str(path)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_pf_yes_no(proof_file, capsys):
    assert main(["encode-proof", "--seq", "pair", proof_file]) == 0
    u = capsys.readouterr().out.strip()
    assert main(["encode", "--seq", "pair", "((S(0) + S(0)) = S(S(0)))"]) == 0
    x = capsys.readouterr().out.strip()
    assert main(["pf", "--seq", "pair", u, x]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["pf", "--seq", "pair", u, "15"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_diag_prints_identity(capsys):
    assert main(["diag", "--scheme", "compact", "--seq", "pair",
                 "(x1 = x2)"]) == 0
    out = capsys.readouterr().out
    assert "sentence-code" in out


def test_diag_prints_r_and_the_sentence_code_symbolically_under_prime(capsys):
    # the numeral for p is too large for the prime encoding, so r and the
    # sentence code are printed as the meta_sub expressions that define them
    q = int("39581690368875757684283717266982907558020496645953"
            "50985136031137792000000000000000000000")
    p = int("27548897097268712155517709319767232485150215481046"
            "79401166027022553109907448284975366915336122696925"
            "18985190564983363657972231120918882733182709452351"
            "57734063061064770417567852238631178303538237065729"
            "0263340553918360666713312192187900390625000")
    assert main(["diag", "(x1 = x2)", "--scheme", "mendelson", "--seq", "prime"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"q {q}",
        f"p {p}",
        f"r meta_sub({q}, meta_num({p}), 29)",  # 29 is the code of x2
        f"sentence-code meta_sub({p}, meta_num({p}), 29)",
        f"sentence forall x1 . (x1 = num({p}))",
    ]


def test_diag_refuses_variable_index_zero(capsys):
    assert main(["diag", "(x1 = x2)", "--var", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: variable index must be >= 1, got 0\n"


def test_represent_check_verdict_exit(capsys):
    assert main(["represent", "addition", "--check", "2,2"]) == 0
    assert "confirmed" in capsys.readouterr().out
    assert main(["represent", "multiplication", "--check", "3,3",
                 "--bound", "3"]) == 1
    assert "unknown" in capsys.readouterr().out


def test_represent_prints_formula(capsys):
    assert main(["represent", "addition"]) == 0
    out = capsys.readouterr().out
    assert "forall" in out or "~" in out


def test_eval_modes(witness_file, capsys):
    instance = "(forall x2 . (x2 = 0) -> ((x1 + x1) = 0))"
    assert main(["eval", witness_file, instance]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["eval", witness_file, instance, "--mode", "param"]) == 1
    assert capsys.readouterr().out == "false\n"


DEEPLY_NESTED = "error: input is nested too deeply for this command\n"


@pytest.mark.parametrize("prefix", ["forall x1 . "])
def test_eval_too_deep_exits_two(witness_file, capsys, prefix):
    # every value of x1 but the last is a nested call, so this depth
    # passes Python's limit
    assert main(["eval", witness_file, prefix * 3000 + "(x1 = 0)"]) == 2
    assert capsys.readouterr() == ("", DEEPLY_NESTED)


def test_eval_answers_on_deep_negation(witness_file, capsys):
    # negations are followed without a call, so depth costs no stack
    assert main(["eval", witness_file, "~" * 3000 + "(x1 = 0)"]) == 1
    assert capsys.readouterr() == ("false\n", "")


def test_represent_too_deep_exits_two(capsys):
    text = "(comp succ " * 1200 + "succ" + ")" * 1200
    assert main(["represent", text]) == 2
    assert capsys.readouterr() == ("", DEEPLY_NESTED)


def test_image(witness_file, capsys):
    assert main(["image", witness_file]) == 0
    assert capsys.readouterr().out == "0\n"


def test_restrict_refusal(witness_file, capsys):
    assert main(["restrict", witness_file]) == 1
    err = capsys.readouterr().err
    assert "not restrictable" in err


def test_restrict_success(tmp_path, capsys):
    path = tmp_path / "clock.model"
    path.write_text("size 2\nzero 0\nsucc 1 0\nadd 0 1 / 1 0\n"
                    "mul 0 0 / 0 1\neq identity\n")
    assert main(["restrict", str(path)]) == 0
    assert "size 2" in capsys.readouterr().out


def test_chain_divergent_under_param(witness_file, capsys):
    assert main(["chain", witness_file, "2", "(x2 = 0)",
                 "--mode", "param"]) == 0
    out = capsys.readouterr().out
    assert "chain: consistent" in out


def test_chain_lists_instances_then_the_universal_claim(witness_file, capsys):
    # the numerals all denote 0, but forall x2 also sees the element 1
    assert main(["chain", witness_file, "2", "(x2 = 0)"]) == 1
    assert capsys.readouterr().out == (
        "instance 0: true\ninstance 1: true\nuniversal: false\n"
        "chain: divergent\n")


def test_chain_refuses_variable_index_zero(witness_file, capsys):
    assert main(["chain", witness_file, "0", "(x2 = 0)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: variable index must be >= 1, got 0\n"


def test_main_restores_the_digit_limit(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string digit limit")
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter default
    try:
        assert main(["num", "3"]) == 0
        assert main(["decode", "junk"]) == 2
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(outer)


def test_metacheck_exit_codes(capsys):
    assert main(["metacheck", "--size", "1", "--families", "A1"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
    assert main(["metacheck", "--size", "2", "--families", "A4",
                 "--mode", "param"]) == 1
    assert "violation" in capsys.readouterr().out
    assert main(["metacheck", "--families", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["metacheck", "--families", "A1,nonsense"], "unknown family 'nonsense'"),
    (["metacheck", "--budget", "0"], "budget must be 'full' or a positive integer"),
])
def test_metacheck_reports_a_library_error_on_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["num", "--", "-1"], "n must be nonnegative"),
    (["metacheck", "--size", "1", "--budget", "x"],
     "--budget takes an integer or 'full', got 'x'"),
])
def test_argument_errors_are_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["metacheck", "--size", "0"],
    ["metacheck", "--size", "-2"],
    ["metacheck", "--families", ",,"],
    ["represent", "addition", "--check", "2,2", "--bound", "-1"],
    ["represent", "addition", "--check", ",2"],
    ["represent", "addition", "--check", "1"],
    ["represent", "addition", "--check=-1,2"],
])
def test_usage_errors_exit_two(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["represent", "addition", "--check", "-1,2"],
    ["represent", "--check", "-1,2", "addition"],
    ["represent", "addition", "--check=-1,2"],
])
def test_a_negative_check_list_reaches_the_handler(capsys, argv):
    # argparse alone would read "-1,2" as an option and print its usage
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: --check values must be nonnegative, got '-1,2'\n")


@pytest.mark.parametrize("size", ["3", "1000000"])
def test_metacheck_refuses_an_unbounded_full_sweep(size):
    # a subprocess, so that a sweep which does not stop fails the test
    result = subprocess.run(
        [sys.executable, "-m", "arithlab.cli", "metacheck", "--size", size],
        capture_output=True, text=True, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "31381061658 interpretations" in result.stderr


def test_metacheck_cut_report_names_the_size_reached(capsys):
    assert main(["metacheck", "--size", "3", "--budget", "100"]) == 0
    assert capsys.readouterr().out.startswith(
        "metacheck mode=standard sizes<=2 families=A1,A2,A3,A4,A5 eq=identity:"
        " 100 interpretations examined (budget hit, enumeration cut short)")


def test_corpus_writes_files(tmp_path, capsys):
    assert main(["corpus", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "wrote 9 proofs" in out
    assert (tmp_path / "out" / "zero_plus_zero.prf").exists()
    assert (tmp_path / "out" / "one_plus_one.prf").exists()


def test_missing_file_exit_code(capsys):
    assert main(["check-proof", "/nonexistent/path.prf"]) == 2
    assert "error:" in capsys.readouterr().err


# every command that reads a file, with its other arguments
FILE_COMMANDS = [
    ("check-proof", []),
    ("encode-proof", ["--seq", "pair"]),
    ("eval", ["(0 = 0)"]),
    ("image", []),
    ("restrict", []),
    ("chain", ["1", "(x1 = 0)"]),
]


@pytest.mark.parametrize("command, rest", FILE_COMMANDS,
                         ids=[command for command, _ in FILE_COMMANDS])
def test_a_nul_in_a_file_name_is_an_error_line(capsys, command, rest):
    assert main([command, "\x00", *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot read '\\x00': embedded null byte\n"


def test_a_nul_in_the_corpus_directory_is_an_error_line(capsys):
    assert main(["corpus", "\x00"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write to '\\x00': embedded null byte\n"


def test_a_file_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes(b"size 1\nzero \xff\n")
    assert main(["image", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec")
    assert err.count("\n") == 1


def test_represent_check_ends_on_an_exhausted_beta_search():
    # a subprocess, so that a search which does not end fails the test
    result = subprocess.run(
        [sys.executable, "-m", "arithlab.cli", "represent", "predecessor",
         "--check", "40"],
        capture_output=True, text=True, timeout=20)
    assert result.returncode == 1
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1].startswith(
        "unknown: certificate evaluation failed: witness rule for x5 failed:"
        " no beta coefficients under 1000000 code [0, 0, 1, 2, 3,")


def test_bad_integer_argument(capsys):
    assert main(["decode", "notanumber"]) == 2
    assert "error:" in capsys.readouterr().err


def test_entry_point_runs_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "arithlab.cli", "encode", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == str(2**15)


def _fresh_main(argv, roots=("arithlab",)):
    """cli.main(argv) in a fresh interpreter: its exit code, its stdout
    and the modules under the given top-level names loaded by the end."""
    script = ("import sys; from arithlab import cli; code = cli.main(); "
              "print(code, *sorted(m for m in sys.modules "
              f"if m.partition('.')[0] in {roots!r}))")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=60)
    assert result.stderr == ""
    *out, last = result.stdout.splitlines()
    code, *loaded = last.split()
    return int(code), out, set(loaded)


FRONT = {"arithlab", "arithlab.cli", "arithlab.syntax"}


def test_parse_loads_only_cli_and_syntax():
    assert _fresh_main(["parse", "( x1 = 0 )"]) == (0, ["(x1 = 0)"], FRONT)


def test_parse_loads_neither_dataclasses_nor_inspect():
    roots = ("arithlab", "dataclasses", "inspect")
    assert _fresh_main(["parse", "( x1 = 0 )"], roots) == (0, ["(x1 = 0)"], FRONT)


# one command per module a handler imports, with the modules it loads
HANDLER_CALLS = [
    (["check-proof", "PROOF"], {"proofs"}),
    (["num", "3", "--seq", "pair"], {"godel", "proofs"}),
    (["diag", "(x1 = x2)"], {"diagonal", "godel", "proofs"}),
    (["represent", "addition", "--check", "1,2"], {"primrec"}),
    (["image", "MODEL"], {"models"}),
    (["corpus", "OUT"], {"corpus", "proofs"}),
]


@pytest.mark.parametrize("argv, uses", HANDLER_CALLS,
                         ids=[argv[0] for argv, _ in HANDLER_CALLS])
def test_each_handler_imports_its_modules_on_dispatch(
        argv, uses, proof_file, witness_file, tmp_path):
    files = {"PROOF": proof_file, "MODEL": witness_file, "OUT": str(tmp_path / "out")}
    code, out, loaded = _fresh_main([files.get(arg, arg) for arg in argv])
    assert code == 0 and out
    assert loaded == FRONT | {f"arithlab.{name}" for name in uses}


def test_every_arithlab_module_is_loaded_by_one_of_those_calls():
    modules = {info.name for info in pkgutil.iter_modules(arithlab.__path__)}
    used = set().union(*(uses for _, uses in HANDLER_CALLS))
    assert used == modules - {"cli", "syntax"}


def _defined_exceptions():
    found = []
    for info in pkgutil.iter_modules(arithlab.__path__):
        module = importlib.import_module(f"arithlab.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__]
    return found


DEFINED_EXCEPTIONS = _defined_exceptions()


def test_every_arithlab_exception_derives_from_the_root():
    assert {ArithlabError, Refusal, CaptureError, RestrictError, NotTextError} \
        <= set(DEFINED_EXCEPTIONS)
    for cls in DEFINED_EXCEPTIONS:
        assert issubclass(cls, ArithlabError), cls


_ERROR_ARGS = {ParseError: ("bad input", 3), CaptureError: (2, 1)}


@pytest.mark.parametrize("cls", DEFINED_EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_main_reports_each_arithlab_error_on_one_line(cls, monkeypatch, capsys):
    def raising(args):
        raise cls(*_ERROR_ARGS.get(cls, ("bad input",)))

    _, help_text, specs = COMMANDS["parse"]
    monkeypatch.setitem(COMMANDS, "parse", (raising, help_text, specs))
    refused = issubclass(cls, Refusal)
    assert main(["parse", "0"]) == (1 if refused else 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: " if refused else "error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_call_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["parse", "(x1 = 0)"]) == 0
    assert capsys.readouterr().out == "(x1 = 0)\n"
    assert built == ["arithlab", "arithlab parse"]


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as stop:
        main(["-h"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_text, _) in COMMANDS.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(help_text)}$", out, re.M)


def test_top_level_error_prints_the_full_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["parse", "(x1 = 0)", "extra"])
    assert stop.value.code == 2
    usage = build_parser().format_usage()
    assert all(name in usage for name in COMMANDS)
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith("error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("argv", [["-x"], ["-x", "--foo"]])
def test_unknown_option_without_a_command_is_named(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv)}\n")


@pytest.mark.parametrize("argv", [[], ["--"]])
def test_missing_command_is_still_reported(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")


def _readme_cli_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    for row in re.findall(r"^\| (`.*?) \| (.*) \|$", table, re.M):
        names = re.findall(r"`([a-z-]+)[^`]*`", row[0])
        flags = set(re.findall(r"`(--[a-z]+)", row[1]))
        yield names, flags


def test_readme_cli_table_names_every_command_with_its_options():
    rows = list(_readme_cli_rows())
    assert [name for names, _ in rows for name in names] == list(COMMANDS)
    for names, flags in rows:
        for name in names:
            options = {flag for flag, _ in COMMANDS[name][2] if flag.startswith("--")}
            assert flags == options, name
