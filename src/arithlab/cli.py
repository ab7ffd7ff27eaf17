"""Command-line front end.

One subcommand per workbench operation, with minimal deterministic
output so results can be scripted against.  Exit codes follow one
contract everywhere: 0 success / accepted / true, 1 rejected / false /
violations found / operation refused, 2 malformed input or usage.  Every
named error derives from `syntax.ArithlabError`: a `syntax.Refusal`
(capture, restriction) exits 1, any other one or an unreadable file exits
2, each with one stderr line and no traceback.

The subcommands are data: `COMMANDS` maps each name to its handler, help
text and argument specs.  A call builds the top-level parser and only the
subparser its first argument names; help, no arguments and an unknown
command build them all.  No parser outlives its call: a process answers one
query, so a kept parser would save nothing there, and in-process callers
would share it as state.  Likewise this module imports only `syntax`, and
each handler imports the modules it uses when it runs, so a command loads
only what it needs.
"""

from __future__ import annotations

import argparse
import sys

from .syntax import ArithlabError, Refusal, parse, parse_formula, to_text

_SEQ_NAMES = {"prime": "prime", "pair": "pairing"}
_MODE_NAMES = {"standard": "standard", "param": "parameterized"}


def _config(args):
    from .godel import NumberingConfig
    return NumberingConfig(scheme=args.scheme, seq=_SEQ_NAMES[args.seq])


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except ValueError as e:  # a NUL in the name, or bytes that are not UTF-8
        raise _ArgError(f"cannot read {path!r}: {e}") from None


def _model_file(args):  # the models module, and the interpretation in args.model
    from . import models
    return models, models.parse_interpretation(_read_file(args.model))


class _ArgError(ArithlabError):
    """Bad command line value, reported like any other error."""


def _int_arg(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _ArgError(f"{what} must be an integer, got {text!r}") from None
    if value < 0:
        raise _ArgError(f"{what} must be nonnegative")
    return value


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_parse(args) -> int:
    print(to_text(parse(args.text)))
    return 0


def cmd_check_proof(args) -> int:
    from .proofs import check_proof, parse_proof
    proof = parse_proof(_read_file(args.file))
    result = check_proof(proof)
    print(result)
    return 0 if result.accepted else 1


def cmd_encode(args) -> int:
    from .godel import encode_expr
    print(encode_expr(parse(args.text), _config(args)))
    return 0


def cmd_decode(args) -> int:
    from .godel import decode_expr
    code = _int_arg(args.code, "code")
    print(to_text(decode_expr(code, _config(args))))
    return 0


def cmd_num(args) -> int:
    from .godel import meta_num
    n = _int_arg(args.n, "n")
    print(meta_num(n, _config(args)))
    return 0


def cmd_neg(args) -> int:
    from .godel import meta_neg
    code = _int_arg(args.code, "code")
    print(meta_neg(code, _config(args)))
    return 0


def cmd_sub(args) -> int:
    from .godel import meta_sub
    expr = _int_arg(args.expr_code, "expression code")
    term = _int_arg(args.term_code, "term code")
    var = _int_arg(args.var_code, "variable code")
    print(meta_sub(expr, term, var, _config(args)))
    return 0


def cmd_pf(args) -> int:
    from .godel import meta_pf
    u = _int_arg(args.proof_code, "proof code")
    x = _int_arg(args.conclusion_code, "conclusion code")
    if meta_pf(u, x, _config(args)):
        print("yes")
        return 0
    print("no")
    return 1


def cmd_encode_proof(args) -> int:
    from .godel import encode_proof
    from .proofs import parse_proof
    proof = parse_proof(_read_file(args.file))
    print(encode_proof(proof, _config(args)))
    return 0


def cmd_diag(args) -> int:
    from . import diagonal
    formula = parse_formula(args.formula)
    result = diagonal.diagonalize(formula, args.var, _config(args))
    print(f"q {result.q}")
    print(f"p {result.p}")
    if result.r is not None:
        print(f"r {result.r}")
        print(f"sentence-code {result.sentence_code}")
    else:
        print(f"r {result.r_expression}")
        print(f"sentence-code {result.sentence_code_expression}")
    print(f"sentence {to_text(result.sentence)}")
    return 0


def cmd_represent(args) -> int:
    from . import primrec
    if args.bound < 0:
        raise _ArgError(f"--bound must be nonnegative, got {args.bound}")
    func = primrec.parse_pr(args.function)
    if args.check is not None:
        try:
            arg_values = tuple(int(tok) for tok in args.check.split(","))
        except ValueError:
            raise _ArgError(f"--check takes comma-separated integers, got {args.check!r}")
        if len(arg_values) != func.arity:
            raise _ArgError(f"--check needs {func.arity} value(s), got {len(arg_values)}")
        if any(a < 0 for a in arg_values):
            raise _ArgError(f"--check values must be nonnegative, got {args.check!r}")
    rep = primrec.represent(func)
    print(f"arity {func.arity}")
    print(
        "inputs "
        + " ".join(f"x{i}" for i in rep.inputs)
        + f"  output x{rep.output}"
    )
    print(to_text(rep.formula))
    if args.check is None:
        return 0
    verdict = primrec.check_representation(func, arg_values, args.bound)
    print(verdict)
    return 0 if verdict.verdict == "confirmed" else 1


def cmd_eval(args) -> int:
    models, m = _model_file(args)
    formula = parse_formula(args.formula)
    if models.is_true(m, formula, _MODE_NAMES[args.mode]):
        print("true")
        return 0
    print("false")
    return 1


def cmd_image(args) -> int:
    models, m = _model_file(args)
    print(" ".join(str(v) for v in models.numeral_image(m)))
    return 0


def cmd_restrict(args) -> int:
    models, m = _model_file(args)
    try:
        print(models.format_interpretation(models.restrict(m)), end="")
    except models.RestrictError as e:
        print(f"not restrictable: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_chain(args) -> int:
    models, m = _model_file(args)
    formula = parse_formula(args.formula)
    universal, instances = models.numeral_chain(
        m, args.var, formula, _MODE_NAMES[args.mode]
    )
    for k, inst in enumerate(instances):
        print(f"instance {k}: {'true' if inst else 'false'}")
    print(f"universal: {'true' if universal else 'false'}")
    agree = universal == all(instances)
    print("chain: " + ("consistent" if agree else "divergent"))
    return 0 if agree else 1


def cmd_metacheck(args) -> int:
    from . import models
    if args.size < 1:
        raise _ArgError(f"--size must be at least 1, got {args.size}")
    budget: int | str
    if args.budget == "full":
        budget = "full"
    else:
        try:
            budget = int(args.budget)
        except ValueError:
            raise _ArgError(f"--budget takes an integer or 'full', got {args.budget!r}")
    families = tuple(tok for tok in args.families.split(",") if tok)
    if not families:
        raise _ArgError(f"--families names no family, got {args.families!r}")
    report = models.metacheck(
        args.size, families, _MODE_NAMES[args.mode], budget, args.eq
    )
    print(report)
    return 1 if report.violations else 0


def cmd_corpus(args) -> int:
    from .corpus import write_corpus
    names = write_corpus(args.directory)
    print(f"wrote {len(names)} proofs to {args.directory}")
    return 0


_CODING_FLAGS = (
    ("--scheme", dict(choices=("mendelson", "compact"), default="mendelson",
                      help="symbol numbering scheme")),
    ("--seq", dict(choices=("prime", "pair"), default="prime",
                   help="sequence encoding (prime powers or the pairing bit stream)")),
)
_MODE_FLAG = ("--mode", dict(choices=("standard", "param"), default="standard"))

# name -> (handler, help text, argument specs in the order argparse adds them)
COMMANDS = {
    "parse": (cmd_parse, "parse and echo canonical text", (("text", {}),)),
    "check-proof": (cmd_check_proof, "run the proof checker on a file",
                    (("file", {}),)),
    "encode": (cmd_encode, "code of an expression", (("text", {}), *_CODING_FLAGS)),
    "decode": (cmd_decode, "expression of a code", (("code", {}), *_CODING_FLAGS)),
    "num": (cmd_num, "code of the numeral for n", (("n", {}), *_CODING_FLAGS)),
    "neg": (cmd_neg, "code of the negation of a coded formula",
            (("code", {}), *_CODING_FLAGS)),
    "sub": (cmd_sub, "code-level substitution of a coded term for a variable",
            (("expr_code", {}), ("term_code", {}), ("var_code", {}),
             *_CODING_FLAGS)),
    "pf": (cmd_pf, "does the first code prove the second? (total check)",
           (("proof_code", {}), ("conclusion_code", {}), *_CODING_FLAGS)),
    "encode-proof": (cmd_encode_proof, "code of a proof file",
                     (("file", {}), *_CODING_FLAGS)),
    "diag": (cmd_diag, "diagonalise a formula against its own closure code", (
        ("formula", {}),
        ("--var", dict(type=int, default=2, help="diagonal slot variable")),
        *_CODING_FLAGS,
    )),
    "represent": (cmd_represent, "representing formula of a PR function", (
        ("function", dict(help="s-expression or catalog name")),
        ("--check", dict(help="comma-separated arguments to probe numerically")),
        ("--bound", dict(type=int, default=100, help="rival search bound")),
    )),
    "eval": (cmd_eval, "truth of a formula in a finite model", (
        ("model", dict(help="interpretation file")), ("formula", {}), _MODE_FLAG,
    )),
    "image": (cmd_image, "numeral image of a finite model", (("model", {}),)),
    "restrict": (cmd_restrict, "substructure of a model on its numeral image",
                 (("model", {}),)),
    "chain": (cmd_chain, "universal truth against numeral instances in a model", (
        ("model", {}), ("var", dict(type=int)), ("formula", {}), _MODE_FLAG,
    )),
    "metacheck": (cmd_metacheck,
                  "hunt for violations of pinned laws over small interpretations", (
        ("--size", dict(type=int, default=2, help="largest domain size")),
        ("--families", dict(default="A1,A2,A3,A4,A5",
                            help="comma-separated family names")),
        _MODE_FLAG,
        ("--budget", dict(default="full")),
        ("--eq", dict(choices=("identity", "congruent"), default="identity")),
    )),
    "corpus": (cmd_corpus, "write the bundled proof corpus", (("directory", {}),)),
}


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of `names`, in that order."""
    parser = argparse.ArgumentParser(
        prog="arithlab",
        description="workbench for first-order arithmetic: syntax, proofs, "
        "codes, representability, diagonalisation and finite models",
    )
    # A top-level error prints a usage line that lists the subparsers built,
    # so a partial build names every command itself.  The full build keeps
    # argparse's own spelling: a metavar would also rename the argument in
    # "argument command: invalid choice".  The command is not required here:
    # argparse would report it missing before naming an unknown option, so
    # main checks for it after the unknown options.
    every = len(names) == len(COMMANDS)
    commands = parser.add_subparsers(
        dest="command",
        metavar=None if every else "{" + ",".join(COMMANDS) + "}",
    )
    for name in names:
        func, help_text, specs = COMMANDS[name]
        sub = commands.add_parser(name, help=help_text)
        for flag, options in specs:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=func)
    return parser


def _glue_dashed_values(argv) -> list:
    """argv, a command first, with each value that starts with '-' and a
    digit glued to the option before it as --option=value.  argparse takes
    such a value for an option unless it is one number ("--check -1,2"),
    and glued it reaches the handler's own check."""
    options = {flag for flag, _ in COMMANDS[argv[0]][2] if flag.startswith("--")}
    out = [argv[0]]
    for i, token in enumerate(argv[1:], 1):
        if token == "--":  # what follows is positional
            return out + list(argv[i:])
        if out[-1] in options and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:  # the command name is read before argparse runs
        argv = sys.argv[1:]
    names = tuple(COMMANDS)
    if argv and argv[0] in COMMANDS:
        names, argv = argv[:1], _glue_dashed_values(argv)
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(2_000_000_000)  # codes outgrow the default cap
    try:
        parser = build_parser(names)
        args, extras = parser.parse_known_args(argv)
        if args.command is None and set(extras) <= {"--"}:  # '--' is no option
            parser.error("the following arguments are required: command")
        if extras:  # parse_args's own message, now also when no command follows
            parser.error("unrecognized arguments: " + " ".join(extras))
        return args.func(args)
    except Refusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except (ArithlabError, OSError) as e:
        return _fail(str(e))
    except RecursionError:  # tarski's antecedents, terms and primrec recurse
        return _fail("input is nested too deeply for this command")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
