"""Proof kernel: axiom matchers, line checking, corpus, mutations."""

import os
import random
import time

import pytest

from arithlab.corpus import CorpusPathError, build_all, write_corpus
from arithlab.proofs import (
    ALL_AXIOM_TAGS,
    Axiom,
    CheckResult,
    Generalization,
    ModusPonens,
    Proof,
    ProofArgumentError,
    ProofBuilder,
    ProofFormatError,
    ProofLine,
    check_axiom,
    check_line,
    check_proof,
    find_instantiation,
    format_proof,
    is_any_axiom,
    parse_justification,
    parse_proof,
    schema_instance,
)
from arithlab.syntax import (
    Add,
    ArithlabError,
    CaptureError,
    Eq,
    ForAll,
    Implies,
    Not,
    Succ,
    Var,
    Zero,
    free_vars,
    parse_formula,
    parse_term,
    substitute,
    to_text,
)

from conftest import (
    deep_instance_proof,
    mutate_proof_line,
    rand_formula,
    rand_mutated_proof,
    rand_term,
)


@pytest.fixture(scope="module")
def corpus():
    return build_all()


# ---------------------------------------------------------------- axioms

def test_logical_schema_instances():
    assert check_axiom(parse_formula("((0 = 0) -> ((x1 = 0) -> (0 = 0)))"),
                       "A1")
    assert not check_axiom(parse_formula("((0 = 0) -> ((x1 = 0) -> (x1 = 0)))"),
                           "A1")
    a2 = ("(((0 = 0) -> ((x1 = 0) -> (x2 = 0))) -> "
          "(((0 = 0) -> (x1 = 0)) -> ((0 = 0) -> (x2 = 0))))")
    assert check_axiom(parse_formula(a2), "A2")
    a3 = ("((~(x1 = 0) -> ~(0 = 0)) -> "
          "((~(x1 = 0) -> (0 = 0)) -> (x1 = 0)))")
    assert check_axiom(parse_formula(a3), "A3")


def test_a4_instances():
    assert check_axiom(
        parse_formula("(forall x1 . ((x1 + 0) = x1) -> ((0 + 0) = 0))"), "A4")
    assert check_axiom(
        parse_formula("(forall x1 . (x1 = x1) -> (S(x2) = S(x2)))"), "A4")
    # t must be substitutable: x2 below would be captured
    assert not check_axiom(
        parse_formula(
            "(forall x1 . forall x2 . (x1 = x2) -> forall x2 . (S(x2) = x2))"),
        "A4")
    # consequent must be body[x := t] for a single t
    assert not check_axiom(
        parse_formula("(forall x1 . ((x1 + 0) = x1) -> ((0 + 0) = S(0)))"),
        "A4")


def test_a5_instances():
    assert check_axiom(
        parse_formula(
            "(forall x1 . ((0 = 0) -> (x1 = x1)) -> "
            "((0 = 0) -> forall x1 . (x1 = x1)))"), "A5")
    # antecedent of the inner implication must not contain x1 free
    assert not check_axiom(
        parse_formula(
            "(forall x1 . ((x1 = 0) -> (x1 = x1)) -> "
            "((x1 = 0) -> forall x1 . (x1 = x1)))"), "A5")


def test_proper_axioms_are_fixed_formulas():
    assert check_axiom(parse_formula("((x1 + 0) = x1)"), "S5")
    # instances at other terms are not themselves the axiom
    assert not check_axiom(parse_formula("((S(0) + 0) = S(0))"), "S5")
    assert check_axiom(parse_formula("((x1 + S(x2)) = S((x1 + x2)))"), "S6")
    assert check_axiom(parse_formula("~(0 = S(x1))"), "S3")


def test_induction_schema():
    ind = ("(((0 + 0) = 0) -> "
           "(forall x2 . (((x2 + 0) = x2) -> ((S(x2) + 0) = S(x2))) -> "
           "forall x2 . ((x2 + 0) = x2)))")
    assert check_axiom(parse_formula(ind), "IND")
    assert is_any_axiom(parse_formula(ind))
    assert not is_any_axiom(parse_formula("(0 = 0)"))


def test_find_instantiation():
    body = parse_formula("((x1 + 0) = x1)")
    assert find_instantiation(body, 1, parse_formula("((S(0) + 0) = S(0))")) \
        == parse_term("S(0)")
    assert find_instantiation(body, 1, parse_formula("((S(0) + 0) = 0)")) \
        is None
    # identity instantiation maps the variable to itself
    assert find_instantiation(body, 1, body) == parse_term("x1")


def test_deep_instance_is_accepted():
    # S5, GEN, A4 at S^400(x2), MP: the kernel must not hit a depth limit
    result = check_proof(deep_instance_proof(400))
    assert result.accepted, result


def test_a4_check_on_a_10k_deep_left_spine_is_linear():
    body = Eq(Var(1), Var(1))
    for _ in range(10**4):
        body = Implies(body, Eq(Var(2), Var(3)))
    instance = substitute(body, 1, Succ(Zero()))
    start = time.perf_counter()
    assert check_axiom(Implies(ForAll(1, body), instance), "A4")
    assert not check_axiom(Implies(ForAll(2, body), instance), "A4")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"two A4 checks took {elapsed:.1f} s"


FIXED_AXIOMS = {
    "S1": "((x1 = x2) -> ((x1 = x3) -> (x2 = x3)))",
    "S2": "((x1 = x2) -> (S(x1) = S(x2)))",
    "S3": "~(0 = S(x1))",
    "S4": "((S(x1) = S(x2)) -> (x1 = x2))",
    "S5": "((x1 + 0) = x1)",
    "S6": "((x1 + S(x2)) = S((x1 + x2)))",
    "S7": "((x1 * 0) = 0)",
    "S8": "((x1 * S(x2)) = ((x1 * x2) + x1))",
}


def seeded_instances(rng):
    """(tag, formula) pairs: every schema filled with seeded random parts,
    each shape spelled here independently of the kernel, plus the eight
    fixed axioms with 0 written num(0) where it occurs."""
    out = []
    for _ in range(60):
        b, c, d, body = (rand_formula(rng, 2) for _ in range(4))
        out.append(("A1", Implies(b, Implies(c, b))))
        out.append(("A2", Implies(Implies(b, Implies(c, d)),
                                  Implies(Implies(b, c), Implies(b, d)))))
        out.append(("A3", Implies(Implies(Not(c), Not(b)),
                                  Implies(Implies(Not(c), b), c))))
        x = rng.randint(1, 4)  # rand_formula never uses x4
        try:
            out.append(("A4", Implies(ForAll(x, body),
                                      substitute(body, x, rand_term(rng, 2)))))
        except CaptureError:
            pass
        if x not in free_vars(b):
            out.append(("A5", Implies(ForAll(x, Implies(b, c)),
                                      Implies(b, ForAll(x, c)))))
        base = substitute(body, x, Zero())
        step = Implies(body, substitute(body, x, Succ(Var(x))))
        out.append(("IND", Implies(base, Implies(ForAll(x, step),
                                                 ForAll(x, body)))))
    for tag, text in FIXED_AXIOMS.items():
        out.append((tag, parse_formula(text)))
        out.append((tag, parse_formula(text.replace("0", "num(0)"))))
    return out


def test_seeded_schema_instances_are_accepted_under_their_tag():
    instances = seeded_instances(random.Random(5150))
    assert {tag for tag, _ in instances} == set(ALL_AXIOM_TAGS)
    for tag, f in instances:
        assert check_axiom(f, tag), (tag, to_text(f))


def test_negated_or_weakened_instances_are_no_axiom():
    false_eq = Eq(Zero(), Succ(Zero()))
    for tag, f in seeded_instances(random.Random(5150)):
        assert not is_any_axiom(Not(f)), (tag, to_text(f))
        assert not is_any_axiom(Implies(f, false_eq)), (tag, to_text(f))


# Each is one slot or one index away from an instance of its tag.
NEAR_MISSES = [
    # A2 with each of its four repeated slots changed in turn
    ("A2", "(((0 = 0) -> ((x1 = 0) -> (x2 = 0))) -> "
           "(((x3 = 0) -> (x1 = 0)) -> ((0 = 0) -> (x2 = 0))))"),
    ("A2", "(((0 = 0) -> ((x1 = 0) -> (x2 = 0))) -> "
           "(((0 = 0) -> (x3 = 0)) -> ((0 = 0) -> (x2 = 0))))"),
    ("A2", "(((0 = 0) -> ((x1 = 0) -> (x2 = 0))) -> "
           "(((0 = 0) -> (x1 = 0)) -> ((x3 = 0) -> (x2 = 0))))"),
    ("A2", "(((0 = 0) -> ((x1 = 0) -> (x2 = 0))) -> "
           "(((0 = 0) -> (x1 = 0)) -> ((0 = 0) -> (x3 = 0))))"),
    # A3 with each of its three repeated slots changed in turn
    ("A3", "((~(x1 = 0) -> ~(0 = 0)) -> ((~(x3 = 0) -> (0 = 0)) -> (x1 = 0)))"),
    ("A3", "((~(x1 = 0) -> ~(0 = 0)) -> ((~(x1 = 0) -> (x3 = 0)) -> (x1 = 0)))"),
    ("A3", "((~(x1 = 0) -> ~(0 = 0)) -> ((~(x1 = 0) -> (0 = 0)) -> (x3 = 0)))"),
    # A5 whose two binders differ
    ("A5", "(forall x1 . ((0 = 0) -> (x1 = x1)) -> "
           "((0 = 0) -> forall x2 . (x1 = x1)))"),
    # IND with a wrong base, a wrong step, and binders that differ
    ("IND", "(((0 + 0) = S(0)) -> "
            "(forall x2 . (((x2 + 0) = x2) -> ((S(x2) + 0) = S(x2))) -> "
            "forall x2 . ((x2 + 0) = x2)))"),
    ("IND", "(((0 + 0) = 0) -> "
            "(forall x2 . (((x2 + 0) = x2) -> ((S(x2) + 0) = x2)) -> "
            "forall x2 . ((x2 + 0) = x2)))"),
    ("IND", "(((0 + 0) = 0) -> "
            "(forall x1 . (((x2 + 0) = x2) -> ((S(x2) + 0) = S(x2))) -> "
            "forall x2 . ((x2 + 0) = x2)))"),
    # IND whose base and step put 0 and S(x1) under the binder of x1, as a
    # capturing substitution would: B[t/x1] leaves the bound x1 alone
    ("IND", "(forall x1 . (0 = x2) -> "
            "(forall x1 . (forall x1 . (x1 = x2) -> forall x1 . (S(x1) = x2)) -> "
            "forall x1 . forall x1 . (x1 = x2)))"),
]


@pytest.mark.parametrize("tag,text", NEAR_MISSES)
def test_near_misses_are_not_instances(tag, text):
    assert not check_axiom(parse_formula(text), tag)


def test_check_axiom_rejects_unknown_tag():
    with pytest.raises(ValueError):
        check_axiom(parse_formula("(0 = 0)"), "A9")
    assert "IND" in ALL_AXIOM_TAGS


def _mp_on_an_equation():
    b = ProofBuilder()
    n = b.add(parse_formula("((x1 + 0) = x1)"), Axiom("S5"))
    return b.mp(n, n)


_X1_IS_0 = parse_formula("(x1 = 0)")


@pytest.mark.parametrize("call", [
    lambda: Axiom("A9"),
    lambda: check_axiom(parse_formula("(0 = 0)"), "A9"),
    lambda: Proof(()).conclusion,
    _mp_on_an_equation,
    lambda: ProofBuilder().proper_instance("S1", [Zero()]),
    lambda: schema_instance("congruent"),
    lambda: schema_instance("A1", B=parse_formula("(0 = 0)")),
    lambda: schema_instance("A4", x="1", B=_X1_IS_0, T=_X1_IS_0),
    lambda: schema_instance("A4", x=True, B=_X1_IS_0, T=_X1_IS_0),
    lambda: schema_instance("A4", x=1.0, B=_X1_IS_0, T=_X1_IS_0),
    lambda: schema_instance("A1", B=Var(1), C=_X1_IS_0),
], ids=["axiom", "check_axiom", "conclusion", "mp", "proper_instance",
        "schema_instance_tag", "schema_instance_part", "schema_instance_str_index",
        "schema_instance_bool_index", "schema_instance_float_index",
        "schema_instance_term_part"])
def test_misuse_raises_a_named_value_error(call):
    with pytest.raises(ProofArgumentError) as caught:
        call()
    assert isinstance(caught.value, ArithlabError)
    assert isinstance(caught.value, ValueError)


def test_check_result_repr_holds_a_deep_theorem():
    t = Zero()
    for _ in range(3000):
        t = Add(t, Var(1))
    theorem = Eq(t, t)
    try:
        text = repr(CheckResult(True, theorem))
    except RecursionError:  # reported outside the handler, as in test_syntax
        text = "RecursionError"
    assert repr(theorem) in text


# ---------------------------------------------------------------- corpus

def test_corpus_all_accepted(corpus):
    assert len(corpus) >= 5
    for name, proof in sorted(corpus.items()):
        result = check_proof(proof)
        assert result.accepted, f"{name}: {result.reason}"
        assert result.theorem == proof.conclusion


def test_write_corpus_names_a_directory_no_file_can_have():
    with pytest.raises(CorpusPathError) as caught:
        write_corpus("\x00")
    assert isinstance(caught.value, ArithlabError)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == "cannot write to '\\x00': embedded null byte"


def test_corpus_contains_one_plus_one(corpus):
    concl = corpus["one_plus_one"].conclusion
    assert to_text(concl) == "((S(0) + S(0)) = S(S(0)))"


def test_corpus_prefixes_accepted(corpus):
    # every prefix of a valid proof is a valid proof
    for proof in corpus.values():
        for k in range(1, len(proof.lines) + 1):
            prefix = Proof(lines=proof.lines[:k])
            assert check_proof(prefix).accepted


def test_corpus_round_trips_through_text(corpus):
    for proof in corpus.values():
        again = parse_proof(format_proof(proof))
        assert again == proof


def test_shipped_corpus_files_match_builders(corpus):
    directory = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for name, proof in corpus.items():
        path = os.path.join(directory, f"{name}.prf")
        assert os.path.exists(path), f"missing {name}.prf"
        with open(path, encoding="utf-8") as handle:
            assert parse_proof(handle.read()) == proof


# ------------------------------------------------------------- mutations

# (proof, 1-based line, replacement, expected first bad line, reason bit)
MUTATIONS = [
    ("implication_identity", 1, "(0 = 0)",
     1, "not an instance of A1"),
    ("implication_identity", 1, "((0 = 0) -> ((S(0) = S(0)) -> (0 = 0)))",
     5, "MP mismatch"),  # still a valid A1 instance; MP at line 5 breaks
    ("implication_identity", 3, "((0 = 0) -> (0 = 0))",
     3, "not an instance of A2"),
    ("gen_plus_zero", 1, "((x1 + 0) = x2)",
     1, "not an instance of S5"),
    ("gen_plus_zero", 2, "forall x1 . ((x1 + 0) = x2)",
     2, "GEN mismatch"),
    ("zero_plus_zero", 3, "(forall x1 . ((x1 + 0) = x1) -> ((0 + 0) = S(0)))",
     3, "not an instance of A4"),
    ("zero_plus_zero", 4, "((0 + 0) = S(0))",
     4, "MP mismatch"),
    ("succ_not_zero", 1, "~(S(x1) = 0)",
     1, "not an instance of S3"),
    ("one_plus_one", 4,
     "(forall x1 . forall x2 . ((x1 + S(x2)) = S((x1 + x2))) -> "
     "forall x2 . ((0 + S(x2)) = S((0 + x2))))",
     5, "MP mismatch"),  # swapped in a different valid A4 instance
    ("one_plus_one", 49, "((S(0) + S(0)) = S(S(S(0))))",
     49, "MP mismatch"),
]


@pytest.mark.parametrize("name,lineno,text,bad_line,reason_bit", MUTATIONS)
def test_single_line_mutations_rejected(corpus, name, lineno, text,
                                        bad_line, reason_bit):
    mutated = mutate_proof_line(corpus[name], lineno, parse_formula(text))
    result = check_proof(mutated)
    assert not result.accepted
    assert result.line == bad_line
    assert reason_bit in result.reason


def test_random_mutations_never_accepted_silently(corpus):
    # a rejected check always names a line and a reason
    rng = random.Random(4242)
    for _ in range(60):
        proof = corpus[rng.choice(sorted(corpus))]
        result = check_proof(rand_mutated_proof(rng, proof))
        if not result.accepted:
            assert result.line is not None
            assert result.reason


# ------------------------------------------------------------ structure

def test_empty_proof_rejected():
    result = check_proof(Proof(lines=()))
    assert not result.accepted


def test_mp_citations_must_precede():
    lines = (
        ProofLine(1, parse_formula("(0 = 0)"), ModusPonens(2, 3)),
    )
    result = check_proof(Proof(lines=lines))
    assert not result.accepted
    assert result.line == 1


def test_gen_binds_named_variable(corpus):
    proof = corpus["gen_plus_zero"]
    concl = proof.conclusion
    assert isinstance(concl, ForAll) and concl.index == 1


def test_justification_parsing():
    assert parse_justification("A1") == Axiom("A1")
    assert parse_justification("MP 2 3") == ModusPonens(2, 3)
    assert parse_justification("GEN 4 x2") == Generalization(4, 2)
    with pytest.raises(ProofFormatError):
        parse_justification("FROB 1")
    with pytest.raises(ProofFormatError):
        parse_justification("MP 2")


def test_parse_proof_malformed_lines():
    with pytest.raises(ProofFormatError):
        parse_proof("1. (0 = 0) A1\n")  # missing ';'
    with pytest.raises(ProofFormatError):
        parse_proof("one. (0 = 0) ; A1\n")


def test_parse_proof_skips_blank_and_comment_lines():
    text = "# x1 + 0 is x1.\n\n1. ((x1 + 0) = x1) ; S5\n   \n# done.\n"
    assert parse_proof(text) == parse_proof("1. ((x1 + 0) = x1) ; S5")
    # a skipped line still counts when an error names its source line
    with pytest.raises(ProofFormatError, match="^source line 3: "):
        parse_proof("# one\n\n1. (0 = #) ; A1\n")


def test_check_line_names_an_unknown_justification():
    line = ProofLine(1, parse_formula("(0 = 0)"), "A1")
    assert check_line({}, line) == "unknown justification 'A1'"


def test_line_numbers_must_increase():
    text = "3. ((x1 + 0) = x1) ; S5\n2. ((x1 + 0) = x1) ; S5\n"
    result = check_proof(parse_proof(text))
    assert not result.accepted
    assert "increase" in result.reason


def test_proof_builder_helpers():
    b = ProofBuilder()
    n1 = b.add(parse_formula("((x1 + 0) = x1)"), Axiom("S5"))
    n2 = b.add(ForAll(1, b.formula(n1)), Generalization(n1, 1))
    proof = b.build()
    assert len(proof.lines) == 2
    assert check_proof(proof).accepted
    assert n2 == 2
    # adding an already-derived formula reuses its line
    assert b.add(parse_formula("((x1 + 0) = x1)"), Axiom("S5")) == n1


def test_check_result_str_mentions_verdict(corpus):
    good = check_proof(corpus["zero_plus_zero"])
    assert "accepted" in str(good)
    bad = check_proof(mutate_proof_line(corpus["zero_plus_zero"], 4,
                                        parse_formula("(0 = S(0))")))
    assert str(bad.line) in str(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing justification"),
        ("A1 3", "A1 takes no arguments"),
        ("MP 1 x", "MP needs two line numbers"),
        ("GEN 1", "GEN needs a line number and a variable"),
        ("GEN 1 xy", "GEN needs a line number and a variable"),
    ],
)
def test_justification_errors(text, message):
    with pytest.raises(ProofFormatError) as exc:
        parse_justification(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("1. (0 = #) ; A1",
         "source line 1: bad formula: unexpected character '#' (at position 5)"),
        ("1. (0 = 0) ; MP 1", "source line 1: MP needs two line numbers"),
    ],
)
def test_proof_file_errors_name_the_source_line(text, message):
    with pytest.raises(ProofFormatError) as exc:
        parse_proof(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "formula, justification, reason",
    [
        ("(0 = 0)", ModusPonens(2, 1), "MP cites line 2, which does not exist"),
        ("forall x1 . (0 = 0)", Generalization(2, 1), "GEN cites line 2, which does not exist"),
        ("forall x1 . (0 = 0)", Generalization(3, 1),
         "GEN cites line 3, which is not an earlier line"),
        ("forall x1 . (0 = 0)", Generalization(0, 1),
         "GEN cites line 0, which is not an earlier line"),
    ],
)
def test_citation_reasons(formula, justification, reason):
    # line 1 holds a formula, line 2 none
    earlier = {1: parse_formula("(0 = 0)")}
    line = ProofLine(3, parse_formula(formula), justification)
    assert check_line(earlier, line) == reason
