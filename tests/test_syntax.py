"""Terms, formulas, printing, parsing, and substitution."""

import copy
import hashlib
import os
import pickle
import random
import sys
import time

import pytest

from arithlab.primrec import format_pr
from arithlab.syntax import (
    Add,
    ArithlabError,
    BigNumeral,
    CaptureError,
    Eq,
    ForAll,
    Formula,
    Implies,
    Mul,
    NodeValueError,
    Not,
    NotTextError,
    NumeralLimitError,
    ParseError,
    Succ,
    SyntaxToolError,
    Term,
    Var,
    Zero,
    canonical_key,
    conj,
    disj,
    exists,
    expand_numerals,
    free_vars,
    numeral,
    numeral_value,
    parse,
    parse_formula,
    parse_term,
    semantic_eq,
    substitute,
    to_text,
)
from arithlab.godel import NumberingConfig, decode_expr, encode_expr

from conftest import rand_formula, rand_term


def test_round_trip_random_formulas():
    rng = random.Random(5150)
    for _ in range(300):
        f = rand_formula(rng, rng.randint(0, 5))
        back = parse_formula(to_text(f))
        assert back == f and hash(back) == hash(f)


def test_round_trip_random_terms():
    rng = random.Random(5151)
    for _ in range(300):
        t = rand_term(rng, rng.randint(0, 4))
        back = parse_term(to_text(t))
        assert back == t and hash(back) == hash(t)


def test_round_trip_pinned_strings():
    cases = [
        "(x1 = 0)",
        "~(0 = S(x1))",
        "((x1 + 0) = x1)",
        "((x1 * S(x2)) = ((x1 * x2) + x1))",
        "forall x1 . (x1 = x1)",
        "(forall x2 . (x2 = 0) -> ((x1 + x1) = 0))",
        "((0 = 0) -> ((0 = 0) -> (0 = 0)))",
        "forall x1 . forall x2 . ((x1 + S(x2)) = S((x1 + x2)))",
    ]
    for text in cases:
        assert to_text(parse_formula(text)) == text


def test_round_trip_big_numerals():
    t = numeral(10**40)
    assert parse_term(to_text(t)) == t
    assert to_text(numeral(7)) == "num(7)"
    assert parse_term("num(12)") == BigNumeral(12)


def test_parse_dispatch():
    assert isinstance(parse("(x1 + 0)"), Add)
    assert isinstance(parse("(x1 = 0)"), Eq)
    assert isinstance(parse("forall x3 . (x3 = x3)"), ForAll)


def test_parse_whitespace_tolerance():
    assert parse_formula("( x1   =\t0 )") == Eq(Var(1), Zero())


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse_formula("x1 = ")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_formula("(0 = 0) junk")


def test_parse_rejects_redundant_parens():
    # parens belong to connectives, not to grouping at will
    with pytest.raises(ParseError):
        parse_formula("((0 = 0))")


def test_parse_requires_parens_on_implication():
    with pytest.raises(ParseError):
        parse_formula("(0 = 0) -> (0 = 0)")
    assert isinstance(parse_formula("((0 = 0) -> (0 = 0))"), Implies)


def test_forall_body_binds_tightly():
    # the quantifier takes the next single item; an arrow after it
    # belongs to an enclosing implication
    f = parse_formula("(forall x1 . (x1 = x1) -> (0 = 0))")
    assert isinstance(f, Implies)
    assert isinstance(f.left, ForAll)


def test_parse_builds_each_leaf_once_per_call():
    f = parse_formula("forall x2 . ((x1 + 0) = (x1 * (x2 + 0)))")
    body = f.body
    assert body.left.left is body.right.left  # x1
    assert body.left.right is body.right.right.right  # 0
    assert body.right.right.left == Var(2)
    # no leaf outlives its call
    again = parse_formula("forall x2 . ((x1 + 0) = (x1 * (x2 + 0)))")
    assert again == f and again.body.left.left is not body.left.left


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("(x1 = %)")
    assert exc.value.position > 0


def test_var_and_numeral_validation():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        BigNumeral(-1)
    for make in (lambda: Var(0), lambda: ForAll(-2, parse_formula("(0 = 0)")),
                 lambda: BigNumeral(-1)):
        with pytest.raises(NodeValueError):
            make()
    assert issubclass(NodeValueError, SyntaxToolError)


NODES = [
    Var(3), Zero(), Succ(Var(1)), Add(Var(1), Zero()), Mul(Zero(), Var(2)),
    BigNumeral(10**30), Eq(Var(1), Zero()), Not(Eq(Zero(), Zero())),
    Implies(Eq(Zero(), Zero()), Eq(Var(1), Var(1))), ForAll(2, Eq(Var(2), Zero())),
]


@pytest.mark.parametrize("node", NODES, ids=lambda node: node.__class__.__name__)
def test_nodes_pickle_copy_and_stay_immutable(node):
    to_text(node)  # a cached key does not travel with the node
    for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert twin == node and twin.__class__ is node.__class__
    fields = {name: getattr(node, name) for name in node.__match_args__}
    assert node.__class__(**fields) == node
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(node, name, value)
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) is value
    with pytest.raises((AttributeError, TypeError)):
        node.extra = 1
    assert isinstance(node, Term) != isinstance(node, Formula)
    assert isinstance(node, Formula) == (node.__class__ in (Eq, Not, Implies, ForAll))


def test_node_fields_and_checks_are_as_before():
    f = Eq(Zero(), Zero())
    assert ForAll(index=1, body=f) == ForAll(1, f)
    assert Implies(right=f, left=Not(f)) == Implies(Not(f), f)
    assert [cls.__match_args__ for cls in (Var, Zero, Succ, Add, BigNumeral, Not, ForAll)] == [
        ("index",), (), ("arg",), ("left", "right"), ("value",), ("body",), ("index", "body")]
    for make, message in ((lambda: Var(0), "variable index must be >= 1, got 0"),
                          (lambda: ForAll(0, f), "variable index must be >= 1, got 0"),
                          (lambda: BigNumeral(-1), "numeral value must be >= 0, got -1")):
        with pytest.raises(NodeValueError) as caught:
            make()
        assert str(caught.value) == message


@pytest.mark.parametrize("spelled", [to_text, canonical_key, format_pr])
def test_spelling_a_non_tree_is_a_named_error(spelled):
    with pytest.raises(ArithlabError, match="^not a term or formula: 'x1'$") as caught:
        spelled("x1")
    assert isinstance(caught.value, TypeError)


def test_free_vars_of_a_non_tree_is_a_named_error():
    with pytest.raises(ArithlabError, match="^not a term or formula: 'x1'$") as caught:
        free_vars(Not("x1"))
    assert isinstance(caught.value, TypeError)


@pytest.mark.parametrize("read", [parse, parse_term, parse_formula])
def test_parsing_what_is_not_a_str_is_a_named_error(read):
    for given in (None, 3, b"(x1 = 0)"):
        with pytest.raises(NotTextError, match="^expected a str to parse, got ") as caught:
            read(given)
        assert isinstance(caught.value, SyntaxToolError)
        assert isinstance(caught.value, TypeError)


def test_deepcopy_of_a_deep_tree_is_the_tree():
    deep = Zero()
    for _ in range(10**4):
        deep = Add(deep, Var(1))
    try:
        twin = copy.deepcopy(deep)
    except RecursionError:
        twin = None  # reported outside the handler, as in the repr test
    assert twin is deep


def test_repr_is_not_recursive():
    deep = Zero()
    for _ in range(10**4):
        deep = Add(deep, Var(1))
    try:
        text = repr(deep)
    except RecursionError:
        # reported outside the handler: pytest's report of a RecursionError
        # compares the locals of its frames, each a 10**4-deep tree
        text = "RecursionError"
    assert text.startswith("<Add ((((") and text.endswith(" + x1)>")
    # past the int-string digit limit: the key spells it in hexadecimal
    assert repr(Succ(numeral(10**5000))) == f"<Succ num({10**5000 + 1:x})>"
    assert repr(parse_formula("~(x1 = S(0))")) == "<Not ~(x1 = num(1))>"


def test_free_vars():
    assert free_vars(parse_formula("(x1 = x2)")) == frozenset({1, 2})
    assert free_vars(parse_formula("forall x1 . (x1 = x2)")) == frozenset({2})
    assert free_vars(parse_formula("forall x1 . (x1 = x1)")) == frozenset()
    assert free_vars(parse_term("((x3 * x1) + S(x3))")) == frozenset({1, 3})
    assert free_vars(numeral(50)) == frozenset()
    # a binder closes after its body, and an inner one of the same index
    # leaves the outer one open
    assert free_vars(parse_formula(
        "(forall x1 . (x1 = 0) -> (x1 = x2))")) == frozenset({1, 2})
    assert free_vars(parse_formula(
        "forall x1 . (forall x1 . (x1 = 0) -> (x1 = x2))")) == frozenset({2})


def test_free_vars_under_40k_distinct_binders_is_linear():
    depth = 4 * 10**4
    f = Eq(Var(1), Var(depth + 1))
    for index in range(1, depth + 1):
        f = ForAll(index, f)
    start = time.perf_counter()
    assert free_vars(f) == frozenset({depth + 1})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"free_vars took {elapsed:.2f} s"


def test_substitute_term():
    t = parse_term("((x1 + x2) * S(x1))")
    got = substitute(t, 1, Zero())
    assert got == parse_term("((0 + x2) * S(0))")


def test_substitute_free_occurrences_only():
    f = parse_formula("((x1 = 0) -> forall x1 . (x1 = x2))")
    got = substitute(f, 1, parse_term("S(0)"))
    assert got == parse_formula("((S(0) = 0) -> forall x1 . (x1 = x2))")


def test_substitute_refuses_capture():
    f = parse_formula("forall x2 . (x1 = x2)")
    with pytest.raises(CaptureError):
        substitute(f, 1, parse_term("S(x2)"))
    # a closed replacement is always fine
    assert substitute(f, 1, numeral(3)) == parse_formula(
        "forall x2 . (num(3) = x2)")


def test_substitute_absent_variable_is_identity():
    f = parse_formula("(0 = S(0))")
    assert substitute(f, 5, parse_term("x1")) == f


def test_substitute_shares_what_it_leaves_unchanged():
    f = parse_formula(
        "(forall x1 . (x1 = S(S(x2))) -> ((x1 + x3) = S(S((x2 * x3)))))")
    got = substitute(f, 1, parse_term("S(0)"))
    assert got == parse_formula(
        "(forall x1 . (x1 = S(S(x2))) -> ((S(0) + x3) = S(S((x2 * x3)))))")
    assert got.left is f.left  # the binder of x1
    assert got.right.right is f.right.right  # a Succ chain without x1
    assert got.right.left.right is f.right.left.right
    assert substitute(f, 5, parse_term("x2")) is f


def test_capture_names_the_outermost_binder_at_the_first_occurrence():
    f = parse_formula(
        "((x2 = x1) -> forall x3 . forall x2 . (forall x3 . (x1 = 0) -> (x1 = x2)))")
    with pytest.raises(CaptureError) as caught:
        substitute(f, 1, parse_term("(x2 + x3)"))
    assert (caught.value.binder, caught.value.var) == (3, 1)


def test_substitution_under_10k_binders_is_linear():
    depth = 10**4
    body, expected = Eq(Var(1), Var(2)), Eq(Zero(), Var(2))
    for _ in range(depth):
        body, expected = ForAll(2, body), ForAll(2, expected)
    start = time.perf_counter()
    assert substitute(body, 1, Zero()) == expected
    with pytest.raises(CaptureError) as caught:
        substitute(body, 1, Succ(Var(2)))
    assert (caught.value.binder, caught.value.var) == (2, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"two substitutions took {elapsed:.1f} s"


def test_numeral_value():
    assert numeral_value(Zero()) == 0
    assert numeral_value(parse_term("S(S(0))")) == 2
    assert numeral_value(numeral(9)) == 9
    assert numeral_value(parse_term("S(num(4))")) == 5
    assert numeral_value(parse_term("x1")) is None
    assert numeral_value(parse_term("(0 + 0)")) is None


def test_expand_and_canon_numerals():
    assert expand_numerals(numeral(3)) == Succ(Succ(Succ(Zero())))
    with pytest.raises(ValueError):
        expand_numerals(numeral(100), limit=10)


def test_expand_numerals_past_its_limit_raises_a_named_error():
    with pytest.raises(NumeralLimitError, match="limit is 10"):
        expand_numerals(parse_formula("(x1 = num(100))"), limit=10)
    assert issubclass(NumeralLimitError, SyntaxToolError)


def test_respelled_numerals_are_unequal_yet_denote_alike():
    # each num(n) as an S chain over 0: a new spelling, the same numeral
    rng = random.Random(2502)
    respelled = 0
    for _ in range(300):
        e = rand_formula(rng, rng.randint(0, 4), max_numeral=40)
        chains = expand_numerals(e)
        if chains is not e:
            respelled += 1
            assert chains != e and e != chains and semantic_eq(chains, e)
    assert respelled > 150


def test_semantic_eq_ignores_numeral_spelling():
    assert semantic_eq(parse_term("S(S(0))"), numeral(2))
    assert semantic_eq(parse_formula("(S(0) = x1)"),
                       parse_formula("(num(1) = x1)"))
    assert not semantic_eq(numeral(2), numeral(3))


def test_sugar_shapes():
    a = parse_formula("(0 = 0)")
    b = parse_formula("(x1 = 0)")
    assert conj(a, b) == Not(Implies(a, Not(b)))
    assert disj(a, b) == Implies(Not(a), b)
    assert exists(1, b) == Not(ForAll(1, Not(b)))


def test_str_matches_to_text():
    f = parse_formula("(forall x2 . (x2 = 0) -> ((x1 + x1) = 0))")
    assert str(f) == to_text(f)
    t = parse_term("((x1 * x2) + S(0))")
    assert str(t) == to_text(t)


def test_deep_succ_chain_round_trip():
    # stays iterative, no recursion errors on long chains
    depth = 10**4
    text = "S(" * depth + "0" + ")" * depth
    t = parse_term(text)
    assert numeral_value(t) == depth
    assert parse_term(to_text(t)) == t


def _deep_text(rng: random.Random, depth: int, kinds: str) -> str:
    """Text nesting depth constructors drawn from kinds, innermost first:
    '+' sums and 'S' successors over x1, '~' negations, 'A' quantifiers.
    Once the text is a formula, '+' and 'S' wrap it in an implication."""
    opening: list[str] = []
    closing: list[str] = []
    formula = False
    for _ in range(depth):
        kind = rng.choice(kinds)
        if kind in "~A" and not formula:
            opening.append("(")
            closing.append(" = 0)")
            formula = True
        if kind == "~":
            opening.append("~")
        elif kind == "A":
            opening.append(f"forall x{rng.randint(1, 3)} . ")
        elif formula:
            opening.append("((0 = 0) -> ")
            closing.append(")")
        elif kind == "+":
            opening.append("(x1 + ")
            closing.append(")")
        else:
            opening.append("S(")
            closing.append(")")
    return "".join(reversed(opening)) + "x1" + "".join(closing)


@pytest.mark.parametrize("kinds", ["+", "S", "~", "A", "+S~A"])
def test_deep_nesting_round_trips_through_codes(kinds):
    # nesting depth is bounded by memory, not by the recursion limit
    pairing = NumberingConfig(seq="pairing")
    text = _deep_text(random.Random(kinds), 10**4, kinds)
    e = parse(text)
    assert to_text(e) == text
    back = decode_expr(encode_expr(e, pairing), pairing)
    assert semantic_eq(back, e)
    assert back == e


@pytest.mark.parametrize("kinds", ["+", "S", "~", "A", "+S~A"])
def test_deep_trees_and_big_numerals_pickle_and_copy(kinds):
    deep = parse(_deep_text(random.Random(kinds), 10**4, kinds))
    for node in (deep, numeral(10**40)):
        try:
            twins = [pickle.loads(pickle.dumps(node)), copy.copy(node)]
        except RecursionError:
            twins = []  # reported outside the handler, as in the repr test
        assert len(twins) == 2
        for twin in twins:
            assert twin == node and twin is not node
            assert hash(twin) == hash(node)


@pytest.fixture()
def default_digit_limit():
    # the limit can be set for the process (PYTHONINTMAXSTRDIGITS, -X)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter default
    yield
    sys.set_int_max_str_digits(limit)


def test_oversized_digit_strings_are_parse_errors(default_digit_limit):
    digits = "7" * 5000
    for text, position in ((f"num({digits})", 4), (f"x{digits}", 0)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position


def test_numerals_past_the_digit_limit_compare_and_hash(default_digit_limit):
    big = 10**5000
    chain = Succ(numeral(big - 1))
    assert semantic_eq(chain, numeral(big))
    assert not semantic_eq(chain, numeral(big + 1))
    assert chain != numeral(big)
    assert {chain: 1}[Succ(numeral(big - 1))] == 1


def test_equality_is_a_spelling_with_int_pieces(default_digit_limit):
    # every index and numeral value is compared as an int, so no digit
    # limit applies; S(0) and num(1) denote alike but are not ==
    assert Var(10**5000) == Var(10**5000)
    assert Var(10**5000) != Var(10**5000 + 1)
    assert ForAll(10**5000, parse_formula("(0 = 0)")) == ForAll(
        10**5000, parse_formula("(0 = 0)")
    )
    assert numeral(10**5000) == numeral(10**5000)
    assert Succ(Zero()) != numeral(1) and semantic_eq(Succ(Zero()), numeral(1))
    assert Zero() != numeral(0)
    assert Var(12) != Add(Var(1), Var(2)) and Var(1) != 1


# One case for each `raise ParseError` site in syntax: the entry point, the
# text, the message and the position.
PARSE_ERRORS = [
    (parse, "(x1 = #)", "unexpected character '#'", 6),
    (parse, "S x1", "expected '(' after S, got 'x1'", 2),
    (parse, "forall x1 (0 = 0)", "expected '.' after quantified variable, got '('", 10),
    (parse, "num(x1)", "expected numeral digits, got 'x1'", 4),
    (parse, "x" + "7" * 5000, "number of 5000 digits is too long", 0),
    (parse, "x0", "variable index must be >= 1", 0),
    (parse, "forall x0 . (0 = 0)", "variable index must be >= 1", 7),
    (parse, "~x1", "expected a formula, got 'x1'", 1),
    (parse, "", "expected a term, got 'end of input'", 0),
    (parse, "(x1 + ~(0 = 0))", "expected a term, got '~'", 6),
    (parse, "5", "bare numeral literals other than '0' are not terms; write num(5)", 0),
    (parse, "(x1 x2)", "expected '+', '*' or '=' after term, got 'x2'", 4),
    (parse, "((0 = 0) (0 = 0))", "expected '->' after formula, got '('", 9),
    (parse, "(0 + (0 = 0))", "expected a term, found a formula", 5),
    (parse, "((0 = 0) -> (0 + 0))", "expected a formula, found a term", 12),
    (parse, "0 0", "trailing input '0'", 2),
    (parse_term, "(0 = 0)", "expected a term, found a formula", 0),
    (parse_formula, "0", "expected a formula, found a term", 0),
]


@pytest.mark.parametrize(
    "entry, text, message, position",
    PARSE_ERRORS,
    ids=[f"{entry.__name__}:{text[:24]}" for entry, text, _, _ in PARSE_ERRORS],
)
def test_parse_error_table(default_digit_limit, entry, text, message, position):
    with pytest.raises(ParseError) as exc:
        entry(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


# Seeded corruptions of benchmark forms (perfbench/gen.py, printed by
# perfbench/forms.py): each input is a printed term or formula with up to
# three deletions, insertions, replacements or truncations, drawn from the
# grammar's own pieces and from characters the tokenizer must refuse or
# skip.  The outcome of every input, its printed tree or its ParseError
# message and position, is pinned by one sha256.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import forms  # noqa: E402
import gen  # noqa: E402

NOISE = [
    *"()+*=~.&|-> x0123456789S", "->", "S(", "num(", "forall x1 .", "exists x2 .",
    "x", "\u00a0", "\u2028", "\x1c", "\u0661", "\ufb00", "?", "1" * 40,
    "9" * 4300, "7" * 4301,
]


def corrupted_texts(rng: random.Random, count: int):
    for _ in range(count):
        depth = rng.randint(0, 3)
        form = (gen.term(rng, depth, big_share=0.1) if rng.random() < 0.25
                else gen.formula(rng, depth, big_share=0.1))
        text = forms.text(form)
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:at] + text[at + 1:]
            elif edit == 1:
                text = text[:at] + rng.choice(NOISE) + text[at:]
            elif edit == 2:
                text = text[:at] + rng.choice(NOISE) + text[at + 1:]
            else:
                text = text[:at]
        yield text


def parse_outcome(text: str) -> tuple:
    try:
        return ("ok", to_text(parse(text)))
    except ParseError as exc:
        return (str(exc), exc.position)


def test_parse_outcomes_of_corrupted_forms_are_pinned(default_digit_limit):
    stray = "unexpected character '\u0661' (at position 2)"
    assert parse_outcome("(x\u0661 = 0)") == (stray, 2)
    assert parse_outcome("(x1\u00a0= 0)") == ("ok", "(x1 = 0)")
    assert parse_outcome("x1\u2028") == ("ok", "x1")
    outcomes = [parse_outcome(text)
                for text in corrupted_texts(random.Random(1818), 2500)]
    assert sum(outcome[0] == "ok" for outcome in outcomes) == 172
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "c68cf2272aa9721bd5777cf799085e771eae653c231efb1790d9f17414f70685"
