"""Symbol numbering, expression and proof codes, code-level operations."""

import hashlib
import random

import pytest

from arithlab import godel
from arithlab.corpus import build_all
from arithlab.godel import (
    ADD_FN,
    COMMA,
    EQ_PRED,
    FORALL,
    IMP,
    LPAREN,
    MUL_FN,
    NEG,
    RPAREN,
    SUCC_FN,
    ZERO_CONST,
    InfeasibleMagnitudeError,
    NotACodeError,
    NumberingConfig,
    NumberingConfigError,
    NumberingError,
    NumeralRangeError,
    code_to_symbol,
    decode_expr,
    encode_expr,
    encode_proof,
    meta_neg,
    meta_num,
    meta_pf,
    meta_sub,
    nth_prime,
    official_tokens,
    sym_code,
    symbol_length,
    variable_code,
    _normalize_tokens,
)
from arithlab.proofs import check_proof, is_any_axiom, schema_instance
from arithlab.syntax import (
    BigNumeral,
    CaptureError,
    ForAll,
    Formula,
    Implies,
    Not,
    Var,
    canonical_key,
    expand_numerals,
    numeral,
    numeral_value,
    parse_formula,
    parse_term,
    semantic_eq,
    substitute,
)

from conftest import (
    deep_instance_proof,
    mutate_proof_line,
    rand_formula,
    rand_mutated_proof,
    rand_term,
)

MEND_PRIME = NumberingConfig(scheme="mendelson", seq="prime")
MEND_PAIR = NumberingConfig(scheme="mendelson", seq="pairing")
COMPACT_PRIME = NumberingConfig(scheme="compact", seq="prime")
COMPACT_PAIR = NumberingConfig(scheme="compact", seq="pairing")
ALL_CONFIGS = [MEND_PRIME, MEND_PAIR, COMPACT_PRIME, COMPACT_PAIR]


def pairing_sequence(values):
    """The pairing code of a sequence of positive numbers."""
    bits = "1"
    for value in values:
        bits += "0" * (value.bit_length() - 1) + bin(value)[2:]
    return int(bits, 2)


def pairing_code(tokens, config=MEND_PAIR):
    """The pairing code of a token stream, spelled exactly as given."""
    values = []
    for tok in tokens:
        values += (1, tok[1]) if tok[0] == "numrun" else (sym_code(tok, config) + 1,)
    return pairing_sequence(values)


def successors(k, core):
    """The stream f_1^1 ( ... f_1^1 ( core ) ... ) with k applications."""
    return [SUCC_FN, LPAREN] * k + [core] + [RPAREN] * k


# ------------------------------------------------------------- numbering

def test_mendelson_symbol_codes():
    assert sym_code(LPAREN) == 3
    assert sym_code(RPAREN := ("rparen",)) == 5
    assert sym_code(("comma",)) == 7
    assert sym_code(NEG) == 9
    assert sym_code(IMP) == 11
    assert sym_code(FORALL) == 13
    assert sym_code(ZERO_CONST) == 15
    assert sym_code(SUCC_FN) == 49
    assert sym_code(ADD_FN) == 97
    assert sym_code(MUL_FN) == 289
    assert sym_code(EQ_PRED) == 99


def test_mendelson_table_is_the_textbook_arithmetic():
    punctuation = [LPAREN, ("rparen",), ("comma",), NEG, IMP, FORALL]
    assert [sym_code(s) for s in punctuation] == [3, 5, 7, 9, 11, 13]
    assert sym_code(ZERO_CONST) == 7 + 8 * 1  # a_1
    for fn in (SUCC_FN, ADD_FN, MUL_FN):
        _, n, k = fn  # f_k^n
        assert sym_code(fn) == 1 + 8 * 2**n * 3**k
    assert sym_code(EQ_PRED) == 3 + 8 * 2**2 * 3  # A_1^2


@pytest.mark.parametrize("config", [MEND_PRIME, COMPACT_PRIME])
def test_symbols_outside_the_language_have_no_code(config):
    for index in (0, -1):
        with pytest.raises(NumberingError):
            variable_code(index, config)
    with pytest.raises(NumberingError):
        sym_code(("const", 2), config)


def test_variable_codes_follow_arithmetic_progression():
    assert variable_code(1) == 21
    assert variable_code(2) == 29
    assert variable_code(3) == 37
    assert variable_code(40) == 13 + 8 * 40


def test_compact_symbol_codes_are_dense():
    codes = [sym_code(s, COMPACT_PRIME) for s in
             (LPAREN, ("rparen",), ("comma",), NEG, IMP, FORALL,
              ZERO_CONST, SUCC_FN, ADD_FN, MUL_FN, EQ_PRED)]
    assert codes == list(range(1, 12))
    assert variable_code(1, COMPACT_PRIME) == 12
    assert variable_code(5, COMPACT_PRIME) == 16


@pytest.mark.parametrize("config", [MEND_PRIME, COMPACT_PRIME])
def test_symbol_code_inversion(config):
    symbols = [LPAREN, ("rparen",), ("comma",), NEG, IMP, FORALL,
               ZERO_CONST, SUCC_FN, ADD_FN, MUL_FN, EQ_PRED,
               ("var", 1), ("var", 2), ("var", 17)]
    for s in symbols:
        assert code_to_symbol(sym_code(s, config), config) == s


def test_codes_outside_the_language_are_rejected():
    # residue class is right but the symbol is not in the language
    assert code_to_symbol(4) is None       # even
    assert code_to_symbol(17) is None      # would be f with subscript 0
    assert code_to_symbol(23) is None      # would be a second constant
    assert code_to_symbol(105) is None     # 13 is not of the form 2^n 3^k
    assert code_to_symbol(1) is None


def test_nth_prime():
    assert [nth_prime(i) for i in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert nth_prime(99) == 541


@pytest.mark.parametrize("i", [-1, -3, -10**6])
def test_nth_prime_of_a_negative_index_is_a_named_error(i):
    # not a prime read from the cache's far end
    with pytest.raises(NumberingError, match=f"^prime index must be >= 0, got {i}$"):
        nth_prime(i)


# ------------------------------------------------------ expression codes

def test_zero_code_frozen_value():
    # official string of the numeral 0 is the single constant symbol
    assert encode_expr(numeral(0), MEND_PRIME) == 2**15
    assert encode_expr(parse_term("0"), MEND_PRIME) == 2**15


def test_one_code_frozen_value():
    # S(0) spells as f_1^1 ( a_1 ): codes 49, 3, 15, 5
    expected = 2**49 * 3**3 * 5**15 * 7**5
    assert encode_expr(numeral(1), MEND_PRIME) == expected
    assert encode_expr(parse_term("S(0)"), MEND_PRIME) == expected


def test_symbol_length():
    assert symbol_length(numeral(0)) == 1
    assert symbol_length(numeral(1)) == 4
    assert symbol_length(parse_formula("(0 = 0)")) == 6
    assert symbol_length(numeral(10**9)) == 3 * 10**9 + 1


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_round_trip_random_expressions(config):
    rng = random.Random(9091)
    for _ in range(60):
        e = rand_formula(rng, 2) if rng.random() < 0.5 else rand_term(rng, 2)
        try:
            code = encode_expr(e, config)
        except InfeasibleMagnitudeError:
            assert config.seq == "prime"
            continue
        back = decode_expr(code, config)
        assert encode_expr(back, config) == code


def test_numeral_spelling_does_not_affect_code():
    for config in ALL_CONFIGS:
        chain = parse_term("S(S(S(0)))")
        assert encode_expr(chain, config) == encode_expr(numeral(3), config)


def test_decode_numeral_spelling():
    # small numerals come back as successor chains, big ones stay packed
    code = encode_expr(parse_term("S(S(0))"), MEND_PAIR)
    assert decode_expr(code, MEND_PAIR) == parse_term("S(S(0))")
    big = encode_expr(numeral(100000), MEND_PAIR)
    assert decode_expr(big, MEND_PAIR) == numeral(100000)
    # the expansion cap holds however the numeral is spelled
    chain_500 = decode_expr(pairing_code(successors(500, ZERO_CONST)), MEND_PAIR)
    assert chain_500 == expand_numerals(numeral(500))
    for spelled in (successors(501, ZERO_CONST), successors(1, ("numrun", 500))):
        assert decode_expr(pairing_code(spelled), MEND_PAIR) == numeral(501)


def _edited_stream(rng):
    """A valid official string, some runs spelled out as successor chains,
    with one token inserted, deleted or replaced."""
    if rng.random() < 0.7:
        e = rand_formula(rng, 2, max_numeral=12)
    else:
        e = rand_term(rng, 2)
    tokens = []
    for tok in official_tokens(e):
        if tok[0] == "numrun" and rng.random() < 0.5:
            k = rng.randint(1, tok[1])
            core = ZERO_CONST if k == tok[1] else ("numrun", tok[1] - k)
            tokens += successors(k, core)
        else:
            tokens.append(tok)
    alphabet = [LPAREN, RPAREN, COMMA, NEG, IMP, FORALL, ZERO_CONST, SUCC_FN,
                ADD_FN, MUL_FN, EQ_PRED, ("var", 1), ("var", 2), ("numrun", 3)]
    leaves = [ZERO_CONST, ("numrun", 1), ("numrun", 499), ("numrun", 500),
              ("var", 1), ("var", 3)]
    i = rng.randrange(len(tokens))
    edit = rng.choice(["insert", "delete", "replace", "respell"])
    if edit == "insert":
        tokens.insert(i, rng.choice(alphabet))
    elif edit == "delete" and len(tokens) > 1:
        del tokens[i]
    elif edit == "replace":
        tokens[i] = rng.choice(alphabet)
    else:  # a term leaf for another, which keeps most streams well formed
        i = rng.choice([j for j, tok in enumerate(tokens)
                        if tok == ZERO_CONST or tok[0] in ("var", "numrun")])
        tokens[i] = rng.choice(leaves)
    return tokens


def test_decoded_edits_respell_as_the_normalised_stream():
    # every stream the decoder accepts respells as itself, runs folded
    rng = random.Random(4711)
    accepted = 0
    for _ in range(2000):
        tokens = _edited_stream(rng)
        try:
            e = decode_expr(pairing_code(tokens), MEND_PAIR)
        except NotACodeError:
            continue
        accepted += 1
        assert official_tokens(e) == _normalize_tokens(tokens)
    assert accepted > 500


def test_deep_decoded_numeral_compares_and_hashes():
    back = decode_expr(encode_expr(numeral(400), MEND_PAIR), MEND_PAIR)
    chain = expand_numerals(numeral(400))
    assert back == chain
    assert hash(back) == hash(chain)
    assert {back: "found"}[chain] == "found"


def test_decode_rejects_non_codes():
    with pytest.raises(NotACodeError):
        decode_expr(0, MEND_PRIME)
    with pytest.raises(NotACodeError):
        decode_expr(6, MEND_PRIME)     # exponent 1 is not a symbol code
    with pytest.raises(NotACodeError):
        decode_expr(10, MEND_PRIME)    # skips the prime 3
    with pytest.raises(NotACodeError):
        decode_expr(2, MEND_PAIR)      # truncated bit stream
    with pytest.raises(NotACodeError):
        decode_expr(2**3, MEND_PRIME)  # a lone parenthesis is not a term
    # malformed official strings, each with a message naming the problem
    x1 = ("var", 1)
    equation = [EQ_PRED, LPAREN, x1, COMMA, ZERO_CONST, RPAREN]
    for tokens, problem in (
        ([x1, RPAREN], r"'\)' closes no '\('"),
        ([LPAREN, NEG, *equation], r"'\(' is never closed"),
        ([ADD_FN, LPAREN, x1, RPAREN], r"expected f_1\^2 \( t , u \)"),
        ([*equation, ZERO_CONST], "trailing symbols after a complete expression"),
    ):
        with pytest.raises(NotACodeError, match=problem):
            decode_expr(pairing_code(tokens), MEND_PAIR)


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_pairing_variables_outside_the_chunk_table_round_trip(config):
    # variables have no fixed chunk: each is written and read as a number
    for k in (1, 64, 65, 10**6):
        code = encode_expr(Var(k), config)
        assert code == pairing_code([("var", k)], config)
        assert decode_expr(code, config) == Var(k)
        f = parse_formula(f"forall x{k} . (x{k} = S(x{k}))")
        assert decode_expr(encode_expr(f, config), config) == f


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_pairing_numeral_runs_round_trip(config):
    for n in (1, 2**40, 10**100):
        code = encode_expr(BigNumeral(n), config)
        assert code == pairing_code([("numrun", n)], config) == meta_num(n, config)
        assert semantic_eq(decode_expr(code, config), BigNumeral(n))
        f = parse_formula(f"(x1 = (num({n}) + x1))")
        assert semantic_eq(decode_expr(encode_expr(f, config), config), f)


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_pairing_decode_errors_keep_their_messages(config):
    cases = [
        (2, "bit stream ends inside a length-prefixed chunk"),  # bits 0
        (3, "sequence ends inside a numeral run"),  # bits 1
        # bits 00101 0: a cut-off stream is reported as such, whatever the
        # chunks before the cut (in mendelson, 4 is no symbol code)
        (0b1001010, "bit stream ends inside a length-prefixed chunk"),
    ]
    if config.scheme == "mendelson":
        # bits 00101: the chunk 5, so the symbol code 4, which is even
        cases.append((0b100101, "4 is not a symbol code"))
    # (in compact every symbol code from 1 up names a symbol)
    for code, message in cases:
        with pytest.raises(NotACodeError, match=f"^{message}$"):
            decode_expr(code, config)
        with pytest.raises(NotACodeError, match=f"^{message}$"):
            meta_neg(code, config)
    with pytest.raises(NotACodeError, match="^pairing codes are positive$"):
        meta_neg(0, config)


def test_lone_variable_is_a_term_code():
    assert decode_expr(2**21, MEND_PRIME) == parse_term("x1")


def test_prime_guard_on_huge_numerals():
    with pytest.raises(InfeasibleMagnitudeError):
        encode_expr(numeral(10**6), MEND_PRIME)
    # pairing handles the same numeral easily
    code = encode_expr(numeral(10**6), MEND_PAIR)
    assert decode_expr(code, MEND_PAIR) == numeral(10**6)


def test_config_validation():
    with pytest.raises(ValueError):
        NumberingConfig(scheme="fancy")
    with pytest.raises(ValueError):
        NumberingConfig(seq="huffman")


def test_config_validation_raises_a_named_error():
    for bad in (dict(scheme="fancy"), dict(seq="huffman")):
        with pytest.raises(NumberingConfigError) as caught:
            NumberingConfig(**bad)
        assert isinstance(caught.value, NumberingError)


# ------------------------------------------------------- code operations

def test_meta_num_matches_numeral_codes():
    for config in ALL_CONFIGS:
        limit = 8 if config.seq == "prime" else 200
        for n in range(limit + 1):
            assert meta_num(n, config) == encode_expr(numeral(n), config)


def test_meta_num_rejects_negative():
    with pytest.raises(ValueError):
        meta_num(-1)


def test_meta_num_rejects_negative_with_a_named_error():
    with pytest.raises(NumeralRangeError) as caught:
        meta_num(-1)
    assert isinstance(caught.value, NumberingError)
    assert isinstance(caught.value, ValueError)


def test_meta_neg_matches_syntactic_negation():
    rng = random.Random(8086)
    for _ in range(40):
        f = rand_formula(rng, 2)
        for config in (MEND_PAIR, COMPACT_PAIR):
            got = meta_neg(encode_expr(f, config), config)
            assert got == encode_expr(Not(f), config)


def test_meta_sub_matches_syntactic_substitution():
    cases = [
        ("(x1 = 0)", 1, "S(S(0))"),
        ("((x1 + x2) = x1)", 1, "(x2 * x2)"),
        ("forall x2 . (x1 = x2)", 1, "0"),
        ("forall x1 . (x1 = x2)", 1, "S(0)"),   # x1 is bound: no-op
        ("(forall x1 . (x1 = x2) -> (x1 = 0))", 1, "num(4)"),
    ]
    for config in (MEND_PAIR, COMPACT_PAIR):
        for fml, var, term in cases:
            f, t = parse_formula(fml), parse_term(term)
            got = meta_sub(encode_expr(f, config), encode_expr(t, config),
                           variable_code(var, config), config)
            assert got == encode_expr(substitute(f, var, t), config)


def test_meta_sub_refuses_capture():
    f = parse_formula("forall x2 . (x1 = x2)")
    t = parse_term("S(x2)")
    with pytest.raises(CaptureError):
        meta_sub(encode_expr(f, MEND_PAIR), encode_expr(t, MEND_PAIR),
                 variable_code(1, MEND_PAIR), MEND_PAIR)
    # both routes name the outermost capturing binder
    f = parse_formula("forall x3 . forall x2 . (x1 = (x2 + x3))")
    t = parse_term("(x2 + x3)")
    with pytest.raises(CaptureError) as token_route:
        meta_sub(encode_expr(f, MEND_PAIR), encode_expr(t, MEND_PAIR),
                 variable_code(1, MEND_PAIR), MEND_PAIR)
    with pytest.raises(CaptureError) as tree_route:
        substitute(f, 1, t)
    assert token_route.value.binder == tree_route.value.binder == 3
    # a quantifier's scope ends at its closing parenthesis
    f = parse_formula("(forall x1 . (x1 = x2) -> (x1 = 0))")
    t = parse_term("S(x2)")
    got = meta_sub(encode_expr(f, MEND_PAIR), encode_expr(t, MEND_PAIR),
                   variable_code(1, MEND_PAIR), MEND_PAIR)
    assert got == encode_expr(substitute(f, 1, t), MEND_PAIR)


def test_meta_sub_on_terms():
    t = parse_term("((x1 + 0) * x1)")
    r = parse_term("S(0)")
    got = meta_sub(encode_expr(t, MEND_PAIR), encode_expr(r, MEND_PAIR),
                   variable_code(1, MEND_PAIR), MEND_PAIR)
    assert got == encode_expr(parse_term("((S(0) + 0) * S(0))"), MEND_PAIR)


def test_meta_sub_numeral_run_normalisation():
    # substituting a numeral into S(x1) must code like the merged numeral
    f = parse_formula("(S(x1) = x2)")
    for config in ALL_CONFIGS:
        got = meta_sub(encode_expr(f, config),
                       meta_num(3, config),
                       variable_code(1, config), config)
        assert got == encode_expr(parse_formula("(S(num(3)) = x2)"), config)
        assert got == encode_expr(
            parse_formula("(num(4) = x2)"), config)


# ------------------------------------------------------------ proof codes

@pytest.fixture(scope="module")
def corpus():
    return build_all()


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_meta_pf_accepts_corpus(corpus, config):
    for name, proof in sorted(corpus.items()):
        u = encode_proof(proof, config)
        x = encode_expr(proof.conclusion, config)
        assert meta_pf(u, x, config), name


def test_meta_pf_rejects_wrong_conclusion(corpus):
    proof = corpus["zero_plus_zero"]
    u = encode_proof(proof, MEND_PAIR)
    wrong = encode_expr(parse_formula("(0 = S(0))"), MEND_PAIR)
    assert not meta_pf(u, wrong, MEND_PAIR)


def test_meta_pf_rejects_broken_proof(corpus):
    mutated = mutate_proof_line(corpus["zero_plus_zero"], 4,
                                parse_formula("((0 + 0) = S(0))"))
    u = encode_proof(mutated, MEND_PAIR)
    x = encode_expr(mutated.conclusion, MEND_PAIR)
    assert not check_proof(mutated).accepted
    assert not meta_pf(u, x, MEND_PAIR)


def _line_codes(proof, config=MEND_PAIR):
    return [encode_expr(line.formula, config) for line in proof.lines]


def test_meta_pf_stops_at_the_first_underivable_line(monkeypatch):
    axiom = parse_formula("((x1 + 0) = x1)")  # an instance of S5
    lines = [axiom, parse_formula("(0 = S(0))")] + [axiom] * 98
    u = pairing_sequence([encode_expr(f, MEND_PAIR) for f in lines])
    x = encode_expr(axiom, MEND_PAIR)
    decoded = []
    parse_tokens = godel._parse_tokens

    def counted(tokens, table=None):
        decoded.append(tokens)
        return parse_tokens(tokens, table)

    # meta_pf reads each line, and the conclusion, through _parse_tokens
    monkeypatch.setattr(godel, "_parse_tokens", counted)
    assert meta_pf(u, x, MEND_PAIR) is False
    # the last line, the conclusion, then lines 1 and 2
    assert 0 < len(decoded) <= 4


def test_meta_pf_reads_each_line_once(corpus, monkeypatch):
    decoded = []
    parse_tokens = godel._parse_tokens

    def counted(tokens, table=None):
        decoded.append(tokens)
        return parse_tokens(tokens, table)

    monkeypatch.setattr(godel, "_parse_tokens", counted)
    for config in (MEND_PAIR, COMPACT_PAIR):
        for proof in corpus.values():
            u = encode_proof(proof, config)
            x = encode_expr(proof.conclusion, config)
            decoded.clear()
            assert meta_pf(u, x, config) is True
            # a conclusion with the last line's code is that line's tree
            assert len(decoded) == len(proof.lines)
    # a conclusion whose numerals are spelled with successor wrappers has
    # another code: it is read too, and is the last line's tree
    proof = corpus["one_plus_one"]
    tokens = []
    for tok in official_tokens(proof.conclusion):
        tokens += successors(tok[1], ZERO_CONST) if tok[0] == "numrun" else [tok]
    x = pairing_code(tokens)
    assert x != encode_expr(proof.conclusion, MEND_PAIR)
    decoded.clear()
    assert meta_pf(encode_proof(proof, MEND_PAIR), x, MEND_PAIR) is True
    assert len(decoded) == len(proof.lines) + 1


def test_decoding_into_one_table_interns_equal_trees(corpus):
    def eq(left, right):
        return [EQ_PRED, LPAREN, *left, COMMA, *right, RPAREN]

    # numerals 500, an S chain, and 501, num(501), each spelled two ways
    streams = [
        official_tokens(parse_formula("(num(500) = (num(501) + x1))")),
        eq(successors(500, ZERO_CONST), successors(1, ("numrun", 500))),
        eq(successors(2, ("numrun", 499)), successors(500, ZERO_CONST)),
    ]
    codes = [pairing_code(tokens) for tokens in streams]
    for proof in corpus.values():
        codes += _line_codes(proof)
    table = {}
    lines = [godel._parse_tokens(godel._decode_tokens(code, MEND_PAIR), table)
             for code in codes]
    n500, n501 = lines[0].left, lines[0].right.left
    assert n500 is not n501
    assert lines[1].left is n500 and lines[1].right is n501
    assert lines[2].left is n501 and lines[2].right is n500
    # a is b exactly when their keys are equal, over every node outside
    # a numeral's own chain
    nodes, stack = [], list(lines)
    while stack:
        e = stack.pop()
        nodes.append(e)
        if numeral_value(e) is None:
            stack += [getattr(e, name) for name in e.__match_args__
                      if name != "index"]
    ids_by_key = {}
    for e in nodes:
        ids_by_key.setdefault(canonical_key(e), set()).add(id(e))
    assert all(len(ids) == 1 for ids in ids_by_key.values())
    assert len(set(map(id, nodes))) == len(ids_by_key)


def test_meta_pf_matches_a_premise_whose_numeral_is_spelled_out():
    # implication_identity over (S(0) = 0): the MP premises, lines 1 and
    # 4, spell S(0) as f_1^1 ( a_1 ); the implications, lines 2 and 3,
    # use the run ("numrun", 1)
    b = parse_formula("(S(0) = 0)")
    a2 = schema_instance("A2", B=b, C=Implies(b, b), D=b)
    lines = [a2.left, a2, a2.right, schema_instance("A1", B=b, C=b), Implies(b, b)]
    assert not is_any_axiom(lines[2]) and not is_any_axiom(lines[4])

    def spelled_out(f):
        tokens = []
        for tok in official_tokens(f):
            tokens += successors(1, ZERO_CONST) if tok == ("numrun", 1) else [tok]
        return tokens

    codes = [encode_expr(f, MEND_PAIR) for f in lines]
    for premise in (0, 3):
        respelled = godel._encode_tokens(spelled_out(lines[premise]), MEND_PAIR)
        assert respelled != codes[premise]
        codes[premise] = respelled
    assert meta_pf(pairing_sequence(codes), codes[-1], MEND_PAIR) is True


def test_meta_pf_rejects_junk_after_a_failing_line(corpus):
    proof = corpus["one_plus_one"]
    lines = _line_codes(proof)
    lines[1] = encode_expr(parse_formula("(0 = S(0))"), MEND_PAIR)
    lines[5] = 2  # no expression code: a truncated bit stream
    x = encode_expr(proof.conclusion, MEND_PAIR)
    assert meta_pf(pairing_sequence(lines), x, MEND_PAIR) is False


def test_meta_pf_rejects_a_term_as_last_line(corpus):
    proof = corpus["one_plus_one"]
    term = encode_expr(parse_term("(S(0) + S(0))"), MEND_PAIR)
    lines = _line_codes(proof)[:-1] + [term]
    u = pairing_sequence(lines)
    assert meta_pf(u, term, MEND_PAIR) is False
    assert meta_pf(u, encode_expr(proof.conclusion, MEND_PAIR), MEND_PAIR) is False


def test_meta_pf_rejects_a_line_copied_ahead_of_its_premises(corpus):
    proof = corpus["one_plus_one"]
    lines = _line_codes(proof)
    # line 5 is MP 3 4; a copy of it as line 3 comes before both premises
    lines.insert(2, lines[4])
    x = encode_expr(proof.conclusion, MEND_PAIR)
    assert meta_pf(pairing_sequence(lines), x, MEND_PAIR) is False


def test_meta_pf_rejects_a_prefix_ending_on_another_line(corpus):
    proof = corpus["one_plus_one"]
    lines = _line_codes(proof)
    x = encode_expr(proof.conclusion, MEND_PAIR)
    for k in (1, 7, len(lines) - 1):
        assert lines[k - 1] != x
        assert meta_pf(pairing_sequence(lines[:k]), x, MEND_PAIR) is False
        # that prefix is itself a proof of its own last line
        assert meta_pf(pairing_sequence(lines[:k]), lines[k - 1], MEND_PAIR)


def test_meta_pf_total_on_junk():
    junk = [0, 1, -7, 2, 3, 12345, 2**80 + 1]
    for u in junk:
        for x in (0, 1, 99):
            assert meta_pf(u, x, MEND_PAIR) is False


def test_meta_pf_numeral_spelling_insensitive(corpus):
    # conclusion code spelled with a numeral run still matches
    proof = corpus["one_plus_one"]
    u = encode_proof(proof, MEND_PAIR)
    spelled = parse_formula("((S(0) + S(0)) = num(2))")
    assert meta_pf(u, encode_expr(spelled, MEND_PAIR), MEND_PAIR)


def test_meta_pf_agrees_with_kernel_on_deep_proof():
    proof = deep_instance_proof(400)
    assert check_proof(proof).accepted
    u = encode_proof(proof, MEND_PAIR)
    assert meta_pf(u, encode_expr(proof.conclusion, MEND_PAIR), MEND_PAIR)


def spec_meta_pf(u, x, config):
    """meta_pf by the route of one int per line: u's chunks are read as line
    codes and each is decoded by _decode_tokens.  Lines are compared by
    canonical key, and a line follows when it is an axiom, or when an
    earlier line is its generalisation's body, or earlier lines are A and
    (A -> it)."""
    try:
        if not isinstance(u, int) or not isinstance(x, int) or u < 1:
            return False
        bits, codes, i = bin(u)[3:], [], 0
        while i < len(bits):
            one = bits.find("1", i)
            end = 2 * one - i + 1
            if one < 0 or end > len(bits):
                return False
            codes.append(int(bits[i:end], 2))
            i = end
        lines = [godel._parse_tokens(godel._decode_tokens(code, config)) for code in codes]
        if not lines or not all(isinstance(f, Formula) for f in lines):
            return False
        keys = [canonical_key(f) for f in lines]
        if x != codes[-1] and canonical_key(decode_expr(x, config)) != keys[-1]:
            return False
        for k, f in enumerate(lines):
            earlier = set(keys[:k])
            if not (
                is_any_axiom(f)
                or isinstance(f, ForAll) and canonical_key(f.body) in earlier
                or any(isinstance(g, Implies) and canonical_key(g.right) == keys[k]
                       and canonical_key(g.left) in earlier for g in lines[:k])
            ):
                return False
        return True
    except (NumberingError, ValueError):
        return False


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_meta_pf_matches_its_spec(corpus, config):
    rng = random.Random(f"pf-spec/{config.scheme}")
    proofs = [*corpus.values(), deep_instance_proof(400)]
    proofs += [rand_mutated_proof(rng, proof) for proof in proofs for _ in range(2)]
    verdicts, respelled = set(), 0
    for proof in proofs:
        lines = _line_codes(proof, config)
        u = encode_proof(proof, config)
        x = encode_expr(proof.conclusion, config)
        assert u == pairing_sequence(lines)
        # the conclusion with every numeral spelled by successor wrappers
        tokens = []
        for tok in official_tokens(proof.conclusion):
            tokens += successors(tok[1], ZERO_CONST) if tok[0] == "numrun" else [tok]
        spelled = pairing_code(tokens, config)
        respelled += spelled != x
        cases = [(u, x), (u, spelled), (u + 1, x), (u - 1, x), (u, x + 1), (u, x - 1),
                 (u, 0), (u, -x), (0, x), (-u, x)]
        # an empty line, code 1, first, in the middle and last
        for k in (0, len(lines) // 2, len(lines)):
            cases.append((pairing_sequence(lines[:k] + [1] + lines[k:]), x))
        for u_, x_ in cases:
            verdict = meta_pf(u_, x_, config)
            assert verdict is spec_meta_pf(u_, x_, config), (u_, x_)
            verdicts.add(verdict)
    assert verdicts == {True, False} and respelled


def test_meta_pf_answers_no_for_a_code_that_is_not_an_int(corpus):
    proof = corpus["one_plus_one"]
    u, x = encode_proof(proof, MEND_PAIR), encode_expr(proof.conclusion, MEND_PAIR)
    assert meta_pf(u, x, MEND_PAIR) is True
    for junk in ("12", 2.0, None, [u]):
        assert meta_pf(junk, x, MEND_PAIR) is False
        assert meta_pf(u, junk, MEND_PAIR) is False
        assert meta_pf(junk, 5, MEND_PRIME) is False
    # under prime, 12 = 2^2 * 3 holds the line codes 2 and 1, and 1 is no
    # expression code
    assert meta_pf(12, 5, MEND_PRIME) is False


def test_meta_pf_answers_no_for_a_line_that_decodes_to_a_term(corpus):
    proof = corpus["one_plus_one"]
    lines = _line_codes(proof)
    x = encode_expr(proof.conclusion, MEND_PAIR)
    term = encode_expr(parse_term("(S(0) + S(0))"), MEND_PAIR)
    for k in (0, 3, len(lines) - 1):
        assert meta_pf(pairing_sequence(lines[:k] + [term] + lines[k:]), x, MEND_PAIR) is False


# sha256 of the hex proof code and of the hex line codes, comma-joined, of
# each corpus proof under the two pairing codings
GOLDEN_PROOF_CODES = {
    "mendelson": {
        "conditional_closure": (
            "4b310d81f5cf10ee9716d8e524fe8065e05263d74305e590dda78f6c0b2ef1cd",
            "ccbf53e07b14b41cd6ba10d157440dc7b4465af1498b2475b39b09992ab07a60",
        ),
        "contraposition_instance": (
            "14b470a10a20a5f9bd758238b703cd20ec04f94798215a5be30bd8151bfe0f7b",
            "e5cfd4a6f2ac2a63e35430842bee2930cf68a0e72c51bb4c127c209ef8749896",
        ),
        "gen_plus_zero": (
            "4c6c0248c1a08688d178aa63e418abb2d704cc6190eaf59b4ac41df98eb21edf",
            "fe43b7ebef413b7c62b317d275088e29e620e77a29a4ee911dbbb52d749bda2a",
        ),
        "implication_identity": (
            "3593e2dbc324ed51e8f2810bb227ed41658cc7fc19f1c88d36df8adcbfe0e61a",
            "e382ee84cc3e3046fcdde953c91fdcb99d7a063253d2fe4c22211b979c32a741",
        ),
        "induction_left_identity": (
            "ebdfe75deeb78fbf14d1092090953c71d8344043d4c9d3eab7738fb351305e80",
            "cf51a53bfb196ae24b77bcd4c6a5c5ed10686aa720de93de40f648a303716405",
        ),
        "one_plus_one": (
            "965bc4ae3d19bf418663cdb743f2c9df1d79d5b1f1ca51d2bd64561435c8de99",
            "84351fc71a218a427b74eaec00e271525007ac4e39640e41bc65394fa87a58b7",
        ),
        "reflexivity_zero": (
            "4a1cd7c18888b2eefed0f478575570b2d697906ddd0e45408a5ea19225d16b3c",
            "bd9218bf65de1888d08336b2404def07b1b393072fe60aa708cdfb37a2b7625e",
        ),
        "succ_not_zero": (
            "59d751b30859d6006b3b85c616d1dc5924e2ae3083743f0cab7df46fb56b8c81",
            "8504b616a5f12cf88597e366e7f1ed199b4d7f20722059923425c81add97ab85",
        ),
        "zero_plus_zero": (
            "fbbd37c2c2416e7b898f11ebe0322e6b685fa8568b682a524400279bb4e21c2d",
            "89a51518136c32df64b328332ca570458ea2cbb756588b7feee1e08a475403c0",
        ),
    },
    "compact": {
        "conditional_closure": (
            "5673dde168f34dd75195dc43767cdf6dc4af2e13505e103a32bcf942ebb27dfc",
            "aad3dd6ba86ebca57ded1bb181e5bc2511ba59cf52b1fb5b92189b926f17c0ac",
        ),
        "contraposition_instance": (
            "5e263ab872a2c58c3b6ef187fa40b15c16f48f95610f429a022af24f0b940d64",
            "79d96f4d25165e3d33adf64a3cad4168195b1cdeba7db2d7052988c48a92bd44",
        ),
        "gen_plus_zero": (
            "d70af5f087ef0b15481399883805d2d0232ddf5be569cb8703d8776de22f36e3",
            "42a50ad882081f3e6f5ec08d78e6896b1bd076b31df77d75ea65a8547d26704f",
        ),
        "implication_identity": (
            "07ff491704eca38f26633a9c544c6db5fa4849bddb8564b170056572c5d367f0",
            "e7deb9caf834987bb29cdb3b2ccc4ab71a68a65486c6bd8dd834ab04985c645b",
        ),
        "induction_left_identity": (
            "69d49eacd0425211ad2eb2c480afab8a48ca9734e3b987f8750a3dcba3db6927",
            "3d36fe5efe5896c02314a3e70f9b9e6dad1c3472c82d134d922d0cf3ef92ba91",
        ),
        "one_plus_one": (
            "27de80952f4d587b991b47d97b55e8ceb262f43189c8e5b565c728029099a9da",
            "06c598b3c936be6db67256b4f4f28bc6797030629d1917e2508d820747094b42",
        ),
        "reflexivity_zero": (
            "3dd6d1fa27d60ccfd32f26b68f0366f8ddb3c0e810682472a4da20903537e2bf",
            "d2d770cb0fa0d36841b49bd176bcf91e28d701f20f3f5e845df4bd47f8187367",
        ),
        "succ_not_zero": (
            "217a43bd11b749d2c372bfa43b78307357898bc296d569ed9a8c5bee67c5c3f8",
            "b052fe3cbc31c3c3d882e9cc5406b68945ebc68ac68f2e6807e7fa4ce8ca48ee",
        ),
        "zero_plus_zero": (
            "615dbbd1095fe69e3de04bb64075769df2d7205638cf314741269b2ae26c624b",
            "4f9a9d46548f256e840f495e4714ecdd5cca42779c481ab2173105ed1c847ffc",
        ),
    },
}


def _sha(codes):
    return hashlib.sha256(",".join(format(c, "x") for c in codes).encode()).hexdigest()


@pytest.mark.parametrize("config", [MEND_PAIR, COMPACT_PAIR])
def test_corpus_proof_codes_are_pinned(corpus, config):
    golden = GOLDEN_PROOF_CODES[config.scheme]
    assert sorted(golden) == sorted(corpus)
    for name, proof in corpus.items():
        assert (_sha([encode_proof(proof, config)]), _sha(_line_codes(proof, config))) \
            == golden[name], name


def test_encode_proof_prime_is_infeasible_for_corpus(corpus):
    # exponent towers over proof codes blow past the bit guard
    with pytest.raises(InfeasibleMagnitudeError):
        encode_proof(corpus["one_plus_one"], MEND_PRIME)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: meta_neg(encode_expr(parse_term("S(0)"))), NotACodeError,
         "not a formula code"),
        (lambda: meta_sub(encode_expr(parse_formula("(x1 = 0)")),
                          encode_expr(parse_term("0")), sym_code(ZERO_CONST)),
         NotACodeError, "15 is not a variable symbol code"),
        (lambda: meta_sub(encode_expr(parse_formula("(x1 = 0)")),
                          encode_expr(parse_formula("(0 = 0)")), variable_code(1)),
         NotACodeError, "substituent is not a term code"),
        (lambda: encode_expr(Var(600), MEND_PRIME), InfeasibleMagnitudeError,
         "sequence entry 4813 as an exponent would exceed the 4096-bit guard"),
        (lambda: decode_expr(1, MEND_PRIME), NotACodeError, "no valid factorisation shape"),
        (lambda: godel._encode_prime_sequence([2, 0, 3]), NotACodeError,
         "sequence entries must be positive"),
    ],
)
def test_code_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_a_code_past_the_prime_cap_is_not_a_code(monkeypatch):
    # at the real cap the code would be the product of 10001 primes
    monkeypatch.setattr(godel, "_MAX_PRIMES", 3)
    with pytest.raises(NotACodeError) as exc:
        decode_expr(2 * 3 * 5 * 7, MEND_PRIME)
    assert str(exc.value) == "sequence uses more primes than supported"
