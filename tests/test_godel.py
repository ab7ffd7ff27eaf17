"""Symbol numbering, expression and proof codes, code-level operations."""

import random

import pytest

from arithlab.corpus import build_all
from arithlab.godel import (
    ADD_FN,
    COMMA,
    DEFAULT_CONFIG,
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
from arithlab.proofs import check_proof
from arithlab.syntax import (
    CaptureError,
    Not,
    expand_numerals,
    numeral,
    parse_formula,
    parse_term,
    substitute,
)

from conftest import (
    deep_instance_proof,
    mutate_proof_line,
    rand_formula,
    rand_term,
)

MEND_PRIME = NumberingConfig(scheme="mendelson", seq="prime")
MEND_PAIR = NumberingConfig(scheme="mendelson", seq="pairing")
COMPACT_PRIME = NumberingConfig(scheme="compact", seq="prime")
COMPACT_PAIR = NumberingConfig(scheme="compact", seq="pairing")
ALL_CONFIGS = [MEND_PRIME, MEND_PAIR, COMPACT_PRIME, COMPACT_PAIR]


def pairing_code(tokens, config=MEND_PAIR):
    """The pairing code of a token stream, spelled exactly as given."""
    bits = "1"
    for tok in tokens:
        values = (1, tok[1]) if tok[0] == "numrun" else (sym_code(tok, config) + 1,)
        for value in values:
            bits += "0" * (value.bit_length() - 1) + bin(value)[2:]
    return int(bits, 2)


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


def test_encode_proof_prime_is_infeasible_for_corpus(corpus):
    # exponent towers over proof codes blow past the bit guard
    with pytest.raises(InfeasibleMagnitudeError):
        encode_proof(corpus["one_plus_one"], MEND_PRIME)
