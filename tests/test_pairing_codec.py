"""The pairing codec against its spec, the chunk-by-chunk codec.

The spec_* functions below are the plain pairing codec: decoding cuts the
stream into Elias gamma chunks one at a time, looks each chunk up or reads
it as a number, and then folds every successor wrapper in a second pass;
encoding spells a tree's official tokens and writes each token's chunk.
They live here only, as the reference that godel's one-pass codec must
match value for value and error message for error message.
"""

import hashlib
import random

import pytest

from arithlab import godel
from arithlab.corpus import build_all
from arithlab.godel import (
    LPAREN,
    RPAREN,
    SUCC_FN,
    ZERO_CONST,
    NotACodeError,
    NumberingConfig,
    code_to_symbol,
    decode_expr,
    encode_expr,
    meta_neg,
    meta_num,
    meta_sub,
    official_tokens,
    sym_code,
    variable_code,
)
from arithlab.syntax import (
    ArithlabError,
    BigNumeral,
    Var,
    numeral_value,
    parse_formula,
    semantic_eq,
)

from conftest import rand_formula, rand_term

MEND_PAIR = NumberingConfig(scheme="mendelson", seq="pairing")
COMPACT_PAIR = NumberingConfig(scheme="compact", seq="pairing")
PAIRINGS = [MEND_PAIR, COMPACT_PAIR]


# ------------------------------------------------------------------ spec


def spec_gamma(n):
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def spec_chunks(code):
    if code < 1:
        raise NotACodeError("pairing codes are positive")
    bits = bin(code)[3:]
    chunks, i = [], 0
    while i < len(bits):
        one = bits.find("1", i)
        end = 2 * one - i + 1
        if one < 0 or end > len(bits):
            raise NotACodeError("bit stream ends inside a length-prefixed chunk")
        chunks.append(bits[i:end])
        i = end
    return chunks


def spec_decode_tokens(code, config):
    tokens = []
    chunks = iter(spec_chunks(code))
    for chunk in chunks:
        value = int(chunk, 2) - 1
        if value == 0:
            run = next(chunks, None)
            if run is None:
                raise NotACodeError("sequence ends inside a numeral run")
            tokens.append(("numrun", int(run, 2)))
        else:
            symbol = code_to_symbol(value, config)
            if symbol is None:
                raise NotACodeError(f"{value} is not a symbol code")
            tokens.append(symbol)
    return godel._normalize_tokens(tokens)


def spec_encode_tokens(tokens, config):
    parts = ["1"]
    for tok in tokens:
        if tok[0] == "numrun":
            parts += ("1", spec_gamma(tok[1]))
        else:
            parts.append(spec_gamma(sym_code(tok, config) + 1))
    return int("".join(parts), 2)


def spec_encode(e, config):
    return spec_encode_tokens(official_tokens(e), config)


# ------------------------------------------------------------- the cases


def outcome(fn, *args):
    """What fn(*args) gives: its value, or its named error and message."""
    try:
        return fn(*args)
    except ArithlabError as error:
        return (type(error).__name__, str(error))


def seeded_trees(seed=2024, count=60):
    rng = random.Random(seed)
    trees = []
    for _ in range(count):
        trees.append(rand_formula(rng, 3, max_var=9, max_numeral=40))
        trees.append(rand_term(rng, 3, max_var=9, max_numeral=700))
    return trees


def differential_trees():
    trees = [line.formula for proof in build_all().values() for line in proof.lines]
    trees += seeded_trees()
    trees += [BigNumeral(n) for n in range(601)]
    trees += [BigNumeral(10**40), Var(10**6)]
    return trees


def mutants(code, rng):
    """code, code +- 1, code with one bit flipped, and code with its last
    1 to 7 bits cut off."""
    yield from (code, code + 1, code - 1, code ^ (1 << rng.randrange(code.bit_length())))
    yield from (code >> k for k in range(1, 8))


@pytest.fixture(scope="module")
def trees():
    return differential_trees()


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("config", PAIRINGS)
def test_encoding_matches_the_spec(trees, config):
    for e in trees:
        assert encode_expr(e, config) == spec_encode(e, config), e
        tokens = official_tokens(e)
        assert godel._encode_tokens(tokens, config) == spec_encode_tokens(tokens, config)


@pytest.mark.parametrize("config", PAIRINGS)
def test_decoding_matches_the_spec_on_codes_and_their_mutants(trees, config):
    rng = random.Random(f"mutants/{config.scheme}")
    failures = set()
    for e in trees:
        for code in mutants(spec_encode(e, config), rng):
            want = outcome(spec_decode_tokens, code, config)
            assert outcome(godel._decode_tokens, code, config) == want, code
            if isinstance(want, tuple):
                message = want[1]
                if message.endswith(" is not a symbol code"):
                    message = "<n> is not a symbol code"
                failures.add(message)
    # the mutants reach every way a stream can fail to decode
    expected = {"pairing codes are positive",
                "bit stream ends inside a length-prefixed chunk",
                "sequence ends inside a numeral run"}
    if config.scheme == "mendelson":  # in compact every code names a symbol
        expected.add("<n> is not a symbol code")
    assert failures == expected


@pytest.mark.parametrize("config", PAIRINGS)
def test_decoding_folds_successor_wrappers_like_the_spec(config):
    x1 = ("var", 1)
    streams = [
        [SUCC_FN, LPAREN, ZERO_CONST, RPAREN],
        [SUCC_FN, LPAREN, SUCC_FN, LPAREN, ("numrun", 7), RPAREN, RPAREN],
        [SUCC_FN, LPAREN, x1, RPAREN],
        [godel.EQ_PRED, LPAREN, SUCC_FN, LPAREN, ZERO_CONST, RPAREN, godel.COMMA,
         SUCC_FN, LPAREN, ("numrun", 2**50), RPAREN, RPAREN],
    ]
    for tokens in streams:
        code = spec_encode_tokens(tokens, config)
        assert godel._encode_tokens(tokens, config) == code
        assert godel._decode_tokens(code, config) == spec_decode_tokens(code, config)


def _meta_outcomes(config):
    """meta_num, meta_neg and meta_sub over seeded cases, mutants included:
    their codes, or their error messages."""
    rng = random.Random(f"pinned/{config.scheme}")
    out = [outcome(meta_num, n, config) for n in (0, 1, 2, 499, 500, 501, 2**40, 10**40)]
    for f in seeded_trees(11, 25)[::2]:
        for code in mutants(encode_expr(f, config), rng):
            out.append(outcome(meta_neg, code, config))
            term = encode_expr(rand_term(rng, 2, max_var=4, max_numeral=600), config)
            for k in (1, 2, 3):
                out.append(outcome(meta_sub, code, term, variable_code(k, config), config))
    return out


# sha256 of _meta_outcomes, as computed with the chunk-by-chunk codec
PINNED_META = {
    "mendelson": "94871011fa3973cb8ba4f2b3124573a081217e9962401f5cec3295ea1a0f49cd",
    "compact": "9d4b33a574cfd0e0e9bba70673bb534170657ba2a5fc3ff7017362ed740c210f",
}


@pytest.mark.parametrize("config", PAIRINGS)
def test_metafunctions_give_the_pinned_codes(config):
    digest = hashlib.sha256(repr(_meta_outcomes(config)).encode()).hexdigest()
    assert digest == PINNED_META[config.scheme]


# ------------------------------------------------------------ the fallback


@pytest.mark.parametrize("config", PAIRINGS)
def test_chunks_wider_than_the_split_pattern_take_the_exact_fallback(
        config, monkeypatch):
    widest = godel._PIECE_ZEROS
    split = []
    chunks = godel._chunks

    def counted(bits, start=0):
        split.append(start)
        return chunks(bits, start)

    monkeypatch.setattr(godel, "_chunks", counted)
    # num(2**k): the run's chunk is k zeros, a 1 and k zeros
    for k, wide in ((widest - 1, False), (widest, False), (widest + 1, True)):
        e = BigNumeral(2**k)
        code = encode_expr(e, config)
        split.clear()
        assert semantic_eq(decode_expr(code, config), e)
        assert bool(split) is wide, k
        # cut inside the run's chunk: reported as a cut whichever way it splits
        for cut in (1, k, 2 * k):
            with pytest.raises(NotACodeError, match=(
                    "^bit stream ends inside a length-prefixed chunk$")):
                decode_expr(code >> cut, config)
    for e in (Var(10**12), Var(2**(widest + 3))):
        code = encode_expr(e, config)
        assert code == spec_encode(e, config)
        assert decode_expr(code, config) == e
        with pytest.raises(NotACodeError, match=(
                "^bit stream ends inside a length-prefixed chunk$")):
            decode_expr(code >> 5, config)
    assert numeral_value(decode_expr(meta_num(2**200, config), config)) == 2**200


# ------------------------------------------------------------- the tables


def spec_piece(tok, config):
    """The piece of one token: what spec_encode_tokens writes for it."""
    return bin(spec_encode_tokens([tok], config))[3:]


@pytest.mark.parametrize("config", PAIRINGS)
def test_the_chunk_tables_keep_only_narrow_pieces(trees, config, monkeypatch):
    scheme = config.scheme
    # fresh tables, so that they hold what this test's first pass put there
    encoding, decoding = godel._SymbolChunks(scheme), godel._ChunkSymbols(scheme)
    monkeypatch.setitem(godel._SYMBOL_CHUNKS, scheme, encoding)
    monkeypatch.setitem(godel._CHUNKED, scheme, godel._spelling(encoding.__getitem__))
    monkeypatch.setitem(godel._CHUNK_SYMBOLS, scheme, decoding)
    widest = godel._PIECE_ZEROS
    exprs = [BigNumeral(2**k) for k in (widest - 1, widest, widest + 1)]
    exprs.append(parse_formula(f"(x1000000 = num({10**40}))"))
    exprs += trees
    rng = random.Random(f"tables/{scheme}")
    codes = [code for e in exprs for code in mutants(spec_encode(e, config), rng)]

    def one_pass():
        out = [outcome(encode_expr, e, config) for e in exprs]
        out += [outcome(godel._encode_tokens, [tok], config) for tok in (("var", 0), ("bogus",))]
        return out + [outcome(godel._decode_tokens, code, config) for code in codes]

    first = one_pass()
    sizes = len(encoding), len(decoding)
    assert one_pass() == first  # a hit gives what a miss gave
    assert (len(encoding), len(decoding)) == sizes
    bound = 2 * widest + 2
    for tok, piece in encoding.items():
        assert piece == spec_piece(tok, config) and len(piece) <= bound, tok
    for piece, tok in decoding.items():
        assert spec_piece(tok, config) == piece and len(piece) <= bound, piece
    # the bound is the widest piece the split pattern takes
    for n, kept in ((2**widest, True), (2**(widest + 1), False)):
        assert (("numrun", n) in encoding) is kept
        assert (spec_piece(("numrun", n), config) in decoding) is kept
    assert "1" not in decoding and ("var", 0) not in encoding
