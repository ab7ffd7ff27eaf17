"""Symbol numbering and expression/proof codes, with code-level metafunctions.

Every term and formula has an official symbol string over the fixed
alphabet  ( ) , ~ -> forall  x_k  a_1 (the constant 0)  f_1^1 (successor)
f_1^2 (plus)  f_2^2 (times)  A_1^2 (equality):

    0             a1
    x_k           x_k
    S(t)          f_1^1 ( t )
    (t + u)       f_1^2 ( t , u )
    (t * u)       f_2^2 ( t , u )
    (t = u)       A_1^2 ( t , u )
    ~B            ( ~ B )
    (B -> C)      ( B -> C )
    forall x_k.B  ( ( forall x_k ) B )

Variable indices start at 1.  Two symbol numbering schemes, each a table
of the eleven fixed symbols plus a rule for the variables:

  mendelson   ( 3  ) 5  , 7  ~ 9  -> 11  forall 13,  x_k 13+8k,
              a_1 7+8,  f_k^n 1+8(2^n 3^k),  A_1^2 3+8(2^2 3)
  compact     ( 1  ) 2  , 3  ~ 4  -> 5  forall 6,  x_k 11+k,
              a_1 7,  f_1^1 8,  f_1^2 9,  f_2^2 10,  A_1^2 11

and two sequence encodings:

  prime       product of p_i ^ code(u_i) over the first primes; faithful
              to the textbook construction but explodes quickly, so the
              feasibility guards MAX_SYMBOLS and MAX_CODE_BITS reject
              anything large with a loud error instead of grinding
  pairing     a binary stream: a leading 1 bit, then each symbol code
              plus one as a self-delimiting (Elias gamma) chunk; the
              numeral for n is the chunk 1 followed by the chunk n, so it
              costs O(log n) bits and diagonal-sized codes stay workable.
              Encoding spells a tree straight into chunks; decoding splits
              the stream with one compiled pattern.  Each direction maps
              tokens and pieces through one table per scheme, which works
              out a piece it lacks and keeps it when it is no wider than
              the pattern splits, so the tables stay small.  Where the
              pattern cannot go on, at a chunk too wide for it or a cut,
              the rest of the stream is split chunk by chunk

Decoding folds every numeral into one run (a pairing stream the pattern
split whole only when it holds a successor wrapper around a numeral), then
reads the official string with one stack of open parentheses: each ')'
reduces what follows its '(' to a value.  Numerals up to EXPAND_MAX come
back as explicit S chains, larger ones as num(n) nodes.  Each value is
interned (hash-consed) in a table, so trees read into one table that spell
alike are one object.

The same two-layer scheme encodes proofs: a proof code is the sequence
code of its line formulas' expression codes.  Under pairing a line's chunk
is its own stream behind as many zeros and a 1, so proof codes are joined
and split as bit streams and no line code is made as a number.
Justifications are not encoded; the proof predicate re-derives
checkability, treating a proof as a bare formula sequence in which every
line must be an axiom or follow from earlier lines by MP or GEN.  It holds
the last line against the conclusion first, then decodes and judges the
lines in order and stops at the first that fails.  It interns the lines it
decodes, and the conclusion, in one table, and looks each line up by
identity.

The metafunctions operate on codes: meta_num builds numeral codes
directly, meta_neg and meta_sub rewrite decoded symbol sequences (not
trees) and re-encode, meta_sub reading each quantifier's scope off a stack
of open parentheses, and meta_pf is a total predicate that never raises
on arbitrary input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from . import proofs as _proofs
from .syntax import (
    Add,
    ArithlabError,
    BigNumeral,
    CaptureError,
    Eq,
    Expr,
    ForAll,
    Formula,
    Implies,
    Mul,
    Not,
    Succ,
    Term,
    Var,
    Zero,
    succ_entry,
    spell,
)

# Official alphabet symbols, as tagged tuples.
LPAREN = ("lparen",)
RPAREN = ("rparen",)
COMMA = ("comma",)
NEG = ("neg",)
IMP = ("imp",)
FORALL = ("forall",)
ZERO_CONST = ("const", 1)
SUCC_FN = ("fn", 1, 1)
ADD_FN = ("fn", 2, 1)
MUL_FN = ("fn", 2, 2)
EQ_PRED = ("pred", 2, 1)

Symbol = tuple
# A token is a symbol or a numeral run ("numrun", n) standing for the
# official string of the numeral for n (n >= 1).
Token = tuple

SCHEMES = ("mendelson", "compact")
SEQ_ENCODINGS = ("prime", "pairing")

_MAX_PRIMES = 10_000  # factorisation cap for decoded sequences
# Feasibility guards of the prime encoding; the pairing encoding grows
# linearly and needs none.
MAX_SYMBOLS = 64
MAX_CODE_BITS = 4096
EXPAND_MAX = 500  # largest numeral decoded as an explicit S chain


class NumberingError(ArithlabError):
    """Base class for coding errors."""


class NotACodeError(NumberingError):
    """The number is not a code of the expected kind."""


class InfeasibleMagnitudeError(NumberingError):
    """The requested code would blow past the feasibility guard."""


class NumberingConfigError(NumberingError, ValueError):
    """An unknown symbol numbering scheme or sequence encoding."""


class NumeralRangeError(NumberingError, ValueError):
    """A numeral asked for a negative number."""


@dataclass(frozen=True)
class NumberingConfig:
    """Symbol numbering scheme and sequence encoding."""

    scheme: str = "mendelson"
    seq: str = "prime"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise NumberingConfigError(f"unknown scheme {self.scheme!r}")
        if self.seq not in SEQ_ENCODINGS:
            raise NumberingConfigError(f"unknown sequence encoding {self.seq!r}")


DEFAULT_CONFIG = NumberingConfig()

# The codes of the eleven fixed symbols, per scheme.
_SYMBOL_CODES = {
    "mendelson": {
        LPAREN: 3, RPAREN: 5, COMMA: 7, NEG: 9, IMP: 11, FORALL: 13,
        ZERO_CONST: 15, SUCC_FN: 49, ADD_FN: 97, MUL_FN: 289, EQ_PRED: 99,
    },
    "compact": {
        LPAREN: 1, RPAREN: 2, COMMA: 3, NEG: 4, IMP: 5, FORALL: 6,
        ZERO_CONST: 7, SUCC_FN: 8, ADD_FN: 9, MUL_FN: 10, EQ_PRED: 11,
    },
}
_SYMBOLS_BY_CODE = {
    scheme: {code: sym for sym, code in codes.items()}
    for scheme, codes in _SYMBOL_CODES.items()
}
# x_k, for k >= 1, has code base + step * k
_VARIABLE_RULE = {"mendelson": (13, 8), "compact": (11, 1)}


def sym_code(symbol: Symbol, config: NumberingConfig = DEFAULT_CONFIG) -> int:
    """The numeric code of an alphabet symbol under the configured scheme."""
    code = _SYMBOL_CODES[config.scheme].get(symbol)
    if code is not None:
        return code
    if symbol[0] == "var":
        if symbol[1] < 1:
            raise NumberingError(f"variable index must be >= 1, got {symbol[1]}")
        base, step = _VARIABLE_RULE[config.scheme]
        return base + step * symbol[1]
    raise NumberingError(f"not a symbol of the language: {symbol!r}")


def code_to_symbol(
    code: int, config: NumberingConfig = DEFAULT_CONFIG
) -> Symbol | None:
    """Inverse of sym_code; None when code is no language symbol's code."""
    symbol = _SYMBOLS_BY_CODE[config.scheme].get(code)
    if symbol is not None:
        return symbol
    base, step = _VARIABLE_RULE[config.scheme]
    index, rest = divmod(code - base, step)
    return ("var", index) if index >= 1 and rest == 0 else None


def variable_code(index: int, config: NumberingConfig = DEFAULT_CONFIG) -> int:
    return sym_code(("var", index), config)


# --------------------------------------------------------------------------
# official token streams


def _numeral_token(n: int) -> Token:
    return ZERO_CONST if n == 0 else ("numrun", n)


def _spelling(piece) -> dict:
    """spell's table for the official string, with each token written as
    piece(token)."""
    lparen, rparen, comma, imp = map(piece, (LPAREN, RPAREN, COMMA, IMP))
    negation, quantifier = (lparen, piece(NEG)), (lparen, lparen, piece(FORALL))
    zero = piece(ZERO_CONST)

    def numeral(n: int):
        return piece(_numeral_token(n))

    def applied(symbol: Symbol):
        # symbol ( left , right )
        opening = (piece(symbol), lparen)

        def entry(e, out: list) -> list:
            out += opening
            return [rparen, e.right, comma, e.left]

        return entry

    def negated(e: Not, out: list) -> list:
        out += negation
        return [rparen, e.body]

    def implication(e: Implies, out: list) -> list:
        out.append(lparen)
        return [rparen, e.right, imp, e.left]

    def generalization(e: ForAll, out: list) -> list:
        out += (*quantifier, piece(("var", e.index)), rparen)
        return [rparen, e.body]

    return {
        Var: lambda e, out: out.append(piece(("var", e.index))),
        Zero: lambda e, out: out.append(zero),
        BigNumeral: lambda e, out: out.append(numeral(e.value)),
        Succ: succ_entry([piece(SUCC_FN), lparen], [rparen], numeral),
        Add: applied(ADD_FN),
        Mul: applied(MUL_FN),
        Eq: applied(EQ_PRED),
        Not: negated,
        Implies: implication,
        ForAll: generalization,
    }


_OFFICIAL = _spelling(lambda symbol: symbol)


def official_tokens(e: Expr) -> list[Token]:
    """The official symbol string of e, with numerals kept as runs."""
    return spell(e, _OFFICIAL)


def token_symbol_length(tokens: list[Token]) -> int:
    """Raw symbol count once numeral runs are expanded."""
    total = 0
    for tok in tokens:
        # a run of n successors expands to n function symbols, n opening
        # and n closing parentheses around the zero constant
        total += 3 * tok[1] + 1 if tok[0] == "numrun" else 1
    return total


def symbol_length(e: Expr) -> int:
    return token_symbol_length(official_tokens(e))


def _normalize_tokens(tokens: list[Token]) -> list[Token]:
    """tokens with every numeral written as one run.

    A code may spell a numeral with f_1^1 ( ... ) wrappers, and substitution
    can put one under them; decoding and encoding must not depend on how a
    numeral was assembled.  So at the ')' that closes f_1^1 ( numeral ),
    the four symbols fold into the run of the next larger numeral; inner
    wrappers close first, so a whole chain folds on the way out.
    """
    out: list[Token] = []
    for tok in tokens:
        if tok == RPAREN and out[-3:-1] == [SUCC_FN, LPAREN]:
            inner = out[-1]
            if inner == ZERO_CONST or inner[0] == "numrun":
                out[-3:] = [("numrun", inner[1] + 1 if inner[0] == "numrun" else 1)]
                continue
        out.append(tok)
    return out


def _expand_tokens(tokens: list[Token]) -> list[Symbol]:
    """Raw symbol list, expanding numeral runs (prime encoding path)."""
    count = token_symbol_length(tokens)
    if count > MAX_SYMBOLS:
        raise InfeasibleMagnitudeError(
            f"official string has {count} symbols; the prime-encoding guard "
            f"allows {MAX_SYMBOLS}"
        )
    out: list[Symbol] = []
    for tok in tokens:
        if tok[0] == "numrun":
            out.extend([SUCC_FN, LPAREN] * tok[1])
            out.append(ZERO_CONST)
            out.extend([RPAREN] * tok[1])
        else:
            out.append(tok)
    return out


# --------------------------------------------------------------------------
# token parsing (decode direction)

# What a '(' must hold, by the function or predicate symbol before it, if any.
_SHAPES = {
    SUCC_FN: "f_1^1 ( t )",
    ADD_FN: "f_1^2 ( t , u )",
    MUL_FN: "f_2^2 ( t , u )",
    EQ_PRED: "A_1^2 ( t , u )",
    None: "( ~ B ), ( B -> C ), ( forall x_k ) or ( ( forall x_k ) B )",
}
# Two-place compounds by head: the symbol between the sides, their kind, the class
_INFIX = {
    ADD_FN: (COMMA, Term, Add),
    MUL_FN: (COMMA, Term, Mul),
    EQ_PRED: (COMMA, Term, Eq),
    None: (IMP, Formula, Implies),
}


def _numeral(n: int) -> Term:
    """The decoded numeral for n: an S chain up to EXPAND_MAX, else num(n)."""
    if n > EXPAND_MAX:
        return BigNumeral(n)
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def _compound(head: Symbol | None, body: list):
    """The value of head ( body ), or None if that is no official compound.

    The prefix ( forall x_k ) gives ("binds", k) for the compound around it.
    """
    if head == SUCC_FN:
        return Succ(body[0]) if len(body) == 1 and isinstance(body[0], Term) else None
    if len(body) == 3:
        middle, kind, build = _INFIX[head]
        left, mid, right = body
        if mid == middle and isinstance(left, kind) and isinstance(right, kind):
            return build(left, right)
    elif head is None and len(body) == 2:
        first, last = body
        if first == FORALL:
            return ("binds", last.index) if last.__class__ is Var else None
        if isinstance(last, Formula):
            if first == NEG:
                return Not(last)
            if first.__class__ is tuple and first[0] == "binds":
                return ForAll(first[1], last)
    return None


def _leaf(tok: Token):
    """The item a token other than a parenthesis stands for."""
    if tok[0] == "var":
        return Var(tok[1])
    if tok[0] == "numrun":
        return _numeral(tok[1])
    return Zero() if tok == ZERO_CONST else tok


def _parse_tokens(tokens: list[Token], table: dict | None = None) -> Expr:
    """The expression whose official string is tokens.

    Every compound of the official string is parenthesised, with its
    function or predicate symbol right before its '('.  So one stack of
    open parentheses reads it: each symbol is shifted, and each ')' reduces
    what follows its matching '(', with that head symbol, to one value.
    tokens must be normalised, every numeral one token, so that _numeral
    alone applies EXPAND_MAX.  Nothing recurses, so nesting is bounded by
    memory.

    Each item is interned in table (a fresh one when none is given): a leaf
    under its token, a compound under its head and the ids of its body's
    items.  Every object whose id is in a key is a value of table, so no
    such id is reused while table lives.  As each numeral is one leaf, two
    trees read into one table have equal canonical keys exactly when they
    are the same object.
    """
    if not tokens:
        raise NotACodeError("empty official string")
    if table is None:
        table = {}
    interned = table.get
    items: list = []  # symbols, ("binds", k) and trees, each a value of table
    opened: list[tuple] = []  # (where its body starts in items, head)
    for i, tok in enumerate(tokens):
        if tok == LPAREN:
            head = tokens[i - 1] if i and tokens[i - 1] in _SHAPES else None
            if head is not None:
                items.pop()
            opened.append((len(items), head))
        elif tok == RPAREN:
            if not opened:
                raise NotACodeError("official string malformed: ')' closes no '('")
            start, head = opened.pop()
            body = items[start:]
            key = (head, *map(id, body))
            value = interned(key)
            if value is None:
                value = _compound(head, body)
                if value is None:
                    raise NotACodeError(
                        f"official string malformed: expected {_SHAPES[head]}"
                    )
                table[key] = value
            del items[start:]
            items.append(value)
        else:
            value = interned(tok)
            if value is None:
                value = table[tok] = _leaf(tok)
            items.append(value)
    if opened:
        raise NotACodeError("official string malformed: a '(' is never closed")
    value = items[0]
    if value.__class__ is tuple:
        raise NotACodeError(
            "official string malformed: it does not begin with a term or formula"
        )
    if len(items) > 1:
        raise NotACodeError("trailing symbols after a complete expression")
    return value


# --------------------------------------------------------------------------
# primes


_primes: list[int] = [2, 3, 5, 7, 11, 13]


def nth_prime(i: int) -> int:
    """The i-th prime, 0-based."""
    if i < 0:
        raise NumberingError(f"prime index must be >= 0, got {i}")
    candidate = _primes[-1]
    while len(_primes) <= i:
        candidate += 2
        if all(candidate % p for p in _primes if p * p <= candidate):
            _primes.append(candidate)
    return _primes[i]


def _encode_prime_sequence(values: list[int]) -> int:
    estimate = 0
    for i, value in enumerate(values):
        if value < 1:  # a zero exponent would drop its entry
            raise NotACodeError("sequence entries must be positive")
        if value > MAX_CODE_BITS:
            raise InfeasibleMagnitudeError(
                f"sequence entry {value} as an exponent would exceed the "
                f"{MAX_CODE_BITS}-bit guard"
            )
        estimate += value * nth_prime(i).bit_length()
        if estimate > MAX_CODE_BITS:
            raise InfeasibleMagnitudeError(
                f"prime-encoded sequence needs about {estimate} bits; the "
                f"guard allows {MAX_CODE_BITS}"
            )
    code = 1
    for i, value in enumerate(values):
        code *= nth_prime(i) ** value
    return code


def _decode_prime_sequence(code: int) -> list[int]:
    if code < 2:
        raise NotACodeError("no valid factorisation shape")
    values = []
    remaining = code
    i = 0
    while remaining > 1:
        if i >= _MAX_PRIMES:
            raise NotACodeError("sequence uses more primes than supported")
        p = nth_prime(i)
        exponent = 0
        while remaining % p == 0:
            remaining //= p
            exponent += 1
        if exponent == 0:
            raise NotACodeError(
                f"no valid factorisation shape (missing prime {p})"
            )
        values.append(exponent)
        i += 1
    return values


# --------------------------------------------------------------------------
# pairing (bit stream) encoding


def _gamma_bits(n: int) -> str:
    # Elias gamma: for n >= 1, len(bin(n))-1 zeros then bin(n).
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


# The chunk of each fixed symbol (its code plus one), per scheme.
_CHUNKS = {
    scheme: {sym: _gamma_bits(code + 1) for sym, code in codes.items()}
    for scheme, codes in _SYMBOL_CODES.items()
}


class _SymbolChunks(dict):
    """The piece of the bit stream of each token under one scheme, from the
    fixed symbols' chunks on.  A token the table lacks is worked out: a
    symbol's chunk, or for a numeral run the chunk 1, then the run's chunk.
    It is kept when its piece is narrow, so the table holds at most one
    entry per narrow piece."""

    def __init__(self, scheme: str) -> None:
        super().__init__(_CHUNKS[scheme])
        self.config = NumberingConfig(scheme, "pairing")

    def __missing__(self, tok: Token) -> str:
        if tok[0] == "numrun":
            piece = "1" + _gamma_bits(tok[1])
        else:
            piece = _gamma_bits(sym_code(tok, self.config) + 1)
        if len(piece) <= _NARROW:
            self[tok] = piece
        return piece


class _ChunkSymbols(dict):
    """The token of each piece under one scheme, from the fixed symbols'
    chunks on.  A piece the table lacks is read as a number: the chunk 1
    with a numeral run's chunk after it, a variable's chunk, or no
    symbol's.  What it reads is kept when the piece is narrow; a piece that
    names no token is never kept."""

    def __init__(self, scheme: str) -> None:
        super().__init__((chunk, sym) for sym, chunk in _CHUNKS[scheme].items())
        self.config = NumberingConfig(scheme, "pairing")

    def __missing__(self, piece: str) -> Token:
        if piece[0] == "1":
            if len(piece) == 1:
                raise NotACodeError("sequence ends inside a numeral run")
            tok = ("numrun", int(piece[1:], 2))
        else:
            tok = _symbol(int(piece, 2) - 1, self.config)
        if len(piece) <= _NARROW:
            self[piece] = tok
        return tok


def _gamma_pattern(zeros: int) -> str:
    """The chunks of 1 to zeros leading zeros, as nested alternatives,
    0(?:1.|0(?:1..|0(?:1...|...))), so that a chunk's zeros are read once.
    bin() writes only 0s and 1s, so '.' stands for a bit."""
    pattern = "01" + "." * zeros
    for k in range(zeros - 1, 0, -1):
        pattern = f"0(?:1{'.' * k}|{pattern})"
    return pattern


def _wrapped(chunks: dict) -> re.Pattern:
    """f_1^1 ( then the zero constant, or then the chunk 1 of a numeral run.
    A stream where this is not found has no successor wrapper to fold, and
    a match across chunk boundaries only costs a needless fold.  The search
    looks for the bits from the first 1 of f_1^1 on, which a long run of
    zeros cannot slow, and then looks back for the zeros before them."""
    wrapper = chunks[SUCC_FN] + chunks[LPAREN]
    return re.compile(f"{wrapper.lstrip('0')}(?<={wrapper})(?:{chunks[ZERO_CONST]}|1)")


# The widest chunk _PIECES splits off: this many zeros, then one more bit.
# Under either scheme that covers the fixed symbols, x_1 to x_62 and numeral
# runs up to 511, so every chunk of the corpus proofs; a stream with a wider
# chunk is split chunk by chunk from there.  A wider pattern would only
# compile slower: the numerals of diagonal codes are far wider still.
_PIECE_ZEROS = 8
# One piece per token: a chunk, or the chunk 1 that announces a numeral run
# together with the run's chunk.  Where no such piece starts, the rest of the
# stream is one last piece (taken at once, as the pattern is DOTALL): a chunk
# wider than _PIECE_ZEROS, or a cut one.
_PIECES = re.compile("1(?:1|{0})?|{0}|.+".format(_gamma_pattern(_PIECE_ZEROS)), re.S)
# The widest piece the tables keep: the chunk 1 and the widest chunk _PIECES
# splits off, so at most about 2 * 2 ** (_PIECE_ZEROS + 1) per table.
_NARROW = 2 * _PIECE_ZEROS + 2
_SYMBOL_CHUNKS = {scheme: _SymbolChunks(scheme) for scheme in SCHEMES}
_CHUNKED = {scheme: _spelling(_SYMBOL_CHUNKS[scheme].__getitem__) for scheme in SCHEMES}
_CHUNK_SYMBOLS = {scheme: _ChunkSymbols(scheme) for scheme in SCHEMES}
_WRAPPED = {scheme: _wrapped(chunks).search for scheme, chunks in _CHUNKS.items()}


def _stream(code: int) -> str:
    """The bit stream of a pairing code: its bits after the leading 1."""
    if code < 1:
        raise NotACodeError("pairing codes are positive")
    return bin(code)[3:]


def _chunks(bits: str, start: int = 0) -> list[str]:
    """The Elias gamma chunks of a bit stream from start on, as strings."""
    find = bits.find
    size = len(bits)
    chunks = []
    i = start
    while i < size:
        one = find("1", i)
        end = 2 * one - i + 1  # n leading zeros announce an (n+1)-bit chunk
        if one < 0 or end > size:
            raise NotACodeError("bit stream ends inside a length-prefixed chunk")
        chunks.append(bits[i:end])
        i = end
    return chunks


# --------------------------------------------------------------------------
# expression codes
#
# An expression code is the sequence code of its official string's symbol
# codes.  The prime encoding expands numeral runs; the pairing encoding
# shifts each symbol code up by one and writes the numeral for n as 1, n.


def _encode_tokens(tokens: list[Token], config: NumberingConfig) -> int:
    # official_tokens and meta_num give runs already normalised; the
    # sequence rewrites normalise theirs before they get here
    if config.seq == "prime":
        values = [sym_code(s, config) for s in _expand_tokens(tokens)]
        return _encode_prime_sequence(values)
    return int("1" + "".join(map(_SYMBOL_CHUNKS[config.scheme].__getitem__, tokens)), 2)


def _decode_tokens(code: int, config: NumberingConfig) -> list[Token]:
    """The normalised symbol string that code is the code of."""
    if config.seq == "prime":
        return _normalize_tokens(
            [_symbol(value, config) for value in _decode_prime_sequence(code)]
        )
    return _read_stream(_stream(code), config.scheme)


def _read_stream(bits: str, scheme: str) -> list[Token]:
    """The normalised symbol string of a pairing code's bit stream."""
    pieces = _PIECES.findall(bits)
    last = pieces[-1] if pieces else "1"  # code 1 has the empty stream
    zeros = last.find("1")
    split = last[0] == "1" or zeros <= _PIECE_ZEROS and len(last) == 2 * zeros + 1
    if not split:
        # the last piece is the rest of a stream that holds a chunk wider
        # than _PIECES splits, or is cut off inside a chunk: split that rest
        # chunk by chunk, before any piece is read, so that a cut is
        # reported as such whatever symbols precede it
        rest = pieces.pop()
        for chunk in _chunks(bits, len(bits) - len(rest)):
            if pieces and pieces[-1] == "1":  # a numeral run's marker
                pieces[-1] += chunk
            else:
                pieces.append(chunk)
    tokens = list(map(_CHUNK_SYMBOLS[scheme].__getitem__, pieces))
    # The search for a successor wrapper reads every bit, a wide chunk's too,
    # so a stream that needed the chunk loop is folded without it.
    if split and not _WRAPPED[scheme](bits):
        return tokens
    return _normalize_tokens(tokens)


def _symbol(value: int, config: NumberingConfig) -> Symbol:
    symbol = code_to_symbol(value, config)
    if symbol is None:
        raise NotACodeError(f"{value} is not a symbol code")
    return symbol


def encode_expr(e: Expr, config: NumberingConfig = DEFAULT_CONFIG) -> int:
    """The code of e's official symbol string."""
    if config.seq == "prime":
        return _encode_tokens(official_tokens(e), config)
    return int("1" + "".join(spell(e, _CHUNKED[config.scheme])), 2)


def decode_expr(code: int, config: NumberingConfig = DEFAULT_CONFIG) -> Expr:
    """The expression whose official string code is given.

    Raises NotACodeError when code is not an expression code.
    """
    if not isinstance(code, int) or code < 1:
        raise NotACodeError("expression codes are positive integers")
    return _parse_tokens(_decode_tokens(code, config))


# --------------------------------------------------------------------------
# metafunctions on codes


def meta_num(n: int, config: NumberingConfig = DEFAULT_CONFIG) -> int:
    """Code of the numeral for n, built without a syntax tree."""
    if n < 0:
        raise NumeralRangeError("numerals exist for n >= 0 only")
    return _encode_tokens([_numeral_token(n)], config)


def meta_neg(code: int, config: NumberingConfig = DEFAULT_CONFIG) -> int:
    """Code of the negation of the formula encoded by code."""
    tokens = _decode_tokens(code, config)
    expr = _parse_tokens(tokens)
    if not isinstance(expr, Formula):
        raise NotACodeError("not a formula code")
    return _encode_tokens([LPAREN, NEG, *tokens, RPAREN], config)


def meta_sub(
    expr_code: int,
    term_code: int,
    var_code: int,
    config: NumberingConfig = DEFAULT_CONFIG,
) -> int:
    """Code-level substitution.

    Rewrites the decoded symbol sequence of expr_code, replacing every
    free occurrence of the variable whose symbol code is var_code by the
    decoded sequence of term_code, then re-encodes.  Mirrors the
    tree-level substitute exactly, including the capture condition.
    Scopes are read off one stack with an entry per open '(': the
    variable its quantifier binds, or None.
    """
    var_symbol = code_to_symbol(var_code, config)
    if var_symbol is None or var_symbol[0] != "var":
        raise NotACodeError(f"{var_code} is not a variable symbol code")
    target = var_symbol[1]

    tokens = _decode_tokens(expr_code, config)
    _parse_tokens(tokens)  # well-formedness check only

    term_tokens = _decode_tokens(term_code, config)
    term_expr = _parse_tokens(term_tokens)
    if not isinstance(term_expr, Term):
        raise NotACodeError("substituent is not a term code")
    term_vars = {tok[1] for tok in term_tokens if tok[0] == "var"}

    out: list[Token] = []
    scopes: list[int | None] = []
    # the variables in scopes, outermost first, so that an occurrence costs
    # the open quantifiers and not the nesting depth
    bound: list[int] = []
    for tok in tokens:
        if tok == LPAREN:
            scopes.append(None)
        elif tok == RPAREN:
            if scopes.pop() is not None:
                bound.pop()
        elif out[-1:] == [FORALL]:
            scopes[-2] = tok[1]  # ( ( forall x_k ) B ): the outer '(' binds x_k
            bound.append(tok[1])
        elif tok == var_symbol and target not in bound:
            for b in bound:
                if b in term_vars:
                    raise CaptureError(b, target)
            out += term_tokens
            continue
        out.append(tok)
    return _encode_tokens(_normalize_tokens(out), config)


def encode_proof(
    proof: _proofs.Proof, config: NumberingConfig = DEFAULT_CONFIG
) -> int:
    """Sequence code of the proof's line-formula codes.

    Under pairing a line code's chunk is its stream, after as many zeros and
    a 1, so the lines are spelled as streams and joined, and only the proof
    code is made as a number.
    """
    if config.seq == "prime":
        return _encode_prime_sequence(
            [encode_expr(line.formula, config) for line in proof.lines]
        )
    chunked = _CHUNKED[config.scheme]
    parts = ["1"]
    for line in proof.lines:
        bits = "".join(spell(line.formula, chunked))
        parts += ("0" * len(bits), "1", bits)
    return int("".join(parts), 2)


def meta_pf(u: int, x: int, config: NumberingConfig = DEFAULT_CONFIG) -> bool:
    """Whether u codes a proof whose conclusion has code x.

    Total: any malformed input yields False, never an exception.  A proof
    here is a nonempty formula sequence in which every formula is an
    axiom instance or follows from earlier entries by MP or GEN.  The last
    line is held against the conclusion first, which is decoded only when
    its code is not the last line's; then the lines are decoded
    and judged in order, and the first that fails ends the check.  All of
    them and the conclusion are interned in one table, so each formula is
    looked up among the earlier ones by identity, and the axiom schemas
    compare parts by semantic_eq, which tries identity first; no key is
    spelled.  Under pairing each line is sliced out of u's stream as its
    own stream and decoded from its bits, and x is compared by its stream.
    """
    try:
        if not isinstance(u, int) or not isinstance(x, int):
            return False
        if config.seq == "prime":
            lines = _decode_prime_sequence(u)
            read = partial(_decode_tokens, config=config)
        else:
            # a line's stream is its chunk after the leading zeros and the 1
            lines = [chunk[len(chunk) // 2 + 1:] for chunk in _chunks(_stream(u))]
            read, x = partial(_read_stream, scheme=config.scheme), _stream(x)
        if not lines:
            return False
        table: dict = {}

        def decode(line) -> Expr:
            return _parse_tokens(read(line), table)

        last = decode(lines[-1])
        # one code decodes to one interned tree, so only another code is read
        if not isinstance(last, Formula) or x != lines[-1] and decode(x) is not last:
            return False
        earlier: set[int] = set()  # ids of the lines judged so far
        # id of B -> ids of A, for each earlier line (A -> B)
        antecedents: dict[int, list[int]] = {}
        for number, line in enumerate(lines, 1):
            # a term is no axiom, no MP consequent and no generalisation
            f = last if number == len(lines) else decode(line)
            if not (
                any(a in earlier for a in antecedents.get(id(f), ()))
                or (f.__class__ is ForAll and id(f.body) in earlier)
                or _proofs.is_any_axiom(f)
            ):
                return False
            earlier.add(id(f))
            if f.__class__ is Implies:
                antecedents.setdefault(id(f.right), []).append(id(f.left))
        return True
    except (NumberingError, ValueError):
        return False
