"""Independent routes to the verdicts arithlab computes.

Each function here re-derives a documented result from its definition,
on the benchmark's neutral forms (see forms.py), without calling arithlab:

  symbol strings and all four codings (README "Codes", godel docstring),
  including the prime-encoding feasibility guard;
  Tarski truth in a finite model under both variable semantics, the
  numeral image and the restriction condition (models docstring);
  the catalog of primitive recursive functions as Python arithmetic.
"""

from __future__ import annotations

import itertools

CODINGS = ("mendelson-prime", "mendelson-pairing", "compact-prime", "compact-pairing")

MAX_SYMBOLS = 64  # the prime-encoding guard's defaults in NumberingConfig
MAX_CODE_BITS = 4096

_MENDELSON = {"(": 3, ")": 5, ",": 7, "~": 9, "->": 11, "forall": 13,
              "a1": 15, "f11": 49, "f12": 97, "f22": 289, "A12": 99}
_COMPACT = {"(": 1, ")": 2, ",": 3, "~": 4, "->": 5, "forall": 6,
            "a1": 7, "f11": 8, "f12": 9, "f22": 10, "A12": 11}


class Refused(Exception):
    """The documented prime-encoding guard refuses this expression."""


def _numeral_value(t: tuple) -> int | None:
    depth = 0
    while t[0] == "S":
        depth += 1
        t = t[1]
    if t[0] == "0":
        return depth
    if t[0] == "num":
        return depth + t[1]
    return None


def official_tokens(e: tuple) -> list:
    """The official symbol string, numerals kept as ("run", n) tokens."""
    out: list = []

    def term(t: tuple) -> None:
        value = _numeral_value(t)
        if value is not None:
            out.append("a1" if value == 0 else ("run", value))
        elif t[0] == "x":
            out.append(("x", t[1]))
        elif t[0] == "S":
            out.extend(["f11", "("])
            term(t[1])
            out.append(")")
        else:
            out.extend(["f12" if t[0] == "+" else "f22", "("])
            term(t[1])
            out.append(",")
            term(t[2])
            out.append(")")

    def formula(f: tuple) -> None:
        tag = f[0]
        if tag == "=":
            out.extend(["A12", "("])
            term(f[1])
            out.append(",")
            term(f[2])
            out.append(")")
        elif tag == "~":
            out.extend(["(", "~"])
            formula(f[1])
            out.append(")")
        elif tag == "->":
            out.append("(")
            formula(f[1])
            out.append("->")
            formula(f[2])
            out.append(")")
        else:
            out.extend(["(", "(", "forall", ("x", f[1]), ")"])
            formula(f[2])
            out.append(")")

    if e[0] in ("=", "~", "->", "all"):
        formula(e)
    else:
        term(e)
    return out


def _symbol_code(sym, scheme: str) -> int:
    if isinstance(sym, tuple):  # a variable x_k
        return 13 + 8 * sym[1] if scheme == "mendelson" else 11 + sym[1]
    return (_MENDELSON if scheme == "mendelson" else _COMPACT)[sym]


def _primes():
    found: list[int] = []
    for n in itertools.count(2):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
            yield n


def _prime_code(codes: list[int]) -> int:
    if len(codes) > MAX_SYMBOLS:
        raise Refused(f"{len(codes)} symbols")
    bits = 0
    for code, p in zip(codes, _primes()):
        bits += code * p.bit_length()
        if code > MAX_CODE_BITS or bits > MAX_CODE_BITS:
            raise Refused(f"about {bits} bits")
    out = 1
    for code, p in zip(codes, _primes()):
        out *= p ** code
    return out


def _gamma(n: int) -> str:
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def encode_tokens(tokens: list, coding: str) -> int:
    """The code of an official symbol string under a coding."""
    scheme, seq = coding.split("-")
    if seq == "prime":
        length = sum(3 * tok[1] + 1 if isinstance(tok, tuple) and tok[0] == "run" else 1
                     for tok in tokens)
        if length > MAX_SYMBOLS:
            raise Refused(f"{length} symbols")
        codes: list[int] = []
        for tok in tokens:
            if isinstance(tok, tuple) and tok[0] == "run":
                codes.extend([_symbol_code("f11", scheme), _symbol_code("(", scheme)] * tok[1])
                codes.append(_symbol_code("a1", scheme))
                codes.extend([_symbol_code(")", scheme)] * tok[1])
            else:
                codes.append(_symbol_code(tok, scheme))
        return _prime_code(codes)
    bits = ["1"]
    for tok in tokens:
        if isinstance(tok, tuple) and tok[0] == "run":
            bits.append(_gamma(1) + _gamma(tok[1]))
        else:
            bits.append(_gamma(_symbol_code(tok, scheme) + 1))
    return int("".join(bits), 2)


def encode(e: tuple, coding: str) -> int:
    """Reference code of e; raises Refused where the guard must refuse."""
    return encode_tokens(official_tokens(e), coding)


def encode_numeral(n: int, coding: str) -> int:
    return encode_tokens(["a1"] if n == 0 else [("run", n)], coding)


def variable_code(k: int, coding: str) -> int:
    return _symbol_code(("x", k), coding.split("-")[0])


def pairing_sequence(values: list[int]) -> int:
    """Pairing-stream code of a sequence of positive integers (proof codes)."""
    return int("1" + "".join(_gamma(v) for v in values), 2)


# --------------------------------------------------------------------------
# finite models: (size, zero, succ, add, mul, eq) as plain tuples


def numeral_image(m: tuple) -> list[int]:
    zero, succ = m[1], m[2]
    seen, v = [], zero
    while v not in seen:
        seen.append(v)
        v = succ[v]
    return seen


def _value(m: tuple, t: tuple, env: dict, image) -> int:
    _, zero, succ, add, mul, _ = m
    tag = t[0]
    if tag == "x":
        v = env.get(t[1], zero)
        return zero if image is not None and v not in image else v
    if tag == "0":
        return zero
    if tag == "num":
        v = zero
        for _ in range(t[1]):
            v = succ[v]
        return v
    if tag == "S":
        return succ[_value(m, t[1], env, image)]
    table = add if tag == "+" else mul
    return table[_value(m, t[1], env, image)][_value(m, t[2], env, image)]


def _sat(m: tuple, f: tuple, env: dict, image) -> bool:
    tag = f[0]
    if tag == "=":
        return bool(m[5][_value(m, f[1], env, image)][_value(m, f[2], env, image)])
    if tag == "~":
        return not _sat(m, f[1], env, image)
    if tag == "->":
        return not _sat(m, f[1], env, image) or _sat(m, f[2], env, image)
    return all(_sat(m, f[2], {**env, f[1]: d}, image) for d in range(m[0]))


def is_true(m: tuple, f: tuple, mode: str, free: set[int]) -> bool:
    """Truth of f in m under every assignment to its free variables.

    In parameterized mode a variable whose value lies outside the numeral
    image reads as zero; quantifiers still sweep the whole domain.
    """
    image = set(numeral_image(m)) if mode == "parameterized" else None
    fv = sorted(free)
    return all(
        _sat(m, f, dict(zip(fv, combo)), image)
        for combo in itertools.product(range(m[0]), repeat=len(fv))
    )


def restrictable(m: tuple) -> bool:
    """Whether plus and times keep the numeral image closed."""
    image = numeral_image(m)
    return all(
        m[3][a][b] in image and m[4][a][b] in image for a in image for b in image
    )


# --------------------------------------------------------------------------
# primitive recursive functions as Python arithmetic

CATALOG = {
    "addition": (2, lambda a, b: a + b),
    "multiplication": (2, lambda a, b: a * b),
    "predecessor": (1, lambda a: max(a - 1, 0)),
    "truncated_subtraction": (2, lambda a, b: max(a - b, 0)),
}


def pr_value(desc: tuple, args: tuple[int, ...]) -> int:
    """Value of a description ("cat", name) | ("proj", n, i) | ("comp", outer, inners)."""
    if desc[0] == "cat":
        return CATALOG[desc[1]][1](*args)
    if desc[0] == "proj":
        return args[desc[2] - 1]
    return pr_value(desc[1], tuple(pr_value(g, args) for g in desc[2]))
