"""Seeded input generators owned by the benchmark.

Every generator draws from the random.Random instances it is given, so the
same seed gives the same inputs.  Terms and formulas come out as neutral
forms (forms.py).  Proofs are built with arithlab's own ProofBuilder from
closed terms, because a proof is only an input if every line is really
derivable.
"""

from __future__ import annotations

import random

import forms

SMALL_NUMERALS = 6
# numerals above the decoder's 500 expansion cap stay compact after decode;
# values between ~300 and 500 would come back as S-chains too deep for
# structural comparison, so big numerals are drawn well past the cap
BIG_NUMERALS = (10**3, 10**30)


def numeral(rng: random.Random, big_share: float = 0.0) -> int:
    if rng.random() < big_share:
        return rng.randint(*BIG_NUMERALS)
    return rng.randint(0, SMALL_NUMERALS)


def term(rng: random.Random, depth: int, max_var: int = 3, big_share: float = 0.0) -> tuple:
    kinds = ["x", "0", "num"] + (["S", "+", "*"] if depth > 0 else [])
    kind = rng.choice(kinds)
    if kind == "x":
        return ("x", rng.randint(1, max_var))
    if kind == "0":
        return ("0",)
    if kind == "num":
        return ("num", numeral(rng, big_share))
    if kind == "S":
        return ("S", term(rng, depth - 1, max_var, big_share))
    return (kind, term(rng, depth - 1, max_var, big_share),
            term(rng, depth - 1, max_var, big_share))


def formula(rng: random.Random, depth: int, max_var: int = 3, big_share: float = 0.0,
            bind_var: int | None = None) -> tuple:
    """A formula with connective nesting at most depth.  Quantifiers bind
    variables up to bind_var (default max_var)."""
    bind_var = bind_var or max_var
    kind = "=" if depth == 0 else rng.choice(["=", "~", "->", "all"])
    if kind == "=":
        d = max(depth, 1)
        return ("=", term(rng, d, max_var, big_share), term(rng, d, max_var, big_share))
    if kind == "~":
        return ("~", formula(rng, depth - 1, max_var, big_share, bind_var))
    if kind == "->":
        return ("->", formula(rng, depth - 1, max_var, big_share, bind_var),
                formula(rng, depth - 1, max_var, big_share, bind_var))
    return ("all", rng.randint(1, bind_var),
            formula(rng, depth - 1, max_var, big_share, bind_var))


def closed_term(shape: random.Random, leaves: random.Random, depth: int) -> tuple:
    """A closed term whose form comes from shape and numerals from leaves.
    The numerals stay small: decoding expands them into successor chains,
    so their size would make proofs of one shape differ in cost."""
    kind = shape.choice(["num", "S", "+", "*"] if depth > 0 else ["num"])
    if kind == "num":
        return ("num", leaves.randint(1, 3))
    if kind == "S":
        return ("S", closed_term(shape, leaves, depth - 1))
    return (kind, closed_term(shape, leaves, depth - 1), closed_term(shape, leaves, depth - 1))


def model(rng: random.Random, size: int) -> tuple:
    """(size, zero, succ, add, mul, eq) with equality read as identity."""
    dom = range(size)
    return (
        size,
        rng.randrange(size),
        tuple(rng.randrange(size) for _ in dom),
        tuple(tuple(rng.randrange(size) for _ in dom) for _ in dom),
        tuple(tuple(rng.randrange(size) for _ in dom) for _ in dom),
        tuple(tuple(int(a == b) for b in dom) for a in dom),
    )


def deep_sum_text(depth: int) -> str:
    """(0 + (0 + ... 0)) nested depth times, past the parser's recursion."""
    return "(0 + " * depth + "0" + ")" * depth


# --------------------------------------------------------------------------
# proofs


def built_proof(lab, shape: random.Random, leaves: random.Random, target_lines: int):
    """A valid proof of exactly target_lines lines from ProofBuilder's
    equality helpers applied to closed terms.  shape picks the steps and the
    terms' forms, leaves the numerals in them: proofs of one shape cost
    alike, whatever their numerals.  Every line cites only earlier ones, so
    cutting a proof short leaves a proof of its last line."""
    syntax = lab.syntax
    b = lab.proofs.ProofBuilder()

    def term(depth):
        return forms.to_tree(syntax, closed_term(shape, leaves, depth))

    eq_lines: list[int] = []
    length = 0
    while length < target_lines:
        op = shape.randrange(6) if eq_lines else 0
        if op == 0:
            line = b.eq_refl(term(2))
        elif op == 1:
            line = b.proper_instance(shape.choice(("S5", "S7")), [term(2)])
        elif op == 2:
            line = b.proper_instance(shape.choice(("S6", "S8")), [term(1), term(1)])
        elif op == 3:
            line = b.eq_sym(shape.choice(eq_lines))
        elif op == 4:
            first = shape.choice(eq_lines)
            line = b.eq_trans(first, b.eq_sym(first))
        else:
            source = shape.choice(eq_lines)
            f = b.formula(source)
            line = b.mp(source, b.proper_instance("S2", [f.left, f.right]))
        eq_lines.append(line)
        length = max(length, line)
    return lab.proofs.Proof(b.build().lines[:target_lines])


def mutated(lab, rng: random.Random, proof, fraction: float):
    """proof with one seeded line replaced by a formula that is false in the
    standard model wherever the original line is true: its negation, or the
    original implying (0 = S(0)).  Every line of a valid proof is a theorem,
    so by soundness the new line is derivable by no route, and both the
    kernel and the proof predicate must reject it at exactly that line.
    The line sits at the given fraction of the proof, in [0, 1).
    Returns (mutant, line number)."""
    syntax, proofs = lab.syntax, lab.proofs
    k = int(fraction * len(proof.lines)) + 1
    old = proof.lines[k - 1]
    if rng.random() < 0.5:
        new = syntax.Not(old.formula)
    else:
        new = syntax.Implies(old.formula, syntax.Eq(syntax.Zero(), syntax.Succ(syntax.Zero())))
    lines = list(proof.lines)
    lines[k - 1] = proofs.ProofLine(old.number, new, old.justification)
    return proofs.Proof(tuple(lines)), k
