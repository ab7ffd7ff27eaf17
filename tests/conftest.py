"""Shared helpers for the test suite.

Seeded generators for random terms, formulas, and proof mutations live
here so the property tests and the acceptance suite draw from the same
distributions.  Everything is deterministic given the Random instance.
"""

from __future__ import annotations

import dataclasses
import random

from arithlab.proofs import Proof, parse_proof
from arithlab.syntax import (
    Add,
    BigNumeral,
    Eq,
    ForAll,
    Implies,
    Mul,
    Not,
    Succ,
    Var,
    Zero,
)


def rand_term(rng: random.Random, depth: int, max_var: int = 3,
              max_numeral: int = 6):
    """Random closed-or-open term with nesting at most depth."""
    kinds = ["var", "zero", "num"]
    if depth > 0:
        kinds += ["succ", "add", "mul"]
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.randint(1, max_var))
    if kind == "zero":
        return Zero()
    if kind == "num":
        return BigNumeral(rng.randint(0, max_numeral))
    if kind == "succ":
        return Succ(rand_term(rng, depth - 1, max_var, max_numeral))
    if kind == "add":
        return Add(rand_term(rng, depth - 1, max_var, max_numeral),
                   rand_term(rng, depth - 1, max_var, max_numeral))
    return Mul(rand_term(rng, depth - 1, max_var, max_numeral),
               rand_term(rng, depth - 1, max_var, max_numeral))


def rand_formula(rng: random.Random, depth: int, max_var: int = 3,
                 max_numeral: int = 6):
    """Random formula with connective nesting at most depth."""
    if depth == 0:
        return Eq(rand_term(rng, 1, max_var, max_numeral),
                  rand_term(rng, 1, max_var, max_numeral))
    kind = rng.choice(["eq", "not", "imp", "forall"])
    if kind == "eq":
        return Eq(rand_term(rng, depth, max_var, max_numeral),
                  rand_term(rng, depth, max_var, max_numeral))
    if kind == "not":
        return Not(rand_formula(rng, depth - 1, max_var, max_numeral))
    if kind == "imp":
        return Implies(rand_formula(rng, depth - 1, max_var, max_numeral),
                       rand_formula(rng, depth - 1, max_var, max_numeral))
    return ForAll(rng.randint(1, max_var),
                  rand_formula(rng, depth - 1, max_var, max_numeral))


def swap_first_eq(f):
    """Swap the two sides of the first equation found in pre-order."""
    if isinstance(f, Eq):
        return Eq(f.right, f.left)
    if isinstance(f, Not):
        return Not(swap_first_eq(f.body))
    if isinstance(f, Implies):
        return Implies(swap_first_eq(f.left), f.right)
    if isinstance(f, ForAll):
        return ForAll(f.index, swap_first_eq(f.body))
    return f


def bump_first_zero(node):
    """Replace the first 0 in pre-order with S(0); returns (changed, node)."""
    if isinstance(node, Zero):
        return True, Succ(Zero())
    if isinstance(node, Succ):
        changed, inner = bump_first_zero(node.arg)
        return (True, Succ(inner)) if changed else (False, node)
    if isinstance(node, Not):
        changed, inner = bump_first_zero(node.body)
        return (True, Not(inner)) if changed else (False, node)
    if isinstance(node, (Add, Mul, Eq, Implies)):
        changed, left = bump_first_zero(node.left)
        if changed:
            return True, type(node)(left, node.right)
        changed, right = bump_first_zero(node.right)
        if changed:
            return True, type(node)(node.left, right)
        return False, node
    if isinstance(node, ForAll):
        changed, inner = bump_first_zero(node.body)
        return (True, ForAll(node.index, inner)) if changed else (False, node)
    return False, node


def mutate_formula(rng: random.Random, f):
    """A single content-changing edit.

    Each op alters what the formula says rather than just relabelling it,
    so a mutated proof line stops being derivable instead of merely
    losing its annotation.  Falls back to negation when an op is a no-op
    on this particular formula.
    """
    op = rng.randrange(4)
    if op == 0:
        g = swap_first_eq(f)
    elif op == 1:
        g = Not(f)
    elif op == 2:
        g = bump_first_zero(f)[1]
    else:
        g = Implies(f, Eq(Zero(), Succ(Zero())))
    if g == f:
        g = Not(f)
    return g


def mutate_proof_line(proof: Proof, lineno: int, new_formula) -> Proof:
    """Copy of proof with the formula at 1-based lineno replaced."""
    lines = list(proof.lines)
    lines[lineno - 1] = dataclasses.replace(lines[lineno - 1],
                                            formula=new_formula)
    return Proof(lines=tuple(lines))


def rand_mutated_proof(rng: random.Random, proof: Proof) -> Proof:
    """Mutate one random line of proof."""
    k = rng.randrange(len(proof.lines)) + 1
    old = proof.lines[k - 1].formula
    return mutate_proof_line(proof, k, mutate_formula(rng, old))


def deep_instance_proof(depth: int) -> Proof:
    """S5, GEN, A4 at S^depth(x2) and MP: a valid proof whose last two
    lines nest depth successors deep."""
    t = "S(" * depth + "x2" + ")" * depth
    return parse_proof(
        "1. ((x1 + 0) = x1) ; S5\n"
        "2. forall x1 . ((x1 + 0) = x1) ; GEN 1 x1\n"
        f"3. (forall x1 . ((x1 + 0) = x1) -> (({t} + 0) = {t})) ; A4\n"
        f"4. (({t} + 0) = {t}) ; MP 2 3\n"
    )
