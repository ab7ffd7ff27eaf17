"""A small corpus of checked proofs, built programmatically.

The kernel's S axioms are fixed formulas in x1..x3, so instances at other
terms are derived the long way: generalize, then strip the quantifiers
with A4 and MP.  ProofBuilder's equality helpers (reflexivity, symmetry,
transitivity through S1) package the standard derivations.

build_all() returns every corpus proof keyed by name; write_corpus()
serialises them in the proof file format, which is what the command
`arithlab corpus DIR` runs.
"""

from __future__ import annotations

import os

from .proofs import Proof, ProofBuilder, format_proof, schema_instance
from .syntax import (
    Add,
    ArithlabError,
    Eq,
    Implies,
    Succ,
    Var,
    Zero,
    substitute,
)

_ZERO = Zero()
_ONE = Succ(Zero())


def build_implication_identity() -> Proof:
    """((0 = 0) -> (0 = 0)) in the classic five lines from A1, A2 and MP."""
    b = ProofBuilder()
    f = Eq(_ZERO, _ZERO)
    f_to_f = Implies(f, f)
    l1 = b.axiom("A1", schema_instance("A1", B=f, C=f))
    l2 = b.axiom("A1", schema_instance("A1", B=f, C=f_to_f))
    l3 = b.axiom("A2", schema_instance("A2", B=f, C=f_to_f, D=f))
    l4 = b.mp(l2, l3)
    b.mp(l1, l4)
    return b.build()


def build_gen_plus_zero() -> Proof:
    """forall x1.((x1 + 0) = x1) directly from S5 and GEN."""
    b = ProofBuilder()
    s5 = b.axiom("S5", schema_instance("S5"))
    b.gen(s5, 1)
    return b.build()


def build_zero_plus_zero() -> Proof:
    """((0 + 0) = 0), an S5 instance at 0."""
    b = ProofBuilder()
    b.proper_instance("S5", [_ZERO])
    return b.build()


def build_succ_not_zero() -> Proof:
    """~(0 = S(0)), an S3 instance at 0."""
    b = ProofBuilder()
    b.proper_instance("S3", [_ZERO])
    return b.build()


def build_reflexivity_zero() -> Proof:
    """(0 = 0), derived from S5 and S1."""
    b = ProofBuilder()
    b.eq_refl(_ZERO)
    return b.build()


def build_one_plus_one() -> Proof:
    """((S(0) + S(0)) = S(S(0)))."""
    b = ProofBuilder()
    # (S(0) + S(0)) = S((S(0) + 0))
    l_ab = b.proper_instance("S6", [_ONE, _ZERO])
    # (S(0) + 0) = S(0)
    l_s5 = b.proper_instance("S5", [_ONE])
    # ((S(0) + 0) = S(0)) -> (S((S(0) + 0)) = S(S(0)))
    l_s2 = b.proper_instance("S2", [Add(_ONE, _ZERO), _ONE])
    l_bc = b.mp(l_s5, l_s2)
    b.eq_trans(l_ab, l_bc)
    return b.build()


def build_induction_left_identity() -> Proof:
    """forall x1.((0 + x1) = x1), which genuinely needs IND."""
    b = ProofBuilder()
    x1 = Var(1)
    prop = Eq(Add(_ZERO, x1), x1)
    # Base case: ((0 + 0) = 0).
    base = b.proper_instance("S5", [_ZERO])
    # Step: ((0 + x1) = x1) -> ((0 + S(x1)) = S(x1)).
    u = Add(_ZERO, Succ(x1))
    v = Succ(Add(_ZERO, x1))
    unfold = b.proper_instance("S6", [_ZERO, x1])  # (u = v)
    lift = b.proper_instance("S2", [Add(_ZERO, x1), x1])
    # lift: ((0 + x1) = x1) -> (v = S(x1))
    unfold_sym = b.eq_sym(unfold)  # (v = u)
    chain = b.proper_instance("S1", [v, u, Succ(x1)])
    half = b.mp(unfold_sym, chain)  # (v = S(x1)) -> (u = S(x1))
    step_impl = b.imp_trans(lift, half)
    step_closed = b.gen(step_impl, 1)
    ind = b.axiom(
        "IND",
        schema_instance(
            "IND",
            x=1,
            B=prop,
            B0=substitute(prop, 1, _ZERO),
            BS=substitute(prop, 1, Succ(x1)),
        ),
    )
    halfway = b.mp(base, ind)
    b.mp(step_closed, halfway)
    return b.build()


def build_conditional_closure() -> Proof:
    """((0 = 0) -> forall x1.((x1 + 0) = x1)), exercising A5."""
    b = ProofBuilder()
    s5f = schema_instance("S5")
    trivial = Eq(_ZERO, _ZERO)
    s5 = b.axiom("S5", s5f)
    weaken = b.axiom("A1", schema_instance("A1", B=s5f, C=trivial))
    cond = b.mp(s5, weaken)
    closed = b.gen(cond, 1)
    a5 = b.axiom("A5", schema_instance("A5", x=1, B=trivial, C=s5f))
    b.mp(closed, a5)
    return b.build()


def build_contraposition_instance() -> Proof:
    """A one-line A3 instance with B = C = (0 = 0)."""
    b = ProofBuilder()
    f = Eq(_ZERO, _ZERO)
    b.axiom("A3", schema_instance("A3", B=f, C=f))
    return b.build()


CORPUS_BUILDERS = {
    "implication_identity": build_implication_identity,
    "gen_plus_zero": build_gen_plus_zero,
    "zero_plus_zero": build_zero_plus_zero,
    "succ_not_zero": build_succ_not_zero,
    "reflexivity_zero": build_reflexivity_zero,
    "one_plus_one": build_one_plus_one,
    "induction_left_identity": build_induction_left_identity,
    "conditional_closure": build_conditional_closure,
    "contraposition_instance": build_contraposition_instance,
}


def build_all() -> dict[str, Proof]:
    return {name: builder() for name, builder in CORPUS_BUILDERS.items()}


class CorpusPathError(ArithlabError, ValueError):
    """A corpus directory name that no file can have, such as one with a NUL."""


def write_corpus(directory: str) -> list[str]:
    """Write every corpus proof as <name>.prf under directory."""
    try:
        os.makedirs(directory, exist_ok=True)
    except ValueError as e:  # a NUL in the name
        raise CorpusPathError(f"cannot write to {directory!r}: {e}") from None
    written = []
    for name, proof in build_all().items():
        path = os.path.join(directory, f"{name}.prf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_proof(proof))
        written.append(path)
    return written
