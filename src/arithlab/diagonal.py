"""Diagonalisation: formulas that speak about their own codes.

Given a formula Q with free variables among x1 and a designated diagonal
slot (x2 by default), the construction closes x1 and feeds the code of
the closure into the slot:

    q = code of Q
    p = code of (forall x1) Q
    R = Q with the numeral for p substituted for the slot variable
    sentence = (forall x1) R

The substitution identity makes the sentence assert something about its
own code: the code of the sentence equals meta_sub(p, meta_num(p), v)
where v is the slot variable's symbol code.  diagonalize carries the
construction out on both the tree and the code route; when the prime
encoding cannot hold the numeral for p, the code-route results stay
symbolic (None plus a defining expression).

The checks here are purely computational.  Everything that would need a
derivability argument about the produced sentence is out of scope and
listed in ASSUMPTIONS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .godel import (
    DEFAULT_CONFIG,
    InfeasibleMagnitudeError,
    NotACodeError,
    NumberingConfig,
    encode_expr,
    meta_num,
    meta_pf,
    meta_sub,
    variable_code,
)
from .syntax import (
    BigNumeral,
    ForAll,
    Formula,
    NotATreeError,
    free_vars,
    numeral,
    substitute,
)

ASSUMPTIONS: tuple[str, ...] = (
    "the object theory is assumed consistent",
    "derivability claims about the diagonal sentence are not machine-checked;"
    " only code-level substitution identities are verified",
)


@dataclass(frozen=True)
class DiagResult:
    """Outcome of diagonalising a formula.

    r and sentence_code are None when the configured encoding cannot
    hold them; defining expressions record what they denote regardless.
    Those are spelled only when read, since q and p can have more digits
    than the interpreter converts by default.
    """

    formula: Formula
    diag_var: int
    slot_code: int
    q: int
    p: int
    r: int | None
    sentence: Formula
    sentence_code: int | None

    @property
    def r_expression(self) -> str:
        return f"meta_sub({self.q}, meta_num({self.p}), {self.slot_code})"

    @property
    def sentence_code_expression(self) -> str:
        return f"meta_sub({self.p}, meta_num({self.p}), {self.slot_code})"


def diagonalize(
    q_formula: Formula,
    diag_var: int = 2,
    config: NumberingConfig = DEFAULT_CONFIG,
) -> DiagResult:
    """Build the self-referential closure of q_formula.

    diag_var names the variable slot receiving the numeral of the
    closure's own code.  Free variables of q_formula should lie in
    {x1, x_diag_var} for the classical reading, but any formula is
    accepted.
    """
    if not isinstance(q_formula, Formula):
        raise NotATreeError("diagonalize needs a formula")
    v = variable_code(diag_var, config)
    q = encode_expr(q_formula, config)
    closed = ForAll(1, q_formula)
    p = encode_expr(closed, config)
    r_formula = substitute(q_formula, diag_var, BigNumeral(p))
    sentence = ForAll(1, r_formula)
    try:
        num_p = meta_num(p, config)
        r = meta_sub(q, num_p, v, config)
        sentence_code = meta_sub(p, num_p, v, config)
    except InfeasibleMagnitudeError:
        r = None
        sentence_code = None
    return DiagResult(
        formula=q_formula,
        diag_var=diag_var,
        slot_code=v,
        q=q,
        p=p,
        r=r,
        sentence=sentence,
        sentence_code=sentence_code,
    )


def q_relation(
    x: int,
    y: int,
    diag_var: int = 2,
    config: NumberingConfig = DEFAULT_CONFIG,
) -> bool | None:
    """Whether x fails to prove the diagonalisation of y.

    Computes not meta_pf(x, meta_sub(y, meta_num(y), v)).  Returns None
    when the encoding guard makes the inner codes unreachable, and True
    when y is not a formula code at all (nothing to prove, so nothing is
    proved).
    """
    v = variable_code(diag_var, config)
    try:
        target = meta_sub(y, meta_num(y, config), v, config)
    except InfeasibleMagnitudeError:
        return None
    except NotACodeError:
        return True
    return not meta_pf(x, target, config)


@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    checks: tuple[tuple[str, bool], ...]
    assumptions: tuple[str, ...]

    def __str__(self) -> str:
        lines = ["assumed, not checked:"]
        lines.extend(f"  - {a}" for a in self.assumptions)
        lines.extend(
            f"{'PASS' if good else 'FAIL'}  {name}" for name, good in self.checks
        )
        lines.append("overall: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def lemma2_shape_check(
    q_formula: Formula,
    max_instance: int = 3,
    diag_var: int = 2,
    config: NumberingConfig = DEFAULT_CONFIG,
) -> ShapeReport:
    """Verify the substitution identities behind the diagonal sentence.

    Checks that the code route and the tree route agree: the sentence's
    code equals the code-level diagonal substitution, the open kernel R
    keeps its free variables inside {x1}, and for each k <= max_instance
    substituting the numeral k for x1 commutes with encoding.
    """
    diag = diagonalize(q_formula, diag_var, config)
    checks: list[tuple[str, bool]] = []

    if diag.sentence_code is None or diag.r is None:
        checks.append(
            ("code route feasible under the configured encoding", False)
        )
        return ShapeReport(False, tuple(checks), ASSUMPTIONS)

    checks.append(
        (
            "sentence code equals the diagonal substitution on codes",
            encode_expr(diag.sentence, config) == diag.sentence_code,
        )
    )
    r_formula = diag.sentence.body
    checks.append(
        (
            "open kernel carries no free variable besides x1",
            free_vars(r_formula) <= {1},
        )
    )
    checks.append(
        (
            "kernel code matches the code-level substitution",
            encode_expr(r_formula, config) == diag.r,
        )
    )
    x1 = variable_code(1, config)
    for k in range(max_instance + 1):
        tree_route = encode_expr(substitute(r_formula, 1, numeral(k)), config)
        code_route = meta_sub(diag.r, meta_num(k, config), x1, config)
        checks.append((f"instance at numeral {k} commutes", tree_route == code_route))

    ok = all(good for _, good in checks)
    return ShapeReport(ok, tuple(checks), ASSUMPTIONS)
