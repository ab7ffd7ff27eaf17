"""Primitive recursive functions and their representing formulas.

A PR function is a term over zero, succ, projections, composition and
primitive recursion (no minimisation).  eval_pr computes values, and
represent builds a formula that defines the function's graph inside the
theory: inputs sit at x1..xn, the output at x(n+1), and every internal
variable is a fresh higher index bound by a quantifier.

Recursion is arithmetised through the beta function

    beta(c, d, i) = c mod (1 + (i + 1) * d)

which can code any finite sequence for suitable c, d (find_beta_coeffs
searches for the coefficients).  The recursion formula asserts the
existence of c, d coding the whole course of values.

check_representation probes a representation numerically.  Honest
full evaluation of the unbounded existentials is out of reach, so the
check is witness-guided: represent records, for every quantifier it
introduces, a rule computing the intended witness from the values in
scope, and a certificate evaluator then decides the formula exactly
once those witnesses are plugged in.  Confirmation means the formula
certifies the true output and rejects every rival candidate up to the
search bound; it is an empirical check on the construction, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .syntax import (
    Add,
    BigNumeral,
    Eq,
    ForAll,
    Formula,
    Implies,
    Mul,
    Not,
    Succ,
    Term,
    Var,
    Zero,
    conj,
    exists,
)


class PRError(Exception):
    """Malformed PR function term or evaluation problem."""


class CertEvalError(Exception):
    """The certificate evaluator met a shape or gap it cannot decide."""


class PRFunc:
    """Base class for PR function terms."""

    __slots__ = ()

    arity: int

    def __str__(self) -> str:
        return format_pr(self)


@dataclass(frozen=True)
class ZeroFn(PRFunc):
    """The constantly-zero unary function."""

    @property
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class SuccFn(PRFunc):
    """The successor function."""

    @property
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Proj(PRFunc):
    """Projection of the i-th of n arguments (1-based)."""

    n: int
    i: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 1 <= self.i <= self.n:
            raise PRError(f"bad projection ({self.n}, {self.i})")

    @property
    def arity(self) -> int:
        return self.n


@dataclass(frozen=True)
class Comp(PRFunc):
    """Composition outer(inner_1(args), ..., inner_k(args))."""

    outer: PRFunc
    inner: tuple[PRFunc, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", tuple(self.inner))
        if len(self.inner) != self.outer.arity:
            raise PRError(
                f"composition feeds {len(self.inner)} values to a function "
                f"of arity {self.outer.arity}"
            )
        if not self.inner:
            raise PRError("composition needs at least one inner function")
        arities = {g.arity for g in self.inner}
        if len(arities) != 1:
            raise PRError("inner functions must share one arity")

    @property
    def arity(self) -> int:
        return self.inner[0].arity


@dataclass(frozen=True)
class Rec(PRFunc):
    """Primitive recursion.

    f(xs, 0) = base(xs); f(xs, n + 1) = step(xs, n, f(xs, n)).
    base must take at least one argument.
    """

    base: PRFunc
    step: PRFunc

    def __post_init__(self) -> None:
        if self.step.arity != self.base.arity + 2:
            raise PRError(
                f"recursion step has arity {self.step.arity}, "
                f"needs base arity + 2 = {self.base.arity + 2}"
            )

    @property
    def arity(self) -> int:
        return self.base.arity + 1


def eval_pr(f: PRFunc, args: tuple[int, ...] | list[int]) -> int:
    """Value of f at args."""
    args = tuple(args)
    if len(args) != f.arity:
        raise PRError(f"arity {f.arity} function applied to {len(args)} arguments")
    if any(a < 0 for a in args):
        raise PRError("arguments must be natural numbers")
    if isinstance(f, ZeroFn):
        return 0
    if isinstance(f, SuccFn):
        return args[0] + 1
    if isinstance(f, Proj):
        return args[f.i - 1]
    if isinstance(f, Comp):
        inner = tuple(eval_pr(g, args) for g in f.inner)
        return eval_pr(f.outer, inner)
    if isinstance(f, Rec):
        *xs, n = args
        acc = eval_pr(f.base, tuple(xs))
        for i in range(n):
            acc = eval_pr(f.step, (*xs, i, acc))
        return acc
    raise PRError(f"not a PR function term: {f!r}")


def course_of_values(f: Rec, xs: tuple[int, ...], n: int) -> list[int]:
    """[f(xs, 0), f(xs, 1), ..., f(xs, n)] computed in one sweep."""
    acc = eval_pr(f.base, xs)
    out = [acc]
    for i in range(n):
        acc = eval_pr(f.step, (*xs, i, acc))
        out.append(acc)
    return out


# --------------------------------------------------------------------------
# beta function


def beta(c: int, d: int, i: int) -> int:
    return c % (1 + (i + 1) * d)


def find_beta_coeffs(values: list[int], ceiling: int = 10**6) -> tuple[int, int]:
    """Smallest (d, then c) with beta(c, d, i) = values[i] for all i.

    Searches d upward; for each d solves the congruences by CRT over the
    non-coprime moduli 1 + (i+1)d.  Raises PRError when nothing fits
    under the ceiling.
    """
    if not values:
        raise PRError("cannot code an empty sequence")
    if any(v < 0 for v in values):
        raise PRError("sequence entries must be natural numbers")
    for d in range(1, ceiling + 1):
        moduli = [1 + (i + 1) * d for i in range(len(values))]
        if any(v >= m for v, m in zip(values, moduli)):
            continue
        c, m = values[0], moduli[0]
        for a, mod in zip(values[1:], moduli[1:]):
            g = math.gcd(m, mod)
            if (a - c) % g != 0:
                c = None
                break
            step = mod // g
            t = ((a - c) // g) % step
            t = (t * pow(m // g, -1, step)) % step
            c = c + m * t
            m = m // g * mod
            c %= m
        if c is None:
            continue
        if c <= ceiling:
            return c, d
    raise PRError(f"no beta coefficients under {ceiling} code {values}")


# --------------------------------------------------------------------------
# representing formulas


Env = dict[int, int]
WitnessRule = Callable[[Env], int | None]


@dataclass
class Representation:
    """A formula defining a PR function's graph, plus witness rules.

    inputs and output give the variable layout; witness_rules maps each
    quantified variable index to a rule producing its intended value
    from an environment covering the variables in scope.
    """

    func: PRFunc
    formula: Formula
    inputs: tuple[int, ...]
    output: int
    witness_rules: dict[int, WitnessRule] = field(repr=False, default_factory=dict)


class _Builder:
    def __init__(self, first_fresh: int):
        self.next_fresh = first_fresh
        self.rules: dict[int, WitnessRule] = {}

    def fresh(self) -> int:
        v = self.next_fresh
        self.next_fresh += 1
        return v

    def lt(self, small: Term, large: Term) -> Formula:
        w = self.fresh()

        def rule(env: Env, s=small, l=large) -> int | None:
            gap = term_value_env(l, env) - term_value_env(s, env) - 1
            return gap if gap >= 0 else None

        self.rules[w] = rule
        return exists(w, Eq(Add(small, Succ(Var(w))), large))

    def beta_formula(self, c: int, d: int, index: Term, result: int) -> Formula:
        # beta(c, d, i) = y says: c = q * S(i*d + d) + y with y < S(i*d + d)
        divisor = Succ(Add(Mul(index, Var(d)), Var(d)))
        q = self.fresh()

        def rule(env: Env, div=divisor) -> int | None:
            return env[c] // term_value_env(div, env)

        self.rules[q] = rule
        return exists(
            q,
            conj(
                Eq(Var(c), Add(Mul(Var(q), divisor), Var(result))),
                self.lt(Var(result), divisor),
            ),
        )

    def build(self, f: PRFunc, inputs: tuple[int, ...], output: int) -> Formula:
        if isinstance(f, ZeroFn):
            return conj(
                Eq(Var(inputs[0]), Var(inputs[0])), Eq(Var(output), Zero())
            )
        if isinstance(f, SuccFn):
            return Eq(Var(output), Succ(Var(inputs[0])))
        if isinstance(f, Proj):
            pieces = [Eq(Var(output), Var(inputs[f.i - 1]))]
            pieces.extend(
                Eq(Var(x), Var(x))
                for j, x in enumerate(inputs, start=1)
                if j != f.i
            )
            return _conj_all(pieces)
        if isinstance(f, Comp):
            mids = []
            for g in f.inner:
                z = self.fresh()
                mids.append(z)

                def rule(env: Env, g=g, ins=inputs) -> int | None:
                    return eval_pr(g, tuple(env[x] for x in ins))

                self.rules[z] = rule
            pieces = [
                self.build(g, inputs, z) for g, z in zip(f.inner, mids)
            ]
            pieces.append(self.build(f.outer, tuple(mids), output))
            body = _conj_all(pieces)
            for z in reversed(mids):
                body = exists(z, body)
            return body
        if isinstance(f, Rec):
            return self._build_rec(f, inputs, output)
        raise PRError(f"not a PR function term: {f!r}")

    def _build_rec(self, f: Rec, inputs: tuple[int, ...], output: int) -> Formula:
        xs = inputs[:-1]
        n_var = inputs[-1]
        c = self.fresh()
        d = self.fresh()

        course_cache: dict[tuple, list[int]] = {}
        coeff_cache: dict[tuple, tuple[int, int]] = {}

        def course(env: Env) -> list[int]:
            key = (tuple(env[x] for x in xs), env[n_var])
            if key not in course_cache:
                course_cache[key] = course_of_values(f, *key)
            return course_cache[key]

        def coeffs(env: Env) -> tuple[int, int]:
            key = (tuple(env[x] for x in xs), env[n_var])
            if key not in coeff_cache:
                coeff_cache[key] = find_beta_coeffs(course(env))
            return coeff_cache[key]

        self.rules[c] = lambda env: coeffs(env)[0]
        self.rules[d] = lambda env: coeffs(env)[1]

        w = self.fresh()
        self.rules[w] = lambda env: course(env)[0]
        start = exists(
            w, conj(self.beta_formula(c, d, Zero(), w), self.build(f.base, xs, w))
        )

        i = self.fresh()
        u = self.fresh()
        v = self.fresh()
        self.rules[u] = lambda env: course(env)[env[i]]
        self.rules[v] = lambda env: course(env)[env[i] + 1]
        step_body = _conj_all(
            [
                self.beta_formula(c, d, Var(i), u),
                self.beta_formula(c, d, Succ(Var(i)), v),
                self.build(f.step, (*xs, i, u), v),
            ]
        )
        steps = ForAll(
            i,
            Implies(
                self.lt(Var(i), Var(n_var)), exists(u, exists(v, step_body))
            ),
        )

        finish = self.beta_formula(c, d, Var(n_var), output)
        return exists(c, exists(d, _conj_all([start, steps, finish])))


def _conj_all(pieces: list[Formula]) -> Formula:
    out = pieces[-1]
    for p in reversed(pieces[:-1]):
        out = conj(p, out)
    return out


def represent(f: PRFunc) -> Representation:
    """Representing formula for f with inputs x1..xn and output x(n+1)."""
    n = f.arity
    inputs = tuple(range(1, n + 1))
    output = n + 1
    builder = _Builder(first_fresh=n + 2)
    formula = builder.build(f, inputs, output)
    return Representation(f, formula, inputs, output, builder.rules)


# --------------------------------------------------------------------------
# certificate evaluation


def term_value_env(t: Term, env: Env) -> int:
    succs = 0
    while isinstance(t, Succ):
        succs += 1
        t = t.arg
    if isinstance(t, Zero):
        return succs
    if isinstance(t, BigNumeral):
        return succs + t.value
    if isinstance(t, Var):
        if t.index not in env:
            raise CertEvalError(f"x{t.index} has no value in scope")
        return succs + env[t.index]
    if isinstance(t, Add):
        return succs + term_value_env(t.left, env) + term_value_env(t.right, env)
    if isinstance(t, Mul):
        return succs + term_value_env(t.left, env) * term_value_env(t.right, env)
    raise CertEvalError(f"cannot value term {t!r}")


def _as_and(f: Formula) -> tuple[Formula, Formula] | None:
    if (
        isinstance(f, Not)
        and isinstance(f.body, Implies)
        and isinstance(f.body.right, Not)
    ):
        return f.body.left, f.body.right.body
    return None


def _as_exists(f: Formula) -> tuple[int, Formula] | None:
    if (
        isinstance(f, Not)
        and isinstance(f.body, ForAll)
        and isinstance(f.body.body, Not)
    ):
        return f.body.index, f.body.body.body
    return None


def _bounded_range(f: ForAll, env: Env) -> tuple[int, Formula] | None:
    # matches forall v (v < t -> B); returns (value of t, B)
    if not isinstance(f.body, Implies):
        return None
    guard = _as_exists(f.body.left)
    if guard is None:
        return None
    w, g = guard
    if not (
        isinstance(g, Eq)
        and isinstance(g.left, Add)
        and g.left.left == Var(f.index)
        and g.left.right == Succ(Var(w))
    ):
        return None
    return term_value_env(g.right, env), f.body.right


def certificate_eval(f: Formula, env: Env, rules: dict[int, WitnessRule]) -> bool:
    """Decide f under env, resolving quantifiers through witness rules.

    Existentials take the single value their rule supplies (a missing or
    invalid witness counts as false); universals must carry an explicit
    numeric bound.  Anything else is not certificate-checkable.
    """
    if isinstance(f, Eq):
        return term_value_env(f.left, env) == term_value_env(f.right, env)
    both = _as_and(f)
    if both is not None:
        return certificate_eval(both[0], env, rules) and certificate_eval(
            both[1], env, rules
        )
    ex = _as_exists(f)
    if ex is not None:
        v, body = ex
        rule = rules.get(v)
        if rule is None:
            raise CertEvalError(f"no witness rule for x{v}")
        try:
            value = rule(env)
        except PRError as e:
            raise CertEvalError(f"witness rule for x{v} failed: {e}") from e
        if value is None or value < 0:
            return False
        return certificate_eval(body, {**env, v: value}, rules)
    if isinstance(f, ForAll):
        bounded = _bounded_range(f, env)
        if bounded is None:
            raise CertEvalError("universal quantifier without a numeric bound")
        bound, body = bounded
        return all(
            certificate_eval(body, {**env, f.index: k}, rules)
            for k in range(bound)
        )
    raise CertEvalError(f"shape not certificate-checkable: {type(f).__name__}")


@dataclass(frozen=True)
class ReprCheck:
    verdict: str  # confirmed | refuted | unknown
    detail: str

    def __str__(self) -> str:
        return f"{self.verdict}: {self.detail}"


def check_representation(
    f: PRFunc, args: tuple[int, ...] | list[int], search_bound: int = 100
) -> ReprCheck:
    """Probe whether the representing formula tracks f at args.

    confirmed: the formula certifies output f(args) and rejects every
    other candidate up to search_bound.  refuted: some wrong candidate
    is certified.  unknown: the true output exceeds the bound, or the
    certificate machinery could not decide.
    """
    args = tuple(args)
    shown = f"f({', '.join(str(a) for a in args)})"
    expected = eval_pr(f, args)
    if expected > search_bound:
        return ReprCheck(
            "unknown", f"witness {expected} exceeds bound {search_bound}"
        )
    rep = represent(f)
    env = {x: a for x, a in zip(rep.inputs, args)}
    try:
        good = certificate_eval(
            rep.formula, {**env, rep.output: expected}, rep.witness_rules
        )
    except CertEvalError as e:
        return ReprCheck("unknown", f"certificate evaluation failed: {e}")
    if not good:
        return ReprCheck(
            "unknown",
            f"could not certify the true output {expected} at {shown}",
        )
    for rival in range(search_bound + 1):
        if rival == expected:
            continue
        try:
            if certificate_eval(
                rep.formula, {**env, rep.output: rival}, rep.witness_rules
            ):
                return ReprCheck(
                    "refuted", f"formula accepts {rival} != {shown} = {expected}"
                )
        except CertEvalError as e:
            return ReprCheck("unknown", f"certificate evaluation failed: {e}")
    return ReprCheck(
        "confirmed",
        f"{shown} = {expected} certified; no rival candidate up to "
        f"{search_bound} accepted",
    )


# --------------------------------------------------------------------------
# catalog and the s-expression syntax


def _pd2() -> PRFunc:
    # helper g(x, 0) = 0, g(x, n+1) = n; predecessor ignores the first slot
    return Rec(ZeroFn(), Proj(3, 2))


ADDITION = Rec(Proj(1, 1), Comp(SuccFn(), (Proj(3, 3),)))
MULTIPLICATION = Rec(ZeroFn(), Comp(ADDITION, (Proj(3, 3), Proj(3, 1))))
PREDECESSOR = Comp(_pd2(), (Proj(1, 1), Proj(1, 1)))
TRUNCATED_SUBTRACTION = Rec(Proj(1, 1), Comp(PREDECESSOR, (Proj(3, 3),)))

CATALOG: dict[str, PRFunc] = {
    "addition": ADDITION,
    "multiplication": MULTIPLICATION,
    "predecessor": PREDECESSOR,
    "truncated_subtraction": TRUNCATED_SUBTRACTION,
}


def format_pr(f: PRFunc) -> str:
    if isinstance(f, ZeroFn):
        return "zero"
    if isinstance(f, SuccFn):
        return "succ"
    if isinstance(f, Proj):
        return f"(proj {f.n} {f.i})"
    if isinstance(f, Comp):
        inner = " ".join(format_pr(g) for g in f.inner)
        return f"(comp {format_pr(f.outer)} {inner})"
    if isinstance(f, Rec):
        return f"(rec {format_pr(f.base)} {format_pr(f.step)})"
    raise PRError(f"not a PR function term: {f!r}")


def parse_pr(text: str) -> PRFunc:
    """Parse the s-expression syntax: zero, succ, (proj n i), (comp f g...),
    (rec base step), or a catalog name."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise PRError("empty PR function text")
    f, rest = _parse_pr_tokens(tokens, 0)
    if rest != len(tokens):
        raise PRError("trailing input after a complete PR function")
    return f


def _parse_pr_tokens(tokens: list[str], i: int) -> tuple[PRFunc, int]:
    tok = tokens[i]
    if tok == "zero":
        return ZeroFn(), i + 1
    if tok == "succ":
        return SuccFn(), i + 1
    if tok in CATALOG:
        return CATALOG[tok], i + 1
    if tok != "(":
        raise PRError(f"unexpected token {tok!r}")
    if i + 1 >= len(tokens):
        raise PRError("unclosed '('")
    head = tokens[i + 1]
    i += 2
    if head == "proj":
        try:
            n, k = int(tokens[i]), int(tokens[i + 1])
        except (IndexError, ValueError):
            raise PRError("proj needs two integers") from None
        if tokens[i + 2 : i + 3] != [")"]:
            raise PRError("proj takes exactly two integers")
        return Proj(n, k), i + 3
    if head in ("comp", "rec"):
        parts = []
        while i < len(tokens) and tokens[i] != ")":
            part, i = _parse_pr_tokens(tokens, i)
            parts.append(part)
        if i >= len(tokens):
            raise PRError("unclosed '('")
        if head == "comp":
            if len(parts) < 2:
                raise PRError("comp needs an outer function and inner functions")
            return Comp(parts[0], tuple(parts[1:])), i + 1
        if len(parts) != 2:
            raise PRError("rec needs exactly a base and a step")
        return Rec(parts[0], parts[1]), i + 1
    raise PRError(f"unknown form {head!r}")
