"""Primitive recursive functions and their representing formulas.

A PR function is a term over zero, succ, projections, composition and
primitive recursion (no minimisation); each term stores its arity when it
is made, so terms of any depth can be built.  Terms are equal when spelled
alike by format_pr, which is also their hash and repr; it and parse_pr keep
explicit stacks, so any depth prints and reads back.  eval_pr computes values,
and represent builds a formula that defines the function's graph inside
the theory: inputs sit at x1..xn, the output at x(n+1), and every
internal variable is a fresh higher index bound by a quantifier.

Recursion is arithmetised through the beta function

    beta(c, d, i) = c mod (1 + (i + 1) * d)

which can code any finite sequence for suitable c, d (find_beta_coeffs
searches for the coefficients).  The recursion formula asserts the
existence of c, d coding the whole course of values.  It states its
output conjunct, beta(c, d, n) = y, first, so a rival output is rejected
by one beta equation without the course of values being decided again.

check_representation probes a representation numerically.  Honest
full evaluation of the unbounded quantifiers is out of reach, so
represent records, for every quantifier it introduces, a range rule:
from the values in scope it gives what that variable ranges over.  An
existential ranges over its intended witness alone, or over nothing when
no witness exists; the universal of the recursion clause ranges over
the numbers below its bound.  The formula is then decided by
syntax.tarski, with equations decided in the naturals and each
quantifier ranging over its recorded range.  Confirmation means the
formula certifies the true output and rejects every rival candidate up
to the search bound; it is an empirical check on the construction, not
a proof.  The range rules of a recursion clause share one memo per
input: the course of values together with the c and d that code it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .syntax import (
    Add,
    ArithlabError,
    BigNumeral,
    Eq,
    ForAll,
    Formula,
    Implies,
    Mul,
    NotTextError,
    Succ,
    Term,
    Var,
    Zero,
    conj,
    exists,
    spell,
    tarski,
)


class PRError(ArithlabError):
    """Malformed PR function term or evaluation problem."""


class CertEvalError(ArithlabError):
    """The certificate evaluator met a gap it cannot decide."""


class PRFunc:
    """Base class for PR function terms: equal when spelled alike."""

    __slots__ = ()

    arity: int

    def __eq__(self, other):
        if not isinstance(other, PRFunc):
            return NotImplemented
        return spell(self, _FORMAT) == spell(other, _FORMAT)

    __hash__ = lambda self: hash(tuple(spell(self, _FORMAT)))
    __repr__ = __str__ = lambda self: format_pr(self)


@dataclass(frozen=True, eq=False, repr=False)
class ZeroFn(PRFunc):
    """The constantly-zero unary function."""

    arity = 1


@dataclass(frozen=True, eq=False, repr=False)
class SuccFn(PRFunc):
    """The successor function."""

    arity = 1


@dataclass(frozen=True, eq=False, repr=False)
class Proj(PRFunc):
    """Projection of the i-th of n arguments (1-based)."""

    n: int
    i: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 1 <= self.i <= self.n:
            raise PRError(f"bad projection ({self.n}, {self.i})")
        object.__setattr__(self, "arity", self.n)


@dataclass(frozen=True, eq=False, repr=False)
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
        object.__setattr__(self, "arity", self.inner[0].arity)


@dataclass(frozen=True, eq=False, repr=False)
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
        object.__setattr__(self, "arity", self.base.arity + 1)


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
        return functools.reduce(lambda _, v: v, _steps(f, args[:-1], args[-1]))
    raise PRError(f"not a PR function term: {f.__class__.__name__}")


def _steps(f: Rec, xs: tuple[int, ...], n: int):
    """f(xs, 0), ..., f(xs, n), one at a time: eval_pr keeps only the last."""
    acc = eval_pr(f.base, xs)
    yield acc
    for i in range(n):
        acc = eval_pr(f.step, (*xs, i, acc))
        yield acc


def course_of_values(f: Rec, xs: tuple[int, ...], n: int) -> list[int]:
    """[f(xs, 0), f(xs, 1), ..., f(xs, n)] computed in one sweep."""
    return list(_steps(f, xs, n))


# --------------------------------------------------------------------------
# beta function


def beta(c: int, d: int, i: int) -> int:
    return c % (1 + (i + 1) * d)


def find_beta_coeffs(values: list[int], ceiling: int = 10**6) -> tuple[int, int]:
    """Smallest (d, then c) with beta(c, d, i) = values[i] for all i.

    Searches d upward from the first d whose moduli 1 + (i+1)d exceed the
    entries, solving the congruences by CRT, cut off once c passes the
    ceiling.  Once d is at least the first two entries and (1 + d)(1 + 2d)
    passes the ceiling, one candidate c is left, and it grows with d unless
    those two are equal, so the search ends; when the second entry is the
    larger, each later entry also bounds d in closed form.  Raises PRError
    when nothing fits under the ceiling.
    """
    if not values:
        raise PRError("cannot code an empty sequence")
    if any(v < 0 for v in values):
        raise PRError("sequence entries must be natural numbers")
    start = max(1, *(-(-v // (i + 1)) for i, v in enumerate(values)))
    tail = max(values[:2]) if len(values) > 1 else ceiling + 1
    last = ceiling  # the last d that can fit in the tail (see there)
    if len(values) > 1 and values[1] > values[0]:
        b = 2 * (values[1] - values[0])
        ks = [((i + 1) * (values[0] - v + b) - b, i + 1)
              for i, v in enumerate(values[2:], 2)]
        last = min([(abs(k) - 1) // n for k, n in ks if k], default=ceiling)
    for d in range(start, ceiling + 1):
        if d >= tail and (1 + d) * (1 + 2 * d) > ceiling:
            # 2(1 + d) = 1 mod 1 + 2d, so this is the one c under the
            # ceiling that can fit the first two entries.  When v1 > v0 it
            # is v0 + b(1 + d), so (i+1)(c - vi) - b(1 + (i+1)d) is the
            # constant k above, and 1 + (i+1)d divides c - vi only if it
            # divides k: no d past last fits
            c = values[0] + 2 * (values[1] - values[0]) % (1 + 2 * d) * (1 + d)
            fits = all(c % (1 + i * d) == v for i, v in enumerate(values[2:], 3))
            if fits and c <= ceiling:
                return c, d
            if c > ceiling or values[1] == values[0] or d >= last:  # no later d fits
                break
            continue
        moduli = [1 + (i + 1) * d for i in range(len(values))]
        c, m = values[0], moduli[0]
        for a, mod in zip(values[1:], moduli[1:]):
            g = math.gcd(m, mod)
            if (a - c) % g != 0:
                break
            step = mod // g
            t = ((a - c) // g) % step
            t = (t * pow(m // g, -1, step)) % step
            c = c + m * t
            m = m // g * mod
            c %= m
            if c > ceiling:  # every later entry only raises c
                break
        else:
            return c, d
    raise PRError(f"no beta coefficients under {ceiling} code {values}")


# --------------------------------------------------------------------------
# representing formulas


Env = dict[int, int]
RangeRule = Callable[[Env], Sequence[int]]


@dataclass
class Representation:
    """A formula defining a PR function's graph, plus range rules.

    inputs and output give the variable layout; ranges maps each
    quantified variable index to a rule giving the values it ranges over
    from an environment covering the variables in scope.
    """

    func: PRFunc
    formula: Formula
    inputs: tuple[int, ...]
    output: int
    ranges: dict[int, RangeRule] = field(repr=False)


class _Builder:
    def __init__(self, first_fresh: int):
        self.next_fresh = first_fresh
        self.rules: dict[int, RangeRule] = {}

    def fresh(self) -> int:
        v = self.next_fresh
        self.next_fresh += 1
        return v

    def lt(self, small: Term, large: Term) -> Formula:
        w = self.fresh()

        def rule(env: Env, s=small, l=large) -> tuple[int, ...]:
            gap = term_value_env(l, env) - term_value_env(s, env) - 1
            return (gap,) if gap >= 0 else ()

        self.rules[w] = rule
        return exists(w, Eq(Add(small, Succ(Var(w))), large))

    def beta_formula(self, c: int, d: int, index: Term, result: int) -> Formula:
        # beta(c, d, i) = y says: c = q * S(i*d + d) + y with y < S(i*d + d)
        divisor = Succ(Add(Mul(index, Var(d)), Var(d)))
        q = self.fresh()

        def rule(env: Env, div=divisor) -> tuple[int]:
            return (env[c] // term_value_env(div, env),)

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

                def rule(env: Env, g=g, ins=inputs) -> tuple[int]:
                    return (eval_pr(g, tuple(env[x] for x in ins)),)

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
        raise PRError(f"not a PR function term: {f.__class__.__name__}")

    def _build_rec(self, f: Rec, inputs: tuple[int, ...], output: int) -> Formula:
        xs = inputs[:-1]
        n_var = inputs[-1]
        c = self.fresh()
        d = self.fresh()

        @functools.cache
        def witnesses(args: tuple[int, ...], n: int) -> tuple[list[int], int, int]:
            # the course of values up to n, then the c and d that code it
            values = course_of_values(f, args, n)
            return (values, *find_beta_coeffs(values))

        def witness(env: Env) -> tuple[list[int], int, int]:
            return witnesses(tuple(env[x] for x in xs), env[n_var])

        self.rules[c] = lambda env: witness(env)[1:2]
        self.rules[d] = lambda env: witness(env)[2:]

        w = self.fresh()
        self.rules[w] = lambda env: witness(env)[0][:1]
        start = exists(
            w, conj(self.beta_formula(c, d, Zero(), w), self.build(f.base, xs, w))
        )

        i = self.fresh()
        u = self.fresh()
        v = self.fresh()
        self.rules[i] = lambda env: range(env[n_var])
        self.rules[u] = lambda env: witness(env)[0][env[i] : env[i] + 1]
        self.rules[v] = lambda env: witness(env)[0][env[i] + 1 : env[i] + 2]
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

        # finish alone reads the output; put first, it rejects a rival on
        # one equation before start and steps decide the course of values.
        # It is built last, so the fresh indices keep their order.
        finish = self.beta_formula(c, d, Var(n_var), output)
        return exists(c, exists(d, _conj_all([finish, start, steps])))


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
    while t.__class__ is Succ:
        succs += 1
        t = t.arg
    cls = t.__class__
    if cls is Var:
        if t.index not in env:
            raise CertEvalError(f"x{t.index} has no value in scope")
        return succs + env[t.index]
    if cls is Add:
        return succs + term_value_env(t.left, env) + term_value_env(t.right, env)
    if cls is Mul:
        return succs + term_value_env(t.left, env) * term_value_env(t.right, env)
    if cls is Zero:
        return succs
    if cls is BigNumeral:
        return succs + t.value
    raise CertEvalError(f"cannot value term {t!r}")


def _equal_in_naturals(eq: Eq, env: Env) -> bool:
    return term_value_env(eq.left, env) == term_value_env(eq.right, env)


def certificate_eval(f: Formula, env: Env, ranges: dict[int, RangeRule]) -> bool:
    """Tarski truth of f in the naturals under env, each quantifier of x
    ranging over ranges[x] of the values in scope."""

    def over(x: int, env: Env) -> Sequence[int]:
        rule = ranges.get(x)
        if rule is None:
            raise CertEvalError(f"no range rule for x{x}")
        try:
            return rule(env)
        except PRError as e:
            raise CertEvalError(f"witness rule for x{x} failed: {e}") from e

    return tarski(f, env, _equal_in_naturals, over)


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
        if not certificate_eval(
            rep.formula, {**env, rep.output: expected}, rep.ranges
        ):
            return ReprCheck(
                "unknown",
                f"could not certify the true output {expected} at {shown}",
            )
        for rival in range(search_bound + 1):
            if rival != expected and certificate_eval(
                rep.formula, {**env, rep.output: rival}, rep.ranges
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


ADDITION = Rec(Proj(1, 1), Comp(SuccFn(), (Proj(3, 3),)))
MULTIPLICATION = Rec(ZeroFn(), Comp(ADDITION, (Proj(3, 3), Proj(3, 1))))
# through g(x, 0) = 0, g(x, n+1) = n, whose first slot predecessor ignores
PREDECESSOR = Comp(Rec(ZeroFn(), Proj(3, 2)), (Proj(1, 1), Proj(1, 1)))
TRUNCATED_SUBTRACTION = Rec(Proj(1, 1), Comp(PREDECESSOR, (Proj(3, 3),)))

CATALOG: dict[str, PRFunc] = {
    "addition": ADDITION,
    "multiplication": MULTIPLICATION,
    "predecessor": PREDECESSOR,
    "truncated_subtraction": TRUNCATED_SUBTRACTION,
}


# the spelling of format_pr, ==, hash and repr; a Proj's numbers stay ints
_FORMAT = {
    ZeroFn: lambda f, out: out.append("zero"),
    SuccFn: lambda f, out: out.append("succ"),
    Proj: lambda f, out: out.extend(("(proj ", f.n, " ", f.i, ")")),
    Comp: lambda f, out: [
        ")", *(x for g in f.inner[::-1] for x in (g, " ")), f.outer, "(comp "
    ],
    Rec: lambda f, out: [")", f.step, " ", f.base, "(rec "],
}


def format_pr(f: PRFunc) -> str:
    return "".join(map(str, spell(f, _FORMAT)))


def parse_pr(text: str) -> PRFunc:
    """Parse the s-expression syntax: zero, succ, (proj n i), (comp f g...),
    (rec base step), or a catalog name, with one stack of open forms: each
    head comes right after its '(', and a comp or rec is built at its ')'."""
    if not isinstance(text, str):
        raise NotTextError(f"expected a str to parse, got {type(text).__name__}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise PRError("empty PR function text")
    atoms = {"zero": ZeroFn(), "succ": SuccFn(), **CATALOG}
    opened: list[list] = []  # each open comp or rec: its head, then its parts
    i = 0
    while True:
        if i == len(tokens):
            raise PRError("unclosed '('")
        tok, i = tokens[i], i + 1
        if tok == ")" and opened:
            head, *parts = opened.pop()
            if head == "rec" and len(parts) != 2:
                raise PRError("rec needs exactly a base and a step")
            if head == "comp" and len(parts) < 2:
                raise PRError("comp needs an outer function and inner functions")
            f = Rec(*parts) if head == "rec" else Comp(parts[0], tuple(parts[1:]))
        elif tok in atoms:
            f = atoms[tok]
        elif tok != "(":
            raise PRError(f"unexpected token {tok!r}")
        elif i == len(tokens):
            raise PRError("unclosed '('")
        elif tokens[i] in ("comp", "rec"):
            opened.append([tokens[i]])
            i += 1
            continue
        elif tokens[i] == "proj":
            try:
                n, k = int(tokens[i + 1]), int(tokens[i + 2])
            except (IndexError, ValueError):
                raise PRError("proj needs two integers") from None
            if tokens[i + 3 : i + 4] != [")"]:
                raise PRError("proj takes exactly two integers")
            f, i = Proj(n, k), i + 4
        else:
            raise PRError(f"unknown form {tokens[i]!r}")
        if not opened:
            if i != len(tokens):
                raise PRError("trailing input after a complete PR function")
            return f
        opened[-1].append(f)
