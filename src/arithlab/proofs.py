"""Hilbert-style proof objects and a pure checker for them.

A proof is a numbered sequence of formulas, each carrying a justification:

  A1   B -> (C -> B)
  A2   (B -> (C -> D)) -> ((B -> C) -> (B -> D))
  A3   (~C -> ~B) -> ((~C -> B) -> C)
  A4   forall x.B -> B(t), where t is free for x in B
  A5   forall x.(B -> C) -> (B -> forall x.C), where x is not free in B
  S1   (x1 = x2) -> ((x1 = x3) -> (x2 = x3))
  S2   (x1 = x2) -> (S(x1) = S(x2))
  S3   ~(0 = S(x1))
  S4   (S(x1) = S(x2)) -> (x1 = x2)
  S5   ((x1 + 0) = x1)
  S6   ((x1 + S(x2)) = S((x1 + x2)))
  S7   ((x1 * 0) = 0)
  S8   ((x1 * S(x2)) = ((x1 * x2) + x1))
  IND  B(0) -> (forall x.(B(x) -> B(S(x))) -> forall x.B(x))
  MP i j    modus ponens: line i is B, line j is (B -> this line)
  GEN i xk  generalization: this line is forall xk . (line i)

All fourteen live in one table, SCHEMAS, in that tag order.  A1-A5 and IND
are patterns over the metavariables B, C, D, T, B0, BS (formulas) and x (a
variable index), and three carry a side condition: A4 that the consequent
is B with some term free for x put for x (find_instantiation), A5 that x
is not free in B, IND that B0 is B[0/x] and BS is B[S(x)/x].  S1-S8 are
the eight fixed formulas above (general instances are derived inside
proofs with GEN, A4 and MP).  Each pattern is flattened once, by an
explicit-stack walk, into the connective classes its places require and
the metavariable each place binds; check_axiom, is_any_axiom (and so the
arithmetized pf) read that, and schema_instance fills a pattern from its
parts for the proof builders.  Formula comparison is up to the
compact/expanded numeral distinction, so num(1) and S(0) are
interchangeable in any slot.  The checker compares by syntax.semantic_eq,
and decides A4 and IND by syntax.lockstep, which walks B beside the
consequent (A4), or beside B0 and BS with 0 and S(x) for x (IND): it builds
no substituted tree and spells no key.

The checker walks the lines in order and reports either acceptance with
the final formula as the theorem, or the first failing line and a reason.

Proof file format, one line per proof line, numbered from 1 and strictly
increasing (blank lines and lines starting with '#' are ignored):

    <n>. <formula> ; <JUST>

where <JUST> is one of A1..A5, S1..S8, IND, "MP <i> <j>" or "GEN <i> x<k>".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .syntax import (
    Add,
    ArithlabError,
    Eq,
    ForAll,
    Formula,
    Implies,
    Mul,
    Not,
    ParseError,
    Succ,
    Term,
    Var,
    Zero,
    canonical_key,
    free_vars,
    lockstep,
    parse_formula,
    semantic_eq,
    substitute,
    to_text,
)

@dataclass(frozen=True)
class Axiom:
    """Justification by an axiom tag: A1..A5, S1..S8 or IND."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ALL_AXIOM_TAGS:
            raise ProofArgumentError(f"unknown axiom tag {self.tag!r}")

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class ModusPonens:
    """MP premise_line implication_line (both 1-based, earlier lines)."""

    premise: int
    implication: int

    def __str__(self) -> str:
        return f"MP {self.premise} {self.implication}"


@dataclass(frozen=True)
class Generalization:
    """GEN source_line x<var> (1-based, earlier line)."""

    source: int
    var: int

    def __str__(self) -> str:
        return f"GEN {self.source} x{self.var}"


Justification = Axiom | ModusPonens | Generalization


@dataclass(frozen=True)
class ProofLine:
    number: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ProofArgumentError("empty proof has no conclusion")
        return self.lines[-1].formula


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    theorem: Formula | None = None
    line: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.accepted:
            assert self.theorem is not None
            return f"accepted: {to_text(self.theorem)}"
        return f"rejected at line {self.line}: {self.reason}"


class ProofFormatError(ArithlabError):
    """A proof file line that does not match the format."""


class ProofArgumentError(ArithlabError, ValueError):
    """An unknown axiom tag, the conclusion of an empty proof, or a
    ProofBuilder step given a line or terms that do not fit it."""


# --------------------------------------------------------------------------
# axiom schemas

def find_instantiation(body: Formula, var: int, instance: Formula) -> Term | None:
    """The term t with body[x_var := t] == instance, if one exists.

    Comparison is up to numeral form.  t is what instance has at body's
    leftmost free x_var, or Var(var) when x_var is not free in body and
    instance equals body.  Returns None when no t works (including when t
    would not be free for x_var in body).
    """
    t = lockstep(body, instance, var)
    if t is False:
        return None
    return Var(var) if t is True else t


def _ind_holds(parts: dict) -> bool:
    # B0 = B[0/x] and BS = B[S(x)/x].  Neither can capture: the only
    # variable of 0 and S(x) is x itself.
    b, x = parts["B"], parts["x"]
    return (lockstep(b, parts["B0"], x, Zero()) is not False
            and lockstep(b, parts["BS"], x, Succ(Var(x))) is not False)


_x1, _x2, _x3 = Var(1), Var(2), Var(3)

# tag -> (pattern, side condition on the bindings or None), in tag order.
# A pattern is a fixed formula, a metavariable, or a tuple of a connective
# class and the patterns of its fields in order.  The metavariables B, C,
# D, T, B0 and BS stand for formulas, x for a variable index.
SCHEMAS: dict[str, tuple] = {
    "A1": ((Implies, "B", (Implies, "C", "B")), None),
    "A2": (
        (Implies, (Implies, "B", (Implies, "C", "D")),
         (Implies, (Implies, "B", "C"), (Implies, "B", "D"))),
        None,
    ),
    "A3": (
        (Implies, (Implies, (Not, "C"), (Not, "B")),
         (Implies, (Implies, (Not, "C"), "B"), "C")),
        None,
    ),
    "A4": (
        (Implies, (ForAll, "x", "B"), "T"),
        lambda p: find_instantiation(p["B"], p["x"], p["T"]) is not None,
    ),
    "A5": (
        (Implies, (ForAll, "x", (Implies, "B", "C")),
         (Implies, "B", (ForAll, "x", "C"))),
        lambda p: p["x"] not in free_vars(p["B"]),
    ),
    "S1": (Implies(Eq(_x1, _x2), Implies(Eq(_x1, _x3), Eq(_x2, _x3))), None),
    "S2": (Implies(Eq(_x1, _x2), Eq(Succ(_x1), Succ(_x2))), None),
    "S3": (Not(Eq(Zero(), Succ(_x1))), None),
    "S4": (Implies(Eq(Succ(_x1), Succ(_x2)), Eq(_x1, _x2)), None),
    "S5": (Eq(Add(_x1, Zero()), _x1), None),
    "S6": (Eq(Add(_x1, Succ(_x2)), Succ(Add(_x1, _x2))), None),
    "S7": (Eq(Mul(_x1, Zero()), Zero()), None),
    "S8": (Eq(Mul(_x1, Succ(_x2)), Add(Mul(_x1, _x2), _x1)), None),
    "IND": (
        (Implies, "B0", (Implies, (ForAll, "x", (Implies, "B", "BS")),
                         (ForAll, "x", "B"))),
        _ind_holds,
    ),
}
ALL_AXIOM_TAGS = tuple(SCHEMAS)


def _flatten(pattern) -> tuple[list, list]:
    """(checks, leaves) of a pattern.  A reader takes a formula to what
    stands at one place of it.  checks pairs the reader of each connective's
    place with the class required there, parents before children; leaves
    pairs each metavariable or fixed formula with the reader of its place."""
    checks, leaves = [], []
    stack = [(pattern, "")]
    while stack:
        p, path = stack.pop()
        read = attrgetter(path[1:]) if path else lambda f: f
        if p.__class__ is tuple:
            checks.append((read, p[0]))
            fields = zip(p[1:], p[0].__match_args__)
            stack += [(q, f"{path}.{name}") for q, name in fields]
        else:
            leaves.append((p, read))
    return checks, leaves


_FLAT = {
    tag: (*_flatten(pattern), side) for tag, (pattern, side) in SCHEMAS.items()
}


def _holds(checks: list, leaves: list, side, f: Formula) -> bool:
    """Whether f spells a flattened pattern and its bindings meet the side
    condition.  Every class is checked before any formula is compared; a
    repeated metavariable or a fixed formula is compared by semantic_eq."""
    for read, cls in checks:
        if read(f).__class__ is not cls:
            return False
    parts: dict = {}
    for leaf, read in leaves:
        e = read(f)
        if leaf.__class__ is not str:
            if not semantic_eq(e, leaf):
                return False
        elif leaf not in parts:
            parts[leaf] = e
        elif e.__class__ is int:
            if e != parts[leaf]:
                return False
        elif not semantic_eq(e, parts[leaf]):
            return False
    return side is None or side(parts)


def schema_instance(tag: str, **parts) -> Formula:
    """The tag's pattern with each metavariable replaced by its part: x by
    a variable index (an int, not a bool), the others by formulas.  The
    side condition is not checked here; check_axiom checks it."""
    if tag not in SCHEMAS:
        raise ProofArgumentError(f"unknown axiom tag {tag!r}")

    def fill(p):  # recursion is bounded by the pattern's depth, at most four
        if p.__class__ is str:
            if p not in parts:
                raise ProofArgumentError(f"schema {tag} needs a part {p}")
            part = parts[p]
            if p == "x" and part.__class__ is not int:
                raise ProofArgumentError(
                    f"schema {tag} needs an int index for x, got {type(part).__name__}")
            if p != "x" and not isinstance(part, Formula):
                raise ProofArgumentError(
                    f"schema {tag} needs a formula for {p}, got {type(part).__name__}")
            return part
        if p.__class__ is tuple:
            return p[0](*map(fill, p[1:]))
        return p

    return fill(SCHEMAS[tag][0])


def check_axiom(f: Formula, tag: str) -> bool:
    """Whether f is an instance of the named axiom (schema)."""
    if tag not in _FLAT:
        raise ProofArgumentError(f"unknown axiom tag {tag!r}")
    return _holds(*_FLAT[tag], f)


def is_any_axiom(f: Formula) -> bool:
    return any(_holds(*flat, f) for flat in _FLAT.values())


# --------------------------------------------------------------------------
# proof checking


def _cited(rule: str, refs, formulas: dict[int, Formula], number: int) -> str | None:
    """Why a line a rule cites is not an earlier line, or None."""
    for ref in refs:
        if ref >= number or ref < 1:
            return f"{rule} cites line {ref}, which is not an earlier line"
        if ref not in formulas:
            return f"{rule} cites line {ref}, which does not exist"
    return None


def check_line(
    formulas: dict[int, Formula], line: ProofLine
) -> str | None:
    """None if the line is justified given the earlier formulas, else a reason."""
    just = line.justification
    if isinstance(just, Axiom):
        if not check_axiom(line.formula, just.tag):
            return f"formula is not an instance of {just.tag}"
        return None
    if isinstance(just, ModusPonens):
        if bad := _cited("MP", (just.premise, just.implication), formulas, line.number):
            return bad
        implication = formulas[just.implication]
        if not (
            isinstance(implication, Implies)
            and semantic_eq(implication.left, formulas[just.premise])
            and semantic_eq(implication.right, line.formula)
        ):
            return (
                f"MP mismatch: line {just.implication} is not "
                f"(line {just.premise} -> this line)"
            )
        return None
    if isinstance(just, Generalization):
        if bad := _cited("GEN", (just.source,), formulas, line.number):
            return bad
        f = line.formula
        if not (
            isinstance(f, ForAll)
            and f.index == just.var
            and semantic_eq(f.body, formulas[just.source])
        ):
            return (
                f"GEN mismatch: this line is not forall x{just.var} of "
                f"line {just.source}"
            )
        return None
    return f"unknown justification {just!r}"


def check_proof(proof: Proof) -> CheckResult:
    """Check every line; accept with the last formula as theorem, or
    reject at the first failing line."""
    if not proof.lines:
        return CheckResult(False, line=0, reason="proof has no lines")
    formulas: dict[int, Formula] = {}
    last = 0
    for line in proof.lines:
        if line.number <= last:
            return CheckResult(
                False,
                line=line.number,
                reason=f"line numbers must increase (after {last})",
            )
        reason = check_line(formulas, line)
        if reason is not None:
            return CheckResult(False, line=line.number, reason=reason)
        formulas[line.number] = line.formula
        last = line.number
    return CheckResult(True, theorem=proof.lines[-1].formula)


# --------------------------------------------------------------------------
# proof file format


def parse_justification(text: str) -> Justification:
    parts = text.split()
    if not parts:
        raise ProofFormatError("missing justification")
    head = parts[0]
    if head in ALL_AXIOM_TAGS:
        if len(parts) != 1:
            raise ProofFormatError(f"{head} takes no arguments")
        return Axiom(head)
    if head == "MP":
        if len(parts) != 3:
            raise ProofFormatError("MP needs two line numbers")
        try:
            return ModusPonens(int(parts[1]), int(parts[2]))
        except ValueError:
            raise ProofFormatError("MP needs two line numbers") from None
    if head == "GEN":
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise ProofFormatError("GEN needs a line number and a variable")
        try:
            return Generalization(int(parts[1]), int(parts[2][1:]))
        except ValueError:
            raise ProofFormatError(
                "GEN needs a line number and a variable"
            ) from None
    raise ProofFormatError(f"unknown justification {head!r}")


def parse_proof(text: str) -> Proof:
    """Parse the proof file format.  Raises ProofFormatError naming the
    offending source line on malformed input."""
    lines: list[ProofLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, dot, rest = stripped.partition(".")
        if not dot or not head.strip().isdigit():
            raise ProofFormatError(
                f"source line {lineno}: expected '<n>. <formula> ; <JUST>'"
            )
        number = int(head.strip())
        formula_text, sep, just_text = rest.partition(";")
        if not sep:
            raise ProofFormatError(
                f"source line {lineno}: missing ';' before justification"
            )
        try:
            formula = parse_formula(formula_text.strip())
        except ParseError as exc:
            raise ProofFormatError(
                f"source line {lineno}: bad formula: {exc}"
            ) from None
        try:
            just = parse_justification(just_text.strip())
        except ProofFormatError as exc:
            raise ProofFormatError(f"source line {lineno}: {exc}") from None
        lines.append(ProofLine(number, formula, just))
    return Proof(tuple(lines))


def format_proof(proof: Proof) -> str:
    out = []
    for line in proof.lines:
        out.append(
            f"{line.number}. {to_text(line.formula)} ; {line.justification}"
        )
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# proof construction helper


@dataclass
class ProofBuilder:
    """Accumulates lines, reusing an existing line when the same formula
    was already derived (keyed on canonical form)."""

    _lines: list[ProofLine] = field(default_factory=list)
    _by_formula: dict = field(default_factory=dict)

    def add(self, formula: Formula, justification: Justification) -> int:
        key = canonical_key(formula)
        existing = self._by_formula.get(key)
        if existing is not None:
            return existing
        number = len(self._lines) + 1
        self._lines.append(ProofLine(number, formula, justification))
        self._by_formula[key] = number
        return number

    def formula(self, number: int) -> Formula:
        return self._lines[number - 1].formula

    def axiom(self, tag: str, formula: Formula) -> int:
        return self.add(formula, Axiom(tag))

    def mp(self, premise: int, implication: int) -> int:
        impl = self.formula(implication)
        if not isinstance(impl, Implies):
            raise ProofArgumentError(f"line {implication} is not an implication")
        return self.add(impl.right, ModusPonens(premise, implication))

    def gen(self, source: int, var: int) -> int:
        return self.add(
            ForAll(var, self.formula(source)), Generalization(source, var)
        )

    def proper_instance(self, tag: str, terms: list[Term]) -> int:
        """Derive the instance of S-axiom tag at the given terms, in
        variable order x1, x2, x3.  The terms must be closed."""
        base = schema_instance(tag)
        axiom_vars = sorted(free_vars(base))
        if len(terms) != len(axiom_vars):
            raise ProofArgumentError(
                f"{tag} has {len(axiom_vars)} variables, got {len(terms)} terms"
            )
        line = self.axiom(tag, base)
        current = base
        # Close off x3, x2, x1 in turn so the outermost quantifier is x1.
        for var in reversed(axiom_vars):
            line = self.gen(line, var)
            current = ForAll(var, current)
        for var, term in zip(axiom_vars, terms):
            assert isinstance(current, ForAll)
            instantiated = substitute(current.body, var, term)
            # current is already this A4 instance's forall x . B: reused,
            # not rebuilt by schema_instance
            step = self.axiom("A4", Implies(current, instantiated))
            line = self.add(instantiated, ModusPonens(line, step))
            current = instantiated
        return line

    # equality reasoning ---------------------------------------------------

    def eq_refl(self, t: Term) -> int:
        """Derive (t = t) for closed t."""
        plus_zero = self.proper_instance("S5", [t])  # (t + 0) = t
        chain = self.proper_instance("S1", [Add(t, Zero()), t, t])
        step = self.mp(plus_zero, chain)
        return self.mp(plus_zero, step)

    def eq_sym(self, line_ab: int) -> int:
        """From a line (a = b), derive (b = a) for closed a, b."""
        f = self.formula(line_ab)
        assert isinstance(f, Eq)
        a, b = f.left, f.right
        refl = self.eq_refl(a)
        chain = self.proper_instance("S1", [a, b, a])
        step = self.mp(line_ab, chain)
        return self.mp(refl, step)

    def eq_trans(self, line_ab: int, line_bc: int) -> int:
        """From lines (a = b) and (b = c), derive (a = c) for closed terms."""
        f_ab = self.formula(line_ab)
        f_bc = self.formula(line_bc)
        assert isinstance(f_ab, Eq) and isinstance(f_bc, Eq)
        a, b = f_ab.left, f_ab.right
        c = f_bc.right
        line_ba = self.eq_sym(line_ab)
        chain = self.proper_instance("S1", [b, a, c])
        step = self.mp(line_ba, chain)
        return self.mp(line_bc, step)

    def imp_trans(self, line_ab: int, line_bc: int) -> int:
        """From lines (A -> B) and (B -> C), derive (A -> C)."""
        f_ab = self.formula(line_ab)
        f_bc = self.formula(line_bc)
        assert isinstance(f_ab, Implies) and isinstance(f_bc, Implies)
        a = f_ab.left
        weaken = self.axiom("A1", schema_instance("A1", B=f_bc, C=a))
        nested = self.mp(line_bc, weaken)
        dist = self.axiom(
            "A2", schema_instance("A2", B=a, C=f_bc.left, D=f_bc.right)
        )
        step = self.mp(nested, dist)
        return self.mp(line_ab, step)

    def build(self) -> Proof:
        return Proof(tuple(self._lines))
