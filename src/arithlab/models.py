"""Finite interpretations, two satisfaction modes, and sweeps of pinned
law families over enumerated models.

An Interpretation fixes a finite domain 0..size-1 with a distinguished
zero, a successor table, binary tables for plus and times, and a truth
table for the equality predicate.  Normal means equality is interpreted
as identity.

In one model, formulas are decided by syntax.tarski, whose caller
decides equations and says what each quantifier ranges over.  Here
equations are table lookups, and the two modes differ only in the points
that the quantifiers, and the sweep over free variables in is_true,
range over:

  standard       the whole domain
  parameterized  the numeral image, the closure of zero under successor,
                 so all and only the values of the numerals

An assignment handed to satisfies or term_value may use any domain
element; a value outside the points reads as zero (the substitution
law sweeps the domain through that remap, collapse and duality only the
points).  Where that range restriction makes familiar logical laws fail
is what metacheck hunts for: it enumerates small interpretations and
evaluates pinned instance families, reporting every (interpretation,
instance) pair on which an expected law breaks.

A model's cells have one layout, _layout's: zero, succ[a], then the rows
of add, mul and eq, one item a cell.  The file reader, restrict and
random_interpretation make models as cells, _model validates them
through _layout, and the sweep's windows read it too.

Each family in LAWS is a tuple of cases, one per pinned item, parsed
from text at import; the thirty items of the collapse family are
COLLAPSE_CASES.  Their closures, bodies and variable lists are prepared
when LAWS is built (chain alone builds its numeral instances, which
depend on the size).  A size's sweep positions are its (algebra, eq
table) pairs, algebra-major; metacheck and enumerate_interpretations
take them in the same windows of at most CHUNK.  A window's cells are
built from its start and width alone, as periodic bit patterns: each
cell is a one-hot tuple of ints, bit k of entry v set where the window's
k-th position has the value v in that cell.  One mask test on them
(_kept) keeps the positions whose eq table is a congruence, and one walk
of a formula (_evaluate) gives the mask of every position where it
holds, so metacheck decides each case on a whole window at once.  A case
that names an assignment names, for each model, the first at which it
breaks.  Reports and budgets are those of deciding every case on every
kept model in sweep order.  A position is decoded to an Interpretation
only for a model that a violation names or enumerate_interpretations
yields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .syntax import (
    Add,
    ArithlabError,
    BigNumeral,
    Eq,
    ForAll,
    Formula,
    Implies,
    Mul,
    Not,
    NotATreeError,
    Refusal,
    Succ,
    Term,
    Var,
    Zero,
    exists,
    free_vars,
    numeral,
    parse_formula,
    parse_term,
    substitute,
    tarski,
)

MODES = ("standard", "parameterized")

# the most algebras a budget="full" metacheck may sweep: sizes up to 2
# give 2049, size 3 alone about 3.1e10 (congruent eq tables add more)
FULL_SWEEP_LIMIT = 10**6


class ModelError(ArithlabError):
    """Malformed interpretation or file format problem."""


class RestrictError(ModelError, Refusal):
    """The numeral image is not closed under an operation."""


class ModelOptionError(ModelError, ValueError):
    """An unknown mode, family or equality-table filter, or a metacheck
    budget out of range."""


@dataclass(frozen=True)
class Interpretation:
    """A finite structure for the arithmetic language.

    Tables are tuples: succ[a], add[a][b], mul[a][b] are domain
    elements; eq[a][b] is 0 or 1.
    """

    size: int
    zero: int
    succ: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    eq: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        s = self.size
        if s < 1:
            raise ModelError("domain must have at least one element")
        if not 0 <= self.zero < s:
            raise ModelError("zero must be a domain element")
        if len(self.succ) != s or any(not 0 <= v < s for v in self.succ):
            raise ModelError("succ must map the domain into itself")
        for name, table in (("add", self.add), ("mul", self.mul)):
            if len(table) != s or any(
                len(row) != s or any(not 0 <= v < s for v in row)
                for row in table
            ):
                raise ModelError(f"{name} must be a total {s}x{s} table")
        if len(self.eq) != s or any(
            len(row) != s or any(v not in (0, 1) for v in row)
            for row in self.eq
        ):
            raise ModelError(f"eq must be a {s}x{s} table of 0/1")

    @property
    def normal(self) -> bool:
        return self.eq == identity_eq(self.size)

    def __str__(self) -> str:
        return format_interpretation(self)


def normal_interpretation(
    size: int,
    zero: int,
    succ: tuple[int, ...],
    add: tuple[tuple[int, ...], ...],
    mul: tuple[tuple[int, ...], ...],
) -> Interpretation:
    """Interpretation with equality read as identity."""
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
    return Interpretation(size, zero, tuple(succ), add, mul, identity_eq(size))


def identity_eq(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if a == b else 0 for b in range(size)) for a in range(size)
    )


# --------------------------------------------------------------------------
# file format


def format_interpretation(m: Interpretation) -> str:
    def rows(table) -> str:
        return " / ".join(" ".join(str(v) for v in row) for row in table)

    lines = [
        f"size {m.size}",
        f"zero {m.zero}",
        "succ " + " ".join(str(v) for v in m.succ),
        "add " + rows(m.add),
        "mul " + rows(m.mul),
        "eq " + ("identity" if m.normal else rows(m.eq)),
    ]
    return "\n".join(lines) + "\n"


def parse_interpretation(text: str) -> Interpretation:
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "/" or key.lstrip("-").isdecimal():  # a row put on a line of its own
            raise ModelError(f"line {lineno}: {key!r} is not a field name; "
                             "a field's numbers stay on that field's line")
        if key in fields:
            raise ModelError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = rest.split()
    for key in ("size", "zero", "succ", "add", "mul", "eq"):
        if key not in fields:
            raise ModelError(f"missing field {key!r}")
    unknown = set(fields) - {"size", "zero", "succ", "add", "mul", "eq"}
    if unknown:
        raise ModelError(f"unknown fields: {sorted(unknown)}")

    def ints(key: str) -> list[int]:
        out = []
        for tok in fields[key]:
            if tok == "/":
                continue
            try:
                out.append(int(tok))
            except ValueError:
                raise ModelError(f"field {key!r}: bad number {tok!r}") from None
        return out

    size_list = ints("size")
    zero_list = ints("zero")
    if len(size_list) != 1 or len(zero_list) != 1:
        raise ModelError("size and zero take a single number")
    size = size_list[0]
    if size < 1:
        raise ModelError("domain must have at least one element")
    succ = ints("succ")
    if len(succ) != size:
        raise ModelError(f"field 'succ': expected {size} entries")
    if fields["eq"] == ["identity"]:  # the identity table, spelled out
        fields["eq"] = [str(int(a == b)) for a in range(size) for b in range(size)]
    rows = {}
    for key in ("eq", "add", "mul"):  # eq's faults are named before add's
        rows[key] = ints(key)
        if len(rows[key]) != size * size:
            raise ModelError(
                f"field {key!r}: expected {size * size} entries, got {len(rows[key])}"
            )
    return _model(size, (*zero_list, *succ, *rows["add"], *rows["mul"], *rows["eq"]))


# --------------------------------------------------------------------------
# valuation


def _walk(m: Interpretation, v: int, k: int) -> tuple[dict[int, int], int]:
    """Follow succ from v for at most k steps or to the first repeat: the
    position of each value passed, in order, and the value it stopped at."""
    pos: dict[int, int] = {}
    while len(pos) < k and v not in pos:
        pos[v] = len(pos)
        v = m.succ[v]
    return pos, v


def numeral_image(m: Interpretation) -> tuple[int, ...]:
    """Closure of zero under succ, in discovery order."""
    return tuple(_walk(m, m.zero, m.size + 1)[0])


def _apply_succ(m: Interpretation, v: int, k: int) -> int:
    """succ applied k times to v, folding k along a cycle the walk met."""
    if k <= m.size:  # no fold: these steps read the cells the walk would
        for _ in range(k):
            v = m.succ[v]
        return v
    pos, v = _walk(m, v, k)  # k > size, so the walk stops on a repeat
    path, entry = list(pos), pos[v]
    return path[entry + (k - entry) % (len(path) - entry)]


def numeral_value_in(m: Interpretation, n: int) -> int:
    """Value of the numeral for n (handles astronomically large n)."""
    if n < 0:
        raise ModelError(f"numerals exist for n >= 0 only, got {n}")
    return _apply_succ(m, m.zero, n)


Assignment = dict[int, int]


def _points(m: Interpretation, mode: str):
    """What the variables range over in the given mode: the domain, or
    the numeral image.  No other code reads the mode but _Chunk, which
    finds the points of many models at once."""
    if mode == "standard":
        return range(m.size)
    if mode == "parameterized":
        return numeral_image(m)
    raise ModelOptionError(f"unknown mode {mode!r}")


def _read(m: Interpretation, env: Assignment, points) -> Assignment:
    """A supplied assignment as the evaluator sees it: a value outside
    the points reads as zero."""
    out = {}
    for x, v in env.items():
        if not 0 <= v < m.size:
            raise ModelError(f"assignment sends x{x} outside the domain")
        out[x] = v if v in points else m.zero
    return out


def _assignments(values, variables):
    """Every assignment of the values to the variables, in product order."""
    for combo in itertools.product(values, repeat=len(variables)):
        yield dict(zip(variables, combo))


def term_value(
    m: Interpretation, t: Term, env: Assignment, mode: str = "standard"
) -> int:
    """Value of t under env.  Unassigned variables read as zero, and so
    does an assigned value outside the points of the mode."""
    return _value(m, t, _read(m, env, _points(m, mode)))


def _value(m: Interpretation, t: Term, env: Assignment) -> int:
    cls = t.__class__
    if cls is Var:
        return env[t.index] if t.index in env else m.zero
    if cls is Add:
        return m.add[_value(m, t.left, env)][_value(m, t.right, env)]
    if cls is Mul:
        return m.mul[_value(m, t.left, env)][_value(m, t.right, env)]
    if cls is Zero:
        return m.zero
    if cls is Succ:
        succs = 0
        while t.__class__ is Succ:
            succs += 1
            t = t.arg
        return _apply_succ(m, _value(m, t, env), succs)
    if cls is BigNumeral:  # its value is never negative
        return _apply_succ(m, m.zero, t.value)
    raise NotATreeError(f"not a term: {t!r}")


def _semantics(m: Interpretation, mode: str):
    """The points of the mode in m, and tarski's atom and over for m."""
    points = _points(m, mode)

    def atom(eq: Eq, env: Assignment):
        return m.eq[_value(m, eq.left, env)][_value(m, eq.right, env)]

    return points, atom, lambda x, env: points


def satisfies(
    m: Interpretation, env: Assignment, f: Formula, mode: str = "standard"
) -> bool:
    """Tarski satisfaction with the variables ranging over the points of
    the mode; env is read as in term_value."""
    points, atom, over = _semantics(m, mode)
    return tarski(f, _read(m, env, points), atom, over)


def _closure(f: Formula) -> Formula:
    """The universal closure of f."""
    for x in free_vars(f):
        f = ForAll(x, f)
    return f


def is_true(m: Interpretation, f: Formula, mode: str = "standard") -> bool:
    """Truth: satisfaction of the universal closure, so every assignment
    of points to the free variables satisfies f."""
    closed = _closure(f)
    _, atom, over = _semantics(m, mode)
    return tarski(closed, {}, atom, over)


def restrict(m: Interpretation) -> Interpretation:
    """The substructure on the numeral image, elements renumbered in
    discovery order.  Raises RestrictError when plus or times escapes."""
    image = numeral_image(m)
    index = {v: i for i, v in enumerate(image)}
    cells = [0, *(index[m.succ[v]] for v in image)]
    for name, table in (("add", m.add), ("mul", m.mul)):
        for a in image:
            for b in image:
                if table[a][b] not in index:
                    raise RestrictError(
                        f"{name}({a}, {b}) = {table[a][b]} lies outside "
                        f"the numeral image {list(image)}"
                    )
                cells.append(index[table[a][b]])
    cells += (m.eq[a][b] for a in image for b in image)
    return _model(len(image), tuple(cells))


# --------------------------------------------------------------------------
# enumeration


def enumerate_interpretations(size: int, eq_tables: str = "identity"):
    """All interpretations of the given size, in a fixed order.

    eq_tables selects the equality tables paired with each algebra:
    "identity" yields normal interpretations only, "congruent" also
    yields every non-identity equivalence relation compatible with the
    operation tables.  They come from metacheck's windows of sweep
    positions, each kept position's model built from its cells."""
    checks = _eq_checks(size, eq_tables)
    end = size ** _algebra_cells(size) * len(checks)
    for start in range(0, end, CHUNK):
        count = min(CHUNK, end - start)
        for k in _ones(_kept(size, checks, _cell_masks(size, checks, start, count), start, count)):
            yield _model(size, _position_cells(size, checks, start + k))


def _algebra_cells(size: int) -> int:  # the cells before eq's, see _layout
    return 1 + size + 2 * size * size


def _width(size: int) -> int:  # all of a model's cells, eq's too
    return _algebra_cells(size) + size * size


def _layout(size: int, cells) -> tuple:
    """The one layout of a model's cells: zero, succ[a], then the rows of
    add, mul and eq.  cells is any sequence with one item per cell; succ
    and each row are slices of it, and the three tables tuples of rows."""
    rows = tuple(cells[first : first + size] for first in range(1 + size, _width(size), size))
    return cells[0], cells[1 : 1 + size], rows[:size], rows[size : 2 * size], rows[2 * size :]


def _model(size: int, cells: tuple[int, ...]) -> Interpretation:
    """The validated Interpretation of a model's cells."""
    return Interpretation(size, *_layout(size, cells))


def _eq_checks(size: int, eq_tables: str) -> list[tuple[tuple[int, ...], tuple]]:
    """The eq tables a filter offers, identity or every equivalence, each
    as its cells with the pairs (i, j) of algebra cells whose values it
    must relate to be a congruence: for each pair a < b of elements it
    relates, the cells that take a and the cells that take b in the same
    place.  Identity and the total relation, which every algebra respects,
    have no pairs."""
    if eq_tables not in ("identity", "congruent"):
        raise ModelOptionError(f"unknown eq_tables filter {eq_tables!r}")
    tables = _equivalences(size) if eq_tables == "congruent" else [identity_eq(size)]
    _, succ, add, mul, _ = _layout(size, range(_width(size)))

    def uses(x):  # the cells that take x as an argument, in a fixed order
        return (succ[x], *add[x], *mul[x], *(row[x] for row in add + mul))

    respected = (identity_eq(size), ((1,) * size,) * size)
    return [(tuple(itertools.chain(*eq)), () if eq in respected else tuple(
                pair for a, b in itertools.combinations(range(size), 2) if eq[a][b]
                for pair in zip(uses(a), uses(b))))
            for eq in tables]


def _equivalences(size: int) -> list[tuple[tuple[int, ...], ...]]:
    """Equality tables that are equivalence relations, as the kernels of
    the maps of the domain into itself, in the order of their entries
    read row by row as a binary number."""
    domain = range(size)
    return sorted({
        tuple(tuple(int(f[a] == f[b]) for b in domain) for a in domain)
        for f in itertools.product(domain, repeat=size)
    })


def random_interpretation(
    rng, size: int, eq_tables: str = "identity"
) -> Interpretation:
    """One random interpretation drawn with rng, a random.Random; with
    "congruent" the equality table is sampled from the congruences of the
    drawn algebra."""
    checks = _eq_checks(size, eq_tables)
    # one draw a cell: succ, the rows of add and mul, then zero last
    *ops, zero = (rng.randrange(size) for _ in range(_algebra_cells(size)))
    algebra = (zero, *ops)
    # the algebra's cells as a window of one position, at bit 0; the window
    # that starts at position t holds table t
    cells = [tuple(int(v == d) for d in range(size)) for v in algebra]
    options = [algebra + eq for t, (eq, _) in enumerate(checks) if _kept(size, checks, cells, t, 1)]
    return _model(size, rng.choice(options) if eq_tables == "congruent" else options[0])


# --------------------------------------------------------------------------
# pinned instance families


def _fml(text: str) -> Formula:
    return parse_formula(text)


A_INSTANCES: dict[str, tuple[Formula, ...]] = {
    # B -> (C -> B)
    "A1": (
        _fml("((x1 = 0) -> ((x2 = 0) -> (x1 = 0)))"),
        _fml("((0 = 0) -> ((S(0) = 0) -> (0 = 0)))"),
        _fml(
            "(forall x1 . (x1 = x1) -> ((x2 = 0) -> forall x1 . (x1 = x1)))"
        ),
    ),
    # (B -> (C -> D)) -> ((B -> C) -> (B -> D))
    "A2": (
        _fml(
            "(((x1 = 0) -> ((x2 = 0) -> (x1 = x2)))"
            " -> (((x1 = 0) -> (x2 = 0)) -> ((x1 = 0) -> (x1 = x2))))"
        ),
        _fml(
            "(((0 = 0) -> ((S(0) = 0) -> (x1 = x1)))"
            " -> (((0 = 0) -> (S(0) = 0)) -> ((0 = 0) -> (x1 = x1))))"
        ),
    ),
    # (~C -> ~B) -> ((~C -> B) -> C)
    "A3": (
        _fml(
            "((~(x1 = 0) -> ~(x2 = 0))"
            " -> ((~(x1 = 0) -> (x2 = 0)) -> (x1 = 0)))"
        ),
        _fml(
            "((~(0 = 0) -> ~(S(0) = 0))"
            " -> ((~(0 = 0) -> (S(0) = 0)) -> (0 = 0)))"
        ),
    ),
    # (forall x . B(x)) -> B(t)
    "A4": (
        _fml("(forall x1 . (x1 = x1) -> (0 = 0))"),
        _fml("(forall x2 . (x2 = 0) -> ((x1 + x1) = 0))"),
        _fml("(forall x1 . (x1 = x1) -> (S(x2) = S(x2)))"),
        _fml("(forall x2 . ((x2 * 0) = 0) -> ((S(0) * 0) = 0))"),
        _fml(
            "(forall x1 . ((x1 = 0) -> (x1 = 0))"
            " -> ((x2 = 0) -> (x2 = 0)))"
        ),
    ),
    # B -> forall x . B with x not free in B
    "A5": (
        _fml("((x2 = 0) -> forall x1 . (x2 = 0))"),
        _fml("((0 = 0) -> forall x1 . (0 = 0))"),
        _fml("(forall x1 . (x1 = 0) -> forall x2 . forall x1 . (x1 = 0))"),
    ),
}

# the size-2 interpretation documented alongside the A4 family: succ is
# constantly zero, so the numeral image is {0}, while 0 + 0 = 1
WITNESS_MODEL = normal_interpretation(
    size=2,
    zero=0,
    succ=(0, 0),
    add=((1, 0), (0, 0)),
    mul=((0, 0), (0, 0)),
)
WITNESS_INSTANCE = A_INSTANCES["A4"][1]

MP_PAIRS: tuple[tuple[Formula, Formula], ...] = (
    (_fml("(0 = 0)"), _fml("(S(0) = S(0))")),
    (_fml("forall x1 . (x1 = x1)"), _fml("(x2 = x2)")),
    (_fml("(x1 = x1)"), _fml("((x1 + 0) = (x1 + 0))")),
)

GEN_CASES: tuple[tuple[int, Formula], ...] = (
    (1, _fml("(x1 = x1)")),
    (2, _fml("((x1 + x2) = (x1 + x2))")),
    (1, _fml("(x2 = 0)")),
)

DUALITY_CASES: tuple[tuple[int, Formula], ...] = (
    (1, _fml("(x1 = 0)")),
    (2, _fml("(S(x2) = x1)")),
    (1, _fml("((x1 = 0) -> (x2 = x1))")),
)

# successor keeps values inside the numeral image, so only terms built
# with + or * can expose the lookup remap
SUBSTITUTION_CASES: tuple[tuple[Formula, int, Term], ...] = (
    (_fml("(x1 = 0)"), 1, parse_term("(x2 + x2)")),
    (_fml("(S(x1) = x2)"), 1, parse_term("(x2 * x2)")),
    (_fml("forall x2 . (x1 = x2)"), 1, parse_term("0")),
    (_fml("(x1 = 0)"), 1, parse_term("S(x2)")),
)

CHAIN_CASES: tuple[tuple[int, Formula], ...] = (
    (1, _fml("(x1 = 0)")),
    (1, _fml("((x1 = x2) -> (x2 = x1))")),
    (2, _fml("((x2 * x2) = x2)")),
)


# the quantifier-collapse law: thirty (variable, body) pairs, one a line,
# drawn once from a seeded random formula generator and pinned as text
COLLAPSE_CASES: tuple[tuple[int, Formula], ...] = tuple(
    (int(line[0]), _fml(line[2:])) for line in """\
2 ((~(S((x3 + x1)) = S(S(x3))) -> (S((x3 + S(0))) = x1)) -> forall x1 . (((x3 + x2) * (x1 * x1)) = x3))
2 forall x3 . ((S((x1 * x1)) = 0) -> forall x2 . (S(x1) = S((x1 + x1))))
1 (~~(S(x1) = x1) -> (((S(S(x3)) = (S(x1) + 0)) -> ((x3 + x1) = ((0 * 0) + S(S(0))))) -> forall x3 . (((x3 * x3) * x1) = (x2 + (S(0) * x1)))))
2 ~(((x1 * 0) * x3) = (S(x2) * 0))
2 ((x2 + (x1 + x1)) = x1)
2 ((((x3 + x1) = x1) -> (x2 = (x1 + S(x1)))) -> forall x1 . ((x3 * x1) = (S(x1) * (x1 * x1))))
1 (((x2 * x1) * (x1 + S(0))) = (x3 * x1))
1 (forall x3 . (x1 = x2) -> (S(0) = S(S(x1))))
2 (S(0) = x2)
1 (((x2 + x1) * S(x2)) = ((S(0) * x1) + (x1 + x1)))
1 ((S(0) * (S(0) + x3)) = (S(0) * (x3 + x1)))
1 ((S(x1) + S(x1)) = (S(0) + S(x2)))
2 (x1 = (S(S(0)) + S(x1)))
1 forall x3 . (x1 = ((x2 + x1) + S(0)))
1 (x1 = S(0))
2 forall x3 . (((0 * x1) + (x3 * x1)) = x2)
2 forall x2 . forall x2 . ~(((x1 + x2) + (x2 + x3)) = (x3 * x2))
2 forall x3 . (S(S(x1)) = ((S(0) * S(0)) * S(S(0))))
1 ~((((x1 * (x1 + x3)) = S((x3 + x1))) -> (S(S(x3)) = S((x2 * x2)))) -> forall x1 . (x2 = ((x2 * x1) * x3)))
1 forall x3 . ((x3 * S(x2)) = ((x2 + 0) * S(0)))
2 ~((S(S(0)) + 0) = ((x3 * 0) * (0 + x2)))
1 ((S(x3) * (S(0) * x1)) = x2)
1 (S(x1) = (x3 * (S(0) * x1)))
2 (S((x3 * x3)) = x3)
1 forall x3 . forall x3 . (x1 = (S(x1) + S(x2)))
1 ~((0 + (0 + 0)) = ((S(0) * x1) * S(x1)))
2 ~forall x2 . ((S(S(x1)) = S((S(0) * 0))) -> (((S(0) + x3) + (x2 * x2)) = S(x1)))
2 ((x3 = 0) -> ~(x1 = S(x1)))
1 forall x2 . (S((x1 * x1)) = 0)
1 (((x1 * x1) + x1) = x3)
""".splitlines()
)


def collapse_suite() -> tuple[tuple[int, Formula], ...]:
    """The thirty pinned (variable, body) pairs of the collapse family."""
    return COLLAPSE_CASES


# --------------------------------------------------------------------------
# metacheck


@dataclass(frozen=True)
class Violation:
    family: str
    model: Interpretation
    detail: str

    def __str__(self) -> str:
        model_line = format_interpretation(self.model).replace("\n", "; ").rstrip("; ")
        return f"[{self.family}] {self.detail}\n    model: {model_line}"


@dataclass(frozen=True)
class MetacheckReport:
    families: tuple[str, ...]
    mode: str
    max_size: int
    eq_tables: str
    examined: int
    exhausted: bool
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        head = (
            f"metacheck mode={self.mode} sizes<={self.max_size} "
            f"families={','.join(self.families)} eq={self.eq_tables}: "
            f"{self.examined} interpretations examined"
            f"{'' if self.exhausted else ' (budget hit, enumeration cut short)'}"
            f", {len(self.violations)} violation(s)"
        )
        if not self.violations:
            return head
        return "\n".join([head] + [str(v) for v in self.violations])


def numeral_chain(
    m: Interpretation, x: int, b: Formula, mode: str
) -> tuple[bool, list[bool]]:
    """Truth of forall x . b, and of b with each numeral 0..|image| put
    for x; those numerals reach every point of the numeral image."""
    universal = is_true(m, ForAll(x, b), mode)
    instances = [
        is_true(m, substitute(b, x, numeral(k)), mode)
        for k in range(len(numeral_image(m)) + 1)
    ]
    return universal, instances


# --------------------------------------------------------------------------
# chunks: metacheck decides each case on the models of up to CHUNK sweep
# positions of one size at once, one bit a model (bitslicing).  Bit k of a
# mask stands for the chunk's k-th model; a value is one-hot, a tuple that
# holds, for each domain element, the mask of the models where the value is
# that element; a formula's truth is the mask of the models where it holds.

CHUNK = 2048


class _Chunk:
    """The cells of count models of one size, in the layout of _layout, and
    the points of a mode.  zero, succ[a], add[a][b] and mul[a][b] are
    one-hot values, eq[a][b] a mask; points[d] is the mask of the models
    where d is a point, outside[d] its complement in full, and const[d] the
    value that is d in every model.  Built from cells, each a one-hot value
    or (an eq cell) a mask, in _layout's order."""

    __slots__ = ("size", "full", "laps", "zero", "succ", "add", "mul", "eq",
                 "const", "image", "points", "outside")

    def __init__(self, size: int, count: int, cells: list, mode: str):
        self.size, self.full = size, (1 << count) - 1
        self.laps = math.lcm(*range(1, size + 1))  # each cycle's length divides it
        self.zero, self.succ, self.add, self.mul, self.eq = _layout(size, cells)
        self.const = tuple(tuple(self.full if v == d else 0 for v in range(size))
                           for d in range(size))
        image, reached = list(self.zero), self.zero  # the closure of zero under succ
        for _ in range(size - 1):
            reached = _steps(self, reached, 1)
            image = [seen | now for seen, now in zip(image, reached)]
        self.image = tuple(image)
        self.points = self.image if mode == "parameterized" else (self.full,) * size
        self.outside = tuple(self.full ^ p for p in self.points)


# A size's sweep positions are its (algebra, eq table) pairs, kept or not:
# position p holds eq table p % n of the filter's n, and its algebra's cells
# are the digits of p // n in base size, cell 0 the most significant.  So
# the mask of the positions in a window where a cell holds v is periodic, a
# window's cells are built from its start and count alone, and the mask of
# the positions the sweep keeps is read from those cells.


def _digit_masks(start: int, count: int, run: int, base: int) -> tuple[int, ...]:
    """For each v < base, the mask of the positions p of the window
    [start, start + count), bit p - start, whose digit (p // run) % base is
    v: runs of run ones with period run * base."""
    period = run * base
    if period <= count:  # one period turned to the window's start, repeated
        turn, ones, laps = start % period, (1 << period) - 1, -(-count // period)
        repunit = ((1 << period * laps) - 1) // ones  # a one every period bits
        window, out = (1 << count) - 1, []
        for v in range(base):
            pattern = ((1 << run) - 1) << v * run
            pattern = (pattern >> turn | pattern << period - turn) & ones
            out.append(pattern * repunit & window)
        return tuple(out)
    out, end = [0] * base, start + count  # the at most base + 1 runs that meet it
    for r in range(start // run, (end - 1) // run + 1):
        low, high = max(r * run, start), min(r * run + run, end)
        out[r % base] |= ((1 << high - low) - 1) << low - start
    return tuple(out)


def _cell_masks(size: int, checks, start: int, count: int) -> list:
    """The cells of the window's positions, for _Chunk: a one-hot value
    for each algebra cell and a mask for each eq cell."""
    algebra, tables = _algebra_cells(size), _digit_masks(start, count, 1, len(checks))
    cells: list = [_digit_masks(start, count, len(checks) * size ** (algebra - 1 - j), size)
                   for j in range(algebra)]
    # a position holds one table, so the sum of the tables' masks is their union
    return cells + [sum(on for (eq, _), on in zip(checks, tables) if eq[e])
                    for e in range(size * size)]


def _kept(size: int, checks, cells: list, start: int, count: int) -> int:
    """The mask of the window's positions that the sweep keeps, read from
    the window's cells (_cell_masks'): each position of a table without
    pairs, and each position of another table E where, for each of E's
    pairs (i, j), E relates the values of cells i and j."""
    kept = 0
    for (eq, pairs), on in zip(checks, _digit_masks(start, count, 1, len(checks))):
        if pairs and on:  # a window holds some tables only
            related = [divmod(e, size) for e, holds in enumerate(eq) if holds]
            for i, j in pairs:  # one-hot cells, so the terms are disjoint
                on &= sum(cells[i][u] & cells[j][v] for u, v in related)
        kept |= on
    return kept


def _position_cells(size: int, checks, position: int) -> tuple[int, ...]:
    """The cells of the model at a sweep position: the digits of its
    algebra's index in base size, the most significant first, then its eq
    table's cells.  Decoded only for a violator or an enumerated model."""
    algebra, table = divmod(position, len(checks))
    digits = [0] * _algebra_cells(size)
    for j in reversed(range(len(digits))):
        algebra, digits[j] = divmod(algebra, size)
    return (*digits, *checks[table][0])


def _ones(mask: int):
    """The positions of the set bits of mask, lowest first."""
    bits = bin(mask)[:1:-1]  # bit k at position k
    k = bits.find("1")
    while k >= 0:
        yield k
        k = bits.find("1", k + 1)


def _apply(table, left: tuple, right: tuple) -> tuple:
    """The one-hot value of table[l][r] for the one-hot values l and r."""
    out = [0] * len(left)
    for a, on_a in enumerate(left):
        if on_a:
            row = table[a]
            for b, on_b in enumerate(right):
                both = on_a & on_b
                if both:
                    out = [v | both & cell for v, cell in zip(out, row[b])]
    return tuple(out)


def _equal(c: _Chunk, left: tuple, right: tuple) -> int:
    """The mask of the models where eq relates the values left and right."""
    truth = 0
    for a, on_a in enumerate(left):
        if on_a:
            row = c.eq[a]
            for b, on_b in enumerate(right):
                if on_b:
                    truth |= on_a & on_b & row[b]
    return truth


def _steps(c: _Chunk, value: tuple, k: int) -> tuple:
    """succ applied k times to value; past size steps every model is on
    a cycle, so k folds by whole laps."""
    if k > c.size:
        k = c.size + (k - c.size) % c.laps
    for _ in range(k):
        out = [0] * c.size
        for a, on in enumerate(value):
            if on:
                out = [v | on & cell for v, cell in zip(out, c.succ[a])]
        value = tuple(out)
    return value


def _remap(c: _Chunk, value: tuple) -> tuple:
    """value as the evaluator reads an assignment: outside the points it
    reads as zero."""
    off = 0
    for on, outside in zip(value, c.outside):
        off |= on & outside
    return tuple(on & p | z & off for on, p, z in zip(value, c.points, c.zero))


def _evaluate(c: _Chunk, e, env: dict):
    """The value of the term e, one-hot, or the truth of the formula e, a
    mask, in each model of chunk c under env, a map from variables to
    one-hot values; an unassigned variable reads as zero, and a
    quantifier ranges over the points.  One explicit-stack walk: a node
    waits on the stack as (node, None) until its operands are done, and
    a Succ chain as (its length, None)."""
    todo, done = [(e, env)], []
    pop, push, put = todo.pop, todo.append, done.append
    while todo:
        e, env = pop()
        cls = e.__class__
        if env is None:  # the operands of e are done
            if cls is Eq:
                right = done.pop()
                done[-1] = _equal(c, done[-1], right)
            elif cls is Add or cls is Mul:
                right = done.pop()
                done[-1] = _apply(c.add if cls is Add else c.mul, done[-1], right)
            elif cls is int:
                done[-1] = _steps(c, done[-1], e)
            elif cls is Not:
                done[-1] ^= c.full
            elif cls is Implies:
                right = done.pop()
                done[-1] = c.full ^ done[-1] | right
            else:  # ForAll, true at each point; its truth at 0 is on top
                truth = c.full
                for outside in c.outside:
                    truth &= done.pop() | outside
                put(truth)
        elif cls is Var:
            put(env.get(e.index, c.zero))
        elif cls is Eq or cls is Add or cls is Mul or cls is Implies:
            push((e, None))
            push((e.right, env))
            push((e.left, env))
        elif cls is Succ:
            k = 0
            while e.__class__ is Succ:
                k += 1
                e = e.arg
            push((k, None))
            push((e, env))
        elif cls is Zero:
            put(c.zero)
        elif cls is BigNumeral:
            put(_steps(c, c.zero, e.value))
        elif cls is Not:
            push((e, None))
            push((e.body, env))
        elif cls is ForAll:
            push((e, None))
            todo += [(e.body, {**env, e.index: v}) for v in c.const]
        else:
            raise NotATreeError(f"not a term or formula: {e!r}")
    return done[0]


def _bound(c: _Chunk, env: dict) -> tuple[dict, int]:
    """The values of env as constants, and the mask of the models where
    each of them is a point."""
    valid = c.full
    for d in env.values():
        valid &= c.points[d]
    return {x: c.const[d] for x, d in env.items()}, valid


# each law family is a tuple of cases, one per pinned item, each a partial
# that carries what its item needs; a case gives, for a chunk, the masks of
# the models it breaks, each with the detail of their violation.  A case
# that sweeps assignments sweeps the sorted free variables of what it
# evaluates: exists(x, b) for duality, forall x . b for collapse, and
# forall x . b with t for substitution, over the domain in product order;
# in duality and collapse an assignment counts only where its values are
# points.  Duality and substitution name the first assignment at which a
# model breaks.


def _truth_case(premises, conclusion, detail, c):
    # the detail where each closed premise is true and the conclusion is not
    mask = c.full ^ _evaluate(c, conclusion, {})
    for f in premises:
        mask &= _evaluate(c, f, {})
    return [(mask, detail)]


def _duality_case(x, b, dual, variables, c):
    found, left = [], c.full
    for env in _assignments(range(c.size), variables):
        seen, valid = _bound(c, env)
        direct = 0
        for d, value in enumerate(c.const):
            direct |= _evaluate(c, b, {**seen, x: value}) & c.points[d]
        broken = (direct ^ _evaluate(c, dual, seen)) & valid & left
        if broken:
            found.append((broken, f"existential duality breaks for x{x} in {b} at {env}"))
            left ^= broken
    return found


def _substitution_case(b, x, t, sub, fv, c):
    found, left = [], c.full
    for env in _assignments(range(c.size), fv):
        seen = {y: _remap(c, c.const[d]) for y, d in env.items()}
        lhs = _evaluate(c, sub, seen)
        rhs = _evaluate(c, b, {**seen, x: _remap(c, _evaluate(c, t, seen))})
        broken = (lhs ^ rhs) & left
        if broken:
            found.append((broken, f"substitution lemma breaks for {t} into x{x}"
                                  f" of {b} at {env}"))
            left ^= broken
    return found


def _collapse_case(x, b, universal, fv, c):
    rhs = c.full
    for env in _assignments(range(c.size), fv):
        seen, valid = _bound(c, env)
        for d, value in enumerate(c.const):
            rhs &= _evaluate(c, b, {**seen, x: value}) | c.full ^ (valid & c.points[d])
    return [(_evaluate(c, universal, {}) ^ rhs, f"quantifier collapse mismatch for x{x} in {b}")]


def _chain_case(x, b, c):
    # universal truth must imply every numeral instance; where every point
    # is the value of a numeral (always in parameterized mode) the
    # instances must also add back up to the universal claim.  Numerals
    # 0..size reach every point of the numeral image in every model.
    covered = c.full
    for numbered, outside in zip(c.image, c.outside):
        covered &= numbered | outside
    universal = _evaluate(c, _closure(ForAll(x, b)), {})
    instances = c.full
    for k in range(c.size + 1):
        instances &= _evaluate(c, _closure(substitute(b, x, numeral(k))), {})
    return [
        (universal & ~instances, f"a numeral instance of x{x} escapes {b}"),
        (covered & instances & ~universal,
         f"numeral instances of x{x} do not lift to the universal claim {b}"),
    ]


LAWS = {
    **{
        family: tuple(partial(_truth_case, (), _closure(f), f"instance not true: {f}")
                      for f in instances)
        for family, instances in A_INSTANCES.items()
    },
    "rules": (
        *(partial(_truth_case, (_closure(a), _closure(imp)), _closure(b),
                  f"detachment loses truth: {a} with {imp}")
          for a, b in MP_PAIRS for imp in [Implies(a, b)]),
        *(partial(_truth_case, (_closure(b),), _closure(ForAll(x, b)),
                  f"generalisation loses truth: {b} over x{x}")
          for x, b in GEN_CASES),
    ),
    "duality": tuple(partial(_duality_case, x, b, dual, sorted(free_vars(dual)))
                     for x, b in DUALITY_CASES for dual in [exists(x, b)]),
    "substitution": tuple(partial(_substitution_case, b, x, t, substitute(b, x, t),
                                  sorted(free_vars(ForAll(x, b)) | free_vars(t)))
                          for b, x, t in SUBSTITUTION_CASES),
    "collapse": tuple(partial(_collapse_case, x, b, _closure(every), sorted(free_vars(every)))
                      for x, b in COLLAPSE_CASES for every in [ForAll(x, b)]),
    "chain": tuple(partial(_chain_case, x, b) for x, b in CHAIN_CASES),
}
FAMILIES = tuple(LAWS)


def _violations(cases, c: _Chunk, kept: int, checks, start: int) -> list[Violation]:
    """The violations of the cases at the kept positions of chunk c, whose
    window starts at start, in (model, case) order; an Interpretation is
    built only for a model that breaks a case."""
    hits = []  # (model, case, detail)
    for i, (_, case) in enumerate(cases):
        for mask, detail in case(c):
            hits += ((k, i, detail) for k in _ones(mask & kept))
    found, last = [], None
    for k, i, detail in sorted(hits):
        if k != last:
            last, m = k, _model(c.size, _position_cells(c.size, checks, start + k))
        found.append(Violation(cases[i][0], m, detail))
    return found


def metacheck(
    max_size: int,
    families,
    mode: str = "standard",
    budget: int | str = "full",
    eq_tables: str = "identity",
) -> MetacheckReport:
    """Evaluate the pinned instance families over every interpretation of
    size 1..max_size (or until the budget runs out).  A cut report gives
    the largest size it examined as its max_size.  A full sweep of more
    than FULL_SWEEP_LIMIT algebras raises ModelOptionError, as do an
    unknown family or mode and a bad budget.

    The sweep positions of each size come in windows of at most CHUNK, and
    each case decides a whole window at once (see _Chunk); the violations
    at the positions the sweep keeps come out in sweep order, and within a
    model in case order.  A budget counts kept models."""
    families = tuple(families)
    for family in families:
        if family not in LAWS:
            raise ModelOptionError(f"unknown family {family!r}")
    if mode not in MODES:
        raise ModelOptionError(f"unknown mode {mode!r}")
    if budget == "full":
        algebras = 0
        for size in range(1, max_size + 1):
            algebras += size ** _algebra_cells(size)
            if algebras > FULL_SWEEP_LIMIT:
                raise ModelOptionError(
                    f"a full sweep of sizes<={max_size} covers at least "
                    f"{algebras} interpretations, past the limit of "
                    f"{FULL_SWEEP_LIMIT}; give a numeric budget"
                )
    elif not isinstance(budget, int) or budget < 1:
        raise ModelOptionError("budget must be 'full' or a positive integer")

    cases = [(family, case) for family in families for case in LAWS[family]]
    violations: list[Violation] = []
    examined = 0
    exhausted = True
    reached = max_size
    for size in range(1, max_size + 1):
        checks = _eq_checks(size, eq_tables)
        start, end = 0, size ** _algebra_cells(size) * len(checks)
        while start < end and examined != budget:
            count = min(CHUNK, end - start)
            cells = _cell_masks(size, checks, start, count)
            c, kept = _Chunk(size, count, cells, mode), _kept(size, checks, cells, start, count)
            if budget != "full" and kept.bit_count() > budget - examined:
                # cut the window at its (budget - examined)-th kept position;
                # c holds the whole window, and is read at kept positions only
                count = next(itertools.islice(_ones(kept), budget - examined - 1, None)) + 1
                kept &= (1 << count) - 1
            if kept:
                examined += kept.bit_count()
                reached = size
                violations += _violations(cases, c, kept, checks, start)
            start += count
        # a size's last position holds a table without pairs, which is kept:
        # so positions left mean the budget ran out first
        exhausted = start == end
        if not exhausted:
            break
    return MetacheckReport(
        families=families,
        mode=mode,
        max_size=reached,
        eq_tables=eq_tables,
        examined=examined,
        exhausted=exhausted,
        violations=tuple(violations),
    )
