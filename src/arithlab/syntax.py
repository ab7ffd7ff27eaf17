"""Terms and formulas of first-order arithmetic, with a parser and printer.

The object language has individual variables x1, x2, ..., the constant 0,
successor S, binary + and *, equality as the only predicate, and the
connectives ~ (negation), -> (implication) and forall.  Conjunction,
disjunction and exists are accepted by the parser as sugar and expand into
the primitive connectives.

Concrete grammar (whitespace between tokens is insignificant):

    term    := "0" | "x" DIGITS | "S(" term ")"
             | "(" term "+" term ")" | "(" term "*" term ")"
             | "num(" DIGITS ")"
    formula := "(" term "=" term ")" | "~" formula
             | "(" formula "->" formula ")" | "forall x" DIGITS "." formula

The printer emits exactly this grammar with single spaces around infix
operators, so parse(to_text(e)) == e for every tree the library builds.

num(n) is a compact numeral: it stands for n nested applications of S to 0
without materialising them.  num(0) is interchangeable with 0 everywhere.

The node classes are frozen slotted classes written out by hand, so this
module imports only re: __init__ sets each field once, through its slot
descriptor, assigning or deleting a field raises AttributeError, pickle
and copy.copy rebuild a node from a flat spelling of classes and ints, and
copy.deepcopy gives the node itself.  The parser takes its tokens from one
regex pass; a token carries no position, so only a ParseError scans the
text again to find where it is, and input that is not a str is a
NotTextError.

Printing, keys, ==, official symbol strings and every rebuild of a tree go
through spell, one explicit-stack traversal, and the parsers and free_vars
keep explicit stacks too, so nesting depth is bounded by memory, never by
Python's recursion limit.  == and the hash read the spelling that pickle and
copy rebuild from: each node's class, then its fields, each index and numeral
value an int piece.  Only the printed text, to_text, is cached on a node;
canonical_key, with every numeral num(n), is spelled on demand for repr.
semantic_eq spells no key: lockstep walks two trees in step and decides
equality up to numeral form, or whether one is an instance of the other at
a variable, with substitute's capture rule.  substitute carries the open
binders of the replacement's variables along its one walk, and free_vars
and lockstep count those of each index, so all three take time linear in
the nesting depth.  ArithlabError, the root of every error that
arithlab raises by name, its subclass Refusal, and tarski, the one Tarski
relation, live here because every module imports this one.
"""

from __future__ import annotations

import re


class _Node:
    """Base of terms and formulas: equal when spelled alike, and immutable.

    Each class lists its fields in __match_args__, in the order its
    __init__ takes them, and __init__ sets each once through its slot
    descriptor.
    """

    __slots__ = ("_text",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a node is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a node is immutable")

    def __reduce__(self):
        # a flat spelling, rebuilt by one stack through __init__'s checks,
        # so pickle and copy take any depth
        return _unspelled, (spell(self, _PREFIX),)

    def __deepcopy__(self, memo):
        # immutable, so a deep copy is the node itself, at any depth
        return self

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return spell(self, _PREFIX) == spell(other, _PREFIX)

    def __hash__(self) -> int:
        return hash(tuple(spell(self, _PREFIX)))

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        # spelled by spell, so any depth shows; the key writes numerals in
        # hexadecimal, which has no digit limit
        return f"<{self.__class__.__name__} {canonical_key(self)}>"


class Term(_Node):
    """Base class for terms."""

    __slots__ = ()


class Formula(_Node):
    """Base class for formulas."""

    __slots__ = ()


class _Pair(_Node):
    """Add, Mul, Eq and Implies: a left and a right side."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right) -> None:
        _set_left(self, left)
        _set_right(self, right)


class Var(Term):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise NodeValueError(f"variable index must be >= 1, got {index}")
        _set_var_index(self, index)


class Zero(Term):
    __slots__ = ()


class Succ(Term):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Term) -> None:
        _set_arg(self, arg)


class Add(_Pair, Term):
    __slots__ = ()


class Mul(_Pair, Term):
    __slots__ = ()


class BigNumeral(Term):
    """The numeral for n, kept as a count instead of a Succ chain."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int) -> None:
        if value < 0:
            raise NodeValueError(f"numeral value must be >= 0, got {value}")
        _set_value(self, value)


class Eq(_Pair, Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Formula) -> None:
        _set_not_body(self, body)


class Implies(_Pair, Formula):
    __slots__ = ()


class ForAll(Formula):
    __slots__ = __match_args__ = ("index", "body")

    def __init__(self, index: int, body: Formula) -> None:
        if index < 1:
            raise NodeValueError(f"variable index must be >= 1, got {index}")
        _set_forall_index(self, index)
        _set_forall_body(self, body)


# the slot descriptors' setters, which _Node.__setattr__ does not guard
_set_left, _set_right = _Pair.left.__set__, _Pair.right.__set__
_set_var_index, _set_value = Var.index.__set__, BigNumeral.value.__set__
_set_arg, _set_not_body = Succ.arg.__set__, Not.body.__set__
_set_forall_index, _set_forall_body = ForAll.index.__set__, ForAll.body.__set__
_set_text = _Node._text.__set__


Expr = Term | Formula


def numeral(n: int) -> BigNumeral:
    """The numeral for n in compact form."""
    return BigNumeral(n)


def conj(a: Formula, b: Formula) -> Formula:
    """a and b, expanded to primitives as ~(a -> ~b)."""
    return Not(Implies(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    """a or b, expanded to primitives as (~a -> b)."""
    return Implies(Not(a), b)


def exists(index: int, body: Formula) -> Formula:
    """exists x_index, expanded to primitives as ~forall x_index ~body."""
    return Not(ForAll(index, Not(body)))


# --------------------------------------------------------------------------
# errors


class ArithlabError(Exception):
    """Root of every error arithlab raises by name; the CLI reports one as
    an error line with exit 2."""


class Refusal(ArithlabError):
    """A well-formed request the operation declines (capture, restriction);
    the CLI reports it with exit 1."""


class SyntaxToolError(ArithlabError):
    """Base class for errors raised by this module."""


class ParseError(SyntaxToolError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NodeValueError(SyntaxToolError, ValueError):
    """A variable index below 1 or a negative numeral value."""


class NotATreeError(SyntaxToolError, TypeError):
    """Something that is not a term or formula where a tree is needed."""


class NotTextError(SyntaxToolError, TypeError):
    """Parser input that is not a str."""


class NumeralLimitError(SyntaxToolError, ValueError):
    """A numeral too large to spell out as an explicit S chain."""


class CaptureError(SyntaxToolError, Refusal):
    """Substituting a term would capture one of its variables."""

    def __init__(self, binder: int, var: int):
        super().__init__(
            f"substituting for x{var} would capture x{binder} "
            f"under its binder"
        )
        self.binder = binder
        self.var = var


# --------------------------------------------------------------------------
# the traversal


def spell(e: Expr, table: dict) -> list:
    """What e, a term, a formula or a root whose class table names, spells
    under table, in order, by one explicit-stack walk.

    table maps a class to a function entry(item, out), which appends to
    out what comes before the item's first child and returns the rest:
    pieces and children in stack order, last first, or nothing.  Succ's
    entry peels a whole chain in a loop.  An item whose class the table
    leaves out is a piece, emitted as is.  Depth is bounded by memory.
    """
    if not isinstance(e, _Node) and e.__class__ not in table:
        raise NotATreeError(f"not a term or formula: {e!r}")
    out: list = []
    emit = out.append
    stack: list = [e]
    pop, push, entry_of = stack.pop, stack.extend, table.get
    while stack:
        x = pop()
        entry = entry_of(x.__class__)
        if entry is None:
            emit(x)
        else:
            rest = entry(x, out)
            if rest:
                push(rest)
    return out


def succ_entry(opening: list, closing: list, numeral=None):
    """Succ's entry: the pieces that open and close one application, the
    closing ones in stack order, repeated along the chain; numeral(n), when
    given, is the one piece for a whole chain over a numeral for n."""

    def entry(e: Succ, out: list) -> list | None:
        depth = 0
        while e.__class__ is Succ:
            depth += 1
            e = e.arg
        if numeral is not None:
            value = numeral_value(e)
            if value is not None:
                out.append(numeral(value + depth))
                return None
        out += opening * depth
        return closing * depth + [e]

    return entry


def tarski(f: Formula, env: dict[int, int], atom, over) -> bool:
    """Tarski satisfaction of f under env.

    atom(eq, env) decides an equation; over(index, env) gives the values
    a quantifier of x_index ranges over (none makes it true).  Negations,
    consequents and a quantifier's last value are followed in this frame
    through a polarity flag: only antecedents and other values nest.
    """
    positive = True
    while True:
        cls = f.__class__
        if cls is Eq:
            return positive if atom(f, env) else not positive
        if cls is Not:
            positive = not positive
            f = f.body
        elif cls is Implies:
            if not tarski(f.left, env, atom, over):
                return positive
            f = f.right
        elif cls is ForAll:
            x = f.index
            f = f.body
            values = iter(over(x, env))
            last = next(values, None)
            if last is None:
                return positive
            for d in values:
                if not tarski(f, {**env, x: last}, atom, over):
                    return not positive
                last = d
            env = {**env, x: last}
        else:
            raise NotATreeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# printing and keys


def _infix(op: str):
    def entry(e, out: list) -> list:
        out.append("(")
        return [")", e.right, op, e.left]

    return entry


def _not_text(e: Not, out: list) -> list:
    out.append("~")
    return [e.body]


def _forall_text(e: ForAll, out: list) -> list:
    out.append(f"forall x{e.index} . ")
    return [e.body]


def _num_key(n: int) -> str:
    # hexadecimal, which has no digit limit, so every numeral has a key
    return f"num({n:x})"


_TEXT = {
    Var: lambda e, out: out.append(f"x{e.index}"),
    Zero: lambda e, out: out.append("0"),
    BigNumeral: lambda e, out: out.append(f"num({e.value})"),
    Succ: succ_entry(["S("], [")"]),
    Add: _infix(" + "),
    Mul: _infix(" * "),
    Eq: _infix(" = "),
    Not: _not_text,
    Implies: _infix(" -> "),
    ForAll: _forall_text,
}
_CANON = {
    **_TEXT,
    Zero: lambda e, out: out.append("num(0)"),
    BigNumeral: lambda e, out: out.append(_num_key(e.value)),
    Succ: succ_entry(["S("], [")"], _num_key),
}


def _prefix(e: _Node, out: list) -> list:
    out.append(e.__class__)
    return [getattr(e, name) for name in reversed(e.__match_args__)]


# each node's class, then its fields in order, each int a piece: what ==,
# the hash, pickle and copy read, so S(0) is not num(1) and no digit limit
# applies
_PREFIX = dict.fromkeys([Var, Zero, Succ, Add, Mul, BigNumeral, Eq, Not, Implies, ForAll],
                        _prefix)


def _unspelled(pieces: list) -> Expr:
    """The tree spelled by _PREFIX, read from its end with one stack: a
    class takes its fields off the top, first field topmost."""
    stack: list = []
    for piece in reversed(pieces):
        if piece.__class__ is not int:
            start = len(stack) - len(piece.__match_args__)
            fields = stack[start:]
            del stack[start:]
            piece = piece(*reversed(fields))
        stack.append(piece)
    return stack[0]


def to_text(e: Expr) -> str:
    """The printed spelling of e, cached on e."""
    text = getattr(e, "_text", None)
    if text is None:
        text = "".join(spell(e, _TEXT))
        _set_text(e, text)
    return text


def canonical_key(e: Expr) -> str:
    """The spelling of e with every numeral as num(n), n in hexadecimal.

    Two trees denote the same official expression exactly when their
    canonical keys are equal.
    """
    return "".join(spell(e, _CANON))


# --------------------------------------------------------------------------
# parsing

# one alternation, tried in order at each token; \S takes any other
# character, which no token starts
_TOKEN_RE = re.compile(r"->|[()+*=~.&|]|x[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
_QUANTIFIERS = {"forall": ForAll, "exists": exists}
_TERM_OPS = {"+": Add, "*": Mul, "=": Eq}
_FORMULA_OPS = {"->": Implies, "&": conj, "|": disj}
_DIGITS = frozenset("0123456789")


def _located(text: str, message: str, at: int) -> ParseError:
    """The ParseError for message at token number at of text, or for the
    first character of text that starts no token, if there is one.  Tokens
    carry no position, so only an error scans text again, with the same
    regex."""
    position = len(text)  # the end of input
    for n, m in enumerate(_TOKEN_RE.finditer(text)):
        token = m[0]
        # a character the alternatives before \S do not take alone
        if len(token) == 1 and not (token.isascii() and token.isalnum()
                                    or token in "()+*=~.&|_"):
            return ParseError(f"unexpected character {token!r}", m.start())
        if n == at:
            position = m.start()
    return ParseError(message, position)


def _expected(what: str, text: str, tokens: list[str], i: int) -> ParseError:
    return _located(text, f"expected {what}, got {tokens[i] or 'end of input'!r}", i)


def _number(digits: str, text: str, i: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-string digit limit
        raise _located(text, f"number of {len(digits)} digits is too long", i) from None


def _index(text: str, tokens: list[str], i: int) -> int:
    index = _number(tokens[i][1:], text, i)
    if index < 1:
        raise _located(text, "variable index must be >= 1", i)
    return index


def parse(text: str) -> Expr:
    """Parse text as a term or a formula, whichever it is."""
    if not isinstance(text, str):
        raise NotTextError(f"expected a str to parse, got {type(text).__name__}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of input
    i = 0
    # The leaves built so far, by token: 0 and each xN, each built once.
    leaves: dict[str, Term] = {}
    # Constructions waiting for a value, innermost last.
    frames: list[tuple] = []
    want = "item"  # what the next value must be: "item", "term" or "formula"
    while True:
        token = tokens[i]
        if token == "(":
            frames.append(("(", want, i))
            want = "item"
            i += 1
            continue
        if want != "term" and (token == "~" or token in _QUANTIFIERS):
            if token == "~":
                frames.append(("prefix", Not))
                i += 1
            else:
                var = tokens[i + 1]
                if var[:1] != "x" or var[1:2] not in _DIGITS:
                    raise _expected(f"a variable after {token}", text, tokens, i + 1)
                index = _index(text, tokens, i + 1)
                if tokens[i + 2] != ".":
                    what = "'.' after quantified variable"
                    raise _expected(what, text, tokens, i + 2)
                frames.append(("prefix", _QUANTIFIERS[token], index))
                i += 3
            want = "formula"
            continue
        if want == "formula":
            raise _expected("a formula", text, tokens, i)
        if token == "S":
            depth = 0
            while tokens[i] == "S":
                if tokens[i + 1] != "(":
                    raise _expected("'(' after S", text, tokens, i + 1)
                depth += 1
                i += 2
            frames.append(("S", depth))
            want = "term"
            continue
        value = leaves.get(token)
        if value is not None:
            i += 1
        elif token == "0":
            value = leaves[token] = Zero()
            i += 1
        elif token[:1] == "x" and token[1:2] in _DIGITS:
            value = leaves[token] = Var(_index(text, tokens, i))
            i += 1
        elif token == "num":
            if tokens[i + 1] != "(":
                raise _expected("'(' after num", text, tokens, i + 1)
            if tokens[i + 2][:1] not in _DIGITS:
                raise _expected("numeral digits", text, tokens, i + 2)
            if tokens[i + 3] != ")":
                raise _expected("')'", text, tokens, i + 3)
            value = BigNumeral(_number(tokens[i + 2], text, i + 2))
            i += 4
        elif token[:1] in _DIGITS:
            raise _located(
                text,
                f"bare numeral literals other than '0' are not terms; "
                f"write num({token})",
                i,
            )
        else:
            raise _expected("a term", text, tokens, i)
        # Hand the value to the waiting constructions until one needs more.
        while frames:
            frame = frames[-1]
            tag = frame[0]
            if tag == "(":
                ops = _TERM_OPS if isinstance(value, Term) else _FORMULA_OPS
                make = ops.get(tokens[i])
                if make is None:
                    expected = "'+', '*' or '='" if ops is _TERM_OPS else "'->'"
                    after = "term" if ops is _TERM_OPS else "formula"
                    raise _expected(f"{expected} after {after}", text, tokens, i)
                frames[-1] = ("op", make, value, frame[1], frame[2])
                want = "term" if ops is _TERM_OPS else "formula"
                i += 1
                break
            if tag == "S":
                for _ in range(frame[1]):
                    if tokens[i] != ")":
                        raise _expected("')'", text, tokens, i)
                    value = Succ(value)
                    i += 1
            elif tag == "op":
                _, make, first, outer, lpar = frame
                if tokens[i] != ")":
                    raise _expected("')'", text, tokens, i)
                value = make(first, value)
                i += 1
                if outer == "term" and not isinstance(value, Term):
                    raise _located(text, "expected a term, found a formula", lpar)
                if outer == "formula" and not isinstance(value, Formula):
                    raise _located(text, "expected a formula, found a term", lpar)
            else:
                value = frame[1](*frame[2:], value)
            frames.pop()
        else:
            break
    if tokens[i]:
        raise _located(text, f"trailing input {tokens[i]!r}", i)
    return value


def _parse_as(cls: type, message: str, text: str):
    item = parse(text)
    if not isinstance(item, cls):
        raise ParseError(message, 0)
    return item


def parse_term(text: str) -> Term:
    return _parse_as(Term, "expected a term, found a formula", text)


def parse_formula(text: str) -> Formula:
    return _parse_as(Formula, "expected a formula, found a term", text)


# --------------------------------------------------------------------------
# free variables and substitution


def free_vars(e: Expr) -> frozenset[int]:
    """Indices of the variables occurring free in e."""
    out: set[int] = set()
    bound: dict[int, int] = {}  # open binders per index; close shuts one
    stack: list = [e]
    close = object()  # on the work list, over the index it closes
    while stack:
        node = stack.pop()
        while isinstance(node, Succ):
            node = node.arg
        if node is close:
            bound[stack.pop()] -= 1
        elif isinstance(node, Var):
            if not bound.get(node.index):
                out.add(node.index)
        elif isinstance(node, _Pair):
            stack += (node.left, node.right)
        elif isinstance(node, Not):
            stack.append(node.body)
        elif isinstance(node, ForAll):
            bound[node.index] = bound.get(node.index, 0) + 1
            stack += (node.index, close, node.body)
        elif not isinstance(node, (Zero, BigNumeral)):
            raise NotATreeError(f"not a term or formula: {node!r}")
    return frozenset(out)


def _rebuilt(mark: tuple, out: list) -> None:
    """A node's mark, the node and its fields, comes off the stack after
    what the fields became, which ends out: the node stands for itself
    unless one of them changed."""
    if len(mark) == 2:
        e, field = mark
        new = out[-1]
        out[-1] = e if new is field else e.__class__(new)
    else:
        e, first, second = mark
        new_second = out.pop()
        new_first = out[-1]
        if new_first is first and new_second is second:
            out[-1] = e
        else:
            out[-1] = e.__class__(new_first, new_second)


def _chain_marks(e: Succ, out: list) -> list:
    """A Succ chain's marks, outermost first, then the term it is over."""
    marks: list = []
    while e.__class__ is Succ:
        marks.append((e, e.arg))
        e = e.arg
    marks.append(e)
    return marks


def _pair_marks(e, out: list) -> list:
    return [(e, e.left, e.right), e.right, e.left]


def _forall_marks(e: ForAll, out: list) -> list:
    return [(e, e.index, e.body), e.body, e.index]


# Rebuilds a tree: each node pushes its mark, then its fields (ForAll's
# index first); leaves are pieces, emitted whole.  What a rebuild leaves
# unchanged is the very object it came from.
_REBUILD = {
    tuple: _rebuilt,
    Succ: _chain_marks,
    Add: _pair_marks,
    Mul: _pair_marks,
    Eq: _pair_marks,
    Not: lambda e, out: [(e, e.body), e.body],
    Implies: _pair_marks,
    ForAll: _forall_marks,
}


def substitute(e: Expr, var: int, replacement: Term) -> Expr:
    """e with replacement for every free occurrence of x_var.

    Raises CaptureError if a free variable of the replacement would fall
    under a binder of e (the replacement is not free for x_var in e); the
    binder named is the outermost around the first such occurrence.
    A subtree of e with no free x_var comes back as the same object.
    """
    exposed = free_vars(replacement)
    # the binders of exposed variables open around the walk, outermost
    # first; a None on the stack closes the innermost
    binders: list[int] = []

    def forall(f: ForAll, out: list) -> list | None:
        if f.index == var:
            out.append(f)
            return None
        if f.index not in exposed:
            return _forall_marks(f, out)
        binders.append(f.index)
        return [None, *_forall_marks(f, out)]

    def close(mark: None, out: list) -> None:
        binders.pop()

    def variable(v: Var, out: list) -> None:
        if v.index == var and binders:
            raise CaptureError(binders[0], var)
        out.append(replacement if v.index == var else v)

    table = {**_REBUILD, Var: variable, ForAll: forall, type(None): close}
    return spell(e, table)[0]


_NUMERALS = (Succ, Zero, BigNumeral)
_PAIRS = (Add, Mul, Eq, Implies)
_CLOSE = object()  # on lockstep's work list, over the index it closes


def lockstep(a: Expr, b: Expr, var: int = 0, t: Term | None = None) -> Term | bool:
    """Whether b is a[t/x_var] up to numeral form, by one walk of the two
    trees in step that builds no substituted tree and spells no key.

    t is the given term, or else what b has at a's leftmost free x_var.
    Returns False when b is no such instance, or when t is not free for
    x_var in a (the capture rule of substitute); otherwise t, or True when
    a has no free x_var.  With var 0, which no variable has, it decides
    equality up to numeral form.  Under a var the open binders are counted
    per index, as free_vars does, so the walk is linear in the trees' size.
    """
    exposed = () if t is None else free_vars(t)
    bound: dict[int, int] = {}  # open binders per index; a close shuts one
    pairs: list = [(a, b)]
    pop, push = pairs.pop, pairs.append
    while pairs:
        x, y = pop()
        if x is y and not var:
            continue
        cls = x.__class__
        if cls is Var and x.index == var and not bound.get(var):
            if t is None:
                t, exposed = y, free_vars(y)
            elif t is not y and not lockstep(t, y):
                return False
            if any(bound.get(v) for v in exposed):
                return False
        elif cls is y.__class__:
            if cls is Succ:
                push((x.arg, y.arg))
            elif cls is Var:
                if x.index != y.index:
                    return False
            elif cls in _PAIRS:
                push((x.right, y.right))
                push((x.left, y.left))
            elif cls is Not:
                push((x.body, y.body))
            elif cls is ForAll:
                if x.index != y.index:
                    return False
                if var:
                    bound[x.index] = bound.get(x.index, 0) + 1
                    push((_CLOSE, x.index))
                push((x.body, y.body))
            elif cls is BigNumeral:
                if x.value != y.value:
                    return False
            elif cls is not Zero:
                raise NotATreeError(f"not a term or formula: {x!r}")
        elif x is _CLOSE:
            bound[y] -= 1
        elif not isinstance(x, _Node) or not isinstance(y, _Node):
            bad = y if isinstance(x, _Node) else x
            raise NotATreeError(f"not a term or formula: {bad!r}")
        elif cls in _NUMERALS or y.__class__ in _NUMERALS:
            m, n = numeral_value(x), numeral_value(y)
            if m is None and n is not None and var:
                # a may be S^k over a free x_var: t is then b's term k down
                k = 0
                while x.__class__ is Succ:
                    k, x = k + 1, x.arg
                if k > n or x.__class__ is not Var or x.index != var or bound.get(var):
                    return False
                push((x, BigNumeral(y.value - k) if k else y))
            elif m is None or m != n:
                return False
        else:
            return False
    return True if t is None else t


def semantic_eq(a: Expr, b: Expr) -> bool:
    """Equality up to the compact/expanded numeral distinction."""
    return a is b or lockstep(a, b)


# --------------------------------------------------------------------------
# numeral handling


def numeral_value(t: Term) -> int | None:
    """The n such that t is the numeral for n, or None if t is not one."""
    count = 0
    while isinstance(t, Succ):
        count += 1
        t = t.arg
    if isinstance(t, Zero):
        return count
    if isinstance(t, BigNumeral):
        return count + t.value
    return None


def expand_numerals(e: Expr, limit: int = 10**6) -> Expr:
    """e with every num(n) node replaced by an explicit S chain.

    Refuses to expand a numeral larger than limit, since the result would
    have that many nodes.
    """

    def expand(t: BigNumeral, out: list) -> None:
        if t.value > limit:
            raise NumeralLimitError(
                f"refusing to expand num({t.value}); limit is {limit}"
            )
        term = Zero()
        for _ in range(t.value):
            term = Succ(term)
        out.append(term)

    return spell(e, {**_REBUILD, BigNumeral: expand})[0]

