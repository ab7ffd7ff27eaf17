"""Neutral expression forms owned by the benchmark.

Generated inputs start life as plain nested tuples, not arithlab objects,
so the benchmark can print them, compare them and evaluate them by its own
code.  That keeps every verdict check independent of the module it checks.

    terms     ("x", k)  ("0",)  ("num", n)  ("S", t)  ("+", a, b)  ("*", a, b)
    formulas  ("=", a, b)  ("~", f)  ("->", f, g)  ("all", k, f)

These helpers recurse; generated inputs are shallow (the deliberately deep
parser probes are built as text and never converted).
"""

from __future__ import annotations


def text(e: tuple) -> str:
    """The one canonical spelling arithlab's grammar accepts for e."""
    tag = e[0]
    if tag == "x":
        return f"x{e[1]}"
    if tag == "0":
        return "0"
    if tag == "num":
        return f"num({e[1]})"
    if tag == "S":
        return f"S({text(e[1])})"
    if tag in ("+", "*", "="):
        return f"({text(e[1])} {tag} {text(e[2])})"
    if tag == "~":
        return "~" + text(e[1])
    if tag == "->":
        return f"({text(e[1])} -> {text(e[2])})"
    if tag == "all":
        return f"forall x{e[1]} . {text(e[2])}"
    raise ValueError(f"not a neutral form: {e!r}")


def canon(e: tuple) -> tuple:
    """e with every numeral (0, num(n), S-chains over them) as ("num", n)."""
    tag = e[0]
    if tag == "0":
        return ("num", 0)
    if tag == "S":
        inner = canon(e[1])
        return ("num", inner[1] + 1) if inner[0] == "num" else ("S", inner)
    if tag in ("+", "*", "=", "->"):
        return (tag, canon(e[1]), canon(e[2]))
    if tag == "~":
        return ("~", canon(e[1]))
    if tag == "all":
        return ("all", e[1], canon(e[2]))
    return e


def nodes(e: tuple) -> int:
    """Node count, a numeral num(n) counting as one node."""
    tag = e[0]
    if tag in ("x", "0", "num"):
        return 1
    if tag == "all":
        return 1 + nodes(e[2])
    return 1 + sum(nodes(part) for part in e[1:])


def free_vars(e: tuple, bound: frozenset = frozenset()) -> set[int]:
    tag = e[0]
    if tag == "x":
        return set() if e[1] in bound else {e[1]}
    if tag in ("0", "num"):
        return set()
    if tag == "all":
        return free_vars(e[2], bound | {e[1]})
    out: set[int] = set()
    for part in e[1:]:
        out |= free_vars(part, bound)
    return out


def numerals(e: tuple) -> list[int]:
    """Values of the num(n) nodes in e, for the input profile."""
    tag = e[0]
    if tag == "num":
        return [e[1]]
    if tag in ("x", "0"):
        return []
    if tag == "all":
        return numerals(e[2])
    return [n for part in e[1:] for n in numerals(part)]


def to_tree(syntax, e: tuple):
    """The arithlab tree for e, built from the given syntax module."""
    tag = e[0]
    if tag == "x":
        return syntax.Var(e[1])
    if tag == "0":
        return syntax.Zero()
    if tag == "num":
        return syntax.BigNumeral(e[1])
    if tag == "S":
        return syntax.Succ(to_tree(syntax, e[1]))
    if tag == "+":
        return syntax.Add(to_tree(syntax, e[1]), to_tree(syntax, e[2]))
    if tag == "*":
        return syntax.Mul(to_tree(syntax, e[1]), to_tree(syntax, e[2]))
    if tag == "=":
        return syntax.Eq(to_tree(syntax, e[1]), to_tree(syntax, e[2]))
    if tag == "~":
        return syntax.Not(to_tree(syntax, e[1]))
    if tag == "->":
        return syntax.Implies(to_tree(syntax, e[1]), to_tree(syntax, e[2]))
    if tag == "all":
        return syntax.ForAll(e[1], to_tree(syntax, e[2]))
    raise ValueError(f"not a neutral form: {e!r}")


def from_tree(node) -> tuple:
    """The neutral form of an arithlab tree, read by class name only."""
    kind = type(node).__name__
    if kind == "Var":
        return ("x", node.index)
    if kind == "Zero":
        return ("0",)
    if kind == "BigNumeral":
        return ("num", node.value)
    if kind == "Succ":
        return ("S", from_tree(node.arg))
    if kind == "Add":
        return ("+", from_tree(node.left), from_tree(node.right))
    if kind == "Mul":
        return ("*", from_tree(node.left), from_tree(node.right))
    if kind == "Eq":
        return ("=", from_tree(node.left), from_tree(node.right))
    if kind == "Not":
        return ("~", from_tree(node.body))
    if kind == "Implies":
        return ("->", from_tree(node.left), from_tree(node.right))
    if kind == "ForAll":
        return ("all", node.index, from_tree(node.body))
    raise TypeError(f"not an arithlab term or formula: {node!r}")


def same(a: tuple, b: tuple) -> bool:
    """Equality up to the compact/expanded numeral spelling."""
    return canon(a) == canon(b)


class Capture(Exception):
    """The replacement is not free for the variable."""


def substitute(f: tuple, var: int, t: tuple) -> tuple:
    """f with t for the free occurrences of x_var; raises Capture when a
    variable of t would fall under a binder that governs an occurrence."""
    tag = f[0]
    if tag == "x":
        return t if f[1] == var else f
    if tag in ("0", "num"):
        return f
    if tag == "all":
        if f[1] == var or var not in free_vars(f[2]):
            return f
        if f[1] in free_vars(t):
            raise Capture(f"x{f[1]} captures x{var}")
        return ("all", f[1], substitute(f[2], var, t))
    return (tag,) + tuple(substitute(part, var, t) for part in f[1:])
