"""syntax.lockstep, the one walk behind semantic_eq, the A4 side condition
and IND, held against the definitions it replaced: compare canonical keys,
and substitute, then compare."""

import random
import time

import pytest

from arithlab import godel, syntax
from arithlab.corpus import build_all
from arithlab.proofs import (
    check_axiom,
    check_proof,
    find_instantiation,
    format_proof,
    parse_proof,
)
from arithlab.syntax import (
    Add,
    BigNumeral,
    CaptureError,
    Eq,
    ForAll,
    Implies,
    Mul,
    Not,
    NotATreeError,
    Succ,
    Term,
    Var,
    Zero,
    canonical_key,
    numeral_value,
    semantic_eq,
    substitute,
)

from conftest import mutate_formula, rand_formula, rand_term


def old_semantic_eq(a, b):
    return canonical_key(a) == canonical_key(b)


def old_find_instantiation(body, var, instance):
    """The candidate is what instance has where a walk of the two in step,
    left first, past binders of x_var and places where they differ, meets
    body's first free x_var; then substitute it and compare keys."""
    t = Var(var)
    pairs = [(body, instance)]
    while pairs:
        b, i = pairs.pop()
        cls = b.__class__
        if cls is Var:
            if b.index == var:
                t = i
                break
        elif cls is Succ and i.__class__ is BigNumeral and i.value > 0:
            pairs.append((b.arg, BigNumeral(i.value - 1)))
        elif cls is not i.__class__ or cls is Zero or cls is BigNumeral:
            continue
        elif cls is Succ:
            pairs.append((b.arg, i.arg))
        elif cls is Not:
            pairs.append((b.body, i.body))
        elif cls is ForAll:
            if b.index != var and b.index == i.index:
                pairs.append((b.body, i.body))
        else:
            pairs.append((b.right, i.right))
            pairs.append((b.left, i.left))
    try:
        result = substitute(body, var, t)
    except CaptureError:
        return None
    return t if old_semantic_eq(result, instance) else None


def respelled(rng, e):
    """e with each numeral spelled anew: num(n), S^n(0), or S^k(num(n - k))."""
    value = numeral_value(e) if isinstance(e, Term) else None
    if value is not None:
        k = rng.randint(0, value)
        out = Zero() if k == value and rng.random() < 0.5 else BigNumeral(value - k)
        for _ in range(k):
            out = Succ(out)
        return out
    if isinstance(e, Succ):
        return Succ(respelled(rng, e.arg))
    if isinstance(e, Not):
        return Not(respelled(rng, e.body))
    if isinstance(e, (Add, Mul, Eq, Implies)):
        return e.__class__(respelled(rng, e.left), respelled(rng, e.right))
    if isinstance(e, ForAll):
        return ForAll(e.index, respelled(rng, e.body))
    return e


def naive_substitute(e, var, t):
    """e with t for every free x_var, binders of t's variables ignored."""
    if isinstance(e, Var):
        return t if e.index == var else e
    if isinstance(e, Succ):
        return Succ(naive_substitute(e.arg, var, t))
    if isinstance(e, Not):
        return Not(naive_substitute(e.body, var, t))
    if isinstance(e, (Add, Mul, Eq, Implies)):
        return e.__class__(naive_substitute(e.left, var, t), naive_substitute(e.right, var, t))
    if isinstance(e, ForAll) and e.index != var:
        return ForAll(e.index, naive_substitute(e.body, var, t))
    return e


def test_semantic_eq_is_equality_of_canonical_keys():
    rng = random.Random(2301)
    agreed = 0
    for _ in range(3000):
        f = rand_formula(rng, rng.randint(0, 4), max_var=4)
        pick = rng.random()
        if pick < 0.5:
            g = respelled(rng, f)
        elif pick < 0.8:
            g = respelled(rng, mutate_formula(rng, f))
        else:
            g = rand_formula(rng, rng.randint(0, 2), max_var=4)
        for a, b in ((f, g), (g, f), (f, f), (f, respelled(rng, f))):
            assert semantic_eq(a, b) == old_semantic_eq(a, b), (a, b)
        agreed += old_semantic_eq(f, g)
    assert 1500 < agreed < 2800  # both answers are well represented
    for a, b in ((Succ(Succ(Zero())), BigNumeral(2)), (Zero(), BigNumeral(0)),
                 (Succ(BigNumeral(4)), BigNumeral(5)), (Succ(Var(1)), Succ(Var(1)))):
        assert semantic_eq(a, b) and semantic_eq(b, a)
    for a, b in ((Succ(Var(1)), BigNumeral(1)), (Succ(Zero()), BigNumeral(2)),
                 (Zero(), Var(1)), (Succ(Succ(Var(1))), Succ(BigNumeral(1)))):
        assert not semantic_eq(a, b) and not semantic_eq(b, a)


def test_find_instantiation_is_substitute_then_compare():
    rng = random.Random(2302)
    found = captured = 0
    for _ in range(2000):
        body = rand_formula(rng, rng.randint(0, 4), max_var=4)
        var = rng.randint(1, 4)
        t = rand_term(rng, 2, max_var=4)
        # naive: a capture where substitute refuses; mutated: a mismatch
        instance = naive_substitute(body, var, t)
        pick = rng.random()
        if pick < 0.5:
            instance = respelled(rng, instance)
        elif pick < 0.7:
            instance = mutate_formula(rng, instance)
        # x_var under its own binder too, where nothing may change
        for b in (body, ForAll(var, body), Implies(ForAll(var, body), body)):
            expected = old_find_instantiation(b, var, instance)
            got = find_instantiation(b, var, instance)
            assert got == expected, (b, var, instance)
            found += expected is not None
        try:
            substitute(body, var, t)
        except CaptureError:
            captured += 1
            assert find_instantiation(body, var, naive_substitute(body, var, t)) is None
    assert found > 1000 and captured >= 10


def test_induction_is_checked_against_substitute():
    rng = random.Random(2303)
    held = 0
    for _ in range(1000):
        body = rand_formula(rng, rng.randint(0, 4), max_var=4)
        x = rng.randint(1, 4)
        base, step = substitute(body, x, Zero()), substitute(body, x, Succ(Var(x)))
        b0 = respelled(rng, base) if rng.random() < 0.7 else mutate_formula(rng, base)
        bs = respelled(rng, step) if rng.random() < 0.7 else mutate_formula(rng, step)
        ind = Implies(b0, Implies(ForAll(x, Implies(body, bs)), ForAll(x, body)))
        expected = old_semantic_eq(b0, base) and old_semantic_eq(bs, step)
        assert check_axiom(ind, "IND") == expected, ind
        held += expected
    assert 300 < held < 700


PAIRING = godel.NumberingConfig(seq="pairing")


def test_the_kernel_and_pf_spell_no_keys(monkeypatch):
    built = build_all()  # ProofBuilder keys the lines it builds
    keyed = []
    spell = syntax.spell

    def watched(e, table):
        # canonical_key and repr spell under _CANON, and nothing else does
        if table is syntax._CANON:
            keyed.append(e)
        return spell(e, table)

    monkeypatch.setattr(syntax, "spell", watched)
    for name, proof in sorted(built.items()):
        parsed = parse_proof(format_proof(proof))
        assert check_proof(parsed).accepted, name
        code = godel.encode_proof(parsed, PAIRING)
        assert godel.meta_pf(code, godel.encode_expr(parsed.conclusion, PAIRING), PAIRING), name
        assert not keyed, name


def test_semantic_eq_of_a_non_tree_is_a_named_error():
    for a, b in ((1, Var(1)), (Var(1), 1), (Not("x1"), Not(Var(1)))):
        with pytest.raises(NotATreeError):
            semantic_eq(a, b)


def _deep(depth: int, wrap, inner):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


def _binders(indices, inner):
    for index in indices:
        inner = ForAll(index, inner)
    return inner


DEPTH = 10**4
DEEP = {
    # x2 and x3 in turn, so a t over x2 or x3 is captured
    "forall": lambda t: _binders([2, 3] * (DEPTH // 2), Eq(t, Zero())),
    "sum": lambda t: Eq(_deep(DEPTH, lambda s: Add(s, Var(3)), t), Zero()),
    "succ": lambda t: Eq(_deep(DEPTH, Succ, t), Zero()),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_the_walk_answers_at_depth(shape):
    make = DEEP[shape]
    body, instance = make(Var(1)), make(Succ(Zero()))
    assert find_instantiation(body, 1, instance) == Succ(Zero())
    assert find_instantiation(body, 1, make(BigNumeral(7))) == BigNumeral(7)
    assert find_instantiation(body, 1, make(Var(1))) == Var(1)
    captured = find_instantiation(body, 1, make(Var(3)))
    assert captured is None if shape == "forall" else captured == Var(3)
    assert find_instantiation(body, 2, instance) is None
    assert semantic_eq(instance, make(BigNumeral(1)))
    assert not semantic_eq(instance, make(BigNumeral(2)))
    assert semantic_eq(body, make(Var(1))) and not semantic_eq(body, make(Var(2)))


def test_the_walk_answers_under_deep_successors():
    over_var = Eq(_deep(DEPTH, Succ, Var(1)), Zero())
    assert semantic_eq(over_var, Eq(_deep(DEPTH, Succ, Var(1)), Zero()))
    assert semantic_eq(_deep(DEPTH, Succ, Zero()), BigNumeral(DEPTH))
    assert find_instantiation(over_var, 1, Eq(BigNumeral(DEPTH + 5), Zero())) == BigNumeral(5)
    assert find_instantiation(over_var, 1, Eq(BigNumeral(DEPTH - 1), Zero())) is None
    two = Eq(_deep(DEPTH, Succ, Var(1)), Var(1))
    inst = Eq(_deep(DEPTH, Succ, _deep(3, Succ, Zero())), BigNumeral(3))
    assert find_instantiation(two, 1, inst) == _deep(3, Succ, Zero())


def test_the_walk_is_linear_in_distinct_nested_binders():
    n = 4 * 10**4
    indices = range(n + 1, 1, -1)  # x2 outermost, x(n + 1) innermost
    body = _binders(indices, Eq(Var(1), Var(n + 2)))
    twin = _binders(indices, Eq(Var(1), Var(n + 2)))
    instance = _binders(indices, Eq(Succ(Zero()), Var(n + 2)))
    captured = _binders(indices, Eq(Var(2), Var(n + 2)))
    start = time.perf_counter()
    assert find_instantiation(body, 1, instance) == Succ(Zero())
    assert find_instantiation(body, 1, captured) is None  # x2 would be captured
    assert semantic_eq(body, twin) and not semantic_eq(body, instance)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
