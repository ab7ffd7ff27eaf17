"""Primitive recursive functions, beta coding, representing formulas."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import pytest

from arithlab import primrec
from arithlab.primrec import (
    ADDITION,
    CATALOG,
    MULTIPLICATION,
    PREDECESSOR,
    TRUNCATED_SUBTRACTION,
    CertEvalError,
    Comp,
    PRError,
    PRFunc,
    Proj,
    Rec,
    SuccFn,
    ZeroFn,
    Representation,
    beta,
    certificate_eval,
    check_representation,
    course_of_values,
    eval_pr,
    find_beta_coeffs,
    format_pr,
    parse_pr,
    represent,
    term_value_env,
)
from arithlab.syntax import (
    Eq,
    ForAll,
    Not,
    NotTextError,
    SyntaxToolError,
    Var,
    Zero,
    conj,
    exists,
    free_vars,
    parse_formula,
)


# ------------------------------------------------------------ evaluation

def test_basic_functions():
    # the zero function is unary: it forgets its argument
    assert eval_pr(ZeroFn(), (5,)) == 0
    assert eval_pr(SuccFn(), (7,)) == 8
    assert eval_pr(Proj(3, 2), (10, 20, 30)) == 20


def test_catalog_against_python_arithmetic():
    for a in range(8):
        for b in range(8):
            assert eval_pr(ADDITION, (a, b)) == a + b
            assert eval_pr(MULTIPLICATION, (a, b)) == a * b
            assert eval_pr(TRUNCATED_SUBTRACTION, (a, b)) == max(a - b, 0)
        assert eval_pr(PREDECESSOR, (a,)) == max(a - 1, 0)


def test_composition_and_recursion():
    # double(x) = x + x
    double = Comp(ADDITION, (Proj(1, 1), Proj(1, 1)))
    assert [eval_pr(double, (n,)) for n in range(5)] == [0, 2, 4, 6, 8]
    # factorial with a dummy parameter: fact(d, 0) = 1 and
    # fact(d, n + 1) = fact(d, n) * S(n); the step sees (d, n, acc)
    fact = Rec(Comp(SuccFn(), (ZeroFn(),)),
               Comp(MULTIPLICATION,
                    (Proj(3, 3), Comp(SuccFn(), (Proj(3, 2),)))))
    assert [eval_pr(fact, (0, n)) for n in range(6)] == [1, 1, 2, 6, 24, 120]


def test_parse_pr_of_what_is_not_a_str_is_a_named_error():
    for given in (None, 3, b"(comp succ zero)"):
        with pytest.raises(NotTextError, match="^expected a str to parse, got ") as caught:
            parse_pr(given)
        assert isinstance(caught.value, SyntaxToolError)
        assert isinstance(caught.value, TypeError)


def test_arity_validation():
    with pytest.raises(PRError):
        Proj(2, 3)
    with pytest.raises(PRError):
        Proj(0, 1)
    with pytest.raises(PRError):
        Comp(ADDITION, (Proj(1, 1),))          # outer wants two inners
    with pytest.raises(PRError):
        Comp(ADDITION, (Proj(1, 1), Proj(2, 1)))  # inner arities disagree
    with pytest.raises(PRError):
        eval_pr(ADDITION, (1,))


def test_course_of_values():
    assert course_of_values(ADDITION, (2,), 3) == [2, 3, 4, 5]
    assert course_of_values(MULTIPLICATION, (3,), 4) == [0, 3, 6, 9, 12]


def test_rec_evaluates_in_constant_memory():
    # the course of values of 20000 steps would hold 20000 ints
    tracemalloc.start()
    try:
        assert eval_pr(ADDITION, (1000, 20000)) == 21000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


class _Nullary(PRFunc):
    arity = 0


class _Unary(PRFunc):
    arity = 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Comp(_Nullary(), ()), "composition needs at least one inner function"),
        (lambda: Rec(ZeroFn(), Proj(2, 1)),
         "recursion step has arity 2, needs base arity + 2 = 3"),
        (lambda: eval_pr(ADDITION, (1, -1)), "arguments must be natural numbers"),
        (lambda: find_beta_coeffs([]), "cannot code an empty sequence"),
        (lambda: find_beta_coeffs([1, -2]), "sequence entries must be natural numbers"),
    ],
)
def test_term_and_evaluation_errors(make, message):
    with pytest.raises(PRError) as exc:
        make()
    assert str(exc.value) == message


def test_an_unknown_term_class_is_named_not_printed():
    # format_pr has no spelling for it, so the error names its class
    for call in (lambda f: eval_pr(f, (1,)), represent):
        with pytest.raises(PRError) as exc:
            call(_Unary())
        assert str(exc.value) == "not a PR function term: _Unary"


def test_term_value_env_refuses_a_formula():
    with pytest.raises(CertEvalError) as exc:
        term_value_env(Eq(Zero(), Zero()), {})
    assert str(exc.value) == "cannot value term <Eq (num(0) = num(0))>"


# ------------------------------------------------------------ beta coding

def test_beta_definition():
    # remainder of c modulo 1 + (i + 1) d
    assert beta(158, 2, 0) == 158 % 3
    assert beta(158, 2, 3) == 158 % 9


def test_find_beta_coeffs_frozen_values():
    assert find_beta_coeffs([2, 3, 4, 5]) == (158, 2)
    assert find_beta_coeffs([0, 3, 6, 9]) == (1816, 3)
    assert find_beta_coeffs([1, 2]) == (5, 1)


def test_find_beta_coeffs_recover_values():
    for values in ([0], [5, 0, 5], [4, 4, 4], [0, 1, 0]):
        c, d = find_beta_coeffs(values)
        assert [beta(c, d, i) for i in range(len(values))] == values


def test_find_beta_coeffs_exhaustion():
    with pytest.raises(PRError):
        find_beta_coeffs([0, 0, 1, 2, 3, 4], ceiling=1000)
    with pytest.raises(PRError):
        find_beta_coeffs([1, 1, 2, 3, 5, 8], ceiling=10**5)


def _scan_beta_coeffs(values, ceiling):
    """The search as a scan of every d from 1 to the ceiling: the
    reference for find_beta_coeffs, which stops early."""
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


def _beta_outcome(search, values, ceiling):
    try:
        return search(values, ceiling)
    except PRError as e:
        return str(e)


def test_find_beta_coeffs_matches_the_full_scan():
    rng = random.Random(2718)
    outcomes = []
    for k in range(4000):
        top = rng.choice((2, 5, 10, 40, 200))
        values = [rng.randint(0, top) for _ in range(rng.randint(1, 6))]
        # the scan walks every d up to the ceiling, so most ceilings are
        # small; every hundredth case reaches 20,000
        ceiling = rng.randint(0, 20000 if k % 100 == 0 else 300)
        expected = _beta_outcome(_scan_beta_coeffs, values, ceiling)
        assert _beta_outcome(find_beta_coeffs, values, ceiling) == expected
        outcomes.append(isinstance(expected, tuple))
    assert 1000 < sum(outcomes) < 3000  # both answers are well represented


def test_find_beta_coeffs_stops_at_the_tail_bound():
    # v1 > v0, so in the tail entry 2 fits only where 1 + 3d divides
    # 3(v0 - v2 + 2) - 2 = -2, which no d does: the search stops at the
    # first d of the tail instead of walking on towards the ceiling
    start = time.perf_counter()
    with pytest.raises(PRError, match="no beta coefficients under 1000000"):
        find_beta_coeffs([10, 11, 12, 13, 14, 15])
    assert time.perf_counter() - start < 0.1


# -------------------------------------------------------- representation

def test_representing_formula_free_variables():
    rep = represent(ADDITION)
    assert rep.inputs == (1, 2)
    assert rep.output == 3
    assert free_vars(rep.formula) == frozenset({1, 2, 3})


def _quantified(f):
    """Index -> True for an existential ~forall x ~B, False otherwise."""
    out = {}
    stack = [(f, None)]
    while stack:
        g, parent = stack.pop()
        if isinstance(g, ForAll):
            out[g.index] = isinstance(parent, Not) and isinstance(g.body, Not)
            stack.append((g.body, g))
        elif isinstance(g, Not):
            stack.append((g.body, g))
        elif not isinstance(g, Eq):
            stack.extend((child, g) for child in (g.left, g.right))
    return out


def test_range_rules_cover_all_quantified_variables():
    rep = represent(MULTIPLICATION)
    quantified = _quantified(rep.formula)
    assert set(rep.ranges) == set(quantified)
    # rules may consult earlier witnesses and the bounded loop variable,
    # so evaluate in allocation order, each variable taking its first value
    env = {1: 2, 2: 3, rep.output: 6}
    for var in sorted(rep.ranges):
        values = list(rep.ranges[var](env))
        assert all(isinstance(v, int) and v >= 0 for v in values)
        if quantified[var]:
            assert len(values) == 1, var
        env[var] = values[0]


def test_certificate_existential_over_an_empty_range_is_false():
    f = exists(5, Eq(Var(5), Var(5)))
    assert not certificate_eval(f, {}, {5: lambda env: ()})


def test_certificate_existential_over_one_value_binds_it():
    f = exists(5, Eq(Var(5), Var(1)))
    assert certificate_eval(f, {1: 3}, {5: lambda env: (3,)})
    assert not certificate_eval(f, {1: 3}, {5: lambda env: (2,)})


def test_certificate_bounded_universal_checks_every_k_below_its_bound():
    # forall x4 below x2 . ~(x4 = x1)
    f = ForAll(4, Not(Eq(Var(4), Var(1))))
    ranges = {4: lambda env: range(env[2])}
    assert certificate_eval(f, {1: 3, 2: 3}, ranges)
    assert not certificate_eval(f, {1: 2, 2: 3}, ranges)
    assert not certificate_eval(f, {1: 0, 2: 3}, ranges)
    assert certificate_eval(f, {1: 0, 2: 0}, ranges)


@pytest.mark.parametrize("formula, ranges, detail", [
    (exists(5, Eq(Var(5), Var(2))), {}, "no range rule for x5"),
    (conj(Eq(Var(2), Var(2)), Eq(Var(9), Zero())), {},
     "x9 has no value in scope"),
])
def test_certificate_gaps_are_unknown(monkeypatch, formula, ranges, detail):
    def gapped(f):
        return Representation(f, formula, (1,), 2, ranges)

    monkeypatch.setattr(primrec, "represent", gapped)
    assert str(check_representation(SuccFn(), (1,), 5)) == (
        f"unknown: certificate evaluation failed: {detail}")


def test_certificate_eval_values_a_compact_numeral():
    # num(n) is valued as n, with any successors over it
    assert certificate_eval(parse_formula("(num(3) = S(num(2)))"), {}, {})
    assert not certificate_eval(parse_formula("(num(3) = num(2))"), {}, {})


def test_a_formula_that_rejects_the_true_output_is_unknown(monkeypatch):
    def rejecting(f):  # x2 = 0, so f(1) = 2 is not certified
        return Representation(f, Eq(Var(2), Zero()), (1,), 2, {})

    monkeypatch.setattr(primrec, "represent", rejecting)
    assert str(check_representation(SuccFn(), (1,), 5)) == (
        "unknown: could not certify the true output 2 at f(1)")


def test_check_representation_refutes_a_formula_without_its_output(
        monkeypatch):
    real = primrec.represent

    def without_output(f):
        # exists c . exists d . (a & (b & e)): drop the conjunct that has
        # the output free, wherever it stands
        rep = real(f)
        c, inner = rep.formula.body.index, rep.formula.body.body.body
        d, body = inner.body.index, inner.body.body.body
        first, rest = body.body.left, body.body.right.body
        pieces = [first, rest.body.left, rest.body.right.body]
        kept = [p for p in pieces if rep.output not in free_vars(p)]
        assert len(kept) == 2
        formula = exists(c, exists(d, conj(*kept)))
        return Representation(f, formula, rep.inputs, rep.output, rep.ranges)

    monkeypatch.setattr(primrec, "represent", without_output)
    assert str(check_representation(ADDITION, (1, 1), 5)) == (
        "refuted: formula accepts 0 != f(1, 1) = 2")


def test_rivals_are_rejected_without_re_deciding_the_course_of_values(
        monkeypatch):
    decided = 0
    real = primrec._equal_in_naturals

    def counted(eq, env):
        nonlocal decided
        decided += 1
        return real(eq, env)

    monkeypatch.setattr(primrec, "_equal_in_naturals", counted)
    rep = represent(MULTIPLICATION)
    assert certificate_eval(rep.formula, {1: 3, 2: 3, 3: 9}, rep.ranges)
    true_pass, decided = decided, 0
    assert check_representation(MULTIPLICATION, (3, 3)).verdict == "confirmed"
    assert decided <= true_pass + 2 * 100


def test_session_verdicts_are_pinned():
    verdicts = [
        str(check_representation(f, args))
        for f in CATALOG.values()
        for args in itertools.product(range(4), repeat=f.arity)
    ]
    assert len(verdicts) == 52
    assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == (
        "c5116915ea208d32c286daf5e9a3664d6df275083221eedb006ae15f1848ea4a")


def test_certificate_decides_a_400_deep_composition():
    f = SuccFn()
    for _ in range(399):
        f = Comp(SuccFn(), (f,))
    rep = represent(f)
    assert certificate_eval(rep.formula, {1: 0, 2: 400}, rep.ranges)


def test_a_10k_deep_composition_can_be_built():
    # arity is stored when a term is made, never read down the children
    f = SuccFn()
    for _ in range(10**4):
        f = Comp(SuccFn(), (f,))
    assert f.arity == 1
    assert Rec(f, Proj(3, 3)).arity == 2


def test_check_representation_confirms_catalog_functions():
    assert check_representation(ADDITION, (2, 2), search_bound=20).verdict \
        == "confirmed"
    assert check_representation(MULTIPLICATION, (2, 3), search_bound=20) \
        .verdict == "confirmed"
    assert check_representation(PREDECESSOR, (3,), search_bound=50).verdict \
        == "confirmed"


def test_check_representation_bound_exceeded():
    result = check_representation(MULTIPLICATION, (3, 3), search_bound=3)
    assert result.verdict == "unknown"
    assert "exceeds bound" in result.detail


def test_check_representation_reports_desk_scale_limits():
    # the coefficient search gives out on this course of values
    result = check_representation(PREDECESSOR, (5,), search_bound=50)
    assert result.verdict == "unknown"
    assert "no beta coefficients" in result.detail


def test_check_result_str():
    result = check_representation(ADDITION, (1, 1), search_bound=10)
    assert str(result).startswith("confirmed: f(1, 1) = 2")


# ------------------------------------------------------------- s-exprs

def test_format_parse_round_trip():
    for f in (ZeroFn(), SuccFn(), Proj(3, 1), ADDITION, MULTIPLICATION,
              PREDECESSOR, TRUNCATED_SUBTRACTION,
              Comp(SuccFn(), (Comp(SuccFn(), (ZeroFn(),)),))):
        assert parse_pr(format_pr(f)) == f


def test_parse_catalog_names():
    for name, f in CATALOG.items():
        assert parse_pr(name) == f


def test_parse_errors():
    for text in ("(comp zero)", "(proj 1)", "(rec zero)", "frobnicate",
                 "(proj one two)", "(zero", ""):
        with pytest.raises(PRError):
            parse_pr(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty PR function text"),
        (")", "unexpected token ')'"),
        ("(", "unclosed '('"),
        ("(comp succ", "unclosed '('"),
        ("(proj 1", "proj needs two integers"),
        ("(proj 1 2 3)", "proj takes exactly two integers"),
        ("(proj 2 3)", "bad projection (2, 3)"),
        ("(comp succ ))", "comp needs an outer function and inner functions"),
        ("(rec zero)", "rec needs exactly a base and a step"),
        ("(frob zero)", "unknown form 'frob'"),
        ("(comp succ zero) zero", "trailing input after a complete PR function"),
        ("(comp succ (proj 1 1) (proj 1 1))",
         "composition feeds 2 values to a function of arity 1"),
        ("(comp addition (proj 1 1) (proj 2 1))", "inner functions must share one arity"),
        ("(rec zero (proj 2 1))", "recursion step has arity 2, needs base arity + 2 = 3"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(PRError) as exc:
        parse_pr(text)
    assert str(exc.value) == message


def _succ_chain(depth):
    f = Proj(1, 1)
    for _ in range(depth):
        f = Comp(SuccFn(), (f,))
    return f


def test_deep_terms_compare_hash_print_and_read_back():
    # two separate 10**4-deep chains, under the default recursion limit
    f, g = _succ_chain(10**4), _succ_chain(10**4)
    assert f is not g
    assert hash(f) == hash(g)
    assert f == g and f != Comp(SuccFn(), (g,))
    text = format_pr(f)
    assert text == "(comp succ " * 10**4 + "(proj 1 1)" + ")" * 10**4
    assert repr(f) == str(f) == text
    assert parse_pr(text) == f


def test_terms_compare_by_spelling():
    assert Proj(2, 1) == Proj(2, 1) and Proj(2, 1) != Proj(2, 2)
    assert ZeroFn() != SuccFn() and ZeroFn() != 0
    assert {parse_pr("addition"): 1}[parse_pr(format_pr(ADDITION))] == 1
    assert repr(ADDITION) == "(rec (proj 1 1) (comp succ (proj 3 3)))"
    with pytest.raises(TypeError):
        format_pr("zero")
