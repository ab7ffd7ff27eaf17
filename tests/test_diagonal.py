"""Self-referential sentences and the code-level identities behind them."""

import sys
import time

import pytest

from arithlab.diagonal import (
    ASSUMPTIONS,
    diagonalize,
    lemma2_shape_check,
    q_relation,
)
from arithlab.godel import (
    NumberingConfig,
    encode_expr,
    encode_proof,
    meta_num,
    meta_sub,
    variable_code,
)
from arithlab.corpus import build_all
from arithlab.syntax import (
    ArithlabError,
    BigNumeral,
    Eq,
    ForAll,
    Var,
    free_vars,
    parse_formula,
    substitute,
)

COMPACT_PAIR = NumberingConfig(scheme="compact", seq="pairing")
MEND_PAIR = NumberingConfig(scheme="mendelson", seq="pairing")
MEND_PRIME = NumberingConfig(scheme="mendelson", seq="prime")

Q_SIMPLE = parse_formula("(x1 = x2)")
Q_QUANT = parse_formula("forall x3 . ((x3 + x2) = x1)")


def test_diagonalize_tree_route():
    diag = diagonalize(Q_SIMPLE, config=COMPACT_PAIR)
    closed = ForAll(1, Q_SIMPLE)
    assert diag.q == encode_expr(Q_SIMPLE, COMPACT_PAIR)
    assert diag.p == encode_expr(closed, COMPACT_PAIR)
    assert diag.sentence == ForAll(
        1, substitute(Q_SIMPLE, 2, BigNumeral(diag.p)))


def test_diagonalize_code_identity():
    diag = diagonalize(Q_SIMPLE, config=COMPACT_PAIR)
    v = variable_code(2, COMPACT_PAIR)
    assert diag.sentence_code == encode_expr(diag.sentence, COMPACT_PAIR)
    assert diag.sentence_code == meta_sub(
        diag.p, meta_num(diag.p, COMPACT_PAIR), v, COMPACT_PAIR)
    assert diag.r == encode_expr(diag.sentence.body, COMPACT_PAIR)


def test_diagonal_kernel_is_closed_except_x1():
    for q in (Q_SIMPLE, Q_QUANT):
        diag = diagonalize(q, config=COMPACT_PAIR)
        assert free_vars(diag.sentence.body) <= {1}
        assert free_vars(diag.sentence) == frozenset()


def test_diagonalize_other_slot():
    q = parse_formula("(x1 = x3)")
    diag = diagonalize(q, diag_var=3, config=COMPACT_PAIR)
    assert diag.sentence == ForAll(1, substitute(q, 3, BigNumeral(diag.p)))
    assert diag.sentence_code == encode_expr(diag.sentence, COMPACT_PAIR)


def test_diagonalize_prime_route_goes_symbolic():
    # the numeral for p cannot be spelled under the prime guard, so the
    # code route stays as a defining expression
    diag = diagonalize(Q_SIMPLE, config=MEND_PRIME)
    assert diag.sentence_code is None and diag.r is None
    assert diag.sentence_code_expression == (
        f"meta_sub({diag.p}, meta_num({diag.p}), "
        f"{variable_code(2, MEND_PRIME)})")
    # the tree route still produced the sentence itself
    assert isinstance(diag.sentence, ForAll)


def _binders_over_slot(depth: int):
    f = Eq(Var(1), Var(2))
    for _ in range(depth):
        f = ForAll(3, f)
    return f


def test_diagonalize_under_10k_binders_is_linear():
    q_formula = _binders_over_slot(10**4)
    start = time.perf_counter()
    diag = diagonalize(q_formula, config=MEND_PAIR)
    elapsed = time.perf_counter() - start
    assert diag.sentence.body == substitute(q_formula, 2, BigNumeral(diag.p))
    assert elapsed < 5.0, f"diagonalize took {elapsed:.1f} s"


def test_long_codes_need_no_digit_limit_until_spelled():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string digit limit")
    q_formula = _binders_over_slot(1000)
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter default
    try:
        diag = diagonalize(q_formula, config=MEND_PAIR)
        assert diag.p.bit_length() > 4300 * 4
        assert encode_expr(diag.sentence, MEND_PAIR) == diag.sentence_code
        assert lemma2_shape_check(q_formula, 1, config=MEND_PAIR).ok
    finally:
        sys.set_int_max_str_digits(outer)


def test_diagonalize_rejects_terms():
    with pytest.raises(TypeError):
        diagonalize(BigNumeral(3))


def test_diagonalize_names_a_non_formula():
    with pytest.raises(ArithlabError, match="^diagonalize needs a formula$"):
        diagonalize(BigNumeral(3))


def test_shape_check_passes_for_stand_ins():
    for q in (Q_SIMPLE, Q_QUANT, parse_formula("~(x2 = S(x1))")):
        report = lemma2_shape_check(q, max_instance=3, config=COMPACT_PAIR)
        assert report.ok, str(report)
        # identity, free vars, kernel, and four numeral instances
        assert len(report.checks) == 7


def test_shape_check_reports_prime_infeasibility():
    report = lemma2_shape_check(Q_SIMPLE, config=MEND_PRIME)
    assert not report.ok
    assert report.checks == (
        ("code route feasible under the configured encoding", False),)


def test_shape_report_str_lists_assumptions():
    report = lemma2_shape_check(Q_SIMPLE, config=COMPACT_PAIR)
    text = str(report)
    assert "assumed, not checked:" in text
    for a in ASSUMPTIONS:
        assert a in text
    assert "overall: ok" in text


def test_q_relation_junk_proof_code():
    # junk never proves anything, so the relation holds
    diag = diagonalize(Q_SIMPLE, config=MEND_PAIR)
    assert q_relation(12345, diag.q, config=MEND_PAIR) is True


def test_q_relation_detects_an_actual_proof():
    # the slot variable x2 does not occur in the corpus sentence, so its
    # diagonalisation is itself, and the corpus proof proves it
    proofs = build_all()
    sentence = proofs["gen_plus_zero"].conclusion
    assert free_vars(sentence) == frozenset()
    x = encode_proof(proofs["gen_plus_zero"], MEND_PAIR)
    y = encode_expr(sentence, MEND_PAIR)
    assert q_relation(x, y, config=MEND_PAIR) is False


def test_q_relation_non_code_y():
    assert q_relation(5, 0, config=MEND_PAIR) is True


def test_q_relation_prime_guard_returns_none():
    diag = diagonalize(Q_SIMPLE, config=MEND_PRIME)
    assert q_relation(2**15, diag.q, config=MEND_PRIME) is None
