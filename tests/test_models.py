"""Finite interpretations, two satisfaction modes, the divergence search."""

import hashlib
import itertools
import random
from functools import partial

import pytest

from arithlab.models import (
    A_INSTANCES,
    FAMILIES,
    LAWS,
    MODES,
    WITNESS_INSTANCE,
    WITNESS_MODEL,
    Interpretation,
    ModelError,
    ModelOptionError,
    RestrictError,
    Violation,
    collapse_suite,
    enumerate_interpretations,
    format_interpretation,
    identity_eq,
    is_true,
    metacheck,
    normal_interpretation,
    numeral_chain,
    numeral_image,
    numeral_value_in,
    parse_interpretation,
    random_interpretation,
    restrict,
    satisfies,
    term_value,
    CHUNK,
    _algebra_cells,
    _apply_succ,
    _assignments,
    _Chunk,
    _cell_masks,
    _chain_case,
    _closure,
    _collapse_case,
    _duality_case,
    _eq_checks,
    _equivalences,
    _evaluate,
    _kept,
    _model,
    _points,
    _position_cells,
    _read,
    _remap,
    _semantics,
    _substitution_case,
    _truth_case,
    _value,
    _width,
)
from arithlab.syntax import (
    Add,
    ArithlabError,
    Eq,
    Implies,
    NodeValueError,
    Var,
    Zero,
    parse_formula,
    parse_term,
    tarski,
    to_text,
)

from conftest import rand_formula, rand_term

STANDARD_TWO = normal_interpretation(
    size=2, zero=0, succ=(1, 0),
    add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)))


# ------------------------------------------------------- interpretations

def test_interpretation_validation():
    with pytest.raises(ModelError):
        normal_interpretation(size=0, zero=0, succ=(), add=(), mul=())
    with pytest.raises(ModelError):
        normal_interpretation(size=2, zero=2, succ=(0, 0),
                              add=((0, 0), (0, 0)), mul=((0, 0), (0, 0)))
    with pytest.raises(ModelError):
        normal_interpretation(size=2, zero=0, succ=(0,),
                              add=((0, 0), (0, 0)), mul=((0, 0), (0, 0)))


def test_normal_property():
    assert STANDARD_TWO.normal
    skew = Interpretation(
        size=2, zero=0, succ=(1, 0), add=((0, 1), (1, 0)),
        mul=((0, 0), (0, 1)), eq=((1, 1), (1, 1)))
    assert not skew.normal


def test_an_interpretation_prints_in_the_file_format():
    assert str(STANDARD_TWO) == format_interpretation(STANDARD_TWO)


def test_format_parse_round_trip():
    text = format_interpretation(WITNESS_MODEL)
    again = parse_interpretation(text)
    assert again == WITNESS_MODEL
    assert "eq identity" in text


def test_parse_interpretation_errors():
    with pytest.raises(ModelError):
        parse_interpretation("size 2\nzero 0\n")      # missing tables
    with pytest.raises(ModelError):
        parse_interpretation("size 2\nsize 2\nzero 0\nsucc 1 0\n"
                             "add 0 1 / 1 0\nmul 0 0 / 0 1\neq identity\n")
    with pytest.raises(ModelError):
        parse_interpretation("size 2\nzero 0\nsucc 1 0\nfrob 1\n"
                             "add 0 1 / 1 0\nmul 0 0 / 0 1\neq identity\n")


@pytest.mark.parametrize("row, line", [("eq 1 0 /\n 0 1", "line 7: '0'"),
                                       ("eq 1 0\n/ 0 1", "line 7: '/'")])
def test_a_row_on_a_line_of_its_own_is_named_by_its_line(row, line):
    with pytest.raises(ModelError) as exc:
        parse_interpretation(_GOOD.replace("eq identity", row))
    assert str(exc.value) == (f"{line} is not a field name; "
                              "a field's numbers stay on that field's line")


def test_parse_interpretation_comments_and_identity():
    text = ("# two element clock\nsize 2\nzero 0\nsucc 1 0\n"
            "add 0 1 / 1 0\nmul 0 0 / 0 1\neq identity\n")
    m = parse_interpretation(text)
    assert m == STANDARD_TWO


# ----------------------------------------------------- terms and truth

def test_numeral_image_and_values():
    assert numeral_image(STANDARD_TWO) == (0, 1)
    assert numeral_image(WITNESS_MODEL) == (0,)
    assert numeral_value_in(STANDARD_TWO, 5) == 1
    assert numeral_value_in(WITNESS_MODEL, 17) == 0


def test_numeral_value_in_long_orbit():
    # size-3 cycle with a tail: 0 -> 1 -> 2 -> 1 -> ...
    m = normal_interpretation(
        size=3, zero=0, succ=(1, 2, 1),
        add=tuple(tuple(0 for _ in range(3)) for _ in range(3)),
        mul=tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    values = [numeral_value_in(m, n) for n in range(7)]
    assert values == [0, 1, 2, 1, 2, 1, 2]
    assert numeral_value_in(m, 10**9) == 2
    assert numeral_image(m) == (0, 1, 2)


def test_numeral_value_in_of_a_negative_number_is_a_named_error():
    # as meta_num refuses one: no numeral, so not the zero of the model
    for n in (-1, -10**9):
        with pytest.raises(ModelError, match=f"^numerals exist for n >= 0 only, got {n}$"):
            numeral_value_in(STANDARD_TWO, n)


def test_term_value_standard():
    env = {1: 1, 2: 0}
    t = parse_term("((x1 + S(0)) * x1)")
    # (1 + 1) * 1 = 0 * 1 = 0 in the two element clock
    assert term_value(STANDARD_TWO, t, env) == 0
    assert term_value(STANDARD_TWO, parse_term("num(7)"), {}) == 1


def test_term_value_parameterized_remaps_lookup():
    # raw values outside the numeral image read as zero
    m = WITNESS_MODEL   # image is {0}
    env = {1: 1}
    assert term_value(m, parse_term("x1"), env, mode="parameterized") == 0
    assert term_value(m, parse_term("x1"), env, mode="standard") == 1
    # operations still use the raw tables afterwards
    t = parse_term("(x1 + x1)")
    assert term_value(m, t, env, mode="parameterized") == \
        m.add[0][0]


def test_satisfies_and_is_true():
    f = parse_formula("forall x1 . ((x1 + 0) = x1)")
    assert is_true(STANDARD_TWO, f)
    g = parse_formula("(x1 = S(0))")
    assert satisfies(STANDARD_TWO, {1: 1}, g)
    assert not satisfies(STANDARD_TWO, {1: 0}, g)
    # is_true sweeps the free variable
    assert not is_true(STANDARD_TWO, g)


def test_term_value_names_a_non_term():
    for mode in MODES:
        with pytest.raises(ArithlabError, match="^not a term: ") as caught:
            term_value(STANDARD_TWO, parse_formula("(0 = 0)"), {}, mode)
        assert isinstance(caught.value, TypeError)


def test_is_true_names_a_non_formula():
    for mode in MODES:
        with pytest.raises(ArithlabError, match="^not a formula: ") as caught:
            is_true(STANDARD_TWO, parse_term("S(0)"), mode)
        assert isinstance(caught.value, TypeError)


def test_mode_validation():
    with pytest.raises(ValueError):
        is_true(STANDARD_TWO, parse_formula("(0 = 0)"), mode="sideways")
    with pytest.raises(ValueError):
        term_value(STANDARD_TWO, parse_term("x1"), {}, mode="sideways")
    with pytest.raises(ValueError):
        satisfies(STANDARD_TWO, {}, parse_formula("(0 = 0)"), mode="sideways")


def test_assignment_outside_the_domain_is_refused():
    f = parse_formula("(x1 = 0)")
    for mode in MODES:
        with pytest.raises(ModelError):
            satisfies(STANDARD_TWO, {1: 0, 5: 2}, f, mode)  # x5 is not read
        with pytest.raises(ModelError):
            term_value(STANDARD_TWO, parse_term("0"), {1: -1}, mode)


def test_numeral_chain_refuses_variable_index_zero():
    for mode in MODES:
        with pytest.raises(NodeValueError, match="index must be >= 1, got 0"):
            numeral_chain(WITNESS_MODEL, 0, parse_formula("(x2 = 0)"), mode)


def test_witness_model_replay():
    assert is_true(WITNESS_MODEL, WITNESS_INSTANCE, mode="standard")
    assert not is_true(WITNESS_MODEL, WITNESS_INSTANCE, mode="parameterized")
    assert to_text(WITNESS_INSTANCE) == \
        "(forall x2 . (x2 = 0) -> ((x1 + x1) = 0))"


# ------------------------------------------------------------- restrict

def test_restrict_full_image_is_identity_up_to_renumbering():
    m = restrict(STANDARD_TWO)
    assert m.size == 2
    assert is_true(m, parse_formula("forall x1 . ((x1 + 0) = x1)"))


def test_restrict_refuses_escaping_operations():
    with pytest.raises(RestrictError) as exc:
        restrict(WITNESS_MODEL)
    assert "outside the numeral image" in str(exc.value)


def test_restrict_relabels_to_discovery_order():
    # zero sits at 2, the successor orbit visits 2 -> 0 -> 1 -> 0 ...
    m = normal_interpretation(
        size=3, zero=2, succ=(1, 0, 0),
        add=tuple(tuple((a + b) % 3 for b in (2, 0, 1)) for a in (2, 0, 1)),
        mul=tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    # keep only what the orbit reaches, renumbered from zero
    try:
        r = restrict(m)
    except RestrictError:
        pytest.skip("tables escape the image for this layout")
    assert r.zero == 0


def test_restrict_agrees_with_parameterized_truth():
    # when restriction succeeds, parameterized truth in the big model
    # matches standard truth in the restricted one
    rng = random.Random(640640)
    suite = collapse_suite()[:10]
    checked = 0
    while checked < 8:
        m = random_interpretation(rng, rng.choice((2, 3)))
        try:
            r = restrict(m)
        except RestrictError:
            continue
        checked += 1
        for _, f in suite:
            assert is_true(m, f, mode="parameterized") == \
                is_true(r, f, mode="standard")


# ---------------------------------------------------------- enumeration

def test_enumerate_interpretations_count():
    # size 1: every table is forced
    assert len(list(enumerate_interpretations(1))) == 1
    # size 2: zero choice x succ tables x add tables x mul tables
    models = list(enumerate_interpretations(2))
    assert len(models) == 2 * 4 * 16 * 16
    assert all(m.normal for m in models)
    assert len(set(models)) == len(models)


def test_enumerate_congruent_eq_tables():
    plain = list(enumerate_interpretations(2))
    congruent = list(enumerate_interpretations(2, eq_tables="congruent"))
    # every size-2 operation set admits exactly the identity and the
    # all-true relation
    assert len(congruent) == 2 * len(plain)
    all_true = tuple(tuple(1 for _ in range(2)) for _ in range(2))
    eqs = {m.eq for m in congruent}
    assert eqs == {identity_eq(2), all_true}


def test_random_interpretation_is_reproducible():
    a = random_interpretation(random.Random(7), 3)
    b = random_interpretation(random.Random(7), 3)
    assert a == b


# The sha256 of 2,400 seeded random_interpretation draws, 300 at each size
# 1-4 under each filter from one rng, as format_interpretation spells them
# one after another; 445 of them have an eq table other than identity.
RANDOM_DRAWS_SHA256 = "77da16af9ef0e3aa5d043c923571da96b88a182da53ca8a447e0ee977dc832ae"


def test_random_interpretation_draws_are_pinned():
    rng = random.Random(2029)
    draws = [random_interpretation(rng, size, eq_tables) for size in (1, 2, 3, 4)
             for eq_tables in ("identity", "congruent") for _ in range(300)]
    assert sum(not m.normal for m in draws) == 445
    text = "".join(map(format_interpretation, draws))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DRAWS_SHA256


def test_random_interpretation_rejects_an_unknown_filter():
    with pytest.raises(ModelOptionError) as drawn:
        random_interpretation(random.Random(1), 2, "equal")
    with pytest.raises(ModelOptionError) as swept:
        list(enumerate_interpretations(2, "equal"))
    assert str(drawn.value) == str(swept.value)


def _is_equivalence(eq, domain):
    return all(eq[a][a] and eq[a][b] == eq[b][a]
               and (eq[a][c] or not (eq[a][b] and eq[b][c]))
               for a in domain for b in domain for c in domain)


def _is_congruence_by_definition(m: Interpretation) -> bool:
    domain = range(m.size)
    return all(
        m.eq[m.succ[a]][m.succ[b]] and all(
            m.eq[t[a][c]][t[b][c]] and m.eq[t[c][a]][t[c][b]]
            for t in (m.add, m.mul) for c in domain)
        for a in domain for b in domain if m.eq[a][b])


@pytest.mark.parametrize("eq_tables", ["identity", "congruent"])
@pytest.mark.parametrize("size", [1, 2])
def test_enumeration_order_is_that_of_nested_loops_over_the_tables(size, eq_tables):
    domain = range(size)
    rows = list(itertools.product(domain, repeat=size))
    eqs = [identity_eq(size)] if eq_tables == "identity" else [
        eq for eq in (tuple(tuple(bits[a * size + b] for b in domain) for a in domain)
                      for bits in itertools.product((0, 1), repeat=size * size))
        if _is_equivalence(eq, domain)]
    expected = [
        (zero, succ, add, mul, eq)
        for zero in domain
        for succ in rows
        for add in itertools.product(rows, repeat=size)
        for mul in itertools.product(rows, repeat=size)
        for eq in eqs
        if _is_congruence_by_definition(
            Interpretation(size, zero, succ, add, mul, eq))
    ]
    assert [(m.zero, m.succ, m.add, m.mul, m.eq)
            for m in enumerate_interpretations(size, eq_tables)] == expected


def test_random_congruent_tables_are_congruences():
    rng = random.Random(99)
    for _ in range(200):
        m = random_interpretation(rng, rng.randint(1, 4), "congruent")
        assert _is_equivalence(m.eq, range(m.size))
        assert _is_congruence_by_definition(m)


def _flat(models) -> bytes:
    """The cells of the models one after another, one byte a cell."""
    return bytes(itertools.chain.from_iterable(models))


def _spec_cells(size: int, flat: bytes) -> list:
    """The spec of a chunk's cells: for the models of flat, a one-hot value
    for each algebra cell and a mask for each eq cell, bit k for the k-th
    model, read cell by cell from the bytes."""
    width = _width(size)
    last = len(flat) - width  # where the last model's cells start

    def mask(cell: int, v: int) -> int:  # of the models whose cell holds v
        digits = flat[last + cell :: -width]  # the last model's first
        return int(digits.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2)

    cells: list = [tuple(mask(cell, v) for v in range(size))
                   for cell in range(_algebra_cells(size))]
    return cells + [mask(cell, 1) for cell in range(_algebra_cells(size), width)]


def _spec_chunk(size: int, models, mode: str) -> _Chunk:
    """A chunk of the models' cells, built through the spec."""
    return _Chunk(size, len(models), _spec_cells(size, _flat(models)), mode)


def _one_hot(value: tuple, k: int) -> int:
    """The element a one-hot value of a chunk holds in its k-th model."""
    (v,) = (v for v, on in enumerate(value) if on >> k & 1)
    return v


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_reader_and_model_read_one_cell_layout(size):
    # the chunk reads each model's cells where _model does, bit k of every
    # mask for the k-th model; one-hot values hold one element a model
    rng = random.Random(size)
    domain = range(size)
    chunk = [(*(rng.randrange(size) for _ in range(_algebra_cells(size))),
              *(rng.randrange(2) for _ in range(size * size))) for _ in range(20)]
    for mode in MODES:
        c = _spec_chunk(size, chunk, mode)
        assert c.full == 2 ** len(chunk) - 1
        for k, cells in enumerate(chunk):
            m = _model(size, cells)
            assert _one_hot(c.zero, k) == m.zero
            assert [_one_hot(c.succ[a], k) for a in domain] == list(m.succ)
            for name in ("add", "mul"):
                assert [[_one_hot(getattr(c, name)[a][b], k) for b in domain]
                        for a in domain] == [list(row) for row in getattr(m, name)]
            assert [[c.eq[a][b] >> k & 1 for b in domain] for a in domain] \
                == [list(row) for row in m.eq]
            assert [d for d in domain if c.image[d] >> k & 1] == sorted(numeral_image(m))
            assert [d for d in domain if c.points[d] >> k & 1] == sorted(_points(m, mode))
            assert [_one_hot(value, k) for value in c.const] == list(domain)


def _positions(size: int, checks):
    """The cells of every sweep position of a size, kept or not, and
    whether the sweep keeps it, by the definition of a congruence: each
    algebra in product order, with each eq table of the filter."""
    for algebra in itertools.product(range(size), repeat=_algebra_cells(size)):
        for eq, _ in checks:
            yield algebra + eq, _is_congruence_by_definition(_model(size, algebra + eq))


def _sweep(size: int, eq_tables: str):
    """The spec of the sweep: the cells of every model of a size, each
    algebra in product order with each eq table of the filter that is a
    congruence of it."""
    return (cells for cells, kept in _positions(size, _eq_checks(size, eq_tables)) if kept)


def _decoded(size: int, checks, position: int):
    """What _positions gives at a position, from the position alone."""
    algebra, table = divmod(position, len(checks))
    width = _algebra_cells(size)
    cells = tuple(algebra // size ** (width - 1 - j) % size for j in range(width)) + checks[table][0]
    return cells, _is_congruence_by_definition(_model(size, cells))


_SLOTS = ("full", "zero", "succ", "add", "mul", "eq", "const", "image", "points", "outside")


@pytest.mark.parametrize("size, eq_tables", [
    (1, "identity"), (1, "congruent"), (2, "identity"), (2, "congruent"),
    (3, "identity"), (3, "congruent"), (4, "congruent")])
def test_a_window_of_sweep_positions_holds_its_models_cells(size, eq_tables):
    # metacheck builds a chunk's cells from its window of positions alone,
    # and reads the kept mask from those cells; they must be the spec's, read
    # from the models' cells and decided by the definition of a congruence.
    # Size 4 has 15 eq tables, 13 of them tested.
    rng, checks = random.Random(f"{size} {eq_tables}"), _eq_checks(size, eq_tables)
    end = size ** _algebra_cells(size) * len(checks)
    head = list(itertools.islice(_positions(size, checks), 3 * CHUNK))
    spec = list(map(partial(_model, size),
                    itertools.islice(_sweep(size, eq_tables), sum(kept for _, kept in head))))
    assert list(itertools.islice(enumerate_interpretations(size, eq_tables), len(spec))) == spec
    windows = {(0, min(CHUNK, end)), (end - 1, 1)}
    if size == 3:  # across the step of the most significant cell, zero
        windows.add((3**21 * len(checks) - 3, 7))
    for _ in range(6 if size < 4 else 3):  # mid-period starts near the head, deep ones, width 1
        count = rng.choice((1, rng.randrange(1, CHUNK), CHUNK))
        windows.add((rng.randrange(max(1, len(head) - count)), min(count, end)))
        if size >= 3:
            windows.add((rng.randrange(2 * size ** (_algebra_cells(size) - 1), end - count), count))
    if size == 4:
        windows.add((end - CHUNK, CHUNK))
    outcomes, mixed = set(), 0  # mixed: windows with kept and dropped positions of tested tables
    for start, count in sorted(windows):
        window = head[start : start + count] if start + count <= len(head) else [
            _decoded(size, checks, p) for p in range(start, start + count)]
        models = [cells for cells, _ in window]
        cells = _cell_masks(size, checks, start, count)
        assert _kept(size, checks, cells, start, count) == sum(
            kept << k for k, (_, kept) in enumerate(window)), (start, count)
        assert cells == _spec_cells(size, _flat(models)), (start, count)
        for mode in MODES:
            c = _Chunk(size, count, cells, mode)
            spec = _spec_chunk(size, models, mode)
            assert [getattr(c, slot) for slot in _SLOTS] == \
                [getattr(spec, slot) for slot in _SLOTS], (start, count, mode)
        outcomes.update(kept for _, kept in window)
        mixed += len({kept for p, (_, kept) in enumerate(window, start)
                      if checks[p % len(checks)][1]}) == 2
    assert outcomes == ({True, False} if size >= 3 and eq_tables == "congruent" else {True})
    assert bool(mixed) == (size >= 3 and eq_tables == "congruent")


def test_positions_deep_in_size_3_decode_in_product_order():
    # the test-local decoder agrees with the product at the head of the
    # sweep, where both can be had; deep windows rest on it
    checks = _eq_checks(3, "congruent")
    head = itertools.islice(_positions(3, checks), 5000)
    assert list(head) == [_decoded(3, checks, p) for p in range(5000)]
    last = _decoded(3, checks, 3 ** _algebra_cells(3) * len(checks) - 1)
    assert last == ((2,) * _algebra_cells(3) + (1,) * 9, True)


# ------------------------------------------------------------ metacheck

def test_metacheck_standard_axioms_hold_everywhere():
    report = metacheck(2, ("A1", "A2", "A3"), mode="standard")
    assert report.violations == ()
    assert report.examined > 0
    assert report.exhausted


def test_metacheck_a4_parameterized_finds_divergence():
    report = metacheck(2, ("A4",), mode="parameterized")
    assert report.violations
    v = report.violations[0]
    assert v.family == "A4"
    assert "instance not true" in v.detail
    # the documented witness model is among the violators
    assert any(w.model == WITNESS_MODEL for w in report.violations)


def test_metacheck_counts_are_deterministic():
    a = metacheck(2, ("A4",), mode="parameterized")
    b = metacheck(2, ("A4",), mode="parameterized")
    assert a.examined == b.examined
    assert len(a.violations) == len(b.violations)
    assert str(a) == str(b)


def test_metacheck_budget_cuts_off():
    report = metacheck(2, ("A4",), mode="parameterized", budget=50)
    assert report.examined <= 50
    assert not report.exhausted


def test_metacheck_header_of_an_exhausted_run():
    assert str(metacheck(1, ("A1",))) == (
        "metacheck mode=standard sizes<=1 families=A1 eq=identity: "
        "1 interpretations examined, 0 violation(s)")


def test_metacheck_rejects_unknown_family():
    with pytest.raises(ValueError):
        metacheck(1, ("A7",))
    with pytest.raises(ValueError):
        metacheck(1, ("A1",), mode="sideways")


@pytest.mark.parametrize("call", [
    lambda: metacheck(1, ("A7",)),
    lambda: metacheck(1, ("A1",), mode="sideways"),
    lambda: metacheck(1, ("A1",), budget=0),
    lambda: metacheck(1, ("A1",), budget="most"),
    lambda: metacheck(3, ("A1",)),  # past FULL_SWEEP_LIMIT
    lambda: list(enumerate_interpretations(1, "equal")),
    lambda: is_true(STANDARD_TWO, parse_formula("(0 = 0)"), mode="sideways"),
])
def test_bad_options_raise_a_named_value_error(call):
    with pytest.raises(ModelOptionError) as caught:
        call()
    assert isinstance(caught.value, ArithlabError)
    assert isinstance(caught.value, ValueError)


def test_metacheck_checks_the_mode_before_any_case_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(LAWS, "probe", (lambda m, mode: ran.append(m),))
    with pytest.raises(ModelOptionError, match="unknown mode 'sideways'"):
        metacheck(1, ("probe",), mode="sideways")
    assert ran == []


def test_metacheck_collapse_family_clean_both_modes():
    for mode in ("standard", "parameterized"):
        report = metacheck(1, ("collapse",), mode=mode)
        assert report.violations == (), mode


def test_metacheck_substitution_family_parameterized_only():
    clean = metacheck(2, ("substitution",), mode="standard")
    assert clean.violations == ()
    dirty = metacheck(2, ("substitution",), mode="parameterized")
    assert dirty.violations


def test_families_keep_their_order():
    assert FAMILIES == ("A1", "A2", "A3", "A4", "A5", "rules", "duality",
                        "substitution", "collapse", "chain")


# violations among the first 300 interpretations in enumeration order
# (the one of size 1, then 299 of size 2); the full size-2 sweep takes
# too long for every run of the suite
FIRST_300_VIOLATIONS = {
    "standard": dict.fromkeys(FAMILIES, 0),
    "parameterized": {**dict.fromkeys(FAMILIES, 0),
                      "A4": 128, "substitution": 147},
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_violation_counts_on_the_first_300_interpretations(family, mode):
    report = metacheck(2, (family,), mode, budget=300)
    assert report.examined == 300
    assert len(report.violations) == FIRST_300_VIOLATIONS[mode][family]


def test_metacheck_report_str_shape():
    report = metacheck(1, ("A1", "rules"))
    text = str(report)
    assert "examined" in text
    assert "violation(s)" in text


def test_collapse_suite_is_pinned():
    suite = collapse_suite()
    assert len(suite) == 30
    assert collapse_suite() is suite       # cached, not rebuilt
    for var, f in suite:
        assert var in (1, 2)


def test_collapse_suite_text_is_pinned():
    text = "".join(f"{x} {to_text(b)}\n" for x, b in collapse_suite())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fb2e3b11d0d6b49a1fbd348e9a9c4f4901e9642d5a51b332284c79a89f62c7ac")


def test_every_law_family_keeps_its_case_count():
    assert {family: len(cases) for family, cases in LAWS.items()} == {
        "A1": 3, "A2": 2, "A3": 2, "A4": 5, "A5": 3, "rules": 6,
        "duality": 3, "substitution": 4, "collapse": 30, "chain": 3}


# ------------------------------------------------- the per-model spec
# metacheck decides each case on a whole chunk of models at once.  These
# per-model cases are the spec it must match: each decides one model by
# tarski, from the items its chunk case carries in LAWS, and gives the
# detail of the violation it finds, or None.


def spec_truth_case(premises, conclusion, detail, m, mode):
    _, atom, over = _semantics(m, mode)
    if all(tarski(f, {}, atom, over) for f in premises) and not tarski(
            conclusion, {}, atom, over):
        return detail
    return None


def spec_duality_case(x, b, dual, variables, m, mode):
    points, atom, over = _semantics(m, mode)
    values = sorted(points)  # in domain order
    for env in _assignments(values, variables):
        direct = any(tarski(b, {**env, x: d}, atom, over) for d in values)
        if direct != tarski(dual, env, atom, over):
            return f"existential duality breaks for x{x} in {b} at {env}"
    return None


def spec_substitution_case(b, x, t, sub, fv, m, mode):
    points, atom, over = _semantics(m, mode)
    for env in _assignments(range(m.size), fv):
        seen = _read(m, env, points)
        lhs = tarski(sub, seen, atom, over)
        rhs = tarski(b, _read(m, {**env, x: _value(m, t, seen)}, points), atom, over)
        if lhs != rhs:
            return f"substitution lemma breaks for {t} into x{x} of {b} at {env}"
    return None


def spec_collapse_case(x, b, universal, fv, m, mode):
    points, atom, over = _semantics(m, mode)
    lhs = tarski(universal, {}, atom, over)
    rhs = all(
        tarski(b, {**env, x: d}, atom, over)
        for env in _assignments(sorted(points), fv)
        for d in points
    )
    if lhs != rhs:
        return f"quantifier collapse mismatch for x{x} in {b}"
    return None


def spec_chain_case(x, b, m, mode):
    covered = set(_points(m, mode)) <= set(numeral_image(m))
    universal, instances = numeral_chain(m, x, b, mode)
    if universal and not all(instances):
        return f"a numeral instance of x{x} escapes {b}"
    if covered and all(instances) and not universal:
        return f"numeral instances of x{x} do not lift to the universal claim {b}"
    return None


SPEC = {_truth_case: spec_truth_case, _duality_case: spec_duality_case,
        _substitution_case: spec_substitution_case,
        _collapse_case: spec_collapse_case, _chain_case: spec_chain_case}


def _direct_violations(sweep, families, mode):
    """What metacheck reports, from the spec of every case run on every model."""
    return tuple(
        Violation(family, m, detail)
        for m in sweep
        for family in families
        for case in LAWS[family]
        if (detail := SPEC[case.func](*case.args, m, mode)) is not None
    )


def _every(strides, sizes, eq_tables="identity"):
    """Every strides[size]-th model of the sweep of each size.  The spec of
    every case run on every model costs about 3 ms a model for the ten
    families, so a full size-2 sweep would take 6 s a mode: the spec decides
    these models alone."""
    return itertools.chain(*(
        itertools.islice(enumerate_interpretations(size, eq_tables), 0, None, strides[size])
        for size in sizes))


def _on(report, models) -> tuple:
    """The violations of the report that name one of the models."""
    models = set(models)
    return tuple(v for v in report.violations if v.model in models)


@pytest.mark.parametrize("mode", MODES)
def test_memoised_metacheck_matches_every_case_run_directly(mode):
    strides = {1: 1, 2: 7, 3: 97}
    budget = 1 + 293 + 30  # all of sizes 1 and 2, then into size 3
    models = list(itertools.islice(_every(strides, (1, 2, 3)), budget))
    # the sweep up to the last of those models
    report = metacheck(3, FAMILIES, mode, 1 + 2048 + 97 * 29 + 1)
    assert report.max_size == 3 and not report.exhausted
    assert _on(report, models) == _direct_violations(models, FAMILIES, mode)
    if mode == "parameterized":
        assert {v.family for v in _on(report, models)} == {"A4", "substitution"}


@pytest.mark.parametrize("mode", MODES)
def test_memoised_congruent_metacheck_matches_every_case_run_directly(mode):
    families = ("A1", "A2", "A3", "A4", "A5", "rules")
    models = list(_every({1: 1, 2: 5}, (1, 2), "congruent"))
    assert len(models) == 1 + 820
    report = metacheck(2, families, mode, eq_tables="congruent")
    assert report.exhausted and report.examined == 1 + 4096
    assert _on(report, models) == _direct_violations(models, families, mode)


def _sha256(report) -> str:
    return hashlib.sha256(str(report).encode()).hexdigest()


# the sha256 of str(report) as metacheck gave it when it ran each case on the
# models whose zero is 0 alone, through decision tries, and found every other
# model's violations by relabelling: in full, and under a budget that cut the
# size-2 sweep inside its zero = 1 block
PLAIN_SWEEP_SHA256 = {
    ("standard", "identity"): (
        "8fd7b8845902bd239917aa2346cb2b3e976061b47c46e51f547926e62e65e53b",
        "54a5fcca8da2a47734c1deb8383820fe31dfe36e5ba1d6dc9e4caa88ae44a6f6"),
    ("parameterized", "identity"): (
        "9cd2608c648217de8783d86a6d78c3ee344838926e38a39c16b70f51506f1d48",
        "c8bc39cfa76df54071754f5cb0aa0171d3505d8bd52f6262c27bebeb1dcf8c3f"),
    ("standard", "congruent"): (
        "61d4dfca22f6f2aab4efe6de0ad25e0a87731daaf1b67a529aeb8bc09753c784",
        "a47a7bd57641e9d20eb14f0ad9d0c4bdb7ae85ead6a3f9deecac6eff19aba119"),
    ("parameterized", "congruent"): (
        "2c311416d2143757fb405b22f2b38b0aef139d306562ccd6e49af0ab96505fd3",
        "be23034085072c5cfe9b8de7cbed8d3d368ed1bec6612d95061154ca59480162"),
}


@pytest.mark.parametrize("eq_tables, models, cut, families", [
    ("identity", 2049, 1500, FAMILIES),
    ("congruent", 4097, 3000, tuple(family for family in FAMILIES if family != "collapse")),
], ids=["identity", "congruent"])
@pytest.mark.parametrize("mode", MODES)
def test_relabelled_metacheck_matches_the_plain_sweep(mode, eq_tables, models, cut, families):
    for budget, pinned in zip(("full", cut), PLAIN_SWEEP_SHA256[mode, eq_tables]):
        report = metacheck(2, families, mode, budget, eq_tables)
        assert (report.examined, report.exhausted) == \
            ((models, True) if budget == "full" else (cut, False))
        assert _sha256(report) == pinned, budget


@pytest.mark.parametrize("max_size, budget, counts", [
    (2, 2048, (2048, False, 2)),
    (2, 2049, (2049, True, 2)),
    (2, 2050, (2049, True, 2)),
    (3, 2049, (2049, False, 2)),  # no size-3 model examined
])
def test_a_budget_at_a_chunk_edge_cuts_where_it_did(max_size, budget, counts):
    report = metacheck(max_size, ("A1",), "standard", budget)
    assert (report.examined, report.exhausted, report.max_size) == counts


def test_a_budget_one_model_past_a_size_3_chunk_matches_the_spec():
    # the size-3 models come in a chunk of CHUNK and a chunk of one
    families, budget = ("A4", "substitution"), 1 + 2048 + CHUNK + 1
    report = metacheck(3, families, "parameterized", budget)
    assert (report.examined, report.exhausted, report.max_size) == (budget, False, 3)
    sweep = itertools.chain(*map(enumerate_interpretations, (1, 2, 3)))
    assert report.violations == _direct_violations(
        itertools.islice(sweep, budget), families, "parameterized")


# the sha256 of str(report) for a size-3 sweep under the congruent filter,
# where the sweep tests eq tables for congruence and keeps only some, as
# metacheck gave it when it read the models' cells from the sweep itself
FILTERED_SWEEP_SHA256 = {
    6000: "06c8c33a941c1f4970e197d67e8e511c2ac77f08db129b1da3754c98a5637a2e",
    20000: "a67b9e3b36e09e13a4d563f7678b5f9d6b529e74c8bd1b5e43dd2ce29fbcc6b6",
}


def test_a_filtered_size_3_sweep_keeps_its_reports():
    families = ("A1", "A4", "substitution")
    for budget, pinned in FILTERED_SWEEP_SHA256.items():
        report = metacheck(3, families, "parameterized", budget, "congruent")
        assert (report.examined, report.exhausted, report.max_size) == (budget, False, 3)
        assert _sha256(report) == pinned, budget
    # its size-3 models against the spec, on a short budget
    report = metacheck(3, families, "parameterized", 1 + 4096 + 300, "congruent")
    models = list(itertools.islice(enumerate_interpretations(3, "congruent"), 300))
    assert len({m.eq for m in models}) == 5  # the three tested equivalences too
    assert tuple(v for v in report.violations if v.model.size == 3) == \
        _direct_violations(models, families, "parameterized")


def _counted(calls: list, run):
    """run, appending to calls the width of each chunk it decides."""
    return lambda c: calls.append(c.full.bit_length()) or run(c)


def test_metacheck_runs_each_case_once_per_chunk(monkeypatch):
    runs = []
    monkeypatch.setitem(LAWS, "A4", tuple(map(partial(_counted, runs), LAWS["A4"])))
    report = metacheck(2, ("A4",), "parameterized", eq_tables="congruent")
    assert len(report.violations) == 512
    # 5 cases on the 1 + 4096 models of sizes 1 and 2, in chunks of 1,
    # CHUNK and CHUNK models
    assert runs == [1] * 5 + [CHUNK] * 5 + [CHUNK] * 5


# the case runs and the evaluations (_evaluate calls) of each sweep the
# lawhunt benchmark makes at size 2, per mode, eq filter and family.  A case
# runs once a chunk: size 1 is one chunk and size 2 one chunk, or two under
# the congruent filter.  The evaluations count the formulas each case
# evaluates, once for each assignment it sweeps, so they are the same in
# both modes.
LAWHUNT_CASE_RUNS = {
    ("standard", "identity"): {
        "A1": (6, 6), "A2": (4, 4), "A3": (4, 4), "A4": (10, 10), "A5": (6, 6),
        "rules": (12, 30), "duality": (6, 21), "substitution": (8, 33),
        "collapse": (60, 242), "chain": (6, 21)},
    ("parameterized", "identity"): {
        "A1": (6, 6), "A2": (4, 4), "A3": (4, 4), "A4": (10, 10), "A5": (6, 6),
        "rules": (12, 30), "duality": (6, 21), "substitution": (8, 33),
        "collapse": (60, 242), "chain": (6, 21)},
    ("standard", "congruent"): {
        "A1": (9, 9), "A2": (6, 6), "A3": (6, 6), "A4": (15, 15), "A5": (9, 9),
        "rules": (18, 45)},
}


# the sha256 of the str() of those sweeps' reports, concatenated in order
LAWHUNT_REPORTS_SHA256 = "19f3a58ac0487e9ded94f60b11558fa1173742e6f4aa3869f4e84d1561a3be26"


def test_lawhunt_sweeps_run_their_cases_as_often_as_pinned(monkeypatch):
    runs, evaluations = [], []
    for family, cases in list(LAWS.items()):
        monkeypatch.setitem(LAWS, family, tuple(map(partial(_counted, runs), cases)))
    monkeypatch.setattr("arithlab.models._evaluate",
                        lambda *args: evaluations.append(args) or _evaluate(*args))
    reports = hashlib.sha256()
    for (mode, eq), pinned in LAWHUNT_CASE_RUNS.items():
        counts = {}
        for family in pinned:
            runs.clear()
            evaluations.clear()
            reports.update(str(metacheck(2, (family,), mode, eq_tables=eq)).encode())
            counts[family] = (len(runs), len(evaluations))
        assert counts == pinned, (mode, eq)
    assert reports.hexdigest() == LAWHUNT_REPORTS_SHA256


# a duality case sweeps the free variables of exists(x, b), and so not x,
# which both of its sides bind.  Per assignment it evaluates the dual once
# and b once a value of x: over sizes 1 and 2 that is 3 + 5 assignments and
# 21 evaluations; sweeping x as well would take 3 + 10 and 36.
@pytest.mark.parametrize("mode, calls", [("standard", 21), ("parameterized", 21)])
def test_duality_sweeps_only_the_free_variables_of_its_dual(mode, calls, monkeypatch):
    made = []
    monkeypatch.setattr("arithlab.models._evaluate",
                        lambda *args: made.append(args) or _evaluate(*args))
    metacheck(2, ("duality",), mode)
    assert len(made) == calls


@pytest.mark.parametrize("mode", MODES)
def test_metacheck_calls_no_tarski(mode, monkeypatch):
    made = []
    monkeypatch.setattr("arithlab.models.tarski",
                        lambda *args: made.append(args) or tarski(*args))
    assert metacheck(2, FAMILIES, mode).examined == 2049
    assert made == []


# ------------------------------------------------- the chunk evaluator


_IDENTITY_3 = tuple(itertools.chain(*identity_eq(3)))


def _chunks():
    """(size, cells) of every model of sizes 1 and 2, each size one chunk,
    and of a seeded chunk of size-3 models."""
    rng = random.Random(33)
    size_3 = [(*(rng.randrange(3) for _ in range(_algebra_cells(3))), *_IDENTITY_3)
              for _ in range(200)]
    return [(1, list(_sweep(1, "identity"))), (2, list(_sweep(2, "identity"))), (3, size_3)]


@pytest.mark.parametrize("mode", MODES)
def test_the_chunk_evaluator_matches_the_single_model_path(mode):
    rng = random.Random(9)
    formulas = [rand_formula(rng, 3) for _ in range(16)]
    terms = [rand_term(rng, 3) for _ in range(10)]
    terms += [parse_term("S(S(S(S(S(x2)))))"), parse_term(f"(num({10**12 + 1}) * x1)")]
    remapped = 0  # assigned values outside the points, read as zero
    for size, chunk in _chunks():
        c, models = _spec_chunk(size, chunk, mode), [_model(size, cells) for cells in chunk]
        env = {1: size - 1}  # x2 and x3 unassigned
        seen = {x: _remap(c, c.const[d]) for x, d in env.items()}
        remapped += sum(size - 1 not in _points(m, mode) for m in models)
        for f in formulas:
            truth, satisfied = _evaluate(c, _closure(f), {}), _evaluate(c, f, seen)
            for k, m in enumerate(models):
                assert truth >> k & 1 == is_true(m, f, mode), (to_text(f), k)
                assert satisfied >> k & 1 == satisfies(m, env, f, mode), (to_text(f), k)
        for t in terms:
            value = _evaluate(c, t, seen)
            read = _remap(c, value)
            for k, m in enumerate(models):
                v = term_value(m, t, env, mode)
                assert _one_hot(value, k) == v, (to_text(t), k)
                assert _one_hot(read, k) == _read(m, {1: v}, _points(m, mode))[1]
    assert remapped > 0 if mode == "parameterized" else remapped == 0


def test_the_chunk_evaluator_takes_trees_nested_past_the_recursion_limit():
    # a sum and an antecedent chain 10**4 deep, which tarski and the
    # single-model term walk recurse on
    depth, models = 10**4, list(_sweep(2, "identity"))[::97]
    c, x1 = _spec_chunk(2, models, "standard"), Var(1)
    total, claim = x1, Eq(x1, Zero())
    for _ in range(depth):
        total, claim = Add(total, x1), Implies(claim, Eq(x1, Zero()))
    seen = {1: c.const[1]}
    value, truth = _evaluate(c, total, seen), _evaluate(c, claim, seen)
    for k, m in enumerate(map(partial(_model, 2), models)):
        v, holds = 1, m.eq[1][m.zero] == 1
        for _ in range(depth):
            v, holds = m.add[v][1], not holds or m.eq[1][m.zero] == 1
        assert (_one_hot(value, k), truth >> k & 1) == (v, holds), k


def test_the_chunk_evaluator_names_a_non_tree():
    c = _spec_chunk(1, [(0,) * _width(1)], "standard")
    with pytest.raises(ArithlabError, match="^not a term or formula: "):
        _evaluate(c, Eq(Zero(), "x1"), {})


# ------------------------------------------------------------ the sweep


def _respecting(rng, size: int, eq) -> tuple[int, ...]:
    """Random algebra cells that respect the equivalence eq: an operation
    sends arguments of given classes into one class, to any of its elements."""
    classes = [tuple(b for b in range(size) if row[b]) for row in eq]  # a's class
    into = {}  # the class of an operation's values, by its arguments' classes

    def value(*key):
        return rng.choice(into.setdefault(key, rng.choice(classes)))

    return (rng.randrange(size), *(value("succ", classes[a]) for a in range(size)),
            *(value(op, classes[a], classes[b])
              for op in ("add", "mul") for a in range(size) for b in range(size)))


def test_the_sweep_tests_only_the_eq_tables_an_algebra_may_break():
    # every algebra respects identity and the total relation, so the sweep
    # tests the other equivalences alone; sizes 1 and 2 have no other, and
    # test_enumeration_order_is_that_of_nested_loops_over_the_tables checks
    # their sweeps against the definition.  Each table is tested here on a
    # window of one position, the one that holds it, whose cells are those
    # of a drawn algebra, each one-hot at bit 0
    rng = random.Random(5)
    checks = _eq_checks(3, "congruent")
    assert [eq for eq, pairs in checks if not pairs] == [_IDENTITY_3, (1,) * 9]
    outcomes = set()
    for t, (eq, pairs) in enumerate(checks):
        table = _model(3, (0,) * _algebra_cells(3) + eq).eq
        if not pairs:  # kept without a cell read
            assert _kept(3, checks, [], t, 1) == 1
        for _ in range(100):
            for algebra in (tuple(rng.randrange(3) for _ in range(_algebra_cells(3))),
                            _respecting(rng, 3, table)):
                cells = [tuple(int(v == d) for d in range(3)) for v in algebra]
                kept = _kept(3, checks, cells, t, 1) == 1
                assert kept == _is_congruence_by_definition(_model(3, algebra + eq))
                outcomes.add(kept)
    assert outcomes == {False, True}


def test_a_sizes_last_position_holds_an_untested_table():
    # so it is always kept, and metacheck's report is exhausted just when no
    # position of the size is left
    for size in (1, 2, 3, 4):
        for eq_tables in ("identity", "congruent"):
            checks = _eq_checks(size, eq_tables)
            eq, pairs = checks[-1]
            assert pairs == () and eq == (
                tuple(itertools.chain(*identity_eq(size))) if eq_tables == "identity"
                else (1,) * size * size)
            last = size ** _algebra_cells(size) * len(checks) - 1
            assert _kept(size, checks, _cell_masks(size, checks, last, 1), last, 1) == 1


def test_a_sweep_without_violations_decodes_no_position(monkeypatch):
    # the kept mask is read from the window's cells, so no position is
    # decoded but a violator's
    decoded = []
    monkeypatch.setattr("arithlab.models._position_cells",
                        lambda *args: decoded.append(args) or _position_cells(*args))
    report = metacheck(3, ("A1",), "standard", 20000, "congruent")
    assert (report.examined, report.violations) == (20000, ())
    assert decoded == []


def test_successor_powers_match_stepping_one_at_a_time():
    rng = random.Random(2024)
    for _ in range(300):
        m = random_interpretation(rng, rng.randint(1, 5))
        for v in range(m.size):
            steps = [v]
            for _ in range(2 * m.size):
                steps.append(m.succ[steps[-1]])
            # past size steps the walk is on the cycle; laps is a whole
            # number of turns of it
            laps = 2 * m.size - steps.index(steps[-1], m.size)
            for k in (*range(2 * m.size + 1), 10**9, 10**30):
                tail = k if k <= 2 * m.size else m.size + (k - m.size) % laps
                assert _apply_succ(m, v, k) == steps[tail]
        image = numeral_image(m)
        assert list(image) == [numeral_value_in(m, k) for k in range(len(image))]
        assert numeral_value_in(m, len(image)) in image


@pytest.mark.parametrize("size", [1, 2, 3])
def test_equivalences_are_the_transitive_tables_in_bit_order(size):
    domain = range(size)
    tables = (
        tuple(tuple(bits[a * size + b] for b in domain) for a in domain)
        for bits in itertools.product((0, 1), repeat=size * size)
    )
    expected = [
        eq for eq in tables
        if all(eq[a][a] and eq[a][b] == eq[b][a]
               and (eq[a][c] or not (eq[a][b] and eq[b][c]))
               for a in domain for b in domain for c in domain)
    ]
    assert len(expected) == (1, 2, 5)[size - 1]
    assert _equivalences(size) == expected


# Each named-error site of the model validators and the model file reader,
# with the message it gives.
_OK = ((0, 0), (0, 0))
_ID2 = ((1, 0), (0, 1))
_GOOD = "size 2\nzero 0\nsucc 1 0\nadd 0 0 / 0 0\nmul 0 0 / 0 0\neq identity\n"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Interpretation(2, 0, (1, 0), ((0, 0),), _OK, _ID2),
         "add must be a total 2x2 table"),
        (lambda: Interpretation(2, 0, (1, 0), _OK, ((0, 2), (0, 0)), _ID2),
         "mul must be a total 2x2 table"),
        (lambda: Interpretation(2, 0, (1, 0), _OK, _OK, ((1, 2), (0, 1))),
         "eq must be a 2x2 table of 0/1"),
        (lambda: parse_interpretation(_GOOD.replace("zero 0", "zero z")),
         "field 'zero': bad number 'z'"),
        (lambda: parse_interpretation(_GOOD.replace("size 2", "size 2 2")),
         "size and zero take a single number"),
        (lambda: parse_interpretation(_GOOD.replace("size 2", "size 0")),
         "domain must have at least one element"),
        (lambda: parse_interpretation(_GOOD.replace("add 0 0 / 0 0", "add 0 0 0")),
         "field 'add': expected 4 entries, got 3"),
        (lambda: parse_interpretation(_GOOD.replace("succ 1 0", "succ 1")),
         "field 'succ': expected 2 entries"),
    ],
)
def test_model_shape_errors(make, message):
    assert parse_interpretation(_GOOD).size == 2
    with pytest.raises(ModelError) as exc:
        make()
    assert str(exc.value) == message
