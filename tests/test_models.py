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
    _apply_succ,
    _decide,
    _equivalences,
    _model,
    _Reader,
    _sweep,
)
from arithlab.syntax import (
    ArithlabError,
    NodeValueError,
    parse_formula,
    parse_term,
    tarski,
    to_text,
)

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


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_reader_and_model_read_one_cell_layout(size):
    rng = random.Random(size)
    domain = range(size)
    for _ in range(20):
        cells = (*(rng.randrange(size) for _ in range(1 + size + 2 * size * size)),
                 *(rng.randrange(2) for _ in range(size * size)))
        m, reader = _model(size, cells), _Reader(size, cells)
        assert reader.zero == m.zero
        assert [reader.succ[a] for a in domain] == list(m.succ)
        for name in ("add", "mul", "eq"):
            assert [[getattr(reader, name)[a][b] for b in domain] for a in domain] \
                == [list(row) for row in getattr(m, name)]
        # every cell was read once, each at its own number
        assert sorted(reader._reads) == list(range(len(cells)))


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


# ------------------------------------------------------ metacheck's memo


def _direct_violations(sweep, families, mode):
    """What metacheck reports, from every case run on every model."""
    return tuple(
        Violation(family, m, detail)
        for m in sweep
        for family in families
        for case in LAWS[family]
        if (detail := case(m, mode)) is not None
    )


def _swapped(size: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    """The cells of the image of the model of these cells under the swap
    (0 z) of its domain, z its zero: a model whose zero is 0."""
    m = _model(size, cells)
    s, domain = list(range(size)), range(size)
    s[0], s[m.zero] = m.zero, 0
    return (s[m.zero], *(s[m.succ[s[a]]] for a in domain),
            *(s[t[s[a]][s[b]]] for t in (m.add, m.mul) for a in domain for b in domain),
            *(m.eq[s[a]][s[b]] for a in domain for b in domain))


def _thinned(monkeypatch, strides):
    """Make metacheck sweep the cells of every strides[size]-th model whose
    zero is 0, and of each image of those under a swap (0 z), so that whole
    relabelling classes are kept; return that enumeration as models.  Every
    case run on every model costs about 3 ms a model for the ten families,
    so a full size-2 sweep would take 6 s a mode."""

    def thinned(size, eq_tables="identity"):
        kept = set()  # the zero = 0 models kept; the sweep yields them first
        for i, cells in enumerate(_sweep(size, eq_tables)):
            if not cells[0] and i % strides[size] == 0:
                kept.add(cells)
                yield cells
            elif cells[0] and _swapped(size, cells) in kept:
                yield cells

    monkeypatch.setattr("arithlab.models._sweep", thinned)
    return lambda size, eq_tables="identity": map(
        partial(_model, size), thinned(size, eq_tables))


@pytest.mark.parametrize("mode", MODES)
def test_memoised_metacheck_matches_every_case_run_directly(mode, monkeypatch):
    thinned = _thinned(monkeypatch, {1: 1, 2: 7, 3: 97})
    budget = 1 + 2 * 147 + 30  # all of sizes 1 and 2, then into size 3
    report = metacheck(3, FAMILIES, mode, budget)
    assert report.max_size == 3 and report.examined == budget
    sweep = itertools.chain(thinned(1), thinned(2), thinned(3))
    assert report.violations == _direct_violations(
        itertools.islice(sweep, budget), FAMILIES, mode)
    if mode == "parameterized":
        assert {v.family for v in report.violations} == {"A4", "substitution"}


@pytest.mark.parametrize("mode", MODES)
def test_memoised_congruent_metacheck_matches_every_case_run_directly(mode, monkeypatch):
    thinned = _thinned(monkeypatch, {1: 1, 2: 5})
    families = ("A1", "A2", "A3", "A4", "A5", "rules")
    report = metacheck(2, families, mode, eq_tables="congruent")
    assert report.exhausted and report.examined == 1 + 820
    sweep = itertools.chain(thinned(1, "congruent"), thinned(2, "congruent"))
    assert report.violations == _direct_violations(sweep, families, mode)


def _plain_violations(max_size, families, mode, budget, eq_tables):
    """What metacheck reports if it decides every case on every model of the
    sweep, through a trie per case and size, and relabels none."""
    cases = [(family, case) for family in families for case in LAWS[family]]
    sweep = ((size, cells) for size in range(1, max_size + 1)
             for cells in _sweep(size, eq_tables))
    tries, found = {}, []
    for size, cells in itertools.islice(sweep, budget):
        for (family, case), trie in zip(cases, tries.setdefault(size, [[None] for _ in cases])):
            if (detail := _decide(trie, case, size, cells, mode)) is not None:
                found.append(Violation(family, _model(size, cells), detail))
    return tuple(found)


def _zero_probe(m, mode):
    # judged alike on a model and its relabelled images, named by zero
    if m.succ[m.zero] == m.zero:
        return f"zero {m.zero} is its own successor"
    return None


# 1,500 and 3,000 cut the size-2 sweep inside its zero = 1 block; the
# congruent collapse sweeps alone would take about 2 s
@pytest.mark.parametrize("eq_tables, models, cut, families", [
    ("identity", 2049, 1500, FAMILIES),
    ("congruent", 4097, 3000, tuple(family for family in FAMILIES if family != "collapse")),
], ids=["identity", "congruent"])
@pytest.mark.parametrize("mode", MODES)
def test_relabelled_metacheck_matches_the_plain_sweep(mode, eq_tables, models, cut,
                                                      families, monkeypatch):
    for budget in (None, cut):
        report = metacheck(2, families, mode, budget or "full", eq_tables)
        assert report.violations == _plain_violations(2, families, mode, budget, eq_tables)
        assert (report.examined, report.exhausted) == (budget or models, not budget)
    # no real detail tells a violator from its images, but the probe's
    # does: an image's detail is its own, not copied from its preimage
    monkeypatch.setitem(LAWS, "probe", (_zero_probe,))
    for budget in (None, cut):
        report = metacheck(2, ("probe",), mode, budget or "full", eq_tables)
        sweep = itertools.chain(enumerate_interpretations(1, eq_tables),
                                enumerate_interpretations(2, eq_tables))
        assert report.violations == _direct_violations(
            itertools.islice(sweep, budget), ("probe",), mode)
        assert "zero 1 is its own successor" in {v.detail for v in report.violations}


def test_metacheck_runs_a_case_once_per_reading_of_its_cells(monkeypatch):
    runs = []

    def counted(case):
        return lambda m, mode: runs.append(m) or case(m, mode)

    monkeypatch.setitem(LAWS, "A4", tuple(map(counted, LAWS["A4"])))
    report = metacheck(2, ("A4",), "parameterized")
    assert len(report.violations) == 512
    # 5 cases x 2049 models run directly; far fewer readings differ
    assert 5 <= len(runs) < 5 * report.examined // 10


# the case runs of each sweep the lawhunt benchmark makes at size 2, per
# mode, eq filter and family: 2,176 standard, 1,641 parameterized and 89
# congruent in all.  They are runs on models whose zero is 0, and on those
# images of violators that no trie leaf answers.  A change to the cells
# any case reads, or to their order, changes the tries and so these counts.
LAWHUNT_CASE_RUNS = {
    ("standard", "identity"): {
        "A1": 7, "A2": 5, "A3": 4, "A4": 16, "A5": 6, "rules": 31,
        "duality": 9, "substitution": 25, "collapse": 2053, "chain": 20},
    ("parameterized", "identity"): {
        "A1": 12, "A2": 8, "A3": 8, "A4": 27, "A5": 12, "rules": 62,
        "duality": 12, "substitution": 33, "collapse": 1448, "chain": 19},
    ("standard", "congruent"): {
        "A1": 10, "A2": 7, "A3": 5, "A4": 27, "A5": 8, "rules": 32},
}


# the sha256 of the str() of those sweeps' reports, concatenated in order
LAWHUNT_REPORTS_SHA256 = "19f3a58ac0487e9ded94f60b11558fa1173742e6f4aa3869f4e84d1561a3be26"


def test_lawhunt_sweeps_run_their_cases_as_often_as_pinned(monkeypatch):
    readers = []  # one _Reader per case run
    monkeypatch.setattr("arithlab.models._Reader",
                        lambda *args: readers.append(args) or _Reader(*args))
    reports = hashlib.sha256()
    for (mode, eq), pinned in LAWHUNT_CASE_RUNS.items():
        runs = {}
        for family in pinned:
            readers.clear()
            reports.update(str(metacheck(2, (family,), mode, eq_tables=eq)).encode())
            runs[family] = len(readers)
        assert runs == pinned, (mode, eq)
    assert reports.hexdigest() == LAWHUNT_REPORTS_SHA256


# a duality case sweeps the free variables of exists(x, b), and so not x,
# which both of its sides bind; the top-level tarski calls of the plain
# sweep, which decides the case on every model, show it
@pytest.mark.parametrize("mode, calls", [("standard", 40), ("parameterized", 66)])
def test_duality_sweeps_only_the_free_variables_of_its_dual(mode, calls, monkeypatch):
    made = []
    monkeypatch.setattr("arithlab.models.tarski",
                        lambda *args: made.append(args) or tarski(*args))
    _plain_violations(2, ("duality",), mode, None, "identity")
    assert len(made) == calls


# metacheck decides the same case only on the models whose zero is 0 and
# on the images of its violators, and so calls tarski less often
@pytest.mark.parametrize("mode, calls", [("standard", 33), ("parameterized", 36)])
def test_relabelled_duality_calls_tarski_less_often(mode, calls, monkeypatch):
    made = []
    monkeypatch.setattr("arithlab.models.tarski",
                        lambda *args: made.append(args) or tarski(*args))
    metacheck(2, ("duality",), mode)
    assert len(made) == calls


@pytest.mark.parametrize("peek", [
    lambda m: m.normal,
    lambda m: format_interpretation(m),
    lambda m: f"{m}",
    lambda m: m == WITNESS_MODEL,
    lambda m: m.add[0][m.size],
])
def test_a_case_that_reads_past_the_cells_raises(peek, monkeypatch):
    # a result that rested on anything but the recorded cells could not
    # be reused for every model that agrees on them
    monkeypatch.setitem(LAWS, "peek", (lambda m, mode: peek(m) and None,))
    with pytest.raises((AttributeError, IndexError, TypeError)):
        metacheck(2, ("peek",))


def _reads(m: Interpretation, run) -> list[int]:
    """The cells of m that run reads from a _Reader of m, in order."""
    reader = _Reader(m.size, (m.zero, *m.succ, *itertools.chain(*m.add, *m.mul, *m.eq)))
    run(reader)
    return list(reader._reads)


def test_successor_reads_succ_only_along_the_steps_it_takes():
    # STANDARD_TWO has succ = (1, 0); cell 1 is succ[0]
    term = parse_term("S(x1)")
    assert _reads(STANDARD_TWO, lambda m: term_value(m, term, {1: 0})) == [1]


def test_a_variable_reads_zero_only_when_unassigned():
    # cells 11 and 14 of a size-2 model are eq[0][0] and eq[1][1]
    f = parse_formula("forall x1 . (x1 = x1)")
    assert _reads(STANDARD_TWO, lambda m: is_true(m, f, "standard")) == [11, 14]
    x2 = parse_term("x2")
    assert _reads(STANDARD_TWO, lambda m: term_value(m, x2, {})) == [0]


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
