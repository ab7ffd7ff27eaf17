"""The three workloads: their jobs, and an independent check of each verdict.

A job is a kind, a run function, a check function and its input.  run(lab,
call, inp) makes every arithlab call of the job through the call hook (so
a traced run sees each one as a span) and returns the raw outputs; it is
the only timed part.  check(inp, out, counts) runs afterwards, untimed,
compares the outputs with the benchmark's own routes (forms.py,
reference.py, lawhunt_reference.json) and returns None or the reason the
verdict is wrong.  It also adds the job's work counts to counts.

Expected refusals (the prime guard, capture, a non-closed numeral image)
are verdicts, returned as the REFUSED/CAPTURE markers; any other exception
escapes run and counts as a failed job under its class name.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import statistics

import forms
import gen
import reference

REFUSED = "refused"
CAPTURE = "capture"

HERE = os.path.dirname(os.path.abspath(__file__))


class Job:
    __slots__ = ("kind", "run", "check", "inp")

    def __init__(self, kind, run, check, inp):
        self.kind, self.run, self.check, self.inp = kind, run, check, inp


def _ref(fn, *args):
    try:
        return fn(*args)
    except reference.Refused:
        return REFUSED


def _encode(lab, call, coding, tree):
    try:
        return call(f"godel.encode.{coding}", lab.godel.encode_expr, tree, lab.cfg[coding])
    except lab.godel.InfeasibleMagnitudeError:
        return REFUSED


def _count_codes(counts, *codes) -> None:
    for code in codes:
        if code is None or code == CAPTURE:
            continue
        counts["godel.coded"] += 1
        if code == REFUSED:
            counts["godel.refused"] += 1
        else:
            counts["godel.code_bits"] += code.bit_length()


PROFILE_ROUNDS = 10


class Profile:
    """What the inputs of a run look like, for the results file."""

    def __init__(self, lab) -> None:
        self.lab = lab
        self.jobs = 0
        self.rounds = 0
        self.kinds: dict[str, int] = {}
        self.formula_nodes: list[int] = []
        self.proof_lines: list[int] = []
        self.numerals: list[int] = []
        self.evaluations = 0
        self.reused = 0
        self._seen: set = set()

    def formula(self, form: tuple) -> None:
        self.formula_nodes.append(forms.nodes(form))
        self.numerals.extend(forms.numerals(form))

    def evaluated(self, key, times: int = 1) -> None:
        """times evaluations of the formula identified by key."""
        self.evaluations += times
        self.reused += times - (key not in self._seen)
        self._seen.add(key)

    def add_round(self, jobs) -> None:
        """Account for one round's inputs (after it ran, off the clock).
        Only the first PROFILE_ROUNDS rounds are kept, so the profile's
        memory does not grow with the number of rounds a faster program
        completes."""
        if self.rounds >= PROFILE_ROUNDS:
            return
        self.rounds += 1
        self.jobs += len(jobs)
        for job in jobs:
            self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
            inp = job.inp
            for key in ("form", "f", "t"):
                if key in inp:
                    self.formula(inp[key])
            if "n" in inp:
                self.numerals.append(inp["n"])
            if job.kind in ("is_true", "restrict", "chain"):
                self.evaluated(forms.canon(inp["form"]))
            if job.kind == "metacheck":
                # each pinned formula of the family, once per interpretation
                n = expected_examined(LAW_SIZE, inp["eq"])
                for f in pinned_formulas(self.lab.models)[inp["family"]]:
                    form = forms.from_tree(f)
                    self.formula(form)
                    self.evaluated((inp["mode"], forms.canon(form)), n)
            if "proof" in inp:
                self.proof_lines.append(len(inp["proof"].lines))
                for line in inp["proof"].lines:
                    form = forms.from_tree(line.formula)
                    self.formula(form)
                    self.evaluated(forms.canon(form))

    def summary(self) -> dict:
        def spread(values):
            if not values:
                return None
            return {"min": min(values), "median": statistics.median(values), "max": max(values)}

        return {
            "rounds": self.rounds,
            "jobs_per_round": self.jobs / max(self.rounds, 1),
            "job_kinds_per_round": {k: v / max(self.rounds, 1)
                                    for k, v in sorted(self.kinds.items())},
            "formula_nodes": spread(self.formula_nodes),
            "proof_lines": spread(self.proof_lines),
            "numeral_magnitude": spread(self.numerals),
            "numerals_over_500": sum(n > 500 for n in self.numerals),
            "formula_evaluations": self.evaluations,
            "evaluation_reuse_share": self.reused / self.evaluations if self.evaluations else 0.0,
        }


# --------------------------------------------------------------------------
# proofs: format -> parse_proof -> check_proof -> encode_proof -> meta_pf

PF_CODING = "mendelson-pairing"


def run_proof(lab, call, inp):
    cfg = lab.cfg[PF_CODING]
    text = call("proofs.format_proof", lab.proofs.format_proof, inp["proof"])
    parsed = call("proofs.parse_proof", lab.proofs.parse_proof, text)
    result = call("proofs.check_proof", lab.proofs.check_proof, parsed)
    u = call("godel.encode_proof", lab.godel.encode_proof, parsed, cfg)
    x = call(f"godel.encode.{PF_CODING}", lab.godel.encode_expr, parsed.conclusion, cfg)
    return parsed, result, u, x, call("godel.meta_pf", lab.godel.meta_pf, u, x, cfg)


def check_proof(inp, out, counts):
    parsed, result, u, x, pf = out
    proof, bad_line = inp["proof"], inp["bad_line"]
    counts["proofs.checked"] += 1
    counts["proofs.rejected"] += not result.accepted
    counts["proofs.lines_checked"] += len(proof.lines) if result.accepted else result.line
    _count_codes(counts, u, x)
    line_forms = [forms.from_tree(line.formula) for line in proof.lines]
    if [forms.from_tree(line.formula) for line in parsed.lines] != line_forms:
        return "parse_proof(format_proof(p)) changed a line"
    codes = [reference.encode(f, PF_CODING) for f in line_forms]
    if u != reference.pairing_sequence(codes) or x != codes[-1]:
        return "proof or conclusion code differs from the reference"
    if bad_line is None:
        if not result.accepted or not forms.same(forms.from_tree(result.theorem), line_forms[-1]):
            return f"valid proof not accepted: {result}"
        if pf is not True:
            return "meta_pf rejects a proof check_proof accepts"
    else:
        if result.accepted or result.line != bad_line:
            return f"mutated line {bad_line} not caught there: {result}"
        if pf is not False:
            return "meta_pf accepts a proof with a non-theorem line"
    return None


BUILT_LINES = (60, 165, 225, 272, 312, 348, 380, 410)


def proofs_round(lab, rng, call):
    """The 9 corpus proofs, 8 built proofs of 60 to 410 lines, and one
    seeded single-line mutant of each.

    meta_pf's cost grows with the square of a proof's length, and for a
    mutant the kernel and meta_pf stop at the bad line.  So the built
    lengths are evenly spaced in their square, and each bad line sits in
    the middle of its own ninth (corpus) or eighth (built) of the proof,
    late in the three longest: job times then have no wide gap at the
    median or the 90th percentile.  The built proofs' steps and term forms
    are fixed per length and only numerals and mutations are seeded, so
    seeds differ in content, hardly in cost.
    """
    corpus = list(call("corpus.build_all", lab.corpus.build_all).values())
    built = [gen.built_proof(lab, random.Random(f"proof-shape/{i}"), rng, lines)
             for i, lines in enumerate(BUILT_LINES)]
    fractions = [(part + 0.5) / 9 for part in (4, 7, 1, 8, 2, 5, 0, 6, 3)]
    fractions += [(part + 0.5) / 8 for part in (3, 0, 4, 1, 2, 5, 6, 7)]
    jobs = []
    for proof, fraction in zip(corpus + built, fractions):
        mutant, k = gen.mutated(lab, rng, proof, fraction)
        jobs.append(Job("valid", run_proof, check_proof, {"proof": proof, "bad_line": None}))
        jobs.append(Job("mutant", run_proof, check_proof, {"proof": mutant, "bad_line": k}))
    return jobs, []


# --------------------------------------------------------------------------
# lawhunt: one metacheck call per family and mode, plus the congruent sweep

LAW_SIZE = 2
CONGRUENT_FAMILIES = ("A1", "A2", "A3", "A4", "A5", "rules")


def _law_key(inp) -> str:
    return f"{inp['family']}/{inp['mode']}/{inp['eq']}"


def expected_examined(max_size: int, eq: str) -> int:
    """Interpretations of sizes 1..max_size: zero, succ, add and mul tables;
    at sizes <= 2 the congruent sweep adds the total relation to identity."""
    total = 0
    for s in range(1, max_size + 1):
        algebras = s * s**s * s ** (s * s) * s ** (s * s)
        total += algebras * (2 if eq == "congruent" and s == 2 else 1)
    return total


def run_law(lab, call, inp):
    name = (f"models.metacheck.congruent.{inp['family']}" if inp["eq"] == "congruent"
            else f"models.metacheck.{inp['family']}.{inp['mode']}")
    return call(name, lab.models.metacheck, LAW_SIZE, (inp["family"],), inp["mode"],
                "full", inp["eq"])


def check_law(inp, out, counts):
    found = len(out.violations)
    counts["models.interpretations_examined"] += out.examined
    counts["models.violations"] += found
    if not out.exhausted or out.examined != expected_examined(LAW_SIZE, inp["eq"]):
        return f"examined {out.examined} interpretations"
    if inp["mode"] == "standard" and found:
        return f"{found} violations in standard mode"
    if found != inp["reference"]:
        return f"{found} violations, reference {inp['reference']}"
    if _law_key(inp) == "A4/parameterized/identity" and not any(
        v.model == inp["witness"] for v in out.violations
    ):
        return "WITNESS_MODEL missing from the A4 violations"
    return None


def lawhunt_round(lab, rng, call):
    with open(os.path.join(HERE, "lawhunt_reference.json"), encoding="utf-8") as handle:
        reference_counts = json.load(handle)
    specs = [(f, m, "identity") for m in lab.models.MODES for f in lab.models.FAMILIES]
    specs += [(f, "standard", "congruent") for f in CONGRUENT_FAMILIES]
    rng.shuffle(specs)
    jobs = []
    for family, mode, eq in specs:
        inp = {"family": family, "mode": mode, "eq": eq,
               "witness": lab.models.WITNESS_MODEL}
        inp["reference"] = reference_counts[_law_key(inp)]
        jobs.append(Job("metacheck", run_law, check_law, inp))
    return jobs, []


def pinned_formulas(models) -> dict[str, list]:
    """The pinned formulas each family evaluates in every interpretation.
    Call it only after a collapse job ran: collapse_suite is a cache."""
    out = {f: list(v) for f, v in models.A_INSTANCES.items()}
    out.update(rules=[f for pair in models.MP_PAIRS for f in pair]
               + [b for _, b in models.GEN_CASES],
               duality=[b for _, b in models.DUALITY_CASES],
               substitution=[b for b, _, _ in models.SUBSTITUTION_CASES],
               collapse=[b for _, b in models.collapse_suite()],
               chain=[b for _, b in models.CHAIN_CASES])
    return out


# --------------------------------------------------------------------------
# session: one-shot queries across the CLI's entry points


def run_parse_print(lab, call, inp):
    e = call("syntax.parse", lab.syntax.parse, inp["text"])
    return e, call("syntax.to_text", lab.syntax.to_text, e)


def check_parse_print(inp, out, counts):
    e, printed = out
    counts["syntax.input_nodes"] += 2 * forms.nodes(inp["form"])
    if printed != inp["text"]:
        return "to_text(parse(s)) != s"
    if forms.from_tree(e) != inp["form"]:
        return "parse built another tree"
    return None


def run_codec(lab, call, inp):
    coding = inp["coding"]
    code = _encode(lab, call, coding, inp["tree"])
    if code == REFUSED:
        return code, None
    return code, call(f"godel.decode.{coding}", lab.godel.decode_expr, code, lab.cfg[coding])


def check_codec(inp, out, counts):
    code, decoded = out
    _count_codes(counts, code)
    if code != _ref(reference.encode, inp["form"], inp["coding"]):
        return "code differs from the reference"
    if code != REFUSED and not forms.same(forms.from_tree(decoded), inp["form"]):
        return "decode(encode(e)) differs from e"
    return None


def run_meta_num(lab, call, inp):
    coding = inp["coding"]
    try:
        direct = call("godel.meta_num", lab.godel.meta_num, inp["n"], lab.cfg[coding])
    except lab.godel.InfeasibleMagnitudeError:
        direct = REFUSED
    return direct, _encode(lab, call, coding, inp["tree"])


def check_meta_num(inp, out, counts):
    _count_codes(counts, *out)
    expected = _ref(reference.encode_numeral, inp["n"], inp["coding"])
    return None if out == (expected, expected) else "meta_num differs from encode(num(n))"


def run_meta_neg(lab, call, inp):
    coding = inp["coding"]
    code = _encode(lab, call, coding, inp["tree"])
    if code == REFUSED:
        return code, None, None
    try:
        direct = call("godel.meta_neg", lab.godel.meta_neg, code, lab.cfg[coding])
    except lab.godel.InfeasibleMagnitudeError:
        direct = REFUSED
    return code, direct, _encode(lab, call, coding, inp["neg_tree"])


def check_meta_neg(inp, out, counts):
    _count_codes(counts, *out)
    code, direct, tree_route = out
    if code != _ref(reference.encode, inp["form"], inp["coding"]):
        return "code differs from the reference"
    if code == REFUSED:
        return None
    expected = _ref(reference.encode, ("~", inp["form"]), inp["coding"])
    return None if direct == tree_route == expected else "meta_neg differs from encode(~f)"


def run_meta_sub(lab, call, inp):
    coding, cfg = inp["coding"], lab.cfg[inp["coding"]]
    f_code = _encode(lab, call, coding, inp["f_tree"])
    t_code = _encode(lab, call, coding, inp["t_tree"])
    if REFUSED in (f_code, t_code):
        return f_code, t_code, None, None
    try:
        direct = call("godel.meta_sub", lab.godel.meta_sub, f_code, t_code, inp["var_code"], cfg)
    except lab.syntax.CaptureError:
        direct = CAPTURE
    except lab.godel.InfeasibleMagnitudeError:
        direct = REFUSED
    try:
        tree = call("syntax.substitute", lab.syntax.substitute, inp["f_tree"], inp["var"],
                    inp["t_tree"])
    except lab.syntax.CaptureError:
        return f_code, t_code, direct, CAPTURE
    return f_code, t_code, direct, _encode(lab, call, coding, tree)


def check_meta_sub(inp, out, counts):
    _count_codes(counts, *out)
    counts["syntax.input_nodes"] += forms.nodes(inp["f"]) + forms.nodes(inp["t"])
    f_code, t_code, direct, tree_route = out
    coding = inp["coding"]
    if (f_code, t_code) != (_ref(reference.encode, inp["f"], coding),
                            _ref(reference.encode, inp["t"], coding)):
        return "code differs from the reference"
    if REFUSED in (f_code, t_code):
        return None
    try:
        expected = _ref(reference.encode, forms.substitute(inp["f"], inp["var"], inp["t"]), coding)
    except forms.Capture:
        expected = CAPTURE
    return None if direct == tree_route == expected else "meta_sub differs from encode(substitute)"


def run_is_true(lab, call, inp):
    return call("models.is_true", lab.models.is_true, inp["interp"], inp["tree"], inp["mode"])


def check_is_true(inp, out, counts):
    form = inp["form"]
    expected = reference.is_true(inp["model"], form, inp["mode"], forms.free_vars(form))
    return None if out is expected else f"is_true says {out}"


def run_restrict(lab, call, inp):
    models = lab.models
    try:
        sub = call("models.restrict", models.restrict, inp["interp"])
    except models.RestrictError:
        return REFUSED, None, None
    return (sub,
            call("models.is_true", models.is_true, sub, inp["tree"], "standard"),
            call("models.is_true", models.is_true, inp["interp"], inp["tree"], "parameterized"))


def check_restrict(inp, out, counts):
    sub, standard, param = out
    counts["models.restrict.calls"] += 1
    counts["models.restrict.refused"] += sub == REFUSED
    if (sub == REFUSED) == reference.restrictable(inp["model"]):
        return "restrict refused a closed image or accepted an open one"
    if sub == REFUSED:
        return None
    form = inp["form"]
    expected = reference.is_true(inp["model"], form, "parameterized", forms.free_vars(form))
    return None if standard is param is expected else "truth in restrict(m) != param truth in m"


def run_chain(lab, call, inp):
    models, syntax = lab.models, lab.syntax
    interp, mode, var = inp["interp"], inp["mode"], inp["var"]
    image = call("models.numeral_image", models.numeral_image, interp)
    universal = call("models.is_true", models.is_true, interp, inp["forall_tree"], mode)
    instances = []
    for k in range(len(image) + 1):
        inst = call("syntax.substitute", syntax.substitute, inp["tree"], var, syntax.BigNumeral(k))
        instances.append(call("models.is_true", models.is_true, interp, inst, mode))
    return image, universal, instances


def check_chain(inp, out, counts):
    image, universal, instances = out
    m, form, var, mode = inp["model"], inp["form"], inp["var"], inp["mode"]
    counts["syntax.input_nodes"] += len(instances) * forms.nodes(form)
    if list(image) != reference.numeral_image(m):
        return "numeral image differs"
    closed = ("all", var, form)
    if universal is not reference.is_true(m, closed, mode, forms.free_vars(closed)):
        return "universal truth differs"
    for k, got in enumerate(instances):
        inst = forms.substitute(form, var, ("num", k))
        if got is not reference.is_true(m, inst, mode, forms.free_vars(inst)):
            return f"numeral instance {k} differs"
    return None


def run_represent(lab, call, inp):
    primrec = lab.primrec
    rep = call("primrec.represent", primrec.represent, inp["func"])
    text = call("syntax.to_text", lab.syntax.to_text, rep.formula)
    return rep, text, call("primrec.eval_pr", primrec.eval_pr, inp["func"], inp["args"])


def check_represent(inp, out, counts):
    rep, _, value = out
    n = len(inp["args"])
    if rep.inputs != tuple(range(1, n + 1)) or rep.output != n + 1:
        return "representation variable layout"
    if not forms.free_vars(forms.from_tree(rep.formula)) <= set(range(1, n + 2)):
        return "representing formula has a stray free variable"
    if value != reference.pr_value(inp["desc"], inp["args"]):
        return "eval_pr differs from Python arithmetic"
    return None


def run_check_repr(lab, call, inp):
    primrec = lab.primrec
    value = call("primrec.eval_pr", primrec.eval_pr, inp["func"], inp["args"])
    verdict = call("primrec.check_representation", primrec.check_representation,
                   inp["func"], inp["args"])
    return value, verdict


def check_check_repr(inp, out, counts):
    value, verdict = out
    counts["primrec.checked"] += 1
    counts["primrec.unknown"] += verdict.verdict == "unknown"
    if value != reference.pr_value(inp["desc"], inp["args"]):
        return "eval_pr differs from Python arithmetic"
    return None if verdict.verdict == "confirmed" else f"check_representation: {verdict}"


def run_diag(lab, call, inp):
    coding = inp["coding"]
    try:
        diag = call("diagonal.diagonalize", lab.diagonal.diagonalize, inp["tree"], 2,
                    lab.cfg[coding])
    except lab.godel.InfeasibleMagnitudeError:
        return REFUSED, None
    if diag.sentence_code is None:
        return diag, None
    return diag, _encode(lab, call, coding, diag.sentence)


def check_diag(inp, out, counts):
    diag, tree_route = out
    form, coding = inp["form"], inp["coding"]
    q = _ref(reference.encode, form, coding)
    p = _ref(reference.encode, ("all", 1, form), coding)
    if REFUSED in (q, p):
        return None if diag == REFUSED else "diagonalize ignored the guard"
    if diag == REFUSED or (diag.q, diag.p) != (q, p):
        return "q or p differs from the reference"
    _count_codes(counts, diag.q, diag.p, tree_route)
    kernel = forms.substitute(form, 2, ("num", p))
    sentence = ("all", 1, kernel)
    if not forms.same(forms.from_tree(diag.sentence), sentence):
        return "diagonal sentence differs"
    # the code route needs the codes of num(p), the kernel and the sentence
    routes = (_ref(reference.encode_numeral, p, coding), _ref(reference.encode, kernel, coding),
              _ref(reference.encode, sentence, coding))
    if REFUSED in routes:
        symbolic = diag.sentence_code is None and diag.r is None
        return None if symbolic else "guarded codes not symbolic"
    if diag.r != routes[1]:
        return "kernel code differs from the reference"
    if diag.sentence_code == tree_route == routes[2]:
        return None
    return "sentence_code != encode(sentence)"


def run_lemma2(lab, call, inp):
    return call("diagonal.lemma2_shape_check", lab.diagonal.lemma2_shape_check,
                inp["tree"], 3, 2, lab.cfg[inp["coding"]])


def check_lemma2(inp, out, counts):
    return None if out.ok else f"lemma2 shape check failed:\n{out}"


def run_cli(lab, call, inp):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = call("cli.main", lab.cli.main, inp["argv"])
        except SystemExit as stop:  # argparse rejected the arguments
            code = ("exit", stop.code)
    return code, buffer.getvalue()


def check_cli(inp, out, counts):
    return None if out == (0, inp["expected"]) else f"cli.main {inp['argv'][0]} gave {out!r}"


def _tree(lab, form):
    return forms.to_tree(lab.syntax, form)


def _prime(i: int) -> bool:
    return reference.CODINGS[i % 4].endswith("prime")


def _with_model(lab, rng, inp: dict) -> dict:
    m = gen.model(rng, rng.choice((2, 3)))
    inp.update(model=m, interp=lab.models.Interpretation(*m))
    return inp


def make_parse_print(lab, rng, i):
    form = gen.formula(rng, rng.randint(1, 5), max_var=4, big_share=0.1)
    return {"form": form, "text": forms.text(form)}


def make_codec(lab, rng, i):
    # the prime codings get small inputs, or nearly all would be refused
    if _prime(i):
        if i % 8 < 4:
            form = gen.term(rng, rng.randint(0, 2))
        else:
            form = gen.formula(rng, rng.randint(0, 1))
    else:
        form = gen.formula(rng, rng.randint(0, 4), big_share=0.2)
    return {"coding": reference.CODINGS[i % 4], "form": form, "tree": _tree(lab, form)}


def make_meta_num(lab, rng, i):
    n = rng.randint(0, 8) if _prime(i) else gen.numeral(rng, big_share=0.5)
    return {"coding": reference.CODINGS[i % 4], "n": n, "tree": lab.syntax.BigNumeral(n)}


def make_meta_neg(lab, rng, i):
    form = gen.formula(rng, rng.randint(0, 1 if _prime(i) else 3))
    return {"coding": reference.CODINGS[i % 4], "form": form, "tree": _tree(lab, form),
            "neg_tree": _tree(lab, ("~", form))}


def make_meta_sub(lab, rng, i):
    coding = reference.CODINGS[i % 4]
    f = gen.formula(rng, rng.randint(1, 3))
    t = gen.term(rng, rng.randint(0, 2))
    var = rng.randint(1, 3)
    return {"coding": coding, "f": f, "t": t, "var": var, "f_tree": _tree(lab, f),
            "t_tree": _tree(lab, t), "var_code": reference.variable_code(var, coding)}


def make_evaluation(lab, rng, i):
    """A fresh formula in a fresh size-2 or size-3 model, modes alternating."""
    form = gen.formula(rng, rng.randint(2, 4))
    return _with_model(lab, rng, {"form": form, "tree": _tree(lab, form),
                                  "mode": lab.models.MODES[i % 2]})


def make_chain(lab, rng, i):
    var, form = rng.randint(1, 2), gen.formula(rng, rng.randint(2, 4), max_var=2)
    return _with_model(lab, rng, {"form": form, "tree": _tree(lab, form), "var": var,
                                  "forall_tree": _tree(lab, ("all", var, form)),
                                  "mode": lab.models.MODES[i % 2]})


def make_represent(lab, rng, i):
    """A catalog function, or one composed with catalog functions and
    projections, at small arguments."""
    names = list(reference.CATALOG)
    outer = rng.choice(names)
    if rng.random() < 0.4:
        desc, arity = ("cat", outer), reference.CATALOG[outer][0]
    else:
        arity = rng.choice((1, 2))
        fits = [n for n in names if reference.CATALOG[n][0] == arity]
        desc = ("comp", ("cat", outer), tuple(
            ("proj", arity, rng.randint(1, arity)) if rng.random() < 0.5
            else ("cat", rng.choice(fits))
            for _ in range(reference.CATALOG[outer][0])))
    args = tuple(rng.randint(0, 4) for _ in range(arity))
    return {"desc": desc, "args": args, "func": _pr_func(lab.primrec, desc)}


# every catalog function at every argument tuple in 0..3 (predecessor needs
# beta coefficients past the 10**6 ceiling from 5 on)
CHECK_REPR_CASES = tuple((name, args) for name, (arity, _) in reference.CATALOG.items()
                         for args in itertools.product(range(4), repeat=arity))


def make_check_repr(lab, rng, i):
    """The i-th catalog function and arguments: a round checks each case
    once, since the cost of a check ranges from 1 to 140 ms over them."""
    name, args = CHECK_REPR_CASES[i]
    desc = ("cat", name)
    return {"desc": desc, "args": args, "func": _pr_func(lab.primrec, desc)}


def make_diag(lab, rng, i, coding=None):
    """A formula with free variables among x1, x2 (x3 may be bound)."""
    coding = coding or reference.CODINGS[i % 4]
    form = gen.formula(rng, rng.randint(0, 1 if coding.endswith("prime") else 3),
                       max_var=2, bind_var=3)
    return {"coding": coding, "form": form, "tree": _tree(lab, form)}


def make_lemma2(lab, rng, i):
    return make_diag(lab, rng, i, coding=("mendelson-pairing", "compact-pairing")[i % 2])


def make_cli(lab, rng, i):
    form = gen.formula(rng, rng.randint(1, 3))
    scheme = ("mendelson", "compact")[i % 2]
    if i % 3 == 0:
        argv, expected = ["parse", forms.text(form)], forms.text(form)
    elif i % 3 == 1:
        argv = ["encode", forms.text(form), "--scheme", scheme, "--seq", "pair"]
        expected = str(reference.encode(form, f"{scheme}-pairing"))
    else:
        n = gen.numeral(rng, big_share=0.5)
        argv = ["num", str(n), "--scheme", scheme, "--seq", "pair"]
        expected = str(reference.encode_numeral(n, f"{scheme}-pairing"))
    return {"argv": argv, "expected": expected + "\n"}


def _pr_func(primrec, desc):
    if desc[0] == "cat":
        return primrec.CATALOG[desc[1]]
    if desc[0] == "proj":
        return primrec.Proj(desc[1], desc[2])
    return primrec.Comp(_pr_func(primrec, desc[1]), tuple(_pr_func(primrec, g) for g in desc[2]))


# The mix is synthetic: there is no record of real queries to weigh it by.
# Its rule is an equal job share: each kind of query (one per CLI entry
# point: parse, encode/decode, num, neg, sub, eval in either mode, restrict,
# chain, represent, represent with a check, diag, the lemma 2 check, and
# cli.main itself) gets JOBS_PER_KIND fresh inputs a round.  That count is
# the number of check_representation cases, so every round does the same
# check work; the other kinds cycle through their codings or modes.  A run
# reports each kind's measured share of job time (kind_time_share).
SESSION_KINDS = (
    ("parse_print", make_parse_print, run_parse_print, check_parse_print),
    ("codec", make_codec, run_codec, check_codec),
    ("meta_num", make_meta_num, run_meta_num, check_meta_num),
    ("meta_neg", make_meta_neg, run_meta_neg, check_meta_neg),
    ("meta_sub", make_meta_sub, run_meta_sub, check_meta_sub),
    ("is_true", make_evaluation, run_is_true, check_is_true),
    ("restrict", make_evaluation, run_restrict, check_restrict),
    ("chain", make_chain, run_chain, check_chain),
    ("represent", make_represent, run_represent, check_represent),
    ("check_repr", make_check_repr, run_check_repr, check_check_repr),
    ("diag", make_diag, run_diag, check_diag),
    ("lemma2", make_lemma2, run_lemma2, check_lemma2),
    ("cli", make_cli, run_cli, check_cli),
)
JOBS_PER_KIND = len(CHECK_REPR_CASES)
# sums nested past the parser's recursion limit, run beside the jobs
DEEP_PROBES = 4


def session_round(lab, rng, call):
    jobs = [Job(kind, run, check, make(lab, rng, i))
            for kind, make, run, check in SESSION_KINDS for i in range(JOBS_PER_KIND)]
    rng.shuffle(jobs)
    return jobs, [gen.deep_sum_text(rng.randint(600, 900)) for _ in range(DEEP_PROBES)]


def run_probe(lab, text: str) -> str:
    """Outcome of a deep-nesting probe: "ok" or the exception class name."""
    try:
        return "ok" if lab.syntax.to_text(lab.syntax.parse(text)) == text else "WrongVerdict"
    except Exception as exc:  # the defect under watch is RecursionError
        return type(exc).__name__


ROUNDS = {"proofs": proofs_round, "lawhunt": lawhunt_round, "session": session_round}
# workloads whose every round reruns the first round's inputs, in a new order
REPEATING = ("proofs", "lawhunt")


def build_round(workload: str, lab, seed: int, index: int, call, previous=None):
    """Jobs and probes of round index, ordered (and for session drawn) by a
    generator seeded by the workload, the seed and the round alone."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if previous is not None and workload in REPEATING:
        jobs = list(previous[0])
        rng.shuffle(jobs)
        return jobs, previous[1]
    return ROUNDS[workload](lab, rng, call)
