"""arithlab against the benchmark's own implementation, verdict by verdict.

perfbench/workloads.py draws seeded jobs over every library entry point
and checks each output against perfbench's forms.py and reference.py,
which share no code with arithlab.  These tests run two session rounds
and the proofs jobs on proofs of at most 60 lines through it.  perfbench
is only put on the import path; none of its files is changed.
"""

import collections
import os
import sys
import types

import pytest

from arithlab import cli, corpus, diagonal, godel, models, primrec, proofs, syntax

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the modules this process already imported, so the exception classes the
# jobs raise and catch are the ones every other test sees
LAB = types.SimpleNamespace(
    syntax=syntax, proofs=proofs, corpus=corpus, godel=godel, primrec=primrec,
    diagonal=diagonal, models=models, cli=cli,
    cfg={c: godel.NumberingConfig(*c.split("-")) for c in reference.CODINGS},
)


def _wrong_verdicts(jobs) -> list[str]:
    counts = collections.Counter()
    wrong = []
    for job in jobs:
        problem = job.check(job.inp, job.run(LAB, spans.untraced, job.inp), counts)
        if problem is not None:
            wrong.append(f"{job.kind}: {problem}")
    return wrong


@pytest.mark.parametrize("seed", [1, 2])
def test_session_round_matches_the_reference(seed):
    jobs, probes = workloads.build_round("session", LAB, seed, 0, spans.untraced)
    assert len(jobs) == 676
    assert _wrong_verdicts(jobs) == []
    assert {workloads.run_probe(LAB, text) for text in probes} == {"ok"}


def test_short_proofs_match_the_reference():
    jobs, _ = workloads.build_round("proofs", LAB, 1, 0, spans.untraced)
    short = [job for job in jobs if len(job.inp["proof"].lines) <= 60]
    assert len(short) == 20
    assert _wrong_verdicts(short) == []
