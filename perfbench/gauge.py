"""A fixed, arithlab-free workload that gauges how fast the machine runs
interpreted, allocation-heavy Python at the moment.

On a shared host the same work runs up to twice as slow for stretches of
seconds to minutes, whole runs included.  The gauge does the kind of work
arithlab does (small tuples built recursively, hashed and compared, dict
lookups, big integers) with the benchmark's own code on fixed inputs.  It
runs with the garbage collector off: a collection would walk every object
arithlab keeps alive (its caches included), and a change to arithlab could
then move the gauge.  A run takes a gauge sample every tenth of a second
of job time and scales each round's times by REFERENCE_S over the round's
mean gauge time; each cold-path sample is scaled by the gauge runs on
either side of it.
"""

from __future__ import annotations

import gc
import random
import time

import forms
import gen
import reference

_RNG = random.Random("gauge")
_INPUTS = [(gen.formula(_RNG, 3), gen.model(_RNG, 3)) for _ in range(60)]

# about the gauge's time between jobs on a 2-vCPU Intel Xeon with CPython
# 3.11 in a quiet stretch; it only sets the unit, so figures read as that
# machine's seconds
REFERENCE_S = 0.0025


def run() -> float:
    """Seconds the gauge takes once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for form, model in _INPUTS:
            reference.encode(form, "mendelson-pairing")
            forms.canon(form)
            reference.is_true(model, form, "standard", forms.free_vars(form))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
