"""arithlab benchmark: time to verdict on the proofs, lawhunt and session workloads.

    python3 perfbench/run.py --workload proofs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; arithlab is imported from ./src and
nothing else.  One client runs jobs back to back in this one process (a
closed loop, no threads), in whole rounds of the workload's job list, until
the jobs have taken --seconds in total.  Every verdict is checked by the
benchmark's own route after the job's clock stops.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics, per
traced round.  The last line of standard output is the JSON result;
results/ keeps a fuller copy with the machine fingerprint and the input
profile, and the spans of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import array
import bisect
import collections
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types

import gauge
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("syntax", "proofs", "corpus", "godel", "primrec", "diagonal", "models", "cli")

SETUP_SAMPLES, CLI_SAMPLES = 20, 24  # cold-path samples per run
GAUGE_STEP = 0.1  # seconds of job time between gauge samples
WINDOW = 0.25  # least seconds of job time on each side of a job whose samples scale it
BRACKET = 3  # gauge runs on each side of a cold-path sample

COUNTS = ("syntax.input_nodes", "proofs.lines_checked", "godel.code_bits",
          "models.interpretations_examined", "models.violations")
SHARES = {
    "proofs.rejected_share": ("proofs.rejected", "proofs.checked"),
    "godel.guard_refused_share": ("godel.refused", "godel.coded"),
    "primrec.unknown_share": ("primrec.unknown", "primrec.checked"),
    "models.restrict.refused_share": ("models.restrict.refused", "models.restrict.calls"),
    "syntax.parse.deep_probe_failed_share": ("probes.failed", "probes.run"),
}


def _arithlab_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "arithlab" or n.startswith("arithlab.")}


def load_lab() -> types.SimpleNamespace:
    """A cold import of every arithlab module, as a fresh interpreter has it."""
    for name in _arithlab_modules():
        del sys.modules[name]
    lab = types.SimpleNamespace(
        **{name: importlib.import_module(f"arithlab.{name}") for name in MODULES}
    )
    lab.cfg = {c: lab.godel.NumberingConfig(*c.split("-")) for c in workloads.reference.CODINGS}
    return lab


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.probes: dict[str, int] = {}


def rank(ordered, q: float) -> float:
    """The nearest-rank q-quantile of an ordered sequence."""
    return ordered[math.ceil(q * len(ordered)) - 1]


def round_figures(times) -> tuple[float, float, float]:
    """jobs/s, p50 ms and p90 ms of one round's job times."""
    ordered = sorted(times)
    return len(ordered) / sum(ordered), 1e3 * rank(ordered, 0.5), 1e3 * rank(ordered, 0.9)


def gauged(fn, *args):
    """fn(*args) and the time scale of that moment: gauge.REFERENCE_S over
    the mean of BRACKET gauge runs on each side of the call."""
    gauges = [gauge.run() for _ in range(BRACKET)]
    out = fn(*args)
    gauges += [gauge.run() for _ in range(BRACKET)]
    return out, gauge.REFERENCE_S / statistics.mean(gauges)


class Mode:
    """One way to run rounds: how a job is executed and how a round's inputs
    are built, with the job times, per-round figures and counts it produced."""

    def __init__(self, execute, build_call) -> None:
        self.execute, self.build_call = execute, build_call
        self.times = array.array("d")  # as measured, 8 bytes a job
        self.rounds: list[tuple[float, float, float]] = []  # as measured
        self.scaled_rounds: list[tuple[float, float, float]] = []
        self.kind_seconds = collections.Counter()
        self.counts = collections.Counter()

    def figures(self, scaled: bool = True) -> tuple[float, float, float]:
        """jobs/s, p50 ms and p90 ms: the median over the rounds of each
        round's figure, from its time-scaled job times (see Rounds) or as
        measured."""
        rows = self.scaled_rounds if scaled else self.rounds
        return tuple(statistics.median(column) for column in zip(*rows))

    def kind_time_share(self) -> dict[str, float]:
        total = sum(self.kind_seconds.values())
        return {kind: seconds / total for kind, seconds in sorted(self.kind_seconds.items())}


class Rounds:
    """Whole rounds of a workload's jobs, taking the modes in turn.

    A gauge sample is taken before a round's first job, after its last, and
    after any job that ends GAUGE_STEP or more of job time past the
    previous sample; each job's time is then scaled by the samples near it
    (see scale_times).  So a slow stretch of the host, which moves the job and
    the gauge alike, cancels even when it lasts less than a round."""

    def __init__(self, workload, lab, seed, first, modes, tally, profile) -> None:
        self.workload, self.lab, self.seed = workload, lab, seed
        self.jobs, self.probes = first
        self.modes, self.tally, self.profile = modes, tally, profile
        self.index = 0
        self.clock = 0.0  # job time so far
        self.gauge_mark = 0.0

    def run_one(self) -> None:
        mode = self.modes[self.index % len(self.modes)]
        if self.index:
            self.jobs, self.probes = workloads.build_round(
                self.workload, self.lab, self.seed, self.index, mode.build_call,
                (self.jobs, self.probes))
        tally = self.tally
        round_start = len(mode.times)
        gauges, marks = [gauge.run()], [self.clock]  # samples and their clock
        starts = []
        for job in self.jobs:
            starts.append(self.clock)
            tally.attempted += 1
            start = time.perf_counter()
            try:
                out = mode.execute(tally.attempted, job)
                error = None
            except Exception as exc:  # one failing job never stops the run
                error = type(exc).__name__
            seconds = time.perf_counter() - start
            mode.times.append(seconds)
            mode.kind_seconds[job.kind] += seconds
            self.clock += seconds
            if error is None:
                try:
                    problem = job.check(job.inp, out, mode.counts)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem is not None:
                    tally.wrong += 1
                    error = "WrongVerdict"
                    if len(tally.problems) < 10:
                        tally.problems.append(f"{job.kind}: {problem}")
            if error is not None:
                tally.failed += 1
                tally.failures[error] = tally.failures.get(error, 0) + 1
            if self.clock >= self.gauge_mark:
                gauges.append(gauge.run())
                marks.append(self.clock)
                self.gauge_mark = self.clock + GAUGE_STEP
        for text in self.probes:
            outcome = workloads.run_probe(self.lab, text)
            mode.counts["probes.run"] += 1
            mode.counts["probes.failed"] += outcome != "ok"
            tally.probes[outcome] = tally.probes.get(outcome, 0) + 1
        if marks[-1] < self.clock:
            gauges.append(gauge.run())
            marks.append(self.clock)
        self.profile.add_round(self.jobs)
        times = mode.times[round_start:]
        mode.rounds.append(round_figures(times))
        mode.scaled_rounds.append(round_figures(scale_times(times, starts, marks, gauges)))
        self.index += 1

    def run_until(self, seconds: float) -> None:
        """Rounds until the jobs of each mode have taken seconds / len(modes)
        on the clock, ending on a whole turn of the modes."""
        share = seconds / len(self.modes)
        while self.index % len(self.modes) or any(sum(m.times) < share for m in self.modes):
            self.run_one()


def scale_times(times, starts, marks, gauges) -> list[float]:
    """Each job time multiplied by gauge.REFERENCE_S over the mean of the
    gauge samples taken within max(WINDOW, the job's own time) of job time
    before it started or after it ended.  The host's slow stretches switch
    on and off within a second, and no sample falls inside a job, so a long
    job is scaled by a span as long as itself on each side.  A sample
    follows any job that ends GAUGE_STEP < WINDOW past the previous one,
    so every window holds one."""
    out = []
    for t, start in zip(times, starts):
        reach = max(WINDOW, t)
        near = gauges[bisect.bisect_left(marks, start - reach):
                      bisect.bisect_right(marks, start + t + reach)]
        out.append(t * gauge.REFERENCE_S * len(near) / sum(near))
    return out


def set_up(workload: str, seed: int, call=spans.untraced):
    """One set-up: a cold import of arithlab and the first round's inputs.
    Returns its time, the modules and the inputs."""
    gc.collect()
    start = time.perf_counter()
    lab = load_lab()
    first = workloads.build_round(workload, lab, seed, 0, call)
    return time.perf_counter() - start, lab, first


class ColdPath:
    """Samples of the costs a user pays on every fresh start: set-up in
    this process, and a `python -m arithlab.cli parse` subprocess.  Each is
    kept with the time scale of its moment (see gauged), and the figure is
    the median of the scaled samples."""

    def __init__(self, workload: str, seed: int, text: str) -> None:
        self.workload, self.seed, self.text = workload, seed, text
        self.setup_s: list[tuple[float, float]] = []  # (as measured, scale)
        self.cli_ms: list[tuple[float, float]] = []
        self.cli_ok = True

    def sample_setup(self) -> None:
        kept = _arithlab_modules()
        self.setup_s.append(gauged(lambda: set_up(self.workload, self.seed)[0]))
        for name in _arithlab_modules():
            del sys.modules[name]
        sys.modules.update(kept)  # the timed jobs' modules stay the live ones
        gc.collect()

    def sample_cli(self) -> None:
        self.cli_ms.append(gauged(self._cli_once))

    def _cli_once(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arithlab.cli", "parse", self.text],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = 1e3 * (time.perf_counter() - start)
        self.cli_ok &= proc.returncode == 0 and proc.stdout == self.text + "\n"
        return elapsed

    @staticmethod
    def figure(samples, scaled: bool = True) -> float:
        return statistics.median(value * k if scaled else value for value, k in samples)


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def per_layer(names, summary, counts, rounds, overhead) -> dict:
    out = {}
    for name in names:
        prefix, _, what = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = overhead
        elif name in SHARES:
            num, den = SHARES[name]
            value = counts[num] / counts[den] if counts[den] else 0.0
        elif what == "busy_ms":
            value = summary.busy_ms(prefix)
        elif what == "self_ms":
            value = summary.self_ms(prefix)
        elif what == "calls":
            value = summary.calls(prefix)
        elif name in COUNTS:
            value = counts[name] / rounds
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "arithlab", "__init__.py")):
        print(f"error: no arithlab sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_file):
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)

    tracer = spans.Tracer()
    tally = Tally()
    if args.trace == 0:
        cli_text = workloads.forms.text(workloads.gen.formula(random.Random(f"cli/{args.seed}"), 3))
        cold = ColdPath(args.workload, args.seed, cli_text)
        (setup_s, lab, first), k = gauged(set_up, args.workload, args.seed)
        cold.setup_s.append((setup_s, k))
    else:
        _, lab, first = set_up(args.workload, args.seed, tracer.call)
    if not os.path.abspath(lab.syntax.__file__).startswith(SRC + os.sep):
        print(f"error: arithlab imported from {lab.syntax.__file__}", file=sys.stderr)
        return 2
    gc.collect()

    profile = workloads.Profile(lab)
    plain = Mode(lambda _, job: job.run(lab, spans.untraced, job.inp), spans.untraced)

    if args.trace == 0:
        rounds = Rounds(args.workload, lab, args.seed, first, [plain], tally, profile)
        # peak RSS after a fixed amount of work, set-up and the first round,
        # so that it does not grow with the rounds a faster program completes
        rounds.run_one()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i in range(max(SETUP_SAMPLES, CLI_SAMPLES)):
            if i < SETUP_SAMPLES:
                cold.sample_setup()
            if i < CLI_SAMPLES:
                cold.sample_cli()
        rounds.run_until(args.seconds)
        cli_ok = cold.cli_ok
        unscaled = dict(zip(("jobs_per_s", "job_p50_ms", "job_p90_ms"), plain.figures(False)))
        values = dict(zip(("jobs_per_s", "job_p50_ms", "job_p90_ms"), plain.figures()))
        for name, samples in (("setup_s", cold.setup_s), ("cli_cold_ms", cold.cli_ms)):
            unscaled[name] = cold.figure(samples, False)
            values[name] = cold.figure(samples)
        values["peak_rss_mb"] = peak_rss_mb
        names, measured = spec["end_to_end"], plain
    else:
        # untraced and traced rounds alternate, so both see the same
        # conditions and the difference is the tracing overhead
        traced = Mode(lambda job_id, job: tracer.job(job_id, job.kind, job.run, lab,
                                                      tracer.call, job.inp), tracer.call)
        Rounds(args.workload, lab, args.seed, first, [plain, traced], tally,
               profile).run_until(args.seconds)
        cli_ok = True
        overhead = 1 - traced.figures()[0] / plain.figures()[0]
        count = len(traced.rounds)
        values = per_layer([m["name"] for m in spec["per_layer"]],
                           spans.Summary(tracer.spans, count), traced.counts, count, overhead)
        names, measured = spec["per_layer"], traced

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {
        "correct": tally.wrong == 0 and cli_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(),
        "timed_jobs": len(measured.times), "timed_rounds": len(measured.rounds),
        "kind_time_share": measured.kind_time_share(),
        "failures_by_class": tally.failures,
        "failed_frac": tally.failed / tally.attempted,
        "wrong_verdicts": tally.problems, "deep_probes": tally.probes,
        "input_profile": profile.summary(),
    }
    if args.trace == 0:
        context["cold_path_samples"] = {"setup_s": cold.setup_s, "cli_cold_ms": cold.cli_ms}
        context["time_scale"] = {"round_figures": plain.rounds,
                                 "scaled_round_figures": plain.scaled_rounds,
                                 "unscaled": unscaled}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "context": context}, handle, indent=1)
    if args.trace:
        tracer.write(os.path.join(results, stem + "-spans.json"))

    for problem in tally.problems:
        print(f"wrong verdict: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:14.4f} {metric['unit']}")
    print(f"jobs {len(measured.times)} timed in {len(measured.rounds)} rounds; "
          f"failed {tally.failed}/{tally.attempted} {tally.failures}; "
          f"deep-nesting probes {tally.probes}")
    print("context " + json.dumps({k: context[k] for k in
                                   ("fingerprint", "kind_time_share", "input_profile")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
