"""Measurement, output checks and tracing for the benchmark (see run.py).

Importing this module imports the package, so run.py puts the checkout's
``src`` on the path first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter, thread_time

import inputs
from circledepth import cli
from circledepth.depth import all_profiles
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRAJECTORY = Path(__file__).with_name("trajectory.json")
SETUPS_MIN = 3
SETUPS_MAX = 30
SETUP_BUDGET_S = 2.0
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150
PROBE_INTERVAL_S = 0.3
MIN_STEP_S = 1.5
PROBE_LOOPS = 200_000
# The probe's time at the host speed adjusted times refer to (a median
# reading on a 2-CPU cloud host running CPython 3.11).
REF_PROBE_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_jobs2_s": "s",
    "job_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed beside the end-to-end metrics but not part of the JSON result:
# verify and generate run on some workloads only, and error_rate reads 0
# whenever the program is correct.
EXTRA = {"verify_s": "s", "generate_s": "s", "error_rate": "ratio"}

CHECK_NAMES = [
    "triple-pair-sum",
    "weight-census",
    "minimax-bound",
    "enclosure-count-bounds",
    "region-count-sum",
    "cumulative-kset-bound",
    "bichromatic-census",
    "profile-invariants",
    "oracle-match",
]
PER_LAYER = {
    "pointfile.parse_s": "s",
    "geom.certify_s": "s",
    "geom.grid_bits": "bits",
    "depth.sweep_s": "s",
    "depth.sweep_jobs2_s": "s",
    "depth.sweep_peak_mib": "MiB",
    "depth.events": "count",
    "depth.sweeps_per_pair": "ratio",
    "depth.triple_counts_s": "s",
    "depth.incircle_evals": "count",
    "depth.j_edges_s": "s",
    "depth.census_s": "s",
    "depth.extremal_s": "s",
    "depth.bichromatic_s": "s",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "checks.sweeps_per_pair": "ratio",
    "checks.triple_counts_calls": "count",
    "checks.oracle_pairs": "count",
    "report.analysis_s": "s",
    "report.analysis_self_s": "s",
    "report.render_json_s": "s",
    "constructions.two_colored_convex_s": "s",
    "constructions.claims_s": "s",
    "constructions.layouts_tried": "count",
    "constructions.accept_ratio": "ratio",
    "cli.import_s": "s",
    "trace.analyze_overhead_s": "s",
}


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float  # user + system time of the child and the workers it reaped
    maxrss_mib: float
    stdout: bytes


def host_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed right now."""
    start = thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return thread_time() - start


# Runs in a small process of its own: a child's ru_maxrss counts the memory
# of the process that forked it, so children forked by the benchmark would
# report the benchmark's own size.  One request per line: argv, cwd, env,
# stdout path, CPUs for the child (or null) and a timeout; one reply per line:
# exit code, CPU seconds, ru_maxrss in KiB.
LAUNCHER = r"""
import json, os, select, subprocess, sys
for line in sys.stdin:
    argv, cwd, env, out_path, cpus, timeout = json.loads(line)
    mine = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd, env=env)
    finally:
        os.sched_setaffinity(0, mine)
    exited = os.pidfd_open(proc.pid)
    if not select.select([exited], [], [], timeout)[0]:
        proc.kill()
    os.close(exited)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = [proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
    print(json.dumps(reply), flush=True)
"""


class Launcher:
    """Starts CLI children one at a time from a small helper process.

    The helper inherits this process's CPU affinity.  ``run`` with ``probes``
    appends a host probe every ``PROBE_INTERVAL_S`` while the child runs.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.helper = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=workdir,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def run(self, args: list[str], cpus: set[int] | None = None, probes: list[float] | None = None) -> Child:
        """Run ``python args...``; with ``cpus`` the child may use those CPUs."""
        out_path = self.workdir / "child.stdout"
        request = [
            [sys.executable, *args],
            str(self.workdir),
            self.env,
            str(out_path),
            sorted(cpus) if cpus else None,
            CHILD_TIMEOUT_S,
        ]
        start = perf_counter()
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        while not select.select([self.helper.stdout], [], [], PROBE_INTERVAL_S)[0]:
            if probes is not None:
                probes.append(host_probe())
        reply = self.helper.stdout.readline()
        wall = perf_counter() - start
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        exit_code, cpu_s, maxrss_kib = json.loads(reply)
        return Child(exit_code, wall, cpu_s, maxrss_kib / 1024, out_path.read_bytes())


class HostClock:
    """Times adjusted for the host's speed while they were taken.

    A shared host's speed drifts by tens of percent within seconds, and CPU
    time drifts with it.  This process and every single-process child share
    one CPU, and host probes run before, during and after each timed call on
    that CPU.  A time is scaled by ``REF_PROBE_S`` over the median of those
    probes: it is the time the call would take on a host whose probe reads
    ``REF_PROBE_S``.  A single-process call is timed by its CPU time, which
    excludes the probes' share of the CPU; a child spread over all CPUs
    (``cpus``) by its wall time.
    """

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def _adjust(self, seconds: float, first_probe: int) -> float:
        self.probes.append(host_probe())
        return seconds * REF_PROBE_S / statistics.median(self.probes[first_probe:])

    def child(self, launcher: Launcher, args: list[str], cpus: set[int] | None = None):
        """(Child, adjusted seconds)."""
        first = len(self.probes) - 1
        child = launcher.run(args, cpus, self.probes)
        return child, self._adjust(child.wall_s if cpus else child.cpu_s, first)

    def call(self, fn):
        """(fn's result, wall seconds, adjusted seconds) for an in-process call."""
        first = len(self.probes) - 1
        wall, cpu = perf_counter(), thread_time()
        value = fn()
        wall, cpu = perf_counter() - wall, thread_time() - cpu
        return value, wall, self._adjust(cpu, first)


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    host_probe_s: list[float] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)  # the metrics job_s sums
    raw: dict[str, list[float]] = field(default_factory=dict)  # unadjusted wall times

    def add(self, metric: str, *values: float) -> None:
        self.samples.setdefault(metric, []).extend(values)

    def add_timed(self, metric: str, wall: float, adjusted: float) -> None:
        self.add(metric, adjusted)
        self.raw.setdefault(metric, []).append(wall)

    def raw_value(self, metric: str) -> float | None:
        if metric == "job_s":
            return sum(statistics.median(self.raw[step]) for step in self.steps)
        return statistics.median(self.raw[metric]) if metric in self.raw else None

    def judge(self, label: str, problems: list[str]) -> None:
        """Count one attempted operation, failed when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def value(self, metric: str) -> float:
        if metric == "error_rate":
            return self.failed / self.attempted
        if metric == "job_s":
            return sum(self.value(step) for step in self.steps)
        if metric == "peak_rss_mib":
            return max(self.samples[metric])
        return statistics.median(self.samples[metric])

    def count(self, metric: str) -> int:
        """Sample count behind a metric's value."""
        if metric == "error_rate":
            return self.attempted
        if metric == "job_s":
            return min(len(self.samples[step]) for step in self.steps)
        return len(self.samples.get(metric, []))

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def metric_names(self) -> dict[str, str]:
        if self.traced:
            return PER_LAYER
        shown = {k: u for k, u in EXTRA.items() if k in self.samples or k == "error_rate"}
        return {**END_TO_END, **shown}

    def lines(self) -> list[str]:
        out = [
            f"# workload {self.workload} seed {self.seed} "
            f"{'traced in process' if self.traced else 'CLI children, tracing off'}",
            "# host_probe_s start {start:.5f} end {end:.5f} median {median:.5f} over {count} "
            "probes (context, not a metric)".format(**probe_summary(self.host_probe_s)),
        ]
        for name, unit in self.metric_names().items():
            line = f"{name:36s} {self.value(name):>14.6g} {unit:6s} samples={self.count(name)}"
            raw = self.raw_value(name)
            if raw is not None:
                line += f"  (unadjusted wall {raw:.6g} s)"
            out.append(line)
        out.extend(f"! {p}" for p in self.problems)
        return out

    def summary(self) -> dict:
        names = PER_LAYER if self.traced else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.value(name), "unit": unit} for name, unit in names.items()
            },
        }


class Expectations:
    """Checks one output against independent laws, the first output of its
    kind (repetitions and --jobs must give the same bytes) and, where one
    is recorded, a digest."""

    def __init__(self, workload, seed: int, made: inputs.Inputs):
        self.inputs = made
        self.digests = inputs.load_digests().get(inputs.digest_key(workload, seed), {})
        self.first: dict[str, bytes] = {}

    def problems(self, kind: str, exit_code: int, output: bytes) -> list[str]:
        found = []
        if exit_code != 0:
            found.append(f"exit code {exit_code}")
        if kind == "analyze":
            found += inputs.analyze_problems(output, self.inputs)
        elif kind == "verify":
            found += inputs.verify_problems(output, self.inputs)
        elif kind == "generate" and output != self.inputs.generated:
            found.append("generate wrote other bytes than the construction")
        first = self.first.setdefault(kind, output)
        if output != first:
            found.append(f"{kind} bytes differ from the first {kind} output of this run")
        want = self.digests.get(kind)
        if want is not None and inputs.sha256(output) != want:
            found.append(f"{kind} sha256 differs from the recorded digest")
        return found


def job(workload, workdir: Path) -> list[tuple[str, str, list[str], Path | None]]:
    """(metric, output kind, CLI arguments, output file or None for stdout)."""
    point_file = str(workdir / "input.txt")
    steps = []
    if workload.kind == "colored":
        out = workdir / "generated.txt"
        args = ["generate", "two-colored-convex", "--n", str(workload.n), "--output", str(out)]
        steps.append(("generate_s", "generate", args, out))
    steps.append(("analyze_s", "analyze", ["analyze", point_file, "--jobs", "1"], None))
    steps.append(("analyze_jobs2_s", "analyze", ["analyze", point_file, "--jobs", "2"], None))
    if workload.verify:
        steps.append(("verify_s", "verify", ["verify", point_file], None))
    return steps


def set_up(workload, seed: int, workdir: Path) -> inputs.Inputs:
    made = inputs.make_inputs(workload, seed)
    (workdir / "input.txt").write_bytes(made.text)
    return made


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> Result:
    # The probes and every single-process child share one CPU, so that a
    # probe measures the speed of the CPU the child ran on; `--jobs 2`
    # children get every CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with Launcher(workdir) as launcher:
            return _measure(launcher, workload, seed, seconds, workdir, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(launcher, workload, seed, seconds, workdir, cpus) -> Result:
    result = Result(workload.name, seed, traced=False)
    # Writes the bytecode caches, so that no timed child compiles the package.
    launcher.run(["-c", "import circledepth.cli"])
    clock = HostClock()
    setup_start = perf_counter()
    while True:
        made, wall, adjusted = clock.call(lambda: set_up(workload, seed, workdir))
        result.add_timed("setup_s", wall, adjusted)
        count = len(result.samples["setup_s"])
        elapsed = perf_counter() - setup_start
        if count >= SETUPS_MAX or (count >= SETUPS_MIN and elapsed >= SETUP_BUDGET_S):
            break
    expect = Expectations(workload, seed, made)
    steps = job(workload, workdir)
    result.steps = [metric for metric, *_ in steps]
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        for metric, kind, args, out in steps:
            spread = cpus if metric == "analyze_jobs2_s" else None
            # A short step runs several times, so that its median rests on
            # more samples than the repetitions a long step leaves room for.
            step_start = perf_counter()
            while True:
                child, adjusted = clock.child(launcher, ["-m", "circledepth", *args], spread)
                result.add_timed(metric, child.wall_s, adjusted)
                result.add("peak_rss_mib", child.maxrss_mib)
                output = child.stdout if out is None else out.read_bytes()
                result.judge(metric, expect.problems(kind, child.exit_code, output))
                if perf_counter() - step_start >= MIN_STEP_S:
                    break
        # Stop rather than overrun the deadline by more than half a repetition.
        if perf_counter() + (perf_counter() - start) / 2 >= deadline:
            break
    result.host_probe_s = clock.probes
    return result


def run_traced(workload, seed: int, workdir: Path) -> Result:
    result = Result(workload.name, seed, traced=True)
    made = set_up(workload, seed, workdir)
    expect = Expectations(workload, seed, made)
    point_file = str(workdir / "input.txt")
    n = len(made.points)
    pairs = math.comb(n, 2)
    result.host_probe_s.append(host_probe())

    def in_process(argv: list[str]) -> tuple[int, float]:
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return code, perf_counter() - start

    untraced_out = workdir / "analyze-untraced.json"
    code, untraced_s = in_process(["analyze", point_file, "--output", str(untraced_out)])
    result.judge("analyze (untraced)", expect.problems("analyze", code, untraced_out.read_bytes()))

    tracer = Tracer()
    phase: dict[str, Counter] = {}
    with tracer.installed():
        for metric, kind, args, out in job(workload, workdir):
            if metric == "analyze_jobs2_s":
                continue  # worker processes are outside the tracer; timed below
            if out is None:
                out = workdir / f"{kind}.out"
                args = [*args, "--output", str(out)]
            before = tracer.counts.copy()
            code, wall = in_process(args)
            phase[kind] = tracer.counts - before
            if kind == "analyze":
                traced_s = wall
            result.judge(f"{kind} (traced)", expect.problems(kind, code, out.read_bytes()))

    start = perf_counter()
    all_profiles(made.points, jobs=2)
    result.add("depth.sweep_jobs2_s", perf_counter() - start)
    tracemalloc.start()
    try:
        all_profiles(made.points)
        result.add("depth.sweep_peak_mib", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    with Launcher(workdir) as launcher:
        for _ in range(IMPORT_SAMPLES):
            result.add("cli.import_s", launcher.run(["-c", "import circledepth.cli"]).wall_s)

    busy = {
        "pointfile.parse_s": "pointfile.parse",
        "geom.certify_s": "geom.certify",
        "depth.sweep_s": "depth.sweep",
        "depth.triple_counts_s": "depth.triple_counts",
        "depth.j_edges_s": "depth.j_edges",
        "depth.census_s": "depth.census",
        "depth.extremal_s": "depth.extremal",
        "depth.bichromatic_s": "depth.bichromatic",
        **{f"checks.{name}_s": f"checks.{name}" for name in CHECK_NAMES},
        "report.analysis_s": "report.analysis",
        "report.render_json_s": "report.render_json",
        "constructions.two_colored_convex_s": "constructions.two_colored_convex",
        "constructions.claims_s": "constructions.claims",
    }
    for metric, span in busy.items():
        result.add(metric, tracer.busy(span))
    analyses = tracer.indices("report.analysis")
    result.add(
        "report.analysis_self_s",
        sum(tracer.spans[i].duration - tracer.children_time(i) for i in analyses),
    )
    analysis = phase.get("analyze", Counter())
    checking = phase.get("verify", Counter())
    result.add("geom.grid_bits", inputs.grid_bits(made.points))
    result.add("depth.events", analysis["events"])
    result.add("depth.sweeps_per_pair", analysis["weight_sequence"] / pairs)
    result.add("depth.incircle_evals", analysis["incircle"])
    result.add("checks.sweeps_per_pair", checking["weight_sequence"] / pairs)
    result.add("checks.triple_counts_calls", tracer.calls_within("depth.triple_counts", "checks.run"))
    result.add("checks.oracle_pairs", checking["oracle_weights"])
    tried = tracer.counts["layouts_tried"]
    certified = tracer.counts["layouts_certified"]
    accepted = len(tracer.indices("constructions.two_colored_convex"))
    result.add("constructions.layouts_tried", tried)
    result.add("constructions.accept_ratio", accepted / certified if certified else 0.0)
    result.add("trace.analyze_overhead_s", traced_s - untraced_s)

    # Structural counts against closed forms, per call of the layer counted.
    analysis_tables = tracer.calls_within("depth.triple_counts", "report.analysis")
    laws = [
        ("depth.events", analysis["events"], pairs * (n - 2) * analysis["sweeps"]),
        (
            "depth.incircle_evals",
            analysis["incircle"],
            math.comb(n, 3) * (n - 3) * analysis_tables,
        ),
        (
            "checks.oracle_pairs",
            checking["oracle_weights"],
            pairs * len(tracer.indices("checks.oracle-match")),
        ),
    ]
    found = [f"{name} = {got}, closed form gives {want}" for name, got, want in laws if got != want]
    for i in analyses:
        if tracer.spans[i].duration < tracer.children_time(i):
            found.append("report.analysis span is shorter than its child spans")
    result.judge("trace self-check", found)
    result.host_probe_s.append(host_probe())
    return result


def run_workload(workload, seed: int, seconds: float, traced: bool) -> Result:
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            return run_traced(workload, seed, workdir)
        return run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_summary(probes: list[float]) -> dict:
    return {
        "start": probes[0],
        "end": probes[-1],
        "median": statistics.median(probes),
        "count": len(probes),
    }


def record(label: str, seed: int, seconds: float, results: list[Result]) -> None:
    entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    workloads = {}
    notes = []
    for res in results:
        section = "per_layer" if res.traced else "end_to_end"
        entry = workloads.setdefault(res.workload, {})
        entry[section] = {
            name: {"value": res.value(name), "unit": unit, "samples": res.count(name)}
            for name, unit in res.metric_names().items()
            if name != "error_rate"
        }
        if not res.traced:
            entry["unadjusted_wall_s"] = {
                name: res.raw_value(name) for name in res.metric_names() if res.raw_value(name)
            }
            entry["host_probe_s"] = probe_summary(res.host_probe_s)
            entry["attempted"] = res.attempted
            entry["failed"] = res.failed
            entry["error_rate"] = res.value("error_rate")
            j1, j2 = res.value("analyze_s"), res.value("analyze_jobs2_s")
            if j2 > j1:
                notes.append(f"{res.workload}: analyze_jobs2_s {j2:.3f} s > analyze_s {j1:.3f} s")
    entries.append(
        {
            "label": label,
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "host": f"{platform.python_implementation()} {platform.python_version()}, "
            f"{os.cpu_count()} CPUs",
            "seed": seed,
            "seconds": seconds,
            "workloads": workloads,
            "notes": notes,
        }
    )
    TRAJECTORY.write_text(json.dumps(entries, indent=2) + "\n")
