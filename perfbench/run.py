"""Benchmark of the riley command line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``.  Workloads, metrics and the reasons for both are
in perfbench/README.md.

--trace 0 times whole CLI runs, each in a fresh process: it repeats the
workload's command(s) until --seconds have passed (at least three
samples) and reports medians, scaled to a reference speed (see
REF_NOMINAL_S).  --trace 1 repeats passes that run each command
untraced and under perfbench/traced.py, and reports the median
per-layer numbers of the traced runs.  Every run checks the
outputs.  The second-to-last line of stdout is one JSON object
{"samples": {metric: sample count}}; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
TMP_PARENT = Path(__file__).resolve().parent / ".bench_tmp"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 3
SETUP_PER_SAMPLE = 2
ORACLE_KNOTS = 8
ORACLE_THEOREM_RECORDS = 8

# Scan inputs: every canonical knot with odd p <= SCAN_PMAX (798 knots,
# enough for a p98 with ten samples beyond it).  The digest is the jsonl
# report written at this size by the commit that introduced the
# benchmark; reports are deterministic, so any later change to it is a
# change in results.
SCAN_PMAX = 99
SCAN_KNOTS = 798
SCAN_SHA256 = "cd67e225221674286040e93236ae9025178e614cbf370ee9f3caa9eae2174a68"
# Crosscheck inputs: the full grid of four families x m <= 7 x n <= 2
# (56 families, enough for a p80 with ten samples beyond it).
CROSS_MMAX, CROSS_NMAX = 7, 2
# Theorem sweep: theorem1 on its fixed grid, theorem2 at three seeded x0.
T1_MMAX, T1_NMAX = 5, 4
T2_MMAX, T2_NMAX = 4, 4
# One x0 per denominator keeps every seed's heights, and so its cost,
# comparable; x0 >= 2 keeps every theorem2 record certified.
T2_X0_DENOMINATORS = (1, 2, 3)
T2_X0_MAX = 4

FAMILIES = ("EE", "EN", "OE", "ON")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# The reference machine (a shared host) runs up to 1.5x slower for a
# minute or more at a time, longer than a run: see perfbench/README.md.
# So a run also times a fixed reference kernel for REF_WINDOW_S after
# every sample and its set-up starts, and reports each timing at the
# reference speed: seconds as measured x REF_NOMINAL_S / (mean seconds per
# kernel over the run).  A mean, because the kernel flips between a fast
# and a slow state many times a second, and its mean, like the workload's
# time, grows linearly with the share of time spent slow.  REF_NOMINAL_S
# is a constant, so the numbers stay close to seconds on the reference
# machine and compare across runs and commits; the run prints the numbers
# as measured next to them.
REF_TERMS = 3000
REF_NOMINAL_S = 0.018
REF_WINDOW_S = 0.5

# ---------------------------------------------------------------------------
# Children: one fresh process per CLI run, with its own rusage.
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "RILEY_JOBS"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = _child_env()


@dataclass
class Child:
    argv: list[str]
    code: int
    start: float  # time.monotonic() just before the spawn
    wall: float
    cpu: float  # user + sys of the child and every descendant it reaped
    rss_kb: int  # peak resident set of the child or any reaped descendant
    stdout: str
    stderr: str


def run_child(argv: list[str], log_dir: Path, deadline: float) -> Child:
    """Run argv to completion and reap it with os.wait4, so CPU time and
    peak RSS belong to this child alone (RUSAGE_CHILDREN would mix in
    every earlier child).  The child is killed at the deadline."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(
        argv=argv,
        code=code,
        start=start,
        wall=end - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def riley_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "riley", *args]


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work, like the package's own: a Fraction sum
    whose denominators grow to a few thousand bits.  It uses nothing from
    the package, so no change to the package moves it."""
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(i * i + 1, i + 3)
    return total


def time_reference(times: list[float]) -> None:
    """Run reference_kernel() for REF_WINDOW_S and append each run's
    seconds to times."""
    end = time.perf_counter() + REF_WINDOW_S
    while time.perf_counter() < end:
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Workloads and their correctness gates.
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    """Gate outcome of one command: items attempted and failed, plus the
    reported root counts the oracle may resample."""

    items: int
    failed: int
    counts: list[tuple[tuple, int]] = field(default_factory=list)


@dataclass
class Command:
    args: list[str]
    check: Callable[[int, str, Path], Checked]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_SCAN_SUMMARY = re.compile(r"^scanned (\d+) knots: (\d+) hold, (\d+) violations, (\d+) errors", re.M)
_KNOT = re.compile(r"^b\((\d+),(\d+)\)$")


def check_scan(code: int, stdout: str, out_dir: Path) -> Checked:
    """Exit 0, "N hold, 0 violations, 0 errors", and a report whose bytes
    match the pinned digest (so --jobs 2 matches --jobs 1 byte for byte).
    Any miss fails every knot of the run: the digest cannot say which."""
    report = out_dir / "report.jsonl"
    summary = _SCAN_SUMMARY.search(stdout)
    ok = (
        code == 0
        and summary is not None
        and summary.groups() == (str(SCAN_KNOTS), str(SCAN_KNOTS), "0", "0")
        and report.is_file()
        and _sha256(report) == SCAN_SHA256
    )
    if not ok:
        return Checked(SCAN_KNOTS, SCAN_KNOTS)
    counts = []
    for line in report.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        p, q = map(int, _KNOT.match(rec["knot"]).groups())
        counts.append((("knot", p, q), rec["real_roots"]))
    return Checked(SCAN_KNOTS, 0, counts)


def _family_label(family: str, m: int, n: int) -> str:
    k = 2 * m if family[0] == "E" else 2 * m + 1
    l = 2 * n if family[1] == "E" else -2 * n
    return f"J({k},{l})"


def check_crosscheck(code: int, stdout: str, out_dir: Path) -> Checked:
    """Exit 0 and one OK line per family of the grid."""
    expected = {
        f"OK {_family_label(f, m, n)}: closed form == matrix product"
        for f in FAMILIES
        for m in range(1, CROSS_MMAX + 1)
        for n in range(1, CROSS_NMAX + 1)
    }
    if code != 0:
        return Checked(len(expected), len(expected))
    return Checked(len(expected), len(expected - set(stdout.splitlines())))


_THEOREM_LINE = re.compile(
    r"^J\((\d+),(-?\d+)\) x0=(\S+) in-range expected (\S+) observed (\d+): holds$", re.M
)
_THEOREM_SUMMARY = re.compile(r"^(\d+) records, (\d+) hold, (\d+) fail \(0 certified\)$", re.M)


def _check_theorem(expected_records: int) -> Callable[[int, str, Path], Checked]:
    def check(code: int, stdout: str, out_dir: Path) -> Checked:
        """Exit 0, every record in range and holding, and a summary that
        agrees."""
        summary = _THEOREM_SUMMARY.search(stdout)
        total = str(expected_records)
        if code != 0 or summary is None or summary.groups() != (total, total, "0"):
            return Checked(expected_records, expected_records)
        counts = []
        for k, l, x0, _, observed in _THEOREM_LINE.findall(stdout):
            k, l = int(k), int(l)
            family = ("E" if k % 2 == 0 else "O") + ("E" if l > 0 else "N")
            counts.append((("theorem", family, k // 2, abs(l) // 2, x0), int(observed)))
        return Checked(expected_records, expected_records - len(counts), counts)

    return check


def theorem2_x0(seed: int) -> list[str]:
    """Seeded x0 list for theorem2: one rational a/b in [2, T2_X0_MAX] in
    lowest terms for each denominator b."""
    rng = random.Random(seed)
    out = []
    for b in T2_X0_DENOMINATORS:
        a = rng.choice([a for a in range(2 * b, T2_X0_MAX * b + 1) if math.gcd(a, b) == 1])
        out.append(str(Fraction(a, b)))
    return out


def scan_commands(jobs: int, seed: int, out_dir: Path) -> list[Command]:
    args = ["verify", "conjecture", "--pmax", str(SCAN_PMAX), "--jobs", str(jobs),
            "--out", str(out_dir / "report.jsonl")]
    return [Command(args, check_scan)]


def crosscheck_commands(seed: int, out_dir: Path) -> list[Command]:
    args = ["crosscheck", "--mmax", str(CROSS_MMAX), "--nmax", str(CROSS_NMAX)]
    return [Command(args, check_crosscheck)]


def theorem_commands(seed: int, out_dir: Path) -> list[Command]:
    x0 = theorem2_x0(seed)
    return [
        Command(["verify", "theorem1", "--mmax", str(T1_MMAX), "--nmax", str(T1_NMAX)],
                _check_theorem(2 * 2 * T1_MMAX * T1_NMAX)),
        Command(["verify", "theorem2", "--mmax", str(T2_MMAX), "--nmax", str(T2_NMAX),
                 "--x0", ",".join(x0)],
                _check_theorem(2 * len(x0) * T2_MMAX * T2_NMAX)),
    ]


@dataclass
class Workload:
    commands: Callable[[int, Path], list[Command]]
    jobs: int  # worker processes of a scan; 0 for the other commands
    unit: str  # what one item is


WORKLOADS = {
    "scan-serial": Workload(lambda seed, d: scan_commands(1, seed, d), 1, "knots"),
    "scan-jobs2": Workload(lambda seed, d: scan_commands(2, seed, d), 2, "knots"),
    "crosscheck": Workload(crosscheck_commands, 0, "families"),
    "theorem-sweep": Workload(theorem_commands, 0, "theorem records"),
}


# ---------------------------------------------------------------------------
# Untimed oracle: recount a seeded sample of reported root counts with
# sympy.
# ---------------------------------------------------------------------------


def oracle_mismatches(counts: list[tuple[tuple, int]], seed: int) -> list[str]:
    """Recount real roots of a seeded sample with sympy's Poly.count_roots.

    The polynomials come from the package (imported here, after every
    timed run); only the root counting is independent.  A root at y = 2
    is excluded, as the verifier does."""
    if not counts:
        return []
    sys.path.insert(0, str(SRC))
    import sympy
    from riley.rileypoly import riley_closed_form, riley_parabolic
    from riley.twobridge import DoubleTwist, KnotId

    rng = random.Random(seed)
    knots = [c for c in counts if c[0][0] == "knot"]
    records = [c for c in counts if c[0][0] == "theorem"]
    sample = rng.sample(knots, min(ORACLE_KNOTS, len(knots)))
    sample += rng.sample(records, min(ORACLE_THEOREM_RECORDS, len(records)))
    y = sympy.Symbol("y")
    bad = []
    for key, reported in sample:
        if key[0] == "knot":
            phi = riley_parabolic(KnotId(key[1], key[2]))
        else:
            _, family, m, n, x0 = key
            phi = riley_closed_form(DoubleTwist(family, m, n)).phi_xy.eval_x(Fraction(x0))
        poly = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(phi.coeffs)], y
        )
        recount = poly.count_roots() - (1 if poly.eval(2) == 0 else 0)
        if recount != reported:
            bad.append(f"{key}: reported {reported}, sympy counts {recount}")
    return bad


# ---------------------------------------------------------------------------
# Timed runs (--trace 0).
# ---------------------------------------------------------------------------


def gate(cmd: Command, child: Child, out_dir: Path) -> Checked:
    checked = cmd.check(child.code, child.stdout, out_dir)
    if checked.failed:
        sys.stderr.write(f"gate failed: {' '.join(child.argv[1:])} (exit {child.code})\n"
                         + child.stderr[-2000:])
    return checked


@dataclass
class Sample:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    items: int = 0
    failed: int = 0
    counts: list = field(default_factory=list)


def run_sample(commands: list[Command], out_dir: Path, deadline: float) -> Sample:
    sample = Sample()
    for cmd in commands:
        child = run_child(riley_argv(cmd.args), out_dir, deadline)
        checked = gate(cmd, child, out_dir)
        sample.wall += child.wall
        sample.cpu += child.cpu
        sample.rss_kb = max(sample.rss_kb, child.rss_kb)
        sample.items += checked.items
        sample.failed += checked.failed
        sample.counts.extend(checked.counts)
    return sample


SETUP_ARGV = [sys.executable, "-c", "import riley.cli; riley.cli.build_parser()"]


def measure_setup(tmp: Path, deadline: float, count: int) -> tuple[list[float], bool]:
    """Fresh-interpreter times to import riley.cli and build the parser."""
    walls, ok = [], True
    for _ in range(count):
        child = run_child(SETUP_ARGV, tmp, deadline)
        ok = ok and child.code == 0
        walls.append(child.wall)
    return walls, ok


def timed_run(workload: Workload, seed: int, seconds: float, tmp: Path,
              deadline: float) -> tuple[dict, dict, int, int, list]:
    """Samples of the workload until --seconds have passed, each followed
    by SETUP_PER_SAMPLE set-up starts and a reference window, so set-up
    and reference times are spread over the run like the samples.  The
    first, untimed start compiles the bytecode a fresh checkout lacks."""
    _, setup_ok = measure_setup(tmp, deadline, 1)
    setup: list[float] = []
    refs: list[float] = []
    time_reference(refs)
    samples: list[Sample] = []
    started = time.monotonic()
    while True:
        step_start = time.monotonic()
        out_dir = Path(tempfile.mkdtemp(dir=tmp))
        samples.append(run_sample(workload.commands(seed, out_dir), out_dir, deadline))
        shutil.rmtree(out_dir)
        walls, ok = measure_setup(tmp, deadline, SETUP_PER_SAMPLE)
        setup += walls
        setup_ok = setup_ok and ok
        time_reference(refs)
        now = time.monotonic()
        # Start another step only if it should end within --seconds.
        if len(samples) >= MIN_SAMPLES and now - started + (now - step_start) > seconds:
            break
        if now + 2 * (now - step_start) > deadline:
            break
    items = sum(s.items for s in samples)
    failed = sum(s.failed for s in samples) + (0 if setup_ok else items)
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s.wall for s in samples),
        "cpu_s": statistics.median(s.cpu for s in samples),
        "items_per_s": statistics.median(s.items / s.wall for s in samples),
    }
    speed = REF_NOMINAL_S / statistics.fmean(refs)
    metrics = {name: value * speed for name, value in measured.items()}
    metrics["items_per_s"] = measured["items_per_s"] / speed
    metrics["peak_rss_mb"] = statistics.median(s.rss_kb / 1024 for s in samples)
    print(f"workload: {len(samples)} samples of {samples[0].items} {workload.unit}; "
          f"setup: {len(setup)} samples; reference kernel: {len(refs)} runs, "
          f"speed factor {speed:.4f}")
    sample_counts = {name: len(setup) if name == "setup_s" else len(samples)
                     for name in metrics}
    for name, value in metrics.items():
        line = f"{name} = {value!r} {E2E_UNITS[name]} (median of {sample_counts[name]})"
        if name in measured:
            line += f"; as measured {measured[name]!r}"
        print(line)
    print(f"fail_ratio = {failed}/{items}")
    print("sample walls s: " + " ".join(f"{s.wall:.4f}" for s in samples))
    return ({k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
            sample_counts, items, failed, samples[0].counts)


# ---------------------------------------------------------------------------
# Traced run (--trace 1).
# ---------------------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class Traced:
    child: Child
    data: dict


def run_traced(args: list[str], out_dir: Path, deadline: float) -> Traced:
    spans_path = out_dir / "spans.json"
    child = run_child([sys.executable, str(TRACED), str(spans_path), "--", *args],
                      out_dir, deadline)
    data = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.is_file() else {}
    return Traced(child, data)


class SpanStats:
    """Per-name totals over the spans of one or more traced processes."""

    def __init__(self, traced: list[Traced]):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        for t in traced:
            spans = t.data.get("spans", [])
            attrs = t.data.get("attributes", {})
            covered = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for i, (name, start, end, parent) in enumerate(spans):
                self.calls[name] += 1
                self.busy[name] += end - start
                self.self_time[name] += end - start - covered[i]
                self.durations[name].append(end - start)
                if str(i) in attrs:
                    self.attrs[name].append(attrs[str(i)])


def coverage(t: Traced) -> float:
    """Share of the traced wall time, apart from setup (spawn to the start
    of cli.main) and report writing, that the top-level spans under
    cli.main cover."""
    spans = t.data["spans"]
    report = sum(e - s for n, s, e, p in spans if n == "verifier.emit_report")
    top = sum(e - s for n, s, e, p in spans if p == 0 and n != "verifier.emit_report")
    setup = t.data["main_start"] - t.child.start
    return top / (t.child.wall - setup - report)


def layer_metrics(workload: Workload, traced: list[Traced],
                  stats_from: list[Traced]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass.  traced holds the traced runs
    of the workload's own commands, stats_from the runs whose spans give
    the layer numbers (the same runs, except for a parallel scan)."""
    st = SpanStats(stats_from)
    top = SpanStats(traced)
    roots = st.attrs["realroots.count_real_roots"]
    closed_keys = [a["key"] for a in st.attrs["rileypoly.riley_closed_form"]]
    ms = lambda name, pct: 1000 * nearest_rank(st.durations[name], pct)  # noqa: E731
    metrics: dict[str, tuple[float, str]] = {
        "realroots.count_real_roots.calls": (st.calls["realroots.count_real_roots"], "count"),
        "realroots.count_real_roots.busy_s": (st.busy["realroots.count_real_roots"], "s"),
        "realroots.count_real_roots.degree_sum": (sum(a["degree"] for a in roots), "count"),
        "realroots.count_real_roots.max_coeff_bits": (max((a["bits"] for a in roots), default=0), "bits"),
    }
    for name in ("rileypoly.riley_parabolic", "rileypoly.riley_general",
                 "rileypoly.riley_closed_form"):
        metrics[f"{name}.calls"] = (st.calls[name], "count")
        metrics[f"{name}.busy_s"] = (st.busy[name], "s")
        metrics[f"{name}.self_s"] = (st.self_time[name], "s")
    metrics["rileypoly.riley_closed_form.distinct_ratio"] = (
        len(set(closed_keys)) / len(closed_keys) if closed_keys else 0.0, "ratio")
    for name in ("twobridge.schubert_word", "signature.signature_two_bridge",
                 "rileypoly.word_matrix", "exact.squarefree_part", "exact.compose",
                 "chebyshev.cheb_poly"):
        metrics[f"{name}.calls"] = (st.calls[name], "count")
        metrics[f"{name}.busy_s"] = (st.busy[name], "s")
    metrics["exact.symmetrize_to_xy.busy_s"] = (st.busy["exact.symmetrize_to_xy"], "s")
    metrics["rileypoly.closed_form_params.busy_s"] = (st.busy["rileypoly.closed_form_params"], "s")
    # Each percentile below is the highest round one with at least ten
    # samples beyond it at this workload size (798 knots, 56 families).
    metrics["verifier.check_conjecture.calls"] = (st.calls["verifier.check_conjecture"], "count")
    metrics["verifier.check_conjecture.self_s"] = (st.self_time["verifier.check_conjecture"], "s")
    metrics["verifier.check_conjecture.p50_ms"] = (ms("verifier.check_conjecture", 50), "ms")
    metrics["verifier.check_conjecture.p98_ms"] = (ms("verifier.check_conjecture", 98), "ms")
    metrics["verifier.cross_validate.calls"] = (st.calls["verifier.cross_validate"], "count")
    metrics["verifier.cross_validate.p50_ms"] = (ms("verifier.cross_validate", 50), "ms")
    metrics["verifier.cross_validate.p80_ms"] = (ms("verifier.cross_validate", 80), "ms")
    for name in ("verifier.check_theorem1", "verifier.check_theorem2"):
        metrics[f"{name}.calls"] = (st.calls[name], "count")
        metrics[f"{name}.self_s"] = (st.self_time[name], "s")
    metrics["verifier.emit_report.busy_s"] = (st.busy["verifier.emit_report"], "s")
    metrics["verifier.emit_report.bytes"] = (
        sum(a["bytes"] for a in st.attrs["verifier.emit_report"]), "bytes")
    scan_wall = top.busy["verifier.scan_conjecture"]
    metrics["verifier.scan_conjecture.parallel_efficiency"] = (
        st.busy["verifier.check_conjecture"] / (workload.jobs * scan_wall) if scan_wall else 0.0,
        "ratio")
    metrics["cli.main.self_s"] = (st.self_time["cli.main"], "s")
    traced_wall = sum(t.child.wall for t in traced)
    metrics["trace.coverage"] = (
        sum(coverage(t) * t.child.wall for t in traced) / traced_wall, "ratio")
    return metrics


@dataclass
class Pass:
    items: int = 0
    failed: int = 0
    counts: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def trace_pass(workload: Workload, seed: int, tmp: Path, deadline: float,
               traced_first: bool) -> Pass:
    """Each command untraced and traced, in the given order; a parallel
    scan is also traced with one job, because busy times inside pool
    workers are not reported."""
    out_dir = Path(tempfile.mkdtemp(dir=tmp))
    result = Pass()
    untraced_wall = 0.0
    traced: list[Traced] = []

    def tally(cmd: Command, child: Child, has_spans: bool) -> Checked:
        checked = gate(cmd, child, out_dir)
        result.items += checked.items
        result.failed += checked.failed if has_spans else checked.items
        return checked

    def run_plain(cmd: Command) -> float:
        plain = run_child(riley_argv(cmd.args), out_dir, deadline)
        result.counts.extend(tally(cmd, plain, True).counts)
        return plain.wall

    def run_with_spans(cmd: Command) -> None:
        t = run_traced(cmd.args, out_dir, deadline)
        tally(cmd, t.child, bool(t.data))
        traced.append(t)

    for cmd in workload.commands(seed, out_dir):
        if traced_first:
            run_with_spans(cmd)
            untraced_wall += run_plain(cmd)
        else:
            untraced_wall += run_plain(cmd)
            run_with_spans(cmd)
    stats_from = traced
    if workload.jobs > 1:
        serial = scan_commands(1, seed, out_dir)[0]
        t = run_traced(serial.args, out_dir, deadline)
        tally(serial, t.child, bool(t.data))
        stats_from = [t]
    shutil.rmtree(out_dir)
    if not result.failed:
        result.metrics = layer_metrics(workload, traced, stats_from)
        result.metrics["trace_overhead_s"] = (
            sum(t.child.wall for t in traced) - untraced_wall, "s")
    return result


def trace_run(workload: Workload, seed: int, seconds: float, tmp: Path,
              deadline: float) -> tuple[dict, dict, int, int, list]:
    """Traced passes until --seconds have passed (at least three); each
    per-layer number is the median over passes (counts repeat exactly).
    Passes alternate which of the untraced and traced runs goes first, so
    an order effect does not enter trace_overhead_s."""
    passes: list[Pass] = []
    started = time.monotonic()
    while True:
        pass_start = time.monotonic()
        passes.append(trace_pass(workload, seed, tmp, deadline, len(passes) % 2 == 1))
        took = time.monotonic() - pass_start
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_SAMPLES and elapsed + took > seconds:
            break
        if time.monotonic() + 2 * took > deadline:
            break
    items = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    good = [p.metrics for p in passes if p.metrics]
    metrics = {}
    for name, (_, unit) in (good[0].items() if good else ()):
        metrics[name] = {"value": statistics.median(m[name][0] for m in good), "unit": unit}
        print(f"{name} = {metrics[name]['value']!r} {unit} (median of {len(good)})")
    print(f"fail_ratio = {failed}/{items}")
    return metrics, {name: len(good) for name in metrics}, items, failed, passes[0].counts


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "riley" / "cli.py").is_file():
        print(f"no riley package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        run = trace_run if args.trace else timed_run
        metrics, sample_counts, items, failed, counts = run(workload, args.seed, args.seconds,
                                                            tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    mismatches = oracle_mismatches(counts, args.seed)
    for line in mismatches:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    failed += len(mismatches)
    print(json.dumps({"samples": sample_counts}))
    print(json.dumps({"correct": failed == 0, "attempted": items, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
