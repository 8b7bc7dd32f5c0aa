"""Benchmark for bsideal: `bsideal run --json` in-process over seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {bp-ladder,multi-param} \
        --seed N --seconds S --trace {0,1}

The run generates the workload's problem files from the seed under
``.bench_build/``, then drives ``cli.main`` in a closed loop from this one
process (one caller, no threads): each pass is one whole batch, and the next
pass starts when the previous one returns.  Every pass's report is checked
against the known answers, and every pass must print the same bytes.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters, spread over the run, importing bsideal.cli and loading the
problem files),
batch_s (median pass), entry_s.p50 and entry_s.tail (the median and the
slowest of the entries' latencies, each entry's latency being the median of
its times over all passes), and peak_rss_mb.  Times are wall times scaled
to a reference machine speed, gauged beside each entry and in each set-up
interpreter (see calib.py); the plain wall times are printed above the
result.

--trace 1 alternates untraced and traced passes.  Traced passes wrap the
layers' public functions (see tracing.py) and report per-layer times (median
over traced passes) and exact counters, which must agree between traced
passes and with a traced pass in a child interpreter whose hash seed
differs.  trace.overhead_frac compares the traced and untraced medians.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every entry agrees with its known answer and every gate holds, 1 when
a gate fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "bsideal")

sys.path.insert(0, BENCH_DIR)

import calib  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 25
MAX_REASONS = 20

# Time, in a fresh interpreter, to import the CLI and load the problem
# files; then the median of five speed gauges in that interpreter (the
# first runs cold).
SETUP_PROBE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import bsideal.cli
bsideal.cli.load_specs(sys.argv[3:])
print(repr(time.perf_counter() - t0))
sys.path.insert(0, sys.argv[1])
import calib
print(repr(statistics.median(calib.gauge() for _ in range(5))))
"""

# One traced pass in a fresh interpreter; prints its exit code, report and
# counters as JSON.
CHILD_PASS = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps(run.child_pass(sys.argv[2:])))
"""


class Gate:
    """Tallies entries attempted and failed, with a reason for each failure."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_report: str | None = None
        self._first_entries: dict[str, str] | None = None
        self._judged: dict[str, dict] = {}

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    def judge_pass(self, label: str, rc: int, text: str) -> None:
        """Judge every entry of one pass.  An entry fails when it disagrees
        with its known answer or its bytes differ from the first pass."""
        wl = self.workload
        problems = self._judged.get(text)
        if problems is None:
            try:
                report = json.loads(text)
            except ValueError:
                report = {}
            problems = check.judge_report(report, wl.expected)
            entries = {e["id"]: check.canonical_json(e) for e in report.get("entries", [])}
            if self._first_entries is None:
                self._first_entries = entries
            for entry_id, body in entries.items():
                if body != self._first_entries.get(entry_id):
                    problems.setdefault(entry_id, []).append(
                        "report bytes differ from the first pass")
            self._judged[text] = problems
        if self.first_report is None:
            self.first_report = text
        if text != self.first_report:
            self.fail(f"{label}: report bytes differ from the first pass")
        if rc != wl.expected_exit:
            self.fail(f"{label}: exit code {rc}, expected {wl.expected_exit}")
        self.attempted += len(wl.expected)
        for entry_id, why in sorted(problems.items()):
            if why:
                self.failed += 1
                self.fail(f"{label} {entry_id}: {'; '.join(why)}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


class EntryTimer:
    """Times each EntryRunner.run call, per entry id, and gauges the
    machine's speed (calib.gauge) before a pass and after each entry.  An
    entry's time is scaled by REF_S over the mean of the gauges on either
    side of it; see calib.py."""

    def __init__(self, cli):
        self.cli = cli
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.gauges: list[float] = []
        self.pass_wall = self.pass_scaled = 0.0
        self._orig = cli.EntryRunner.run

    def start_pass(self) -> None:
        self.gauges = [calib.gauge()]
        self.pass_wall = self.pass_scaled = 0.0

    def scale_pass(self, dt: float) -> float:
        """The pass's time at reference speed: its entries' scaled times plus
        the rest of the pass (loading, rendering) scaled by the pass's median
        gauge.  The gauges taken inside the pass are not counted."""
        rest = dt - sum(self.gauges[1:]) - self.pass_wall
        return self.pass_scaled + rest * calib.REF_S / statistics.median(self.gauges)

    def __enter__(self):
        orig, clock = self._orig, time.perf_counter

        def run(runner):
            start = clock()
            try:
                return orig(runner)
            finally:
                dt = clock() - start
                self.gauges.append(calib.gauge())
                speed = (self.gauges[-2] + self.gauges[-1]) / 2
                scaled = dt * calib.REF_S / speed
                self.pass_wall += dt
                self.pass_scaled += scaled
                self.wall.setdefault(runner.spec.id, []).append(dt)
                self.samples.setdefault(runner.spec.id, []).append(scaled)

        self.cli.EntryRunner.run = run
        return self

    def __exit__(self, *exc):
        self.cli.EntryRunner.run = self._orig


def run_pass(cli, wl) -> tuple[float, int, str]:
    """One batch; an exception escaping the CLI fails every entry of the pass."""
    out = io.StringIO()
    argv = ["run", "--json", *wl.paths]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # reported as a failed pass, with its traceback
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc, out.getvalue()


def setup_probe(wl) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, wall and at reference speed."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, BENCH_DIR, SRC, *wl.paths],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    wall, speed = map(float, proc.stdout.split())
    return wall, wall * calib.REF_S / speed


def entry_latencies(samples: dict[str, list[float]]) -> list[float]:
    """Each entry's median time over the passes.  The entries are
    distinct problems, so a percentile over all samples would pick one
    entry's block and shift with the pass count; a per-entry median also
    shrugs off the passes a busy machine slowed down."""
    return [statistics.median(times) for times in samples.values()]


def timed_run(cli, wl, gate, seconds: float) -> dict:
    """Closed loop of passes for `seconds`.  Set-up probes fall due at even
    intervals and run before the next pass, so their median does not hinge
    on one moment's load; a first probe, not counted, warms the bytecode
    cache.  Times are reported at reference speed (calib.py); the wall
    times are printed beside them."""
    setup_probe(wl)
    setups, walls, times = [], [], []
    with EntryTimer(cli) as timer:
        start = time.perf_counter()
        while True:
            while (len(setups) < SETUP_SAMPLES and
                   time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES):
                setups.append(setup_probe(wl))
            timer.start_pass()
            dt, rc, text = run_pass(cli, wl)
            walls.append(dt)
            times.append(timer.scale_pass(dt))
            gate.judge_pass(f"pass {len(times)}", rc, text)
            elapsed = time.perf_counter() - start
            if len(times) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(wl))
    latencies = entry_latencies(timer.samples)
    wall_latencies = entry_latencies(timer.wall)
    print(f"passes: {len(times)}; entries: {len(latencies)}, "
          f"{sum(map(len, timer.samples.values()))} entry samples")
    print(f"wall times: setup {statistics.median(w for w, _ in setups):.6g} s, "
          f"batch {statistics.median(walls):.6g} s, "
          f"entry p50 {statistics.median(wall_latencies):.6g} s, "
          f"tail {max(wall_latencies):.6g} s")
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "batch_s": (statistics.median(times), "s"),
        "entry_s.p50": (statistics.median(latencies), "s"),
        "entry_s.tail": (max(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def load_program():
    sys.path.insert(0, SRC)
    from bsideal import cli, hyperplanes, linalg, solver
    return cli, {"cli": cli, "solver": solver, "hyperplanes": hyperplanes, "linalg": linalg}


def child_pass(paths: list[str]) -> dict:
    """One traced pass over `paths`, run inside the child interpreter."""
    cli, modules = load_program()
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        _, rc, text = run_pass(cli, workloads.Workload("child", paths, {}))
    finally:
        tracer.uninstall()
    return {"rc": rc, "report": text, "counters": tracing.layer_metrics(*tracer.take())[1]}


def check_in_child(wl, gate, counters: dict) -> None:
    """Counters and report bytes must not depend on the interpreter's hash
    seed (set and dict order), so a child with another seed must match."""
    own = os.environ.get("PYTHONHASHSEED", "random")
    hashseed = str((int(own) + 1) % 2**32) if own.isdigit() else "0"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_PASS, BENCH_DIR, *wl.paths],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
    )
    label = f"traced pass in a child with PYTHONHASHSEED={hashseed}"
    if proc.returncode != 0:
        gate.fail(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    gate.judge_pass(label, child["rc"], child["report"])
    for name, value in child["counters"].items():
        if value != counters[name]:
            gate.fail(f"counter {name} is {value} in the {label}, "
                      f"{counters[name]} on traced pass 1")


def traced_run(cli, modules, wl, gate, seconds: float) -> dict:
    tracer = tracing.Tracer(modules)
    plain, traced, passes, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = len(traced) < len(plain)
        if use_trace:
            tracer.install()
        try:
            dt, rc, text = run_pass(cli, wl)
        finally:
            tracer.uninstall()
        (traced if use_trace else plain).append(dt)
        label = f"{'traced' if use_trace else 'untraced'} pass {len(traced if use_trace else plain)}"
        gate.judge_pass(label, rc, text)
        if use_trace:
            spans, counts = tracer.take()
            passes.append(spans)
            layers.append(tracing.layer_metrics(spans, counts))
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED_PASSES and len(plain) >= MIN_TRACED_PASSES
        if enough and elapsed + statistics.median(plain + traced) > seconds:
            break
    for k, (_, exact) in enumerate(layers[1:], start=2):
        for name, value in exact.items():
            if value != layers[0][1][name]:
                gate.fail(f"counter {name} is {value} on traced pass {k}, "
                          f"{layers[0][1][name]} on traced pass 1")
    check_in_child(wl, gate, layers[0][1])
    tracing.write_spans(os.path.join(WORK, f"{wl.name}.spans.jsonl"), passes)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"spans: {sum(len(p) for p in passes)}")
    metrics = {
        name: (statistics.median(t[name] for t, _ in layers), "s")
        for name in tracing.TIMES
    }
    for name, value in layers[0][1].items():
        unit = "bits" if name.endswith("_bits_max") else "count"
        metrics[name] = (value, "ratio" if name.endswith("_frac") else unit)
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = ((statistics.median(traced) - base) / base, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bsideal", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    cli, modules = load_program()

    os.makedirs(WORK, exist_ok=True)
    wl = workloads.generate(args.workload, args.seed,
                            os.path.join(WORK, f"{args.workload}-inputs"))
    gate = Gate(wl)
    print(f"workload {wl.name}: {len(wl.paths)} problem files, seed {args.seed}, "
          f"closed loop with one caller for {args.seconds:g} s")
    if args.trace:
        metrics = traced_run(cli, modules, wl, gate, args.seconds)
    else:
        metrics = timed_run(cli, wl, gate, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'fail_frac':32s} {gate.fail_frac:.6g} ratio "
          f"({gate.failed} of {gate.attempted} entries)")
    for reason in gate.reasons[:MAX_REASONS]:
        print(f"FAILED {reason}")
    if len(gate.reasons) > MAX_REASONS:
        print(f"FAILED ... and {len(gate.reasons) - MAX_REASONS} more")
    correct = not gate.reasons
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
