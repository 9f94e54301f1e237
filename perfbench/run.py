"""The dirackit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dirackit checkout; the program is imported from
`src/`.  Workloads, metric names and units are those of BENCHMARK.json;
`workloads.py` says why each workload exists.

One run, all in one process with one closed-loop client:

1. Set-up: import dirackit, generate the inputs from the seed, warm up
   on the smallest input.  `setup_s` is the median over this set-up and
   fresh-process repeats of it.
2. Passes over the inputs, back to back, until --seconds have passed
   (at least two, so that every input is run twice).  A pass is timed
   from outside; `wall_s` is the median pass.
3. With --trace 0: peak memory, then fresh `python -m dirackit.cli
   analyze` processes on the smallest input, one at a time (`cold_cli_s`).
   With --trace 1: half the time untraced and half traced by `tracer.py`,
   whose per-layer counts and times are reported per traced pass, plus
   the fresh-process import time of `dirackit.cli`.
4. Every output is checked (see `checks.py`).

Every reported time is scaled to a reference machine speed (see
`reference.py`): just before each timed pass, set-up or child process,
the benchmark times slices of a fixed reference computation (adding up
to a tenth of the last pass, or to 0.1 s before a set-up or child
process) and multiplies the measured time by REFERENCE_S over their
median.  The people's lines show the raw times
too.

The last line of standard output is one JSON object: correct,
attempted, failed, and the metrics of BENCHMARK.json's `end_to_end`
(--trace 0) or `per_layer` (--trace 1) list.  Lines before it show the
same numbers for people, with fail_rate and the wall-time tail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from checks import Checker
from reference import REFERENCE_S, Reference
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "dirackit" / "report_schema.json"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 3   # set-ups per run, this process's included
COLD_RUNS = 9    # fresh CLI processes per run
IMPORT_RUNS = 5  # fresh-process imports of dirackit.cli per traced run
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120
REFERENCE_SHARE = 0.1  # reference slices before a pass, as a share of the last pass
SHORT_REFERENCE_S = 0.1  # reference slices before a set-up or child process


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def set_up(workload: str, seed: int, workdir: Path, ref: Reference):
    """Import dirackit, generate the inputs, warm up; returns (workload,
    scaled seconds)."""
    factor = ref.factor(SHORT_REFERENCE_S)
    start = time.perf_counter()
    import workloads
    bench = workloads.build(workload, seed, workdir)
    bench.warm_up()
    return bench, (time.perf_counter() - start) * factor


def _no_request(label):
    return nullcontext()


class Timings:
    """Raw times and the reference factor measured just before each."""

    def __init__(self):
        self.raw: list[float] = []
        self.factors: list[float] = []

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.factors.append(factor)

    @property
    def scaled(self) -> list[float]:
        return [r * f for r, f in zip(self.raw, self.factors)]

    def median(self) -> float:
        return statistics.median(self.scaled)

    def describe(self) -> str:
        return (f"{len(self.raw)} samples, median {self.median():.6f} s scaled, "
                f"{statistics.median(self.raw):.6f} s raw, reference slice "
                f"{1000 * REFERENCE_S / statistics.median(self.factors):.2f} ms; "
                f"{tail(self.scaled)}")


def measure(bench, seconds: float, checker: Checker, ref: Reference,
            tracer: Tracer | None = None):
    """Passes until `seconds` have passed; returns (Timings, bytes of pass 1)."""
    timings = Timings()
    first_bytes = None
    start = time.perf_counter()
    while len(timings.raw) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same heap state
        factor = ref.factor(REFERENCE_SHARE * (timings.raw[-1] if timings.raw else 0.0))
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            outputs = bench.run_pass(tracer.request if tracer else _no_request)
            timings.add(time.perf_counter() - t0, factor)
        size = bench.record(outputs, checker)
        if first_bytes is None:
            first_bytes = size
    return timings, first_bytes


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def _checked_child(argv: list[str]) -> subprocess.CompletedProcess:
    _, proc = _run_child(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(args, own: float) -> float:
    samples = [own]
    for _ in range(SETUP_RUNS - 1):
        proc = _checked_child([sys.executable, str(BENCH / "run.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-only"])
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def cold_cli_timings(bench, checker: Checker, ref: Reference) -> Timings:
    probe = bench.probe
    timings = Timings()
    for _ in range(COLD_RUNS):
        factor = ref.factor(SHORT_REFERENCE_S)
        seconds, proc = _run_child([sys.executable, "-m", "dirackit.cli", "analyze",
                                    probe.path, "--format", "json"])
        timings.add(seconds, factor)
        checker.add_report(probe, proc.returncode, proc.stdout)
    return timings


def import_timings(ref: Reference) -> Timings:
    code = ("import time; t = time.perf_counter(); import dirackit.cli; "
            "print(time.perf_counter() - t)")
    timings = Timings()
    for _ in range(IMPORT_RUNS):
        factor = ref.factor(SHORT_REFERENCE_S)
        timings.add(float(_checked_child([sys.executable, "-c", code]).stdout), factor)
    return timings


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (needs 11 samples, have {n})"
    return f"p{100 * (n - 10) / n:.1f} {sorted(samples)[n - 11]:.6f} s"


def end_to_end(args, bench, checker, ref, own_setup_s: float) -> dict:
    passes, report_bytes = measure(bench, args.seconds, checker, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold = cold_cli_timings(bench, checker, ref)
    print(f"wall_s: {passes.describe()}")
    print(f"cold_cli_s: {cold.describe()}")
    return {
        "setup_s": setup_seconds(args, own_setup_s),
        "wall_s": passes.median(),
        "cold_cli_s": cold.median(),
        "peak_rss_mb": peak_rss_mb,
        "report_kb": report_bytes / 1024.0,
    }


def per_layer(args, bench, checker, ref) -> dict:
    plain, _ = measure(bench, args.seconds / 2, checker, ref)
    tracer = Tracer()
    traced, _ = measure(bench, args.seconds / 2, checker, ref, tracer)
    passes = len(traced.raw)
    factor = statistics.median(traced.factors)  # layer times are scaled like wall_s
    values = {}
    for name, layer in tracer.layers.items():
        values[f"{name}.calls"] = layer.calls / passes
        values[f"{name}.total_s"] = layer.total_s * factor / passes
        values[f"{name}.self_s"] = layer.self_s * factor / passes
    values["poly.mul.term_pairs"] = tracer.counters["poly.mul.term_pairs"] / passes
    values["expr.peak_terms"] = tracer.counters["expr.peak_terms"]
    values["analysis.trace.value_terms"] = (
        tracer.counters["analysis.trace.value_terms"]
        / max(1, tracer.layers["analysis.trace"].calls))
    values["cli.import_s"] = import_timings(ref).median()
    values["trace.overhead_s"] = traced.median() - plain.median()
    print(f"untraced: {plain.describe()}")
    print(f"traced: {traced.describe()}")
    print(f"{len(tracer.spans)} spans in {_spans_path(args).relative_to(ROOT)}")
    tracer.write_spans(_spans_path(args))
    return values


def _spans_path(args) -> Path:
    return WORK / f"spans-{args.workload}.jsonl"


def parse_args(workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


def main() -> int:
    for needed in (SPEC, SCHEMA, ROOT / "systems"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} not found; run from the root "
                  "of a dirackit checkout", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args([w["name"] for w in spec["workloads"]])
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ref = Reference()
        bench, own_setup_s = set_up(args.workload, args.seed, workdir, ref)
        if args.setup_only:
            print(repr(own_setup_s))
            return 0
        import dirackit
        if not Path(dirackit.__file__).resolve().is_relative_to(SRC):
            print(f"error: dirackit imported from {dirackit.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        checker = Checker(SCHEMA, args.seed)
        if args.trace:
            values, wanted = per_layer(args, bench, checker, ref), spec["per_layer"]
        else:
            values = end_to_end(args, bench, checker, ref, own_setup_s)
            wanted = spec["end_to_end"]
        checker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_rate':32s} {checker.failed}/{checker.attempted} outputs")
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
