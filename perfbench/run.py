"""slosim benchmark: one workload per invocation, host time end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crowd_scale --seed 1 --seconds 15 --trace 0

The bench writes the workload's scenario files from --seed, runs one untimed
warm pass, then timed passes until --seconds have been measured, timing
set-up (repeated `load_scenario`) between passes and checking every run's
output, its trace digest and model outputs included, against
perfbench/pins.json.  With --trace 1 it instead times untraced passes and one
traced pass and prints the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Everything
runs in this process with no extra threads; scratch files go under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "pins.json"
# After the warm pass and after each timed pass, set-up is sampled for at
# least SETUP_ROUND_SECONDS, so the samples spread over the whole run.  One
# sample loads every input of the pass, repeated until it lasts at least
# SETUP_SAMPLE_SECONDS, and is that time divided by the repeats: this host's
# speed swings by up to 2x in phases of a tenth of a second, which a sample of
# a few milliseconds would catch whole.
SETUP_SAMPLE_SECONDS = 0.2
SETUP_ROUND_SECONDS = 0.4
# Every median is over at least this many timed passes, even when one pass
# outlasts --seconds (fuzz_corpus's pass takes 13-16 s on a 2-vCPU host).
MIN_TIMED_PASSES = 2

# numpy must not start a BLAS thread pool in the measured process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SLOSIM_OUT_DIR", None)


@dataclass
class RunOutcome:
    index: int
    latency_s: float = 0.0  # load + run
    report_s: float = 0.0
    records: int = 0
    events: dict = field(default_factory=dict)
    sha256: str = ""
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def import_slosim():
    """Import slosim from this checkout's src/ only; None when it is absent."""
    if not (SRC / "slosim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import slosim
    import slosim.cli
    import slosim.reports
    import slosim.trace

    if Path(slosim.__file__).resolve().parent != (SRC / "slosim").resolve():
        return None
    return slosim


# -- correctness ------------------------------------------------------------------


def ledger_problems(records: list[dict]) -> list[str]:
    """spent + committed <= budget on every record, spent never decreases, run_end last."""
    problems = []
    if not records or records[0].get("kind") != "header":
        return ["trace does not start with a header"]
    if records[-1].get("kind") != "run_end":
        problems.append("trace has no closing run_end record")
    budget = records[0]["task_slo"]["budget_micros"]
    last_spent = 0
    for position, record in enumerate(records):
        if "spent" not in record:
            continue
        if record["spent"] + record["committed"] > budget:
            problems.append(f"record {position}: spent + committed exceeds the budget")
        if record["spent"] < last_spent:
            problems.append(f"record {position}: spent decreased")
        last_spent = record["spent"]
    return problems


def model_outputs(summary: dict, records: int) -> dict:
    return {
        "consensus_rate": summary["consensus_rate"],
        "spent_micros": summary["spent_micros"],
        "finish_ticks": summary["finish_ticks"],
        "accuracy_met": summary["accuracy"]["met"],
        "budget_met": summary["budget"]["met"],
        "time_met": summary["time"]["met"],
        "events_fired": summary["events"]["fired"],
        "records": records,
    }


def as_json(summary) -> dict:
    return json.loads(json.dumps(summary.to_dict(), sort_keys=True))


# -- one run ------------------------------------------------------------------------


def run_in_memory(slosim, inp, scratch: Path) -> RunOutcome:
    outcome = RunOutcome(inp.index)
    start = time.perf_counter()
    result = slosim.run(slosim.load_scenario(inp.path))
    outcome.latency_s = time.perf_counter() - start

    # The digest is over the bytes the run would have written to a trace
    # file.  Writing them is not timed; the report step reads them back as
    # `slosim report` would, and the summary round trip is checked on them.
    records = result.records
    outcome.problems = ledger_problems(records)
    outcome.records = len(records)
    outcome.events = dict(records[-1].get("events", {}))
    digest = hashlib.sha256()
    path = scratch / "roundtrip.jsonl"
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for record in records:
            line = slosim.trace.dump_record(record) + "\n"
            digest.update(line.encode("utf-8"))
            stream.write(line)
    outcome.sha256 = digest.hexdigest()
    live = as_json(result.summary)
    del result, records
    start = time.perf_counter()
    read = slosim.trace.read_trace(path)
    slosim.reports.report(read)
    outcome.report_s = time.perf_counter() - start
    if as_json(slosim.trace.summarize(read)) != live:
        outcome.problems.append("summary recomputed from the trace differs from the live one")
    outcome.outputs = model_outputs(live, outcome.records)
    return outcome


def run_via_cli(slosim, inp, scratch: Path) -> RunOutcome:
    outcome = RunOutcome(inp.index)
    out = scratch / f"run-{inp.index:03d}"
    trace = out / "trace.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code_run = slosim.cli.main(["run", str(inp.path), "--out", str(out)])
        ran = time.perf_counter()
        code_report = slosim.cli.main(["report", str(trace), "--out", str(out / "report")])
        outcome.report_s = time.perf_counter() - ran
    outcome.latency_s = ran - start
    if code_run != 0 or code_report != 0:
        outcome.problems.append(f"cli exit codes run={code_run} report={code_report}")
        return outcome

    outcome.sha256 = hashlib.sha256(trace.read_bytes()).hexdigest()
    records = slosim.trace.read_trace(trace)
    outcome.problems = ledger_problems(records)
    outcome.records = len(records)
    outcome.events = dict(records[-1].get("events", {}))
    recomputed = as_json(slosim.trace.summarize(records))
    del records
    live = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if recomputed != live:
        outcome.problems.append("summary recomputed from trace.jsonl differs from summary.json")
    outcome.outputs = model_outputs(live, outcome.records)
    return outcome


# -- passes -------------------------------------------------------------------------


@dataclass
class Pass:
    runs: list
    wall_s: float
    report_s: float
    failed: int

    @property
    def records(self) -> int:
        return sum(r.records for r in self.runs)


def pin_problem(outcome: RunOutcome, pin: dict | None) -> str | None:
    if pin is None:
        return "no pin in perfbench/pins.json"
    if outcome.sha256 != pin["sha256"]:
        return f"trace digest {outcome.sha256[:12]} differs from the pinned {pin['sha256'][:12]}"
    if outcome.outputs != pin["outputs"]:
        return f"model outputs {outcome.outputs} differ from the pinned {pin['outputs']}"
    return None


def run_pass(slosim, workload, scratch: Path, pins: dict | None = None, tracer=None) -> Pass:
    """Run every input once; with `pins` (input index -> pin) each run must match its pin."""
    run_one = run_via_cli if workload.via_cli else run_in_memory
    runs, failed = [], 0
    gc.collect()
    for inp in workload.inputs:
        if tracer is not None:
            tracer.run_label = inp.label
        try:
            outcome = run_one(slosim, inp, scratch)
        except Exception:  # a crashing run is a failed run, not a crashed bench
            traceback.print_exc(file=sys.stderr)
            outcome = RunOutcome(inp.index, problems=["run raised an exception"])
        if pins is not None and not outcome.problems:
            problem = pin_problem(outcome, pins.get(inp.index))
            if problem:
                outcome.problems.append(problem)
        if outcome.problems:
            failed += 1
            for problem in outcome.problems[:5]:
                print(f"FAILED {inp.label}: {problem}", file=sys.stderr)
        runs.append(outcome)
    return Pass(
        runs=runs,
        wall_s=sum(r.latency_s + r.report_s for r in runs),
        report_s=sum(r.report_s for r in runs),
        failed=failed,
    )


def combined_digest(runs: list[RunOutcome]) -> str:
    text = "".join(f"{r.index}:{r.sha256}\n" for r in sorted(runs, key=lambda r: r.index))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(workload: str) -> dict[int, dict]:
    """The workload's pinned trace digest and model outputs, by input index."""
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
    return {int(index): pin for index, pin in pins.get("runs", {}).items()}


def time_setup(slosim, workload) -> list[float]:
    """Set-up samples: seconds to load every input of the pass once."""
    samples: list[float] = []
    round_start = time.perf_counter()
    while not samples or time.perf_counter() - round_start < SETUP_ROUND_SECONDS:
        repeats = 0
        start = time.perf_counter()
        while not repeats or time.perf_counter() - start < SETUP_SAMPLE_SECONDS:
            for inp in workload.inputs:
                slosim.load_scenario(inp.path)
            repeats += 1
        samples.append((time.perf_counter() - start) / repeats)
    return samples


def p95(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[94]


# -- main ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    slosim = import_slosim()
    if slosim is None:
        print(f"error: no slosim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    scratch = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(slosim, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(slosim, args, scratch: Path) -> int:
    problems = workloads.self_check()
    for problem in problems:
        print(f"FAILED generator self-check: {problem}", file=sys.stderr)
    workload = workloads.build(args.workload, args.seed, scratch / "inputs")
    print(f"workload {workload.name} seed {args.seed}: {len(workload.inputs)} scenario files, "
          f"{'slosim.cli.main run + report' if workload.via_cli else 'slosim.run in memory + reports.report'}")

    pins = load_pins(workload.name)
    setup: list[float] = []
    warm = run_pass(slosim, workload, scratch, pins)
    if not args.trace:
        setup += time_setup(slosim, workload)
    passes: list[Pass] = []
    traced: Pass | None = None
    budget = args.seconds / 2 if args.trace else args.seconds
    # a pass with failed runs ends the timing: its times mean nothing
    while not passes or not passes[-1].failed and (
        len(passes) < MIN_TIMED_PASSES or sum(p.wall_s for p in passes) < budget
    ):
        passes.append(run_pass(slosim, workload, scratch, pins))
        if not args.trace:
            setup += time_setup(slosim, workload)
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run_pass(slosim, workload, scratch, pins, tracer)
        finally:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB

    checked = [warm, *passes] + ([traced] if traced else [])
    attempted = sum(len(p.runs) for p in checked)
    failed = sum(p.failed for p in checked)
    digest = combined_digest(warm.runs)
    records = warm.records
    events = sum(r.events.get("fired", 0) for r in warm.runs)
    correct = failed == 0 and not problems
    print(f"  records per pass {records}, events fired per pass {events}")
    print(f"  passes: 1 warm + {len(passes)} timed{' + 1 traced' if traced else ''}; "
          f"runs attempted {attempted}, failed {failed}")
    print(f"  trace digest {digest[:16]}; runs that match perfbench/pins.json (trace digest "
          f"and model outputs) and pass every other check: {attempted - failed} of {attempted}")

    if args.trace:
        untraced = statistics.median(p.wall_s for p in passes)
        events_total = {
            key: sum(r.events.get(key, 0) for r in traced.runs) for key in ("scheduled", "cancelled")
        }
        metrics = tracer.metrics(events_total)
        metrics["bench.trace_overhead.s"] = (traced.wall_s - untraced, "s")
        print("  per-key layer stats of the traced pass (self time excludes nested wrapped calls):")
        for line in tracer.table():
            print(line)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        # One latency per input (its median over the timed passes), so the
        # percentiles range over the workload's scenarios, not over repeats.
        per_input: dict[int, list[float]] = {}
        for p in passes:
            for r in p.runs:
                per_input.setdefault(r.index, []).append(r.latency_s)
        latencies = [statistics.median(v) for v in per_input.values()]
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "us_per_record": (statistics.median(p.wall_s / max(p.records, 1) * 1e6 for p in passes), "us"),
            "setup_s": (statistics.median(setup), "s"),
            "run_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "run_p95_ms": (p95(latencies) * 1e3, "ms"),
            "report_s": (statistics.median(p.report_s for p in passes), "s"),
            "peak_mem_mb": (peak_mb, "MB"),
        }
        print(f"  pass wall times (s): {' '.join(f'{p.wall_s:.3f}' for p in passes)}")
        print(f"  set-up: {len(setup)} samples, min {min(setup):.6f} s, max {max(setup):.6f} s")
        print(f"  run latency: median of {len(passes)} timed runs for each of {len(latencies)} inputs; "
              f"p95 has {len(latencies) // 20} inputs beyond it")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
