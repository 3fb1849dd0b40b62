"""Command line interface: validate, run, report, sweep.

Exit code 0 means the command completed; SLO misses are data in the summary,
not errors.  Nonzero exits are reserved for configuration and IO problems.
The output directory can be forced with the SLOSIM_OUT_DIR environment
variable; flags take precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import reports
from .runner import run as run_scenario
from .scenario import Scenario, ScenarioError, load_scenario
from .trace import RunSummary, iter_trace
from .units import to_money

OUT_DIR_ENV = "SLOSIM_OUT_DIR"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slosim",
        description="Run SLO-managed hybrid human/machine microtask scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override a scalar scenario field",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render tables from a trace file")
    p_report.add_argument("trace")
    p_report.add_argument("--format", choices=reports.FORMATS, default="table")
    p_report.add_argument("--out", default=None, help="write files instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, help="dotted scenario field")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _out_dir(flag_value: str | None, default: str) -> Path:
    return Path(flag_value or os.environ.get(OUT_DIR_ENV) or default)


def _run_point(scenario: Scenario, seed: int | None, overrides: list[str], out: Path) -> RunSummary:
    """Run `scenario` into `out/trace.jsonl` and write `out/summary.json`; the
    trace writer creates `out`, so a run that cannot start leaves none."""
    summary = run_scenario(
        scenario, seed=seed, trace_path=out / "trace.jsonl", overrides=overrides
    ).summary
    text = json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    (out / "summary.json").write_text(text, "utf-8")
    return summary


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"invalid: {problem}")
        return 1
    print(f"ok: {scenario.name} ({len(scenario.graph.nodes)} nodes, seed {scenario.seed})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, overrides=args.overrides)
    out = _out_dir(args.out, f"out/{scenario.name}")
    summary = _run_point(scenario, args.seed, args.overrides, out)
    print(f"scenario {summary.scenario} seed {summary.seed}")
    print(
        f"  evaluated {summary.evaluated}/{summary.microtask_total}"
        f"  consensus_rate {summary.consensus_rate:.4f}"
        f"  spent {to_money(summary.spent_micros):.2f}"
        f"  finish {summary.finish:.2f}"
    )
    for name, verdict in (
        ("accuracy", summary.accuracy),
        ("budget", summary.budget),
        ("time", summary.time),
    ):
        status = "met" if verdict.met else "missed"
        print(f"  slo {name}: {status} (margin {verdict.margin:+.4f})")
    print(f"  trace: {out / 'trace.jsonl'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rendered = reports.report(iter_trace(args.trace), fmt=args.format)
    if args.out is None and OUT_DIR_ENV not in os.environ:
        for name, text in rendered.items():
            print(f"# {name}")
            print(text)
        return 0
    out = _out_dir(args.out, "out/report")
    out.mkdir(parents=True, exist_ok=True)
    suffix = "csv" if args.format == "csv" else "txt"
    for name, text in rendered.items():
        (out / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    print(f"report written to {out}")
    return 0


def _sweep_one(packed: tuple[Scenario, int | None, str, str, Path]) -> dict:
    scenario, seed, override, value, point_dir = packed
    summary = _run_point(scenario, seed, [override], point_dir)
    return {
        "value": value,
        "evaluated": summary.evaluated,
        "consensus_rate": summary.consensus_rate,
        "spent": to_money(summary.spent_micros),
        "finish": summary.finish,
        "accuracy_met": summary.accuracy.met,
        "budget_met": summary.budget.met,
        "time_met": summary.time.met,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        # two points with one value would write one output directory
        print(f"error: --values repeats {', '.join(repeated)}", file=sys.stderr)
        return 2
    if args.param == "seed" and args.seed is not None:
        # --seed would override the swept value at every point
        print("error: --seed cannot be combined with --param seed", file=sys.stderr)
        return 2
    # every point is loaded and checked before any of them runs
    overrides = [f"{args.param}={value}" for value in values]
    scenarios = [load_scenario(args.scenario, overrides=[override]) for override in overrides]
    out = _out_dir(args.out, f"out/sweep-{scenarios[0].name}")
    label = args.param.replace(".", "_")
    jobs = [
        (scenario, args.seed, override, value, out / f"{label}={value}")
        for scenario, override, value in zip(scenarios, overrides, values)
    ]
    # imported here, so run, report and validate do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_sweep_one, jobs))

    index = out / "sweep.csv"
    index.write_text(reports.render(rows, list(rows[0]), "csv"), encoding="utf-8")
    print(f"{len(rows)} runs -> {index}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
