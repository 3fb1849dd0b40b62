"""Write perfbench/pins.json: trace digests and model outputs per workload.

Usage, from the root of a checkout:

    python3 perfbench/pin.py

Runs every input of every workload once (untimed) and records each run's
trace sha256 and model outputs.  The inputs do not depend on the bench seed,
which only permutes the run order, so one pin per input holds for every
seed.  run.py fails every run that does not match its pin: re-pin only in a
change that declares itself a behaviour change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench
import workloads


def main() -> int:
    slosim = bench.import_slosim()
    if slosim is None:
        print(f"error: no slosim sources under {bench.SRC}", file=sys.stderr)
        return 2

    pins: dict[str, dict] = {}
    scratch = bench.WORK / f"pin-pid{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 1, scratch / "inputs")
            done = bench.run_pass(slosim, workload, scratch)
            if done.failed:
                print(f"error: {name}: {done.failed} runs failed", file=sys.stderr)
                return 1
            pins[name] = {
                "sha256": bench.combined_digest(done.runs),
                "runs": {
                    str(r.index): {"sha256": r.sha256, "outputs": r.outputs}
                    for r in sorted(done.runs, key=lambda r: r.index)
                },
            }
            print(f"{name}: {pins[name]['sha256']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {bench.PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
