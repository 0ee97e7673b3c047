"""Write perfbench/reference/<workload>.json: check id -> status.

    python3 perfbench/make_reference.py

Runs every workload once per seed of REFERENCE_SEEDS, requires the same
check statuses from all seeds (float residuals may differ, statuses must not)
and no FAIL, and writes the statuses.  Run it from the root of a checkout
of the commit whose statuses become the reference.
"""

from __future__ import annotations

import json
import sys
import time

import run

# the CLI's default seed and two others; perfbench/README.md names them
REFERENCE_SEEDS = (20260801, 1, 7)


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.build()
    (run.BENCH / "reference").mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        seen = []
        for seed in REFERENCE_SEEDS:
            sample = run.spawn(
                [sys.executable, "-m", "snbethe.cli", *run.cli_args(workload, seed)],
                workload, time.perf_counter() + run.RUN_LIMIT_S,
            )
            statuses = run.report_statuses(sample)
            if statuses is None:
                print(f"{workload} seed {seed}: no report (exit {sample.exit_code})",
                      file=sys.stderr)
                return 1
            seen.append(statuses)
        if any(s != seen[0] for s in seen) or set(seen[0].values()) - {"PASS", "SKIPPED"}:
            print(f"{workload}: statuses differ across seeds or a check failed",
                  file=sys.stderr)
            return 1
        path = run.BENCH / "reference" / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(seen[0], fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(seen[0])} checks, seeds {REFERENCE_SEEDS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
