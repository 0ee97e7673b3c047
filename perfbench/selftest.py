"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed SELFTEST_SEED and checks
that
  * the exact counters (calls, term pairs, terms in, GA terms, span attempts
    and accepted additions, checks run and skipped) repeat exactly;
  * the traced report is byte-identical to the untraced one, so tracing
    changes no result, and the untraced reports of both runs are
    byte-identical, as the CLI promises for one seed;
  * every check matches the reference statuses;
  * the metric names agree with BENCHMARK.json.
It also checks the layer coverage the benchmark relies on: no span closure
and no trace map in gaudin-n5, and builder, span-closure, block-product and
trace-map entries in homogeneous-n4.  Exit status 0 when all checks hold.
"""

from __future__ import annotations

import json
import time

import run

SELFTEST_SEED = 5
EXACT_SUFFIXES = (
    ".calls", ".term_pairs", ".terms_in", ".ga_terms", ".attempts", ".accepted",
    "suites.checks.run", "suites.checks.skipped", "checks_skipped",
)


def exact_counters(values: dict) -> dict:
    return {k: v["value"] for k, v in values.items() if k.endswith(EXACT_SUFFIXES)}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    problems = []

    def check(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    check({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json names the workloads of run.py")
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.build()
    for workload in run.WORKLOADS:
        # --seconds 0: one traced child between two untraced ones
        first = run.trace(workload, SELFTEST_SEED, 0, time.perf_counter() + run.RUN_LIMIT_S)
        second = run.trace(workload, SELFTEST_SEED, 0, time.perf_counter() + run.RUN_LIMIT_S)
        for label, (values, details, attempted, failed, identical) in (
            ("first", first), ("second", second)
        ):
            check(identical, f"{workload}: {label} traced report equals the untraced ones")
            check(failed == 0, f"{workload}: {label} run matches the reference "
                  f"({failed} of {attempted} checks failed)")
        check(first[1]["report_sha256"] == second[1]["report_sha256"],
              f"{workload}: same-seed reports are byte-identical")
        a, b = exact_counters(first[0]), exact_counters(second[0])
        differ = sorted(k for k in a if a[k] != b.get(k))
        check(not differ and a.keys() == b.keys(),
              f"{workload}: {len(a)} exact counters repeat" + (f" (differ: {differ})" if differ else ""))
        check(set(first[0]) == per_layer,
              f"{workload}: traced metrics are BENCHMARK.json's per_layer list")
        values = first[0]
        if workload == "gaudin-n5":
            check(values["spectra.SpanBasis.add.attempts"]["value"] == 0
                  and values["permutations.trace_map.calls"]["value"] == 0,
                  "gaudin-n5: no span closure and no trace map")
        if workload == "homogeneous-n4":
            check(all(values[k]["value"] > 0 for k in (
                "suites.build.homogeneous_span.incl_s", "spectra.SpanBasis.add.attempts",
                "reps.BlockMatrix.mul.calls", "permutations.trace_map.calls",
            )), "homogeneous-n4: builder, span closure, block products and trace map traced")
    values = run.measure("gaudin-n5", SELFTEST_SEED, 0,
                         time.perf_counter() + run.RUN_LIMIT_S)[0]
    check(set(values) == end_to_end,
          "end-to-end metrics are BENCHMARK.json's end_to_end list")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
