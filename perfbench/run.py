"""Benchmark of the snbethe verification CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is one
``snbethe run <suite> --n N --format json --seed <seed>`` invocation, started
as a child process from ``src`` (closed loop, one client: the next child
starts when the previous one has exited).  A user pays the whole child, so a
fresh process per sample also keeps every sample as cold as a real run: the
suite caches live for one process only.

``--trace 0`` runs children for ``--seconds`` seconds and reports the
end-to-end metrics: the child's wall time, CPU time and peak RSS, and the
set-up time of a fresh interpreter that imports the CLI and builds the
workload's configuration.  ``--trace 1`` alternates untraced children and
children under ``perfbench/tracer.py`` for ``--seconds`` seconds, starting and
ending with an untraced one, and reports the per-layer metrics.

Every report is checked against ``perfbench/reference/<workload>.json`` (check
id -> PASS or SKIPPED), and all reports of one run, which share a seed, must
be byte-identical.  The last line of standard output is the result object;
the line before it holds the details (percentiles, sample counts, machine
record).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> (suite, n); BENCHMARK.json says why each was chosen.  Left out:
# the spectra suite (at n=5 one run takes about 110 s, over the run budget;
# at n=3 and n=4 about a third of all seeds end in FAIL and exit 3, because
# the homogeneous family's random combination is not certified simple and
# joint_eigen raises instead of drawing again), and identities-xxx --n 4
# (20 s per sample: two samples a run, whose medians spread by up to 24%
# between runs on a 2-core shared host).
WORKLOADS = {
    "gaudin-n5": ("identities-gaudin", 5),
    "homogeneous-n4": ("homogeneous", 4),
}

# set-up samples taken before each workload sample, and at least this many
# per run
SETUP_PER_SAMPLE = 2
SETUP_SAMPLES = 7
# A run must end within 180 s; a child still running at this many seconds
# after the run started is killed and fails every reference check.
RUN_LIMIT_S = 170.0
SETUP_CODE = (
    "import sys\n"
    "from snbethe import cli\n"
    "cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))\n"
)
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Per-layer metrics: span name -> the aggregates reported for it.  Layers
# that only the spectra suite reaches (certificates, eigen records, the
# commutant, most cached builders) read 0 on every workload and are left out.
FUNCTION_METRICS = {
    "permutations.ga_mul": ("calls", "self_s"),
    "permutations.trace_map": ("calls", "self_s"),
    "xxx.t_m_poly": ("calls", "self_s"),
    "spectra.SpanBasis.add": ("calls", "self_s"),
    "spectra.algebra_span": ("calls", "self_s"),
    "reps.BlockMatrix.mul": ("calls", "self_s"),
    "reps.represent": ("calls", "self_s"),
    "linalg.det_perm_expansion": ("self_s",),
    "gaudin.phi_polys": ("self_s",),
    "homogeneous.homogeneous_generators": ("self_s",),
    "suites.Suite.run": ("calls",),
    "suites.Suite.skip": ("calls",),
    "suites.build.gaudin_table": ("incl_s", "self_s"),
    "suites.build.homogeneous_span": ("incl_s", "self_s"),
}
RENAMED = {
    "spectra.SpanBasis.add.calls": "spectra.SpanBasis.add.attempts",
    "suites.Suite.run.calls": "suites.checks.run",
    "suites.Suite.skip.calls": "suites.checks.skipped",
}
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv, tag: str, deadline: float) -> Sample:
    """Run argv to completion, killing it at `deadline` (perf_counter time);
    wall time from spawn to exit, CPU time and peak RSS of that child alone
    (wait4 rusage)."""
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    killed = []
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - start), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted or terminated: leave no child running
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode, bool(killed), out_path.read_bytes(), err_path.read_bytes(),
    )


def cli_args(workload: str, seed: int) -> list:
    suite, n = WORKLOADS[workload]
    return ["run", suite, "--n", str(n), "--format", "json", "--seed", str(seed)]


def load_reference(workload: str) -> dict:
    with open(BENCH / "reference" / f"{workload}.json") as fh:
        return json.load(fh)


def report_statuses(sample: Sample):
    """check id -> status, or None when the child did not produce a report."""
    if sample.exit_code != 0 or sample.timed_out:
        return None
    try:
        report = json.loads(sample.stdout)
        return {c["check"]: ("error" if c["residual"] == "error" else c["status"])
                for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return None


def grade(sample: Sample, reference: dict):
    """(checks attempted, checks failed, SKIPPED records) of one child.

    A check fails if it is FAIL or an error, if it is missing, or if the
    reference says PASS and the run does not.  A child that exits non-zero,
    crashes or times out fails every reference check."""
    statuses = report_statuses(sample)
    if statuses is None:
        return len(reference), len(reference), 0
    failed = 0
    for check in set(reference) | set(statuses):
        got = statuses.get(check)
        if got not in ("PASS", "SKIPPED") or (
            reference.get(check) == "PASS" and got != "PASS"
        ):
            failed += 1
    skipped = sum(s == "SKIPPED" for s in statuses.values())
    return len(set(reference) | set(statuses)), failed, skipped


def explain(sample: Sample, failed: int):
    """Say on standard error why a child failed checks."""
    print(f"perfbench: {failed} check(s) failed; exit {sample.exit_code}, "
          f"timed out {sample.timed_out}, wall {sample.wall_s:.2f} s",
          file=sys.stderr)
    sys.stderr.write(sample.stderr.decode(errors="replace")[-2000:])


def timing(values: list) -> dict:
    """Median, the highest nearest-rank percentile with at least ten samples
    beyond it (none below eleven samples), the sample count and the samples
    in the order taken."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n,
           "high_pct": None, "high_value": None, "values": values}
    if n > 10:
        out["high_pct"] = round(100.0 * (n - 10) / n, 1)
        out["high_value"] = ordered[n - 11]
    return out


def machine_record() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def build():
    """Byte-compile the program so that no sample pays for it."""
    code = subprocess.call(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "snbethe")],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    if code != 0:
        raise SystemExit(f"perfbench: compiling {SRC / 'snbethe'} failed")


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end run: set-up samples, then children for `seconds`."""
    args = cli_args(workload, seed)
    reference = load_reference(workload)
    setup_argv = [sys.executable, "-c", SETUP_CODE, *args]
    setup, samples, attempted, failed, skipped = [], [], 0, 0, []
    first = None
    identical = True
    # Set-up samples go before each workload sample, so that both spread
    # over the same window and drift of the machine's speed hits both alike.
    window_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < window_end:
        for _ in range(SETUP_PER_SAMPLE):
            setup.append(spawn(setup_argv, f"{workload}-setup", deadline).wall_s)
        sample = spawn([sys.executable, "-m", "snbethe.cli", *args], workload, deadline)
        a, f, s = grade(sample, reference)
        attempted, failed = attempted + a, failed + f
        skipped.append(s)
        if first is None:
            first = sample.stdout
        identical = identical and sample.stdout == first
        samples.append(sample)
        if f:
            explain(sample, f)
    while len(setup) < SETUP_SAMPLES:
        setup.append(spawn(setup_argv, f"{workload}-setup", deadline).wall_s)
    metrics = {
        "wall_s": (timing([s.wall_s for s in samples]), "s"),
        "cpu_s": (timing([s.cpu_s for s in samples]), "s"),
        "peak_rss_mb": (timing([s.rss_mb for s in samples]), "MB"),
        "setup_s": (timing(setup), "s"),
    }
    details = {name: t for name, (t, _) in metrics.items()}
    details.update({
        "checks_skipped": statistics.median(skipped),
        "check_fail_ratio": failed / attempted,
        "reports_identical": identical,
    })
    values = {name: {"value": t["median"], "unit": unit}
              for name, (t, unit) in metrics.items()}
    return values, details, attempted, failed, identical


def layer_metrics(summary: dict, traced_wall_s: float) -> dict:
    """name -> (value, unit) from the summary of one traced child."""
    functions, counts = summary["functions"], summary["counts"]
    values = {}
    for name, fields in FUNCTION_METRICS.items():
        entry = functions.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for field in fields:
            metric = RENAMED.get(f"{name}.{field}", f"{name}.{field}")
            values[metric] = (entry[field], UNITS[field])
    for counter, value in counts.items():
        values[counter] = (value, "count")
    accepted = counts["spectra.SpanBasis.add.accepted"]
    attempts = values["spectra.SpanBasis.add.attempts"][0]
    values["spectra.SpanBasis.add.useful_ratio"] = (
        accepted / attempts if attempts else 0.0, "ratio")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (summary["layers_self_s"][layer], "s")
    values["trace.coverage"] = (summary["covered_s"] / traced_wall_s, "ratio")
    return values


def trace(workload: str, seed: int, seconds: float, deadline: float):
    """Per-layer run: untraced and traced children alternate for `seconds`
    (at least one traced child), starting and ending with an untraced one, so
    that drift of the machine's speed hits both kinds alike.  Each per-layer
    metric is the median over the traced children.  The overhead ratio is
    the median, over the traced children, of its wall over the mean wall of
    the two untraced children around it."""
    args = cli_args(workload, seed)
    reference = load_reference(workload)
    plain_argv = [sys.executable, "-m", "snbethe.cli", *args]
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    summary_path = OUT / f"summary-{workload}-{seed}.json"
    traced_argv = [
        sys.executable, str(BENCH / "tracer.py"), "--workload", workload,
        "--spans", str(spans), "--summary", str(summary_path), "--", *args,
    ]
    untraced = [spawn(plain_argv, workload, deadline)]
    traced, per_run = [], []
    window_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < window_end:
        summary_path.unlink(missing_ok=True)
        traced.append(spawn(traced_argv, f"{workload}-traced", deadline))
        if not summary_path.is_file():
            sys.stderr.write(traced[-1].stderr.decode(errors="replace")[-2000:])
            raise SystemExit(f"perfbench: traced run of {workload} wrote no summary")
        with open(summary_path) as fh:
            per_run.append(layer_metrics(json.load(fh), traced[-1].wall_s))
        untraced.append(spawn(plain_argv, workload, deadline))
    graded = [grade(sample, reference) for sample in untraced + traced]
    for sample, (_, f, _) in zip(untraced + traced, graded):
        if f:
            explain(sample, f)
    attempted = sum(g[0] for g in graded)
    failed = sum(g[1] for g in graded)
    identical = all(s.stdout == untraced[0].stdout for s in untraced + traced)
    values = {}
    for name, (_, unit) in per_run[0].items():
        runs = [r[name][0] for r in per_run]
        values[name] = (statistics.median_low(runs) if unit == "count"
                        else statistics.median(runs), unit)
    untraced_wall = [s.wall_s for s in untraced]
    traced_wall = [s.wall_s for s in traced]
    values["trace.overhead_ratio"] = (statistics.median(
        t / ((before + after) / 2)
        for t, before, after in zip(traced_wall, untraced_wall, untraced_wall[1:])
    ), "ratio")
    values["check_fail_ratio"] = (failed / attempted, "ratio")
    values["checks_skipped"] = (graded[0][2], "count")
    details = {
        "spans_file": str(spans.relative_to(ROOT)),
        "reports_identical": identical,
        "report_sha256": hashlib.sha256(untraced[0].stdout).hexdigest(),
        "untraced_wall_s": timing(untraced_wall),
        "traced_wall_s": timing(traced_wall),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    return metrics, details, attempted, failed, identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="snbethe CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    if not (SRC / "snbethe" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'snbethe'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    build()
    if args.trace:
        values, details, attempted, failed, identical = trace(
            args.workload, args.seed, args.seconds, deadline)
    else:
        values, details, attempted, failed, identical = measure(
            args.workload, args.seed, args.seconds, deadline)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "details": details, "machine": machine_record(),
    }
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
