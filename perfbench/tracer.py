"""Traced run of one snbethe CLI invocation, in this process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py --workload NAME --spans FILE --summary FILE \
        -- run <suite> --n N --format json --seed S

The public functions and methods of each layer module are wrapped from here;
no source file of the program changes.  Each wrapped call records a span
(name, start, end, parent); the span's self time is its duration minus the
time of its child spans.  A few exact counters are taken at the same
boundaries.  The spans are kept in memory and written to ``--spans`` when the
run ends, the per-name aggregates to ``--summary``.  The CLI's report goes to
standard output exactly as the untraced CLI prints it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import types

# The layers are the program's modules.  ``tensoract`` (used only by the
# schur-weyl suite) and ``reports`` are cheap and no planned optimisation
# targets them, so they stay unwrapped.
LAYERS = (
    "rings", "permutations", "linalg", "reps", "gaudin", "xxx",
    "homogeneous", "spectra", "suites", "cli",
)

# Dunder methods are not public, but these two products carry most of the
# run time, so they get spans of their own under short names.
DUNDERS = {
    ("permutations", "GroupAlgebraElement", "__mul__"): "permutations.ga_mul",
    ("reps", "BlockMatrix", "__mul__"): "reps.BlockMatrix.mul",
}

# Public helpers called once per permutation of an element from inside a
# wrapped caller (about 620k calls each in ``identities-xxx --n 4``).  Spans
# around them nearly doubled the run time, so their time is charged to the
# caller's self time (``permutations.trace_map``) instead.
PER_TERM = {"permutations.cycle_data", "permutations.trace_perm"}

# The cached builders of ``suites``; their spans say where cache fills go.
BUILDERS = (
    "gaudin_table", "gaudin_span", "xxx_table", "xxx_span", "homogeneous_span",
    "gz_span", "gaudin_eigen", "xxx_eigen", "homogeneous_eigen",
)


def _ga_term_pairs(args, result):
    # a product by a scalar touches each term once
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _terms_in(args, result):
    return len(args[0].terms) if hasattr(args[0], "terms") else 0


def _accepted(args, result):
    return 1 if result is True else 0


# span name -> (counter name, increment computed from the call)
COUNTERS = {
    "permutations.ga_mul": ("permutations.ga_mul.term_pairs", _ga_term_pairs),
    "permutations.trace_map": ("permutations.trace_map.terms_in", _terms_in),
    "reps.represent": ("reps.represent.ga_terms", _terms_in),
    "spectra.SpanBasis.add": ("spectra.SpanBasis.add.accepted", _accepted),
}


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe (the
    program is single-threaded)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []  # index -> (name, start, end, parent index or -1)
        self.stack = []  # open spans: [index, time covered by children]
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.depth = {}  # name -> number of open spans of that name
        self.counts = {}

    def wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth[name] = 0
        counts = self.counts
        counter, increment = COUNTERS.get(name, (None, None))
        if counter is not None:
            counts.setdefault(counter, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                spans[index] = (name, start, end, parent)
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[2] += duration - frame[1]
                if depth[name] == 0:
                    stat[1] += duration
            if counter is not None:
                counts[counter] += increment(args, result)
            return result

        return traced


def _wrap_class(tracer, layer, cls):
    for attr, member in list(vars(cls).items()):
        full = f"{layer}.{cls.__name__}.{attr}"
        name = DUNDERS.get((layer, cls.__name__, attr))
        if name is None:
            if attr.startswith("_") or full in PER_TERM:
                continue
            name = full
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = type(member)(tracer.wrap(name, member.__func__))
        elif isinstance(member, types.FunctionType):
            wrapped = tracer.wrap(name, member)
        else:  # properties and plain attributes
            continue
        setattr(cls, attr, wrapped)


def install(tracer: Tracer):
    """Wrap every public function and method of the layer modules and rebind
    each module global (and module-level dict value) that held the original."""
    modules = {
        layer: importlib.import_module(f"snbethe.{layer}") for layer in LAYERS
    }
    originals = {}  # id(original) -> (original, wrapped)
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj)
                continue
            if not callable(obj):
                continue
            name = f"{layer}.{attr}"
            if name in PER_TERM:
                continue
            if layer == "suites" and attr in BUILDERS:
                name = f"suites.build.{attr}"
            originals[id(obj)] = (obj, tracer.wrap(name, obj))
    package = [m for k, m in sys.modules.items() if k.split(".")[0] == "snbethe"]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    hit = originals.get(id(val))
                    if hit is not None and hit[0] is val:
                        obj[key] = hit[1]


def summarize(tracer: Tracer) -> dict:
    root = tracer.stats.get("cli.main", [0, 0.0, 0.0])
    layers = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in tracer.stats.items():
        layers[name.split(".")[0]] += self_s
    return {
        "workload": tracer.workload,
        "functions": {
            name: {"calls": c, "incl_s": incl, "self_s": own}
            for name, (c, incl, own) in sorted(tracer.stats.items())
        },
        "counts": dict(sorted(tracer.counts.items())),
        "layers_self_s": layers,
        "root_s": root[1],
        "covered_s": root[1] - root[2],
        "spans": len(tracer.spans),
    }


def write_spans(tracer: Tracer, path: str):
    """One JSON array per line: [id, name, start_s, end_s, parent_id,
    workload], times relative to the first span's start."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for index, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps(
                [index, name, round(start - t0, 7), round(end - t0, 7), parent,
                 tracer.workload]
            ))
            fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--summary", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.workload)
    install(tracer)
    cli = importlib.import_module("snbethe.cli")
    try:
        return cli.main(cli_args)
    finally:
        # also when a check fails or the CLI raises: the benchmark grades the
        # report and needs the summary either way
        sys.stdout.flush()
        with open(args.summary, "w") as fh:
            json.dump(summarize(tracer), fh, indent=1, sort_keys=True)
        write_spans(tracer, args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
