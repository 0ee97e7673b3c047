"""Dead-code guard: every module- or class-level definition in the package is
named somewhere outside its own body, in the package or in the tests.

Re-exports in ``__init__.py`` do not count as a use.  Names read by string
(``getattr(x, "ring_one")``) count, since the protocol hooks are found that
way.  A method counts as used only through an attribute or a string, so a
method named like a builtin (``map``) is not kept alive by the builtin.

What the guard cannot see: dunders (``__hash__``, ``__rsub__``, ...) are
skipped, and a member counts as used when any use of its bare name exists, so
a member whose name another definition also uses (``to_json``, ``is_zero``,
``n``) survives while only the other one is called.  A profile of the tier-1
suite and the CLI runs under ``sys.setprofile`` finds those; CHANGES.md
gives the survey.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snbethe"


def _names(tree, members_only=False) -> Counter:
    """Every identifier a tree reads: attributes and identifier-like string
    constants, and unless members_only also loaded and imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value] += 1
        elif members_only:
            continue
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def _definitions(tree):
    """(qualified name, bare name, node, is a member) for module- and
    class-level definitions."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds):
                        yield f"{node.name}.{member.name}", member.name, member, True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False


def unread_definitions(readers=()) -> list:
    """The package definitions, as 'module.qualname', that no package module
    and no file in ``readers`` reads outside their own body."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text()) for p in sources}
    used = {flag: Counter() for flag in (False, True)}
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in readers)]:
        for flag in used:
            used[flag] += _names(tree, flag)
    out = []
    for path, tree in trees.items():
        for qualified, name, node, member in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[member][name] - _names(node, member)[name] <= 0:
                out.append(f"{path.stem}.{qualified}")
    return out


def test_no_unused_definitions():
    assert unread_definitions(sorted((ROOT / "tests").glob("*.py"))) == []


# The package definitions that only the tests read, each with its reason.  A
# helper whose last caller in the package goes away fails here until it is
# deleted or listed.
TEST_ONLY = {
    "permutations.antiinvolution": "paper content kept for the tests (ROADMAP item 5)",
    "rings.series_exp": "paper content kept for the tests (ROADMAP item 5)",
    "spectra.f_bivariate": "paper content kept for the tests (ROADMAP item 5)",
    "spectra.check_O_relations": "paper content kept for the tests (ROADMAP item 5)",
    "spectra.wronskian": "paper content kept for the tests (ROADMAP item 5)",
    "rings.poly_gcd": "the oracle of spectra._coprime_to_derivative",
    "rings.MultiPoly.variable": "builds the variables of the MultiPoly tests",
    "spectra.annihilator_residual": "the kernel check of the f_bivariate tests",
}


def test_test_only_definitions_are_listed():
    assert set(unread_definitions()) == set(TEST_ONLY)


# Names the benchmark reports that no longer exist; each of its metrics reads
# 0.  The benchmark's own files must drop them, and then this set shrinks.
BENCHMARK_STALE = {"linalg.det_perm_expansion", "permutations.trace_perm"}


def benchmark_names() -> set:
    """Every function or method of the package that the benchmark's tables
    name, as 'module.qualname': ``FUNCTION_METRICS`` in ``perfbench/run.py``,
    ``DUNDERS``, ``BUILDERS`` and ``PER_TERM`` in ``perfbench/tracer.py``,
    read with ``ast``."""
    tables = {}
    for name in ("run.py", "tracer.py"):
        for node in ast.parse((ROOT / "perfbench" / name).read_text()).body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                tables[node.targets[0].id] = node.value
    tables = {k: ast.literal_eval(tables[k])
              for k in ("FUNCTION_METRICS", "DUNDERS", "BUILDERS", "PER_TERM")}
    # a dunder is reported under an alias such as permutations.ga_mul
    aliases = {alias: ".".join(key) for key, alias in tables["DUNDERS"].items()}
    names = set(aliases.values()) | set(tables["PER_TERM"])
    names |= {f"suites.{b}" for b in tables["BUILDERS"]}
    for metric in tables["FUNCTION_METRICS"]:
        names.add(aliases.get(metric, metric.replace("suites.build.", "suites.")))
    return names


def test_benchmark_names_exist():
    missing = set()
    for name in benchmark_names():
        module, *path = name.split(".")
        obj = importlib.import_module(f"snbethe.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(name)
    assert missing == BENCHMARK_STALE
