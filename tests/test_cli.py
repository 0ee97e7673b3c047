"""Batch driver: exit codes, deterministic reports, object emission."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import block_entries
import snbethe
from snbethe import cli, spectra, suites
from snbethe.cli import build_parser, config_from_args, main
from snbethe.reports import CheckRecord, VerificationReport
from snbethe.reps import central_idempotent, partitions_of
from snbethe.rings import SeededRandom

F = Fraction


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


@pytest.mark.parametrize("n", ["1", "2"])
def test_run_all_smallest_scale(capsys, n):
    rc, out = run_main(capsys, ["run", "all", "--n", n])
    assert rc == 0
    assert "FAIL" not in out.replace("CONJECTURE-FAIL", "")
    assert "suite all" in out


def test_json_reports_byte_identical(capsys, tmp_path):
    argv = ["run", "identities-gaudin", "--n", "2", "--format", "json",
            "--seed", "7"]
    rc1, out1 = run_main(capsys, argv)
    rc2, out2 = run_main(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "identities-gaudin"
    assert all(c["runtime_ms"] == 0 for c in payload["checks"])
    checks = [c["check"] for c in payload["checks"]]
    assert checks == sorted(checks)


def test_output_file_and_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SNBETHE_OUT_DIR", str(tmp_path))
    rc = main(["run", "identities-gaudin", "--n", "2", "--format", "json",
               "--out", "report.json"])
    assert rc == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["summary"]["fail"] == 0


@pytest.mark.parametrize("argv", [["run", "all", "--n", "1"], ["emit", "phi", "--n", "2"]])
def test_unwritable_out_is_a_configuration_error(capsys, tmp_path, argv):
    rc = main([*argv, "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_spectra_at_two_coinciding_pairs(capsys):
    # at z = (0, 0, 1, 1) the deformed family (hbar = 1) has a cyclic but no
    # squarefree element; the dimension law and maximality hold all the same
    rc, out = run_main(capsys, ["run", "spectra", "--n", "4", "--z", "0,0,1,1",
                                "--format", "json"])
    assert rc == 0
    status = {c["check"]: c["status"] for c in json.loads(out)["checks"]}
    assert "FAIL" not in status.values()
    assert status["spectra.dimension-law"] == status["spectra.maximality"] == "PASS"


def test_invalid_config_exit_codes(capsys):
    rc, _ = run_main(capsys, ["run", "all", "--n", "0"])
    assert rc == 2
    rc, _ = run_main(capsys, ["run", "all", "--n", "9"])
    assert rc == 2  # hard cap without the override flag
    rc, _ = run_main(capsys, ["run", "all", "--n", "3", "--z", "0,1"])
    assert rc == 2  # wrong parameter count
    rc, _ = run_main(capsys, ["run", "all", "--n", "3", "--lambda", "2,2"])
    assert rc == 2  # partition size mismatch
    rc, _ = run_main(capsys, ["run", "conjectures", "--n", "3", "--lambda", "1,2"])
    assert rc == 2  # parts not non-increasing
    rc, _ = run_main(capsys, ["run", "identities-xxx", "--n", "2", "--hbar", "0"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:  # run has no --p (emit keeps it)
        main(["run", "identities-xxx", "--n", "2", "--p", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the n = 5 spans need no switch
        main(["run", "spectra", "--n", "5", "--slow"])
    assert exc.value.code == 2


RUN_N2 = ["run", "identities-gaudin", "--n", "2"]


@pytest.mark.parametrize("flags", [
    # (argv, the configuration error it reports)
    (RUN_N2 + ["--z", "1/0,1"], "--z: '1/0' is not a rational number"),
    (RUN_N2 + ["--lambda", "2"], "--lambda applies only to the conjecture probes "
     "(suites conjectures and all)"),
    (["run", "conjectures", "--n", "2", "--lambda", "2,1"], "the partition must have size n"),
    (RUN_N2 + ["--hbar", "0"], "hbar must be nonzero"),
    (RUN_N2 + ["--lambda", "0,2"],  # a zero part
     "the partition must have positive, non-increasing parts"),
    (RUN_N2 + ["--z", "0,x"], "--z: 'x' is not a rational number"),
    (["run", "identities-gaudin", "--n", "3", "--z", "1/0,2,3"],
     "--z: '1/0' is not a rational number"),
    (RUN_N2 + ["--hbar", "1/0"], "--hbar: '1/0' is not a rational number"),
    (["emit", "t", "--p", "1/0"], "--p: '1/0' is not a rational number"),
    (["emit", "t", "--hbar", "1/0"], "--hbar: '1/0' is not a rational number"),
    (["emit", "kz", "--n", "3", "--z", "0,1/0,2"], "--z: '1/0' is not a rational number"),
])
def test_bad_values_are_configuration_errors(capsys, flags):
    argv, message = flags
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("all-n3", ["run", "all", "--n", "3"]),
    ("identities-gaudin-n4", ["run", "identities-gaudin", "--n", "4"]),
    ("homogeneous-n4", ["run", "homogeneous", "--n", "4"]),
    ("identities-xxx-n4", ["run", "identities-xxx", "--n", "4"]),
    ("identities-gaudin-n5", ["run", "identities-gaudin", "--n", "5"]),
    ("homogeneous-n5", ["run", "homogeneous", "--n", "5"]),
    ("identities-gaudin-n6", ["run", "identities-gaudin", "--n", "6"]),
    ("spectra-n4", ["run", "spectra", "--n", "4"]),
    ("spectra-n5", ["run", "spectra", "--n", "5"]),
])
def test_reports_match_golden(capsys, name, argv):
    rc, out = run_main(capsys, [*argv, "--format", "json", "--seed", "7"])
    assert rc == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("emit-phi-n3", ["phi", "--n", "3"]),
    *((f"emit-t-m{m}-n3", ["t", "--n", "3", "--m", str(m)]) for m in range(4)),
    ("emit-s-n3", ["s", "--n", "3"]),
    ("emit-qkz-n3", ["qkz", "--n", "3"]),
    ("emit-kz-n3", ["kz", "--n", "3"]),
    ("emit-charges-n4", ["charges", "--n", "4"]),
    ("emit-theta-k2", ["theta", "--k", "2"]),
    ("emit-idempotents-n3", ["idempotents", "--n", "3"]),
])
def test_emits_match_golden(capsys, name, argv):
    rc, out = run_main(capsys, ["emit", *argv])
    assert rc == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_gaudin_run_builds_each_generator_table_once(capsys, monkeypatch):
    # the claims at the run's own z, the three presentations at n = 4
    # among them, read the generator polynomials from the run's
    # gaudin_table; only the one-off z values (scaled, shifted, permuted)
    # build their own.  Seed 7 draws no identity permutation, scale 1 or
    # shift 0, so none of those is the run's z.  Each u-coefficient of the
    # shifted polynomial φ̃ is built once per run: shifted-det (n <= 4)
    # builds all of them and shifted-edges reads its two edges u^n and u^0
    # back, so at n = 5 only those two are built.
    from snbethe import gaudin, reps

    built, coeffs = [], []
    real, real_coeff = gaudin.phi_polys, gaudin.phi_tilde_coeff

    def counted(n, z):
        built.append(tuple(z))
        return real(n, z)

    def counted_coeff(n, z, polys, k):
        coeffs.append((tuple(z), k))
        return real_coeff(n, z, polys, k)

    monkeypatch.setattr(suites, "phi_polys", counted)
    monkeypatch.setattr(gaudin, "phi_polys", counted)
    monkeypatch.setattr(suites, "phi_tilde_coeff", counted_coeff)
    monkeypatch.setattr(gaudin, "phi_tilde_coeff", counted_coeff)
    try:
        for n in (4, 5):
            reps.content_product_all.cache_clear()
            built.clear()
            coeffs.clear()
            rc, _ = run_main(capsys, ["run", "identities-gaudin", "--n", str(n),
                                      "--format", "json", "--seed", "7"])
            assert rc == 0
            assert built.count(suites.default_z(n)) == 1
            assert len(built) == 6
            z = suites.default_z(n)
            if n == 4:
                assert coeffs == [(z, k) for k in range(n + 1)]
            else:
                assert coeffs == [(z, n), (z, 0)]
            assert reps.content_product_all.cache_info().misses == 1
    finally:
        reps.content_product_all.cache_clear()


def test_each_gaudin_presentation_is_built_once_per_run(capsys, monkeypatch):
    # gaudin.generating-det and spectra.relations read one "P" determinant,
    # gaudin.shifted-det and conjecture.shifted-relations one "Ptilde"
    from collections import Counter

    calls = Counter()
    real = suites.det_presentation

    def counted(kind, n, z, h):
        calls[kind] += 1
        return real(kind, n, z, h)

    monkeypatch.setattr(suites, "det_presentation", counted)
    rc, _ = run_main(capsys, ["run", "all", "--n", "4", "--seed", "7"])
    assert rc == 0
    assert calls == {"P": 1, "Ptilde": 1, "Ptilde0": 1}


def child_output(code: str) -> str:
    """Standard output of a fresh interpreter running code, which imports
    the package from where this process found it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(snbethe.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def test_cli_import_does_not_load_numpy():
    # no module of the package imports numpy; start-up (import the CLI, read a
    # configuration) needs no dataclasses either, which would bring inspect
    # (with ast, dis and tokenize) and compile record methods.  Every suite
    # runs on exact arithmetic, and numpy alone would double a bare
    # interpreter's peak RSS.
    code = (
        "import sys\n"
        "from snbethe import cli\n"
        "cli.config_from_args(cli.build_parser().parse_args("
        "['run', 'identities-gaudin', '--n', '5']))\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['run', 'identities-gaudin', '--n', '5']),\n"
        "             cli.main(['run', 'homogeneous', '--n', '4'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert child_output(code).splitlines() == ["[]", "[0, 0] False"]


def package_imports(modules) -> list:
    """'file: module' for each import of one of the top-level modules in the
    package's sources, read with ``ast``."""
    found = []
    for path in sorted(Path(snbethe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in modules]
    return found


def test_package_imports_neither_dataclasses_nor_typing():
    # read from the sources: ``site`` may import typing before the package
    assert package_imports(("dataclasses", "typing")) == []


def test_package_imports_no_numpy():
    # every claim is exact; numpy serves only the tests' float oracle
    assert package_imports(("numpy",)) == []


def test_claim_defaults():
    claim = suites.Claim("x.check", "an anchor", lambda cfg, rng: 0)
    assert claim.params is suites.n_only
    assert claim.requires == ()
    assert claim.conjecture is False


def test_check_record_json():
    record = CheckRecord("x.check", "an anchor", {"n": 3}, "PASS", "0", 12.34567)
    assert record.detail == ""
    want = {"check": "x.check", "anchor": "an anchor", "params": {"n": 3},
            "status": "PASS", "residual": "0", "runtime_ms": 0}
    assert record.to_json() == want
    assert record.to_json(with_timings=True) == {**want, "runtime_ms": 12.346}
    skipped = CheckRecord("x.check", "an anchor", {"n": 3}, "SKIPPED", "-", 0.0,
                          "needs n >= 4")
    assert skipped.to_json() == {**want, "status": "SKIPPED", "residual": "-",
                                 "detail": "needs n >= 4"}


def test_reports_do_not_share_checks():
    a, b = VerificationReport("all", {}), VerificationReport("all", {})
    a.add(CheckRecord("x.check", "an anchor", {}, "FAIL", "1", 0.0))
    assert len(a.checks) == 1 and b.checks == []
    assert a.failed and not b.failed
    assert not a.internal_error and not b.internal_error


def test_trend_claims_do_not_load_numpy():
    # the trends compare exact chordal distances, the relation claims read
    # exact identities block by block, and the fiber loop reads one exact
    # kernel per block; the conjecture and spectra runs load no numpy either
    code = (
        "import sys, contextlib, io\n"
        "from snbethe import cli, suites\n"
        "cfg = cli.config_from_args(cli.build_parser().parse_args("
        "['run', 'spectra', '--n', '3']))\n"
        "b = suites.Builds()\n"
        "print([str(claim(cfg, None, b)) for claim in (suites.spectra_trend_rational, "
        "suites.spectra_trend_shifted, suites.spectra_trend_hbar, suites.spectra_relations, "
        "suites.conjecture_shifted_relations, suites.conjecture_deformed_relations, "
        "suites.spectra_fiber_loop)], 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['run', 'conjectures', '--n', '3']),\n"
        "             cli.main(['run', 'spectra', '--n', '4'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert child_output(code).splitlines() == [
        "['True', 'True', 'True', '0', '0', '0', 'True'] False", "[0, 0] False"]


def test_cli_setup_builds_no_cayley_table():
    # the Cayley tables are built on the first large product, so importing
    # the CLI and reading a configuration stay as cheap as before them
    code = (
        "from snbethe import cli, permutations\n"
        "cli.config_from_args(cli.build_parser().parse_args("
        "['run', 'identities-gaudin', '--n', '6']))\n"
        "print(permutations._cayley.cache_info().misses)\n"
    )
    assert child_output(code) == "0"


def test_one_certificate_per_span_and_seed(capsys, monkeypatch):
    calls = []
    real = spectra.certificate

    def counted(gens, seed):
        calls.append((tuple(tuple(block_entries(g)) for g in gens), seed))
        return real(gens, seed)

    monkeypatch.setattr(spectra, "certificate", counted)
    rc, _ = run_main(capsys, ["run", "spectra", "--n", "4", "--seed", "7"])
    assert rc == 0
    # the gaudin, xxx and homogeneous generators at the run's parameters (the
    # dimension law and maximality), the Gelfand-Zetlin ones, the pair of
    # spectra.coincidences, and xxx at its own parameters (simple spectrum);
    # the fiber loop reuses the homogeneous one
    assert len(calls) == len(set(calls)) == 6


# The suite's builders: each takes the run's store first and is read through it.
BUILDERS = (
    "gaudin_table", "gaudin_tilde_coeff", "gaudin_span", "xxx_table", "xxx_span",
    "homogeneous_span", "gz_span", "certificate", "kz_images", "t_table", "t_images",
    "t_poly", "gaudin_presentation",
)


def test_suites_hold_no_module_cache():
    # shared objects live in the run's store, so suites.py names neither
    # functools cache, as a decorator or otherwise
    tree = ast.parse(Path(suites.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    assert names & {"lru_cache", "cache"} == set()


def test_only_the_store_builder_traces():
    # every claim reads T_m(u) from the run's store and evaluates it at its
    # own p, so suites.py names the literal trace in its builder alone
    tree = ast.parse(Path(suites.__file__).read_text())
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "t_poly")

    def uses(root):
        return sum(isinstance(node, ast.Name) and node.id == "t_m_poly"
                   for node in ast.walk(root))

    assert uses(builder) == uses(tree) == 1


def hidden_clamps(tree) -> list:
    """(function, line) of every place where the claim table, or a suites.py
    function it reaches by name, bounds the configured n inside a claim: min
    or max over an expression of cfg.n, a branch on cfg.n against a
    constant, or a loop over a literal tuple of sizes whose body reads
    cfg.n.  Local names bound to cfg.n count as cfg.n; a helper that takes
    n as a plain argument does not, so an order bound it computes is named
    in its claim's params (m_max, k_max)."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SUITES" for t in node.targets))

    def is_cfg_n(node):
        return (isinstance(node, ast.Attribute) and node.attr == "n"
                and isinstance(node.value, ast.Name) and node.value.id == "cfg")

    def aliases(root):
        out = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                out |= {t.id for t, v in pairs if isinstance(t, ast.Name) and is_cfg_n(v)}
        return out

    def literal_sizes(node, top=True):
        # a tuple or list of ints, or of tuples of ints
        return (not top and isinstance(node, ast.Constant) and type(node.value) is int
                or isinstance(node, (ast.Tuple, ast.List))
                and all(literal_sizes(x, False) for x in node.elts))

    found, seen, todo = [], set(), [("SUITES", table)]
    while todo:
        name, root = todo.pop()
        names = aliases(root)

        def reads_n(node):
            return any(is_cfg_n(x) or isinstance(x, ast.Name) and x.id in names
                       for x in ast.walk(node))

        for node in ast.walk(root):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
                seen.add(node.id)
                todo.append((node.id, defs[node.id]))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("min", "max"):
                hit = any(map(reads_n, node.args))
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                hit = (any(is_cfg_n(s) or getattr(s, "id", None) in names for s in sides)
                       and any(isinstance(s, ast.Constant) for s in sides))
            elif isinstance(node, ast.For):
                hit = literal_sizes(node.iter) and any(map(reads_n, node.body))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                hit = any(literal_sizes(g.iter) for g in node.generators) and reads_n(node)
            else:
                hit = False
            if hit:
                found.append((name, node.lineno))
    return found


def test_claims_bound_n_only_by_their_requirements():
    # a claim runs at cfg.n, and a cap is an n_range that its SKIP names
    assert hidden_clamps(ast.parse(Path(suites.__file__).read_text())) == []


@pytest.mark.parametrize("argv", [
    ["run", "identities-xxx", "--n", "4"],
    ["run", "all", "--n", "3"],
])
def test_each_literal_trace_is_built_once_per_run(capsys, monkeypatch, argv):
    # one symbolic product in S_{n+m} per parameters and m, whatever p the
    # claims read it at
    from collections import Counter

    from snbethe import xxx

    calls, ps = Counter(), []
    real = xxx.t_m_poly

    def counted(params, m, p=None):
        calls[(params, m)] += 1
        ps.append(p)
        return real(params, m, p=p)

    monkeypatch.setattr(suites, "t_m_poly", counted)
    monkeypatch.setattr(xxx, "t_m_poly", counted)
    rc, _ = run_main(capsys, [*argv, "--seed", "7"])
    assert rc == 0
    assert calls and set(calls.values()) == {1}
    assert set(ps) == {None}


def test_runs_share_no_builds(monkeypatch):
    # two runs of one configuration in one process build the same objects,
    # each key once per run: no run reads what an earlier run built
    from collections import Counter

    calls = Counter()
    for name in BUILDERS:
        def counted(b, *key, real=getattr(suites, name), name=name):
            calls[(name, *key)] += 1
            return real(b, *key)

        monkeypatch.setattr(suites, name, counted)
    cfg = config_from_args(build_parser().parse_args(["run", "all", "--n", "3"]))
    runs = []
    for _ in range(2):
        calls.clear()
        assert not suites.run_suite(cfg).failed
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert set(runs[0].values()) == {1}
    assert {key[0] for key in runs[0]} == set(BUILDERS)


@pytest.mark.parametrize("values", [
    {"nosuch": 1},  # not a flag
    {"suite": "nosuch"},  # the suite is the positional argument
    {"suite": "homogeneous"},
    {"hbar": [1]},  # wrong JSON type
    {"slow": "yes"},
    {"n": True},
    {"seed": 2.5},  # an integer flag
    [2],  # not an object
    {"p": 5},  # a flag of emit only
    {"slow": True},  # the removed --slow switch is no flag
    {"tol": 1e-8},  # nor is the removed --tol
])
def test_bad_config_files_are_configuration_errors(capsys, tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    rc = main(["run", "identities-gaudin", "--n", "2", "--config", str(cfg)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, skipped", [
    (["run", "identities-gaudin", "--n", "3"],
     ["gaudin.content-det", "gaudin.generating-det", "gaudin.shifted-det"]),
    (["run", "spectra", "--n", "3"], ["spectra.eigen-count", "spectra.relations"]),
    (["run", "conjectures", "--n", "3"],
     ["conjecture.deformed-relations", "conjecture.shifted-relations"]),
    # a triple coincidence: the span claims need z values repeated at most twice
    (["run", "spectra", "--n", "4", "--z", "0,0,0,1"],
     ["spectra.dimension-law", "spectra.eigen-count", "spectra.maximality",
      "spectra.relations", "spectra.simple-spectrum", "spectra.trend-hbar"]),
])
def test_repeated_z_skips_what_needs_distinct_z(capsys, argv, skipped):
    if "--z" not in argv:
        argv = [*argv, "--z", "0,0,1"]
    rc, out = run_main(capsys, [*argv, "--format", "json"])
    assert rc == 0
    checks = json.loads(out)["checks"]
    assert all(c["status"] != "FAIL" for c in checks)
    got = {c["check"]: c["detail"] for c in checks
           if c["status"] == "SKIPPED" and c["check"] in skipped}
    assert sorted(got) == skipped
    triple = {"spectra.dimension-law", "spectra.maximality",
              "spectra.simple-spectrum", "spectra.trend-hbar"}
    for check, why in got.items():
        assert ("three times" if check in triple else "distinct") in why


@pytest.mark.parametrize("argv", [
    *(["run", suite, "--n", n] for suite in suites.SUITES for n in ("1", "2", "3")),
    ["run", "spectra", "--n", "4", "--z", "0,0,0,1"],
    ["run", "conjectures", "--n", "4", "--lambda", "2,1,1"],
], ids=lambda argv: "".join(argv[1:]).replace("--", "-"))
def test_every_declared_check_reported_once(capsys, argv):
    rc, out = run_main(capsys, [*argv, "--format", "json"])
    assert rc == 0
    claims = {c.check_id: c for c in suites.SUITES[argv[1]]}
    assert len(claims) == len(suites.SUITES[argv[1]])  # ids declared once
    records = json.loads(out)["checks"]
    assert sorted(r["check"] for r in records) == sorted(claims)
    for r in records:
        if r["status"] == "SKIPPED":
            assert r["detail"] in [q.text for q in claims[r["check"]].requires]


@pytest.mark.parametrize("name, probe", [
    (None, None),
    ("kz_elements", "conjecture.shifted-relations"),
    ("s_k_poly", "conjecture.deformed-relations"),
])
def test_lambda_probes_read_their_block_at_n(capsys, monkeypatch, name, probe):
    # the probes run at n = 4 itself, so --lambda 2,1,1 reads that block:
    # both pass, and a perturbation on that block alone fails its probe
    if name is not None:
        monkeypatch.setattr(suites, name, perturbed(name, (2, 1, 1)))
    rc, out = run_main(capsys, ["run", "conjectures", "--n", "4", "--z", "1,3,6,10",
                                "--lambda", "2,1,1", "--format", "json"])
    assert rc == 0
    records = json.loads(out)["checks"]
    assert {r["check"]: r["status"] for r in records} == {
        check: "CONJECTURE-FAIL" if check == probe else "CONJECTURE-PASS"
        for check in ("conjecture.shifted-relations", "conjecture.deformed-relations")}
    assert all(r["params"] == {"n": 4, "lambda": [2, 1, 1]} for r in records)


def test_config_file_mirrors_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "z": "0,1", "seed": 99}))
    rc, out = run_main(capsys, ["run", "identities-gaudin", "--config", str(cfg)])
    assert rc == 0


def test_emit_theta(capsys):
    rc, out = run_main(capsys, ["emit", "theta", "--k", "2"])
    assert rc == 0
    payload = json.loads(out)
    # (s23 s12 - s12 s23 - 1)/2 in one-line JSON form
    want = [
        {"perm": [1, 2, 3], "coeff": "-1/2"},
        {"perm": [2, 3, 1], "coeff": "-1/2"},
        {"perm": [3, 1, 2], "coeff": "1/2"},
    ]
    assert payload == want


def test_emit_kz(capsys):
    rc, out = run_main(capsys, ["emit", "kz", "--n", "2", "--z", "0,1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == [
        [{"perm": [2, 1], "coeff": "-1/1"}],
        [{"perm": [2, 1], "coeff": "1/1"}],
    ]


def test_emit_charges(capsys):
    rc, out = run_main(capsys, ["emit", "charges", "--n", "4"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 2  # two charges at n = 4
    # the first charge is the cyclic window sum: the four "adjacent" swaps
    first = payload[0]
    assert len(first) == 4
    assert all(term["coeff"] == "1/1" for term in first)


def test_emit_phi_and_idempotents(capsys):
    rc, out = run_main(capsys, ["emit", "phi", "--n", "2", "--z", "0,1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["1,0"] == [{"perm": [1, 2], "coeff": "2/1"}]
    rc, out = run_main(capsys, ["emit", "idempotents", "--n", "2"])
    payload = json.loads(out)
    assert payload["2"] == [
        {"perm": [1, 2], "coeff": "1/2"},
        {"perm": [2, 1], "coeff": "1/2"},
    ]


@pytest.mark.parametrize("argv", [
    ["emit", "kz", "--n", "2", "--z", "1,1"],
    # n and the number of parameter values disagree
    ["emit", "phi", "--n", "8"],  # seven default values
    ["emit", "t", "--n", "8", "--m", "1"],
    ["emit", "t", "--n", "3", "--z", "1,2"],
    ["emit", "s", "--n", "3", "--z", "1,2"],
    *(["emit", kind, "--n", n] for n in ("0", "-1") for kind in (
        "phi", "t", "s", "qkz", "kz", "charges", "theta", "idempotents")),
])
def test_emit_rejects_bad_values(capsys, argv):
    rc = main(argv)
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "all", "--n", "8", "--allow-large-n"],
    ["emit", "phi", "--n", "8"],
])
def test_default_z_too_short_says_so(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("configuration error: the default z has 7 values; "
                            "give n = 8 values with --z\n")


def test_emit_exits_3_when_building_the_object_fails(capsys, monkeypatch):
    # the configuration was valid, so a failure while building the object is
    # an internal error: exit 3 and one line, as for a claim's exception in run
    def out_of_memory(la, n):
        raise MemoryError("no room for the idempotent")

    monkeypatch.setattr(cli, "central_idempotent", out_of_memory)
    rc = main(["emit", "idempotents", "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == "internal error: MemoryError: no room for the idempotent\n"
    assert "Traceback" not in captured.err


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonsense"])


def test_strict_flag_plumbs_through():
    args = build_parser().parse_args(["run", "all", "--strict"])
    cfg = config_from_args(args)
    assert cfg.strict
    assert cfg.n == 3 and len(cfg.z) == 3


@pytest.mark.parametrize("flags, code", [([], 0), (["--strict"], 1)])
def test_strict_exits_1_on_conjecture_fail(capsys, monkeypatch, flags, code):
    monkeypatch.setattr(suites, "block_residual", lambda n, partitions, residuals: F(1))
    rc, out = run_main(capsys, ["run", "conjectures", "--n", "3", *flags])
    assert rc == code
    assert out.count("CONJECTURE-FAIL") == 2


def test_readme_flag_list_matches_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = readme.split("Flags: `", 1)[1].split("`", 1)[0].split()
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    flags = [opt for action in run._actions for opt in action.option_strings
             if opt.startswith("--") and opt != "--help"]
    assert sorted(listed) == sorted(flags)


def test_probe_records_name_lambda(capsys):
    rc, out = run_main(capsys, ["run", "all", "--n", "3", "--lambda", "2,1",
                                "--format", "json"])
    assert rc == 0
    params = {r["check"]: r["params"] for r in json.loads(out)["checks"]}
    for check in ("conjecture.shifted-relations", "conjecture.deformed-relations"):
        assert params[check] == {"n": 3, "lambda": [2, 1]}
    assert params["spectra.relations"] == {"n": 3}


def perturbed(name, block=None):
    """suites' kz_elements with e_la added to H_1, or its s_k_poly with e_la
    added to S_1, la the partition ``block`` or (n): central, so the family
    still commutes, and nonzero on the block la alone."""
    real = getattr(suites, name)

    def e(n):
        return central_idempotent(block or (n,), n)

    if name == "kz_elements":
        def fn(n, z, polys):
            fam = real(n, z, polys)
            return [fam[0] + e(n)] + fam[1:]
    else:
        def fn(params, k):
            out = real(params, k)
            return out + e(params.n) if k == 1 else out
    return fn


@pytest.mark.parametrize("name, probe, n", [
    pytest.param(name, probe, n, id=f"{name}-{probe}" + ("" if n == 3 else f"-n{n}"))
    for name, probe in (("kz_elements", "conjecture.shifted-relations"),
                        ("s_k_poly", "conjecture.deformed-relations"))
    for n in (3, 4, 5)
])
def test_relation_claims_see_a_central_perturbation(capsys, monkeypatch, name, probe, n):
    monkeypatch.setattr(suites, name, perturbed(name))

    def statuses(*argv):
        # z_1 != 0: the shifted presentation reads H_1 only through z_1 H_1
        rc, out = run_main(capsys, ["run", *argv, "--n", str(n), "--z",
                                    ",".join("1 3 6 10 15".split()[:n]), "--format", "json"])
        records = json.loads(out)["checks"]
        assert all(r["params"]["n"] == n for r in records if "relations" in r["check"])
        return rc, {r["check"]: r["status"] for r in records}

    rc, got = statuses("spectra")
    assert got["spectra.relations"] == ("FAIL" if name == "kz_elements" else "PASS")
    assert rc == (1 if name == "kz_elements" else 0)
    rc, got = statuses("conjectures")
    other = ({"conjecture.shifted-relations", "conjecture.deformed-relations"}
             - {probe}).pop()
    assert rc == 0
    assert got == {probe: "CONJECTURE-FAIL", other: "CONJECTURE-PASS"}
    # --lambda is read at n = 3 and 4: the dense e_(n) slows each perturbed
    # probe run at n = 5 to about a second
    blocks = ((f"{n - 1},1", "CONJECTURE-PASS"), (",".join("1" * n), "CONJECTURE-PASS"),
              (str(n), "CONJECTURE-FAIL"))
    for lam, want in blocks if n < 5 else ():
        _, got = statuses("conjectures", "--lambda", lam)
        assert got[probe] == want


# every suite of ``run``; the first two read --lambda
CONTRACT_SUITES = ("conjectures", "all", "identities-gaudin", "identities-xxx", "homogeneous",
                   "schur-weyl", "spectra")
# the invalid part of each drawn configuration, in turn; None draws a valid one
FAULTS = (None, "n", "z count", "z 1/0", "z x", "hbar 0", "hbar 1/0", "lambda size",
          "lambda order", "lambda zero", "lambda word", "lambda suite", "tol",
          "config unknown", "config mistyped", "config tol", None, None, None, None)


def contract_config(rng, fault, cfg_path):
    """A drawn ``run`` configuration over every suite at n <= 3 whose one
    invalid part, if any, is ``fault``; a config file, if drawn, is written to
    cfg_path."""
    suite = rng.choice(CONTRACT_SUITES[2:] if fault == "lambda suite" else CONTRACT_SUITES)
    n = rng.integer(-1, 0) if fault == "n" else rng.integer(1, 3)
    size = max(n, 1)
    argv = ["run", suite, "--n", str(n), "--seed", str(rng.integer(0, 9)),
            "--format", "json"]
    pool = ["0", "2/3", "-5", "7"]
    z = {"z count": pool[:size + (1 if size == 1 else rng.choice((-1, 1)))],
         "z 1/0": ["1/0"] + pool[1:size], "z x": pool[1:size] + ["x"]}.get(
        fault, rng.choice((None, pool[:size], ["1/2"] * size)))
    if z is not None:
        argv += ["--z", ",".join(z)]
    hbar = fault[5:] if fault in ("hbar 0", "hbar 1/0") else rng.choice((None, "1/2", "3"))
    if hbar is not None:
        argv += ["--hbar", hbar]
    bad_lambda = {"lambda size": str(size + 1), "lambda order": "1,2",
                  "lambda zero": f"0,{size}", "lambda word": "two"}
    if fault in bad_lambda:
        argv += ["--lambda", bad_lambda[fault]]
    elif fault == "lambda suite" or (suite in CONTRACT_SUITES[:2] and rng.integer(0, 1)):
        argv += ["--lambda", ",".join(map(str, rng.choice(partitions_of(size))))]
    if fault == "tol":
        argv += ["--tol", "1e-8"]  # a removed flag
    file_values = {"config unknown": {"nosuch": 1}, "config tol": {"tol": 1e-8},
                   "config mistyped": rng.choice(({"n": True}, {"hbar": [1]}, {"seed": 2.5})),
                   }.get(fault, rng.choice((None, None, {"seed": 5})))
    if file_values is not None:
        cfg_path.write_text(json.dumps(file_values))
        argv += ["--config", str(cfg_path)]
    return argv


def run_twice(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, asserting that a rerun
    gives the same three byte for byte."""
    runs = []
    for _ in range(2):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a removed flag
            rc = exc.code
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err))
    assert runs[1] == runs[0], argv
    return runs[0]


def test_seeded_cli_contract(capsys, tmp_path):
    # every drawn configuration exits 0, 1, 2 or 3, with 2 exactly for the
    # invalid ones, prints no traceback, and reruns byte for byte; each suite
    # runs in at least one valid draw
    rng = SeededRandom(20261021)
    ran = set()
    for k in range(80):
        fault = FAULTS[k % len(FAULTS)]
        argv = contract_config(rng, fault, tmp_path / f"cfg{k}.json")
        rc, out, err = run_twice(capsys, argv)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err, argv
        assert (rc == 2) == (fault is not None), argv
        if fault is None:
            ran.add(argv[1])
        if fault == "lambda word":
            # the error names the flag and the value, as --z and --hbar do
            assert "configuration error: --lambda: 'two' is not a list of integers" in err
    assert ran == set(CONTRACT_SUITES)


# the kinds that read --z, and the invalid part of each drawn emit
# configuration, in turn; None draws a valid one
Z_KINDS = ("phi", "t", "s", "qkz", "kz")
EMIT_FAULTS = (None, "n", "z count", "z 1/0", "z x", "z repeated", "hbar 0", "hbar 1/0",
               "p 1/0", "p x", "m -1", "m word", "k s", "k theta", "charges n",
               None, None, None, None, None)


def emit_config(rng, fault):
    """A drawn ``emit`` configuration at n <= 4 whose one invalid part, if
    any, is ``fault``; each fault is drawn with a kind that reads its flag."""
    kind = {"z repeated": "kz", "hbar 0": rng.choice(("t", "s", "qkz")),
            "m -1": "t", "m word": "t", "k s": "s", "k theta": "theta",
            "charges n": "charges"}.get(fault) or rng.choice(
        Z_KINDS if fault in ("z count", "z 1/0", "z x") else
        ("phi", "t", "t", "t", "s", "qkz", "kz", "charges", "theta", "idempotents"))
    n = {"n": rng.integer(-1, 0), "charges n": rng.integer(1, 2),
         "z repeated": rng.integer(2, 3)}.get(
        fault, rng.integer(3, 4) if kind == "charges" else rng.integer(1, 3))
    argv = ["emit", kind, "--n", str(n)]
    pool = ["0", "2/3", "-5", "7"]
    z = {"z count": pool[:n + 1], "z 1/0": ["1/0"] + pool[1:n], "z x": pool[1:n] + ["x"],
         "z repeated": ["1/2"] * n}.get(fault, rng.choice(
             (None, pool[:n]) + ((["1/2"] * n,) if kind == "t" else ())))
    if z is not None:
        argv += ["--z", ",".join(z)]
    hbar = fault[5:] if fault in ("hbar 0", "hbar 1/0") else rng.choice((None, "1/2", "-2"))
    if hbar is not None:
        argv += ["--hbar", hbar]
    p = fault[2:] if fault in ("p 1/0", "p x") else rng.choice((None, "0", "7/2", "-1/3"))
    if p is not None:
        argv.append(f"--p={p}")
    m = {"m -1": "-1", "m word": "two"}.get(fault, str(rng.integer(0, 3)))
    argv.append(f"--m={m}")
    k = {"k s": "-1", "k theta": "0"}.get(fault, str(rng.integer(1, 3)))
    argv.append(f"--k={k}")
    return argv


def test_seeded_emit_contract(capsys):
    # every drawn emit exits 0, 2 or 3, with 2 exactly for the invalid ones,
    # prints no traceback, and reruns byte for byte; a valid ``emit t`` reads
    # the symbolic trace at its p
    rng = SeededRandom(20261022)
    kinds = set()
    for k in range(100):
        fault = EMIT_FAULTS[k % len(EMIT_FAULTS)]
        argv = emit_config(rng, fault)
        rc, out, err = run_twice(capsys, argv)
        assert rc in (0, 2, 3) and "Traceback" not in err, argv
        assert (rc == 2) == (fault is not None), argv
        if rc == 0:
            kinds.add(argv[1])
            assert json.loads(out) is not None and err == "", argv
        else:
            assert out == "", argv
    assert kinds == {"phi", "t", "s", "qkz", "kz", "charges", "theta", "idempotents"}
