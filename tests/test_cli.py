"""Batch driver: exit codes, deterministic reports, object emission."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from snbethe.cli import build_parser, config_from_args, main

F = Fraction


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_run_all_smallest_scale(capsys):
    rc, out = run_main(capsys, ["run", "all", "--n", "2"])
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


@pytest.mark.parametrize("flags", [
    ["--z", "1/0,1"],  # ZeroDivisionError while parsing
    ["--tol", "nan"],
    ["--tol", "-1"],
    ["--hbar", "0"],
    ["--lambda", "0,2"],  # a zero part
])
def test_bad_values_are_configuration_errors(capsys, flags):
    rc = main(["run", "identities-gaudin", "--n", "2", *flags])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("all-n3", ["run", "all", "--n", "3"]),
    ("identities-gaudin-n4", ["run", "identities-gaudin", "--n", "4"]),
])
def test_reports_match_golden(capsys, name, argv):
    rc, out = run_main(capsys, [*argv, "--format", "json", "--seed", "7"])
    assert rc == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("values", [
    {"nosuch": 1},  # not a flag
    {"suite": "nosuch"},  # the suite is the positional argument
    {"suite": "homogeneous"},
    {"tol": [1]},  # wrong JSON type
    {"slow": "yes"},
    {"n": True},
    {"seed": 2.5},  # an integer flag
    [2],  # not an object
    {"p": 5},  # a flag of emit only
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


def test_emit_rejects_bad_values(capsys):
    rc, _ = run_main(capsys, ["emit", "kz", "--n", "2", "--z", "1,1"])
    assert rc == 2


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonsense"])


def test_strict_flag_plumbs_through():
    args = build_parser().parse_args(["run", "all", "--strict", "--slow"])
    cfg = config_from_args(args)
    assert cfg.strict and cfg.slow
    assert cfg.n == 3 and len(cfg.z) == 3
