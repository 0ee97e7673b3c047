"""Batch verification driver.

Two subcommands:

  snbethe run  <suite>   -- run a named verification suite and emit a report
  snbethe emit <kind>    -- print one algebraic object in its JSON form

Suites: identities-gaudin, identities-xxx, homogeneous, schur-weyl, spectra,
conjectures, all.  Exit status is 0 when nothing failed, 1 on FAIL (with
--strict also on CONJECTURE-FAIL), 2 on configuration errors, 3 on internal
inconsistencies (for emit: any other exception while building the object,
reported in one line).  Reports are byte-identical across reruns with the
same configuration and seed unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .gaudin import kz_elements, phi_polys
from .homogeneous import local_charges, local_density
from .reps import central_idempotent, partitions_of
from .xxx import qkz_elements, s_k_poly, t_m_poly, xxx_params
from .suites import default_z, run_suite

HARD_CAP = 7


SuiteConfig = namedtuple(
    "SuiteConfig", "suite n z hbar lam seed strict timings fmt out")


def _rational(flag: str, text) -> Fraction:
    """The rational value of a flag; the error names the flag and the text."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: {str(text)!r} is not a rational number") from None


def _parse_z(text, n: int) -> tuple:
    """The parameters: comma-separated rationals, or the first n default
    values when text is empty.  Anything but exactly n values is a
    configuration error."""
    z = (tuple(_rational("--z", part) for part in str(text).split(","))
         if text else default_z(n))
    if len(z) != n:
        raise ValueError("need exactly n parameter values" if text else
                         f"the default z has {len(z)} values; give n = {n} values with --z")
    return z


def _positive_n(n) -> int:
    if int(n) < 1:
        raise ValueError("n must be positive")
    return int(n)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snbethe", description="exact verification of symmetric-group "
        "commuting families"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("suite", choices=[
        "identities-gaudin", "identities-xxx", "homogeneous", "schur-weyl",
        "spectra", "conjectures", "all",
    ])
    run.add_argument("--config", help="JSON file mirroring the flags")
    run.add_argument("--n", type=int, default=3)
    run.add_argument("--z", type=str, help="comma-separated rationals")
    run.add_argument("--hbar", type=str, default="1")
    run.add_argument("--lambda", dest="lam", type=str,
                     help="partition, comma-separated")
    run.add_argument("--seed", type=int, default=20260801)
    run.add_argument("--format", dest="fmt", choices=["json", "text"],
                     default="text")
    run.add_argument("--out", type=str)
    run.add_argument("--strict", action="store_true",
                     help="conjecture failures also fail the process")
    run.add_argument("--timings", action="store_true",
                     help="include real runtimes (breaks byte-identical output)")
    run.add_argument("--allow-large-n", action="store_true")

    emit = sub.add_parser("emit", help="print one object as JSON")
    emit.add_argument("kind", choices=[
        "phi", "t", "s", "qkz", "kz", "charges", "theta", "idempotents",
    ])
    emit.add_argument("--n", type=int, default=3)
    emit.add_argument("--z", type=str)
    emit.add_argument("--hbar", type=str, default="1")
    emit.add_argument("--p", type=str, default="2")
    emit.add_argument("--m", type=int, default=1)
    emit.add_argument("--k", type=int, default=1)
    emit.add_argument("--out", type=str)
    return ap


def _check_config_file(file_values, values: dict):
    """A config file sets flags only, each with a JSON value the flag can
    take: true/false for a switch, an integer for an integer flag, a string
    or a number otherwise.  The suite stays the positional argument."""
    if not isinstance(file_values, dict):
        raise ValueError("the config file must hold a JSON object")
    for key, val in file_values.items():
        if key == "suite":
            raise ValueError("the config file cannot set the suite; "
                             "give it as the positional argument")
        if key in ("command", "config") or key not in values:
            raise ValueError(f"config key {key!r} is not a flag")
        current = values[key]
        if isinstance(current, bool):
            allowed, want = bool, "true or false"
        elif isinstance(current, int):
            allowed, want = (int, str), "an integer"
        else:
            allowed, want = (int, float, str), "a string or a number"
        if isinstance(val, bool) != isinstance(current, bool) or not isinstance(val, allowed):
            raise ValueError(f"config key {key!r} must be {want}")


def config_from_args(args) -> SuiteConfig:
    values = vars(args).copy()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_values = json.load(fh)
        _check_config_file(file_values, values)
        values.update(file_values)
    n = _positive_n(values["n"])
    if n > HARD_CAP and not values.get("allow_large_n"):
        raise ValueError(f"n > {HARD_CAP} needs --allow-large-n")
    z = _parse_z(values.get("z"), n)
    lam = None
    if values.get("lam"):
        text = str(values["lam"])
        try:
            lam = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ValueError(f"--lambda: {text!r} is not a list of integers") from None
        if any(x < 1 for x in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("the partition must have positive, non-increasing parts")
        if sum(lam) != n:
            raise ValueError("the partition must have size n")
        if values["suite"] not in ("conjectures", "all"):
            raise ValueError("--lambda applies only to the conjecture probes "
                             "(suites conjectures and all)")
    hbar = _rational("--hbar", values["hbar"])
    if not hbar:
        raise ValueError("hbar must be nonzero")
    if values["fmt"] not in ("json", "text"):
        raise ValueError("format must be json or text")
    return SuiteConfig(
        suite=values["suite"],
        n=n,
        z=z,
        hbar=hbar,
        lam=lam,
        seed=int(values["seed"]),
        strict=bool(values.get("strict")),
        timings=bool(values.get("timings")),
        fmt=values["fmt"],
        out=None if values.get("out") is None else str(values["out"]),
    )


def _write_output(text: str, out: str | None):
    if out:
        directory = os.environ.get("SNBETHE_OUT_DIR", "")
        path = os.path.join(directory, out) if directory else out
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args) -> int:
    n = _positive_n(args.n)
    kind = args.kind
    # only the parametrized families read z
    z = _parse_z(args.z, n) if kind in ("phi", "t", "s", "qkz", "kz") else None
    hbar = _rational("--hbar", args.hbar)
    p = _rational("--p", args.p)
    if kind == "phi":
        _, table = phi_polys(n, z)
        payload = {
            f"{i},{j}": g.to_json() for (i, j), g in sorted(table.items())
        }
    elif kind == "t":
        poly = t_m_poly(xxx_params(z, hbar), args.m, p=p)
        payload = poly.to_json()
    elif kind == "s":
        payload = s_k_poly(xxx_params(z, hbar), args.k).to_json()
    elif kind == "qkz":
        fam = qkz_elements(xxx_params(z, hbar))
        payload = [el.to_json() for el in fam]
    elif kind == "kz":
        fam = kz_elements(n, z, phi_polys(n, z)[0])
        payload = [el.to_json() for el in fam]
    elif kind == "charges":
        payload = [c.to_json() for c in local_charges(n)]
    elif kind == "theta":
        payload = local_density(args.k).to_json()
    elif kind == "idempotents":
        payload = {
            "-".join(map(str, la)): central_idempotent(la, n).to_json()
            for la in partitions_of(n)
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "emit":
            return _emit(args)
        cfg = config_from_args(args)
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # building an emitted object failed (MemoryError at large n, or a
        # broken invariant): an internal error, as a claim's exception in run
        if args.command != "emit":
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report = run_suite(cfg)
    text = (
        report.to_json(with_timings=cfg.timings)
        if cfg.fmt == "json"
        else report.to_text(with_timings=cfg.timings)
    )
    try:
        _write_output(text, cfg.out)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if report.internal_error:
        return 3
    if report.failed:
        return 1
    if cfg.strict and report.conjecture_failed:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
