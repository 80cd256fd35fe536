"""Command-line front end: dispatch, formats, config handling, exit codes."""

import argparse
import collections
import functools
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from twistmoments import (characters, cli, hecke, lvalues, moments, mollifier,
                          weights)

import helpers


# every subprocess imports the package from this checkout's source
_ROOT = pathlib.Path(__file__).parent.parent
_FRESH_ENV = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}


def run_cli(args, capsys):
    rc = cli.run(list(args))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


# ----------------------------------------------------------------- exit codes

def test_no_subcommand_exits_one(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 1
    assert "subcommand" in err


def test_unknown_flag_exits_one(capsys):
    rc, _, err = run_cli(["tau", "--bogus"], capsys)
    assert rc == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(["--help"], capsys)
    assert rc == 0
    assert "usage" in out


@pytest.mark.parametrize("args", [
    ["chars", "--q", "10"],            # q = 2 mod 4
    ["chars", "--q", "2"],
    ["lvalue"],                        # needs a modulus
    ["lvalue", "--q", "7", "--kappa", "12"],     # the form is fixed: Delta
    ["lvalue", "--q", "7", "--X", "0"],
    ["lvalue", "--q", "7", "--tail-eps", "2"],
    ["sweep", "--q", "53", "--k", "-1"],
    ["audit", "--q-list", "53,101", "--k", "0.5"],   # exactly one modulus
    ["mollifier-verify", "--q-list", "53,101"],
    ["audit", "--q", "53", "--ell", "8,3"],          # odd ladder entry
    ["audit", "--q", "53", "--ell", "2,8"],          # increasing ladder
    ["tau", "--n-max", "0"],
    ["chars", "--q", "9", "--format", "xml"],
    ["lvalue", "--q", "5", "--seed", "-1"],
    ["tau", "--n-max", "30000000"],                  # beyond TAU_N_MAX
    ["audit", "--q", "17", "--k-list", "0.5,2"],     # exactly one k
    ["mollifier-verify", "--q", "17", "--k-list", "0.5,2"],
    ["audit", "--q", "17", "--k", "0"],              # the ladder needs k > 0
    # the ladder is --ell alone: the dropped (N, M) schedule's flags are
    # unknown
    ["audit", "--q", "53", "--N", "0", "--M", "1"],
    ["audit", "--q", "53", "--N", "2"],
    ["mollifier-verify", "--q", "53", "--M", "2"],
    ["lvalue", "--q", "7", "--tail-eps", "1e-21"],   # below W's grid
    ["sweep", "--q", "7", "--k", "nan"],
    ["sweep", "--q", "7", "--k", "inf"],
    ["audit", "--q", "17", "--k", "inf"],
    ["lvalue", "--q", "7", "--X", "inf"],
    ["sweep", "--q-list", "53,53,101,149"],          # repeated modulus
    ["sweep", "--q-list", "5,7,9,11", "--k-list", "1,1", "--fit"],
    ["lvalue", "--q-list", "7,7"],
    ["lvalue", "--q", "7", "--X", "1e-9"],           # n_cap past TAU_N_MAX
    ["lvalue", "--q", "7", "--X", "1e-3"],           # n_cap 38.75M, no table
    ["lvalue", "--q", "7", "--X", "3e-4"],
    ["lvalue", "--q", "7", "--X", "1e-320"],         # 1/X overflows
    ["lvalue", "--q", "7", "--X", "1e300"],          # a 305-digit n_cap
    # sweep is the one moment report: no moments or fit command
    ["moments", "--q", "53", "--k", "1"],
    ["fit", "--q-list", "53,81,101,105"],
])
def test_validation_failures_exit_one(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 1
    assert "error" in err
    # one short line says what is wrong, whatever the size of the input
    assert len(err.splitlines()[-1]) < 160
    assert out == ""


def test_computation_failure_exits_two(capsys):
    rc, _, err = run_cli(
        ["lvalue", "--q", "7", "--cache-dir", "/proc/nope/x"], capsys)
    assert rc == 2
    assert "failed" in err


@pytest.mark.parametrize("args, setting, err", [
    (["audit", "--q", "17", "--tail-eps", "1e-7", "--k", "0.5"],
     ("_SLACK", -1.0),
     "63 of 78 checks failed, first product_small_regime chi=1 j=1"),
    (["mollifier-verify", "--q", "17", "--tail-eps", "1e-7"],
     ("DIAGONAL_TOL", 0.0),
     "1 of 20 checks failed, first diagonal_identity k=1.0"),
], ids=["audit", "mollifier-verify"])
def test_failed_checks_fail_the_run(args, setting, err, monkeypatch,
                                    tmp_path, capsys):
    # a check row marked 0 is a computation failure, not a report: one
    # stderr line, nothing written; every row passes at the real settings
    out = tmp_path / "report.csv"
    assert run_cli([*args, "--out", str(out)], capsys) == (0, "", "")
    out.unlink()
    monkeypatch.setattr(moments, *setting)
    assert run_cli([*args, "--out", str(out)], capsys) == (
        2, "", f"twistmoments: computation failed: {err}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k, q_args", [
    ("50", ["sweep", "--q", "9"]),
    ("31", ["sweep", "--q-list", "9,5"]),
    ("40", ["sweep", "--q-list", "3,5,7,9", "--fit"]),
    ("31", ["audit", "--q", "9"]),
])
def test_overflowing_k_exits_one(k, q_args, capsys):
    # the moments divide by (log q)^(k^2), which passes the float range at
    # q = 9 once k > 30.02; the check reads the largest modulus
    rc, out, err = run_cli([*q_args, "--k", k], capsys)
    assert (rc, out) == (1, "")
    assert err == (f"twistmoments: error: k={k} is too large at q=9: "
                   "(log q)^(k^2) overflows\n")
    rc, out, _ = run_cli(["sweep", "--q", "9", "--k", "30"], capsys)
    assert rc == 0 and out.splitlines()[2].startswith("9,30.0,4,")


@pytest.mark.parametrize("args", [["chars", "--q", "5"],
                                  ["lvalue", "--q", "5"]])
@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_unwritable_out_exits_two(args, out, tmp_path, capsys):
    # a missing directory or a directory as the file: one stderr line,
    # nothing on stdout and nothing written
    rc, text, err = run_cli([*args, "--out", str(tmp_path / out)], capsys)
    assert (rc, text) == (2, "")
    assert err.startswith("twistmoments: computation failed: [Errno ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_main_freezes_the_collector_after_run(monkeypatch):
    # the exiting process skips finalization's collections; run() does not
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    assert calls == ["run", "freeze"]


def test_run_leaves_the_collector_unfrozen(capsys):
    assert gc.get_freeze_count() == 0
    assert run_cli(["lvalue", "--q", "7"], capsys)[0] == 0
    assert gc.get_freeze_count() == 0


def test_main_writes_what_run_writes(tmp_path, capsys):
    args = ["tau", "--n-max", "20000"]
    rc, want, _ = run_cli(args, capsys)
    assert rc == 0
    proc = subprocess.run([sys.executable, "-m", "twistmoments.cli", *args],
                          capture_output=True, env=_FRESH_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, want.encode(), b"")
    out = tmp_path / "tau.tsv"
    proc = subprocess.run([sys.executable, "-m", "twistmoments.cli", *args,
                           "--out", str(out)],
                          capture_output=True, env=_FRESH_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("args, code, err", [
    (["lvalue", "--q", "7", "--X", "1e300"], 1,
     "twistmoments: error: X=1e+300 is too far from 1: n_cap 3.874e+304 "
     "exceeds the limit 20000000 at q=7\n"),
    (["chars", "--q", "9", "--out", "{missing}/x"], 2,
     "twistmoments: computation failed: [Errno 2] No such file or "
     "directory: '{missing}/x'\n"),
], ids=["usage", "computation"])
def test_main_keeps_the_failure_exits(args, code, err, tmp_path):
    missing = str(tmp_path / "missing")
    args = [a.replace("{missing}", missing) for a in args]
    proc = subprocess.run([sys.executable, "-m", "twistmoments.cli", *args],
                          capture_output=True, text=True, env=_FRESH_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, "", err.replace("{missing}", missing))


# -------------------------------------------------------------------- outputs

def test_tau_csv_is_plain_coefficient_file(tmp_path, capsys):
    out_path = tmp_path / "tau.tsv"
    rc, _, _ = run_cli(["tau", "--n-max", "100", "--out", str(out_path)],
                       capsys)
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 100
    assert not lines[0].startswith("#")
    assert helpers.read_coefficient_file(str(out_path)) == [
        int(t) for t in hecke.ramanujan_tau_table(100)]


def test_tau_json(capsys):
    rc, out, _ = run_cli(["tau", "--n-max", "5", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["config"]["hash"]) == 12
    assert [r["tau"] for r in doc["rows"]] == [1, -24, 252, -1472, 4830]
    assert [r["n"] for r in doc["rows"]] == [1, 2, 3, 4, 5]


def test_chars_csv_shape(capsys):
    rc, out, _ = run_cli(["chars", "--q", "9"], capsys)
    assert rc == 0
    assert out.splitlines()[0].startswith("# config ")
    header, rows = csv_rows(out)
    assert header == ["q", "index", "conductor", "primitive", "even"]
    assert len(rows) == 6
    assert sum(int(r["primitive"]) for r in rows) == 4
    assert {r["conductor"] for r in rows} <= {"1", "3", "9"}


def test_weights_row_count(capsys):
    rc, out, _ = run_cli(["weights"], capsys)
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["x", "W", "W2"]
    assert len(rows) == 25
    assert abs(float(rows[0]["W"]) - 1.0) < 1e-4


def test_weights_are_nonincreasing_probabilities(capsys):
    # each kernel is a tail probability, so its samples lie in [0, 1] and
    # never rise with x
    rc, out, _ = run_cli(["weights"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    for kind in ("W", "W2"):
        vals = np.array([float(r[kind]) for r in rows])
        assert np.all((vals >= 0.0) & (vals <= 1.0)), kind
        assert np.all(np.diff(vals) <= 0.0), kind


_IMPORT_GUARD = """
import contextlib, io, sys
from twistmoments import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert cli.run(["chars", "--q", "9"]) == 0
    assert cli.run(["tau", "--n-max", "10"]) == 0
    assert cli.run(["weights"]) == 0
    assert cli.run(["lvalue", "--q", "5"]) == 0
rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
assert len(rows) == (1 + 6) + 10 + (1 + 25) + (1 + 3), len(rows)
assert "scipy" not in sys.modules, "the package loaded scipy"
"""


def test_cli_never_imports_scipy():
    # a fresh interpreter, so no other test has loaded scipy already
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD],
                          capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr


def test_csv_formats_each_cell():
    # bools as 0/1 (never int's str), floats by repr, None as empty, numpy
    # scalars as their Python values
    args = ["chars", "--q", "5"]
    cfg = cli._resolve(cli._build_parser(args).parse_args(args))
    rows = [
        (True, 3, 0.1, "pointwise", None, np.float64(2.5), np.int64(-7),
         1, True),
        (False, -12, 1e-300, "holder", 1.25, np.float64(1 / 3), np.int64(0),
         2.0, np.bool_(False)),
        (True, 10**20, float("inf"), "", -0.0, np.float64(-1e20),
         np.int64(5), None, 1),
    ]
    lines = ("1,3,0.1,pointwise,,2.5,-7,1,1\n"
             "0,-12,1e-300,holder,1.25,0.3333333333333333,0,2.0,0\n"
             "1,100000000000000000000,inf,,-0.0,-1e+20,5,,1\n")
    head = f"# config {cfg.hash}\nh\n"
    assert cli._csv(cfg, ["h"], rows) == head + lines
    assert cli._csv(cfg, ["h"], (r for r in rows), ["# c"]) == (
        head + lines + "# c\n")
    assert cli._csv(cfg, ["h"], []) == head
    assert cli._csv(cfg, ["h"], (r for r in [])) == head


# the tail-eps of every warm run, so each reads the warm_cache table
_WARM_BASE = ["--tail-eps", "1e-7"]

_LAZY_GUARD = """
import contextlib, io, sys, types
from twistmoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
for name in ("arith", "characters", "hecke", "lvalues", "moments",
             "mollifier", "sums", "tausieve", "weights"):
    if type(sys.modules["twistmoments." + name]) is not types.ModuleType:
        print(name)
"""


@pytest.mark.parametrize("args, unloaded", [
    (["chars", "--q", "9"],
     {"hecke", "lvalues", "weights", "sums", "moments", "mollifier",
      "tausieve"}),
    (["tau", "--n-max", "10"],
     {"characters", "lvalues", "weights", "sums", "moments", "mollifier"}),
    (["sweep", "--q-list", "5,7,9,11", "--fit"], {"mollifier"}),
    # the kernels need no table: lvalues names the table's class for its
    # annotations only
    (["weights"], {"arith", "characters", "hecke", "sums", "moments",
                   "mollifier", "tausieve"}),
    # writing the kernel file to an empty cache directory runs none either
    (["weights", "--cache-dir", "{empty}"],
     {"arith", "characters", "hecke", "sums", "moments", "mollifier",
      "tausieve"}),
    # a table read from the cache is validated, never sieved
    (["lvalue", "--q", "17", *_WARM_BASE, "--cache-dir", "{warm}"],
     {"tausieve"}),
    (["audit", "--q", "17", "--k", "0.5", *_WARM_BASE, "--cache-dir",
      "{warm}"], {"tausieve"}),
    (["mollifier-verify", "--q", "17", *_WARM_BASE, "--cache-dir", "{warm}"],
     {"tausieve"}),
    (["sweep", "--q-list", "5,7,9,11", "--k-list", "0.5,1", "--fit",
      *_WARM_BASE, "--cache-dir", "{warm}"], {"tausieve"}),
])
def test_commands_load_only_their_layers(args, unloaded, tmp_path, request):
    # a layer whose code never ran is still its lazy stand-in in sys.modules
    dirs = {"{empty}": lambda: str(tmp_path),
            "{warm}": lambda: request.getfixturevalue("warm_cache")}
    args = [dirs[a]() if a in dirs else a for a in args]
    proc = subprocess.run([sys.executable, "-c", _LAZY_GUARD, *args],
                          capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr
    assert unloaded <= set(proc.stdout.split()), proc.stdout


@pytest.mark.parametrize("args", [["tau", "--n-max", "10"],
                                  ["lvalue", "--q", "7"]])
def test_table_builds_run_the_tau_sieve(args):
    # the other side of the warm cases above: a build does run it
    proc = subprocess.run([sys.executable, "-c", _LAZY_GUARD, *args],
                          capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr
    assert "tausieve" not in proc.stdout.split(), proc.stdout


_NUMPY_GUARD = """
import contextlib, io, sys
start = set(sys.modules)
from twistmoments import cli
for args in (["--q-list", "1009,1024,1155,1200,1331", "--format", "csv"],
             ["--q-list", "1009,1024,1155,1200,1331", "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["chars", *args]) == 0
    added = {"dataclasses", "inspect"} & (set(sys.modules) - start)
    assert not added, f"chars {args} loaded {sorted(added)}"
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.run(["chars", "--q", "9", "--out", "."]) == 2
assert "numpy" not in sys.modules, "chars loaded numpy"
"""


def test_chars_never_imports_numpy():
    # listing a family is integer arithmetic on the standard library alone,
    # and its records are named tuples, so a listing loads no dataclasses
    # either
    proc = subprocess.run([sys.executable, "-c", _NUMPY_GUARD],
                          capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr


_WARM_GUARD = """
import contextlib, io, sys
from twistmoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
added = {"dataclasses", "numpy.random"} & set(sys.modules)
assert not added, f"{sys.argv[1:]} loaded {sorted(added)}"
"""


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding the q = 17 table and the kernel file, both
    written by a fresh process."""
    cache = str(tmp_path_factory.mktemp("warm"))
    subprocess.run([sys.executable, "-m", "twistmoments.cli", "lvalue",
                    "--q", "17", *_WARM_BASE, "--cache-dir", cache],
                   check=True, capture_output=True, env=_FRESH_ENV)
    return cache


@pytest.mark.parametrize("args", [
    ["lvalue", "--q", "17"],
    ["audit", "--q", "17", "--k", "0.5"],
    ["mollifier-verify", "--q", "17"],
    ["sweep", "--q-list", "5,7,9,11", "--k-list", "0.5,1", "--fit"],
], ids=lambda args: args[0])
def test_warm_runs_load_no_dataclasses_or_numpy_random(args, warm_cache):
    # the table-backed records are named tuples and the seeded draws come
    # from random.Random; the sweep reads a prefix of the q = 17 table
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_GUARD, *args, *_WARM_BASE,
         "--cache-dir", warm_cache],
        capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr


# the spans a traced run of each command must record
_TRACED_SPANS = {
    "chars": {"characters.group"},
    "lvalue": {"characters.group"},
    "audit": {"characters.group", "moments.pointwise", "moments.holder"},
    "mollifier-verify": {"characters.group", "moments.diagonal",
                         "mollifier.coeffs"},
}


@pytest.mark.parametrize("args", [["chars", "--q", "5"],
                                  ["lvalue", "--q", "7"],
                                  ["audit", "--q", "5"],
                                  ["mollifier-verify", "--q", "5"]])
def test_tracer_runs_on_lazy_layers(tmp_path, args):
    # perfbench/trace_cli.py reads every layer from sys.modules after
    # importing only the cli, then wraps their functions; the wrapped
    # checks must still be the ones audit and mollifier-verify call
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "trace_cli.py"),
         str(trace), "--", *args],
        capture_output=True, text=True, env=_FRESH_ENV)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert _TRACED_SPANS[args[0]] <= {span[0] for span in spans}


def test_lvalue_family(capsys):
    rc, out, _ = run_cli(["lvalue", "--q", "7"], capsys)
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["q", "index", "conductor", "re", "im", "abs",
                      "sq_direct", "residual", "audited"]
    assert len(rows) == 5
    assert all(r["conductor"] == "7" for r in rows)
    for r in rows:
        if r["audited"] == "1":
            assert float(r["residual"]) < 1e-3


def test_moments_regression(capsys):
    rc, out, _ = run_cli(["sweep", "--q", "53", "--k", "1"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["raw_moment"]) - 284.513421702588) < 1e-6
    assert rows[0]["phi_star"] == "51"


def test_sweep_grid(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--q-list", "53,101", "--k-list", "0.5,1"], capsys)
    assert rc == 0
    _, rows = csv_rows(out)
    assert [(r["q"], r["k"]) for r in rows] == [
        ("53", "0.5"), ("53", "1.0"), ("101", "0.5"), ("101", "1.0")]


def test_sweep_fit_skip_comment(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--q-list", "53,101", "--k", "1", "--fit"], capsys)
    assert rc == 0
    assert any("skipped (needs >= 4 moduli)" in l
               for l in out.splitlines() if l.startswith("# fit"))


def test_audit_summary_lines(capsys):
    rc, out, _ = run_cli(["audit", "--q", "53", "--k", "0.5"], capsys)
    assert rc == 0
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert any(l == "# pointwise 255/255 holder 3/3" for l in comments)
    assert any(l.startswith("# reported twisted_moment=") for l in comments)


def test_audit_builds_group_family_and_context_once(monkeypatch, capsys):
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    # a group is built on a miss of build_group's cache: count the builds
    # behind a fresh cache, which serves later calls, such as each rung's
    # prime_sums, the same group
    build = characters.build_group.__wrapped__

    @functools.lru_cache(maxsize=16)
    def built(q):
        calls["build_group"] += 1
        return build(q)
    monkeypatch.setattr(characters, "build_group", built)
    count(lvalues, "family_values")
    count(mollifier.MollifierContext, "__init__")
    rc, _, _ = run_cli(["audit", "--q", "17", "--k", "0.5",
                        "--tail-eps", "1e-7"], capsys)
    assert rc == 0
    assert calls == {"build_group": 1, "family_values": 1, "__init__": 1}


def test_audit_builds_each_tower_once_per_audit(monkeypatch, capsys):
    # 51 characters, R = 2: one tower each, read by the pointwise and the
    # Hoelder audit, and a tower is 2R truncated exponentials and R guard
    # powers
    calls = collections.Counter()
    for name in ("trunc_exp", "_ipow"):
        def counted(*args, _fn=getattr(mollifier, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mollifier, name, counted)
    rc, _, _ = run_cli(["audit", "--q", "53", "--k", "0.5"], capsys)
    assert rc == 0
    assert calls["trunc_exp"] == 204
    assert calls["_ipow"] <= 204


def test_towers_read_chi_at_the_segment_primes_only(monkeypatch, capsys):
    # audit takes every character sum by family_sums: the bin sums, the
    # Gauss sums and the audit's sums (3), and one prime sum per rung (2),
    # then builds each of the 51 towers once; no character is evaluated
    # one at a time, nor is a per-character Gauss sum taken, in audit,
    # lvalue or sweep.  mollifier-verify evaluates chi only in
    # evaluate_coefficients, once per call on the coefficient support, and
    # reads the 12 characters' towers from one prime sum per rung (2), where
    # n_poly took a whole transform per call (48).  It builds each of its
    # 2R segment maps once for the dual rows and the identity, and each
    # product map, at alpha = k-1 and k, once (its R segment maps again)
    calls = collections.Counter()
    for owner, name in ((characters, "family_sums"),
                        (characters, "gauss_sum"),
                        (characters.Character, "__call__"),
                        (mollifier, "tower"),
                        (mollifier, "n_poly"),
                        (mollifier, "evaluate_coefficients"),
                        (mollifier, "segment_coefficients"),
                        (mollifier, "mollifier_coefficients")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    rc, _, _ = run_cli(["audit", "--q", "53", "--k", "0.5"], capsys)
    assert rc == 0
    assert calls == {"family_sums": 5, "tower": 51}
    for args in (["lvalue", "--q-list", "53,81", "--X", "0.5"],
                 ["sweep", "--q-list", "53,81", "--k-list", "0.5,1"]):
        calls.clear()
        rc, _, _ = run_cli(args, capsys)
        assert rc == 0
        assert set(calls) == {"family_sums"}, args
    calls.clear()
    rc, _, _ = run_cli(["mollifier-verify", "--q", "53"], capsys)
    assert rc == 0
    assert calls["__call__"] == calls["evaluate_coefficients"] == 48
    assert calls["family_sums"] == 2 and calls["tower"] == 12
    assert calls["segment_coefficients"] == 8
    assert calls["mollifier_coefficients"] == 2
    assert calls["gauss_sum"] == calls["n_poly"] == 0


@pytest.mark.parametrize("k", ["0.5", "2"])
def test_audit_computes_each_guard_power_once(k, monkeypatch, capsys):
    # tower computes the R = 2 guard powers of each of the 51 characters;
    # the pointwise audit (large regime) and the Hoelder audit (k <= 1)
    # read them from the tower
    calls = collections.Counter()

    def counted(*args, _fn=mollifier._ipow):
        calls["_ipow"] += 1
        return _fn(*args)

    monkeypatch.setattr(mollifier, "_ipow", counted)
    rc, out, _ = run_cli(["audit", "--q", "53", "--k", k, "--format", "json"],
                         capsys)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert any(r["name"] == "guard_unit" for r in rows)
    assert calls["_ipow"] == 51 * 2


@pytest.mark.parametrize("args", [["--q", "3", "--tail-eps", "0.5"],
                                  ["--q", "5", "--tail-eps", "0.9",
                                   "--k", "2"]])
def test_mollifier_verify_table_reaches_the_local_factor_primes(args,
                                                                capsys):
    # n_cap is 26 terms at q = 3, tail-eps 0.5, and the local-factor rows
    # read lambda(p) up to p = 47
    rc, out, err = run_cli(["mollifier-verify", *args, "--format", "json"],
                           capsys)
    assert rc == 0, err
    rows = json.loads(out)["rows"]
    assert all(r["ok"] for r in rows)
    assert [r["subject"] for r in rows
            if r["name"] == "diagonal_local_factor"] == [
        f"p={p}" for p in moments.LOCAL_FACTOR_PRIMES]


def test_mollifier_verify_json(capsys):
    rc, out, _ = run_cli(
        ["mollifier-verify", "--q", "53", "--k", "0.5", "--format", "json"],
        capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["audits"]["ladder"] == [8, 2]
    assert doc["audits"]["c_k"] == 64.0
    assert doc["audits"]["r_k"] == 4
    assert all(r["ok"] for r in doc["rows"])
    # one dual_representation row per rung, the two tail rows, the
    # identity, then the local factors
    assert [(r["name"], r["subject"]) for r in doc["rows"]] == [
        ("dual_representation", "j=1"), ("dual_representation", "j=2"),
        ("trunc_exp_tail_vs_term", "200 samples"),
        ("trunc_exp_tail_vs_geom", "200 samples"),
        ("diagonal_identity", "k=0.5"),
        *[("diagonal_local_factor", f"p={p}")
          for p in moments.LOCAL_FACTOR_PRIMES]]
    # N and M stay in the identity, null, beside the fixed weight
    assert doc["config"] == {
        "M": None, "N": None, "X": 1.0, "audit_count": 8,
        "command": "mollifier-verify", "ell": None, "fit": False,
        "format": "json", "hash": "377a7b25a5a7", "k_list": [0.5],
        "kappa": 12, "n_max": 100, "q_list": [53], "seed": 0,
        "tail_eps": 1e-08}


# ------------------------------------------------- config, hashing, emission

def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"q": 9, "format": "json"}))
    rc, out, _ = run_cli(["chars", "--config", str(cfg_path)], capsys)
    assert rc == 0
    assert json.loads(out)["config"]["q_list"] == [9]
    rc, out, _ = run_cli(
        ["chars", "--config", str(cfg_path), "--format", "csv"], capsys)
    assert rc == 0
    header, rows = csv_rows(out)
    assert len(rows) == 6  # same modulus, flag overrode the format


def test_config_file_rejections(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    rc, _, err = run_cli(["chars", "--q", "9", "--config", str(bad)], capsys)
    assert rc == 1
    rc, _, err = run_cli(
        ["chars", "--q", "9", "--config", str(tmp_path / "missing.json")],
        capsys)
    assert rc == 1
    # unknown keys are named, and a value of the wrong type is an error,
    # never a traceback or a silent fall back to the defaults
    for body, named in (({"tail-eps": 1e-5, "qlist": "5,7"},
                         "'qlist', 'tail-eps'"),
                        ({"X": "abc"}, "'abc'"),
                        ({"seed": None}, "seed"),
                        ({"seed": 1.5}, "seed"),
                        ({"q_list": 5}, "q list"),
                        ({"fit": "yes"}, "fit"),
                        ({"out": 1}, "out"),
                        ({"kappa": 12}, "'kappa'"),
                        # N and M set the dropped ladder schedule
                        ({"N": 10}, "config file: unknown keys 'N'\n")):
        bad.write_text(json.dumps(body))
        # fit is read by sweep alone, and no flag is given, because a --q
        # would replace the file's q_list
        cmd = "sweep" if "fit" in body else "lvalue"
        rc, out, err = run_cli([cmd, "--config", str(bad)], capsys)
        assert rc == 1, body
        assert out == ""
        assert err.startswith("twistmoments: error: ") and named in err
        assert err.count("\n") == 1


def _hash_of(args, capsys):
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("# config ")
    return first.split()[-1]


def test_config_hash_semantics(tmp_path, capsys):
    a = _hash_of(["chars", "--q", "9"], capsys)
    b = _hash_of(["chars", "--q", "9"], capsys)
    assert a == b
    c = _hash_of(["chars", "--q", "27"], capsys)
    assert c != a
    # the output destination is not part of the identity
    out_path = tmp_path / "chars.csv"
    rc, _, _ = run_cli(["chars", "--q", "9", "--out", str(out_path)], capsys)
    assert rc == 0
    assert out_path.read_text().splitlines()[0] == f"# config {a}"
    # nor is the table cache location
    w = _hash_of(["weights"], capsys)
    d = _hash_of(["weights", "--cache-dir", str(tmp_path / "c1")], capsys)
    e = _hash_of(["weights", "--cache-dir", str(tmp_path / "c2")], capsys)
    assert d == e == w


@pytest.mark.parametrize("args, want", [
    (["lvalue", "--q", "7"], "11046d808a2e"),
    (["sweep", "--q-list", "53,81,101,105,149,211", "--k-list", "0.5,1,2",
      "--fit", "--tail-eps", "1e-5"], "589dcb736181"),
    (["audit", "--q", "17", "--k", "0.5", "--tail-eps", "1e-7"],
     "232f48c98e8c"),
    (["chars", "--q", "9"], "be2853625b6c"),
    (["mollifier-verify", "--q", "53"], "57faa5a04127"),
    (["mollifier-verify", "--q", "53", "--ell", "12,4"], "59f57c1c5270"),
    (["audit", "--q", "53", "--k", "0.5"], "043f2d2e5d77"),
])
def test_config_hash_is_pinned(args, want):
    # the hash heads every report and keys reruns: the settings it covers,
    # with the fixed weight 12 of Delta among them, must hash as before
    assert cli._resolve(cli._build_parser(args).parse_args(args)).hash == want


_WIDE_MODULI = ("1009,1013,1019,1021,1031,1033,1039,1049,1201,1499,1331,1369,"
                "1024,1001,1005,1007,1015,1023,1025,1105,1155,1225,1485,"
                "1100,1200,1452")


@pytest.mark.parametrize("fmt, want", [
    ("csv", "35253ea8aac34f2dbdf438c9e0adbef3"
            "20671f6d3caf32456004bd4e3eae5f45"),
    ("json", "c6c89b60fb17dd7d8c34e096f0026a5d"
             "718afadae7cc523728777cccf3a34419"),
], ids=["csv", "json"])
def test_chars_output_is_pinned(fmt, want, capsys):
    # every conductor, primitive flag and parity of the 26 moduli in
    # 1000..1500 that perfbench's chars-wide lists, byte for byte
    rc, out, _ = run_cli(["chars", "--q-list", _WIDE_MODULI, "--format", fmt],
                         capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


_ORACLE_MODULI = (1009, 1024, 1155, 1200, 1331, 9, 16, 105)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("q_list", [(q,) for q in _ORACLE_MODULI]
                         + [_ORACLE_MODULI], ids=str)
def test_chars_bytes_match_the_row_oracle(q_list, fmt, capsys):
    # the per-group lines against the generic row route, every byte
    args = ["chars", "--q-list", ",".join(map(str, q_list)), "--format", fmt]
    cfg = cli._resolve(cli._build_parser(args).parse_args(args))
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    assert out == cli._render(cfg, cli._CHARS_HEADER,
                              helpers.chars_rows(q_list))


def test_config_keys_are_the_flags():
    # a setting is given by a flag or a config-file key alike, and each
    # command has the flags of the settings it reads, and no others
    parser = cli._build_parser(cli._COMMANDS)
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices.keys() == cli._READS.keys()
    flags = 0
    for name, sp in sub.choices.items():
        dests = {a.dest for a in sp._actions} - {"help", "config"}
        assert dests == {*cli._READS[name], "format", "out"}, name
        assert dests <= cli._SETTINGS.keys(), name
        flags += len(dests) + 1
    assert flags == 60


@pytest.mark.parametrize("name", list(cli._READS))
def test_unread_flags_are_usage_errors(name, capsys):
    # a flag of a setting the command does not read is no flag of it
    reads = {*cli._READS[name], "format", "out"}
    unread = [key for key in cli._SETTINGS if key not in reads]
    assert unread
    for key in unread:
        flag = "--" + key.replace("_", "-")
        rc, out, err = run_cli([name, flag, "6"], capsys)
        assert (rc, out) == (1, ""), key
        # the command's own usage line, which shows the flags it takes
        assert err.startswith(f"usage: twistmoments {name} [-h] "), key
        assert err.endswith(f"\ntwistmoments {name}: error: "
                            f"unrecognized arguments: {flag} 6\n"), key


def test_unread_config_keys_keep_their_defaults(tmp_path, capsys):
    # a known key the command does not read can neither fail the command
    # nor move its hash, whatever its value
    path = tmp_path / "unread.json"
    for args, body in (
            (["chars", "--q", "5"], {"tail_eps": 2}),
            (["chars", "--q", "5"], {"tail_eps": 1e-3, "seed": None,
                                     "audit_count": -2, "X": "abc",
                                     "ell": "8,3", "k_list": "x",
                                     "fit": "yes", "cache_dir": 1}),
            (["weights"], {"q": 6, "q_list": "5,7", "n_max": 0})):
        path.write_text(json.dumps(body))
        assert (_hash_of([*args, "--config", str(path)], capsys)
                == _hash_of(args, capsys)), body


def test_flags_replace_both_forms_from_the_file(tmp_path, capsys):
    # q and q_list are one setting, as are k and k_list: a flag of either
    # form replaces the file's, and one source may not give both forms
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"q_list": "5,7"}))
    rc, out, _ = run_cli(["chars", "--config", str(path), "--q", "9"], capsys)
    assert rc == 0
    assert {row["q"] for row in csv_rows(out)[1]} == {"9"}
    want = _hash_of(["chars", "--q", "9"], capsys)
    assert out.splitlines()[0] == f"# config {want}"
    path.write_text(json.dumps({"k_list": [0.5, 2]}))
    rc, out, _ = run_cli(
        ["sweep", "--config", str(path), "--q", "7", "--k", "1"], capsys)
    assert rc == 0
    assert [row["k"] for row in csv_rows(out)[1]] == ["1.0"]
    for args, body, err_want in (
            (["chars", "--q", "5", "--q-list", "7"], None,
             "give q or q_list, not both"),
            (["sweep", "--q", "7", "--k", "1", "--k-list", "2"], None,
             "give k or k_list, not both"),
            (["chars"], {"q": 5, "q_list": "7"},
             "config file: give q or q_list, not both"),
            (["sweep", "--q", "7"], {"k": 1, "k_list": [2]},
             "config file: give k or k_list, not both")):
        if body is not None:
            path.write_text(json.dumps(body))
            args = [*args, "--config", str(path)]
        assert run_cli(args, capsys) == (
            1, "", f"twistmoments: error: {err_want}\n"), args


def test_mollifier_verify_keeps_k_within_the_envelope(capsys):
    # diagonal_local_factor's envelope is established for k <= 2 only: at
    # k = 2 every row holds, and past it the rows failed (k = 3) or a power
    # overflowed (k = 1e6)
    rc, out, err = run_cli(["mollifier-verify", "--q", "9", "--k", "2",
                            "--format", "json"], capsys)
    assert (rc, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert sum(r["name"] == "diagonal_local_factor" for r in rows) == 15
    assert all(r["ok"] for r in rows)
    for k in ("2.5", "3", "1e6"):
        assert run_cli(["mollifier-verify", "--q", "9", "--k", k],
                       capsys) == (
            1, "", f"twistmoments: error: k={float(k):g} is beyond the "
            "local-factor envelope, established for k <= 2\n"), k


def test_memory_error_is_a_computation_failure(monkeypatch, capsys):
    # a bare MemoryError has no text; the one stderr line names its type
    def exhausted(n_max):
        raise MemoryError()
    monkeypatch.setattr(hecke, "ramanujan_tau_table", exhausted)
    assert run_cli(["tau", "--n-max", "5"], capsys) == (
        2, "", "twistmoments: computation failed: MemoryError\n")


def test_repeat_runs_byte_identical(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        p = tmp_path / f"sweep_{tag}.csv"
        rc, _, _ = run_cli(
            ["sweep", "--q-list", "53,101", "--k", "1", "--out", str(p)],
            capsys)
        assert rc == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cache_dir_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["lvalue", "--q", "7", "--cache-dir", str(cache)]
    rc, out1, _ = run_cli(args, capsys)
    assert rc == 0
    stored = list(cache.glob("eigenform_*.npy"))
    assert len(stored) == 1
    rc, out2, _ = run_cli(args, capsys)
    assert rc == 0
    assert out1 == out2


def test_cache_dir_serves_shorter_request_by_prefix(tmp_path, capsys):
    base = ["lvalue", "--q", "23", "--tail-eps", "1e-7"]
    shared = ["--cache-dir", str(tmp_path / "shared")]
    rc, _, _ = run_cli(base + ["--X", "0.5"] + shared, capsys)
    assert rc == 0
    rc, out, _ = run_cli(base + ["--X", "1"] + shared, capsys)
    assert rc == 0
    assert len(list((tmp_path / "shared").glob("eigenform_*.npy"))) == 1
    rc, fresh, _ = run_cli(
        base + ["--X", "1", "--cache-dir", str(tmp_path / "fresh")], capsys)
    assert rc == 0
    assert out == fresh


def test_uncached_rows_do_not_depend_on_modulus_order(monkeypatch, capsys):
    # without --cache-dir every run gets a table of exactly its own size,
    # whatever bigger table an earlier run left in the process; within one
    # run every family reads the run's one table, which decides its audits
    # but never a value
    monkeypatch.setattr(hecke, "_shared_table", None)
    base = ["lvalue", "--tail-eps", "1e-5"]
    fresh = run_cli([*base, "--q", "211"], capsys)
    assert fresh[0] == 0
    rc, both, _ = run_cli([*base, "--q-list", "401,211"], capsys)
    assert rc == 0
    # a lone run after the list, with the 500k table in the process
    assert run_cli([*base, "--q", "211"], capsys) == fresh
    lone = csv_rows(fresh[1])[1]
    listed = [r for r in csv_rows(both)[1] if r["q"] == "211"]
    assert len(lone) == len(listed) == 209          # phi*(211)
    cells = ("index", "re", "im", "abs")
    assert ([[r[c] for c in cells] for r in listed]
            == [[r[c] for c in cells] for r in lone])
    # m_cap 348050 passes the lone run's 187,917 terms but fits the 500k
    # table that q = 401 sizes
    assert sum(r["audited"] == "1" for r in lone) == 0
    assert sum(r["audited"] == "1" for r in listed) == 8
    assert "# audit q=211 audited=8/209" in both.splitlines()


def test_lvalue_list_loads_one_table(tmp_path, monkeypatch, capsys):
    # a --q-list run reads one table, sized for its largest modulus, and
    # loads and validates it once.  Every family reads that table, as in
    # sweep: its values equal a one-modulus run's, and its audit is decided
    # against the run's table, so q = 149, whose own 132,700-term table is
    # too short for the squared route, is audited against q = 307's 500k
    args = ["lvalue", "--q-list", "53,149,307", "--tail-eps", "1e-5",
            "--cache-dir", str(tmp_path)]
    rc, cold, _ = run_cli(args, capsys)
    assert rc == 0
    assert len(list(tmp_path.glob("eigenform_*.npy"))) == 1
    # one comment per modulus, after every row, from lvalues.audit_plan
    assert cold.splitlines()[-3:] == [
        "# audit q=53 audited=8/51",
        "# audit q=149 audited=8/147",
        "# audit q=307 audited=0/305 skipped: m_cap 736805 > table 500000"]
    rc, doc, _ = run_cli(args + ["--format", "json"], capsys)
    assert rc == 0
    assert json.loads(doc)["audits"] == [
        {"q": 53, "audited": 8, "characters": 51, "skipped": None},
        {"q": 149, "audited": 8, "characters": 147, "skipped": None},
        {"q": 307, "audited": 0, "characters": 305,
         "skipped": "m_cap 736805 > table 500000"}]
    calls = collections.Counter()
    for name in ("_load_cached", "_validate_table"):
        def counted(*a, _fn=getattr(hecke, name), _name=name):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(hecke, name, counted)
    rc, warm, _ = run_cli(args, capsys)
    assert rc == 0
    assert warm == cold
    assert calls == {"_load_cached": 1, "_validate_table": 1}
    monkeypatch.undo()
    cells = ("index", "re", "im", "abs")
    for q in ("53", "149", "307"):
        rc, one, _ = run_cli(["lvalue", "--q", q, "--tail-eps", "1e-5"],
                             capsys)
        assert rc == 0
        lone = csv_rows(one)[1]
        listed = [r for r in csv_rows(warm)[1] if r["q"] == q]
        assert ([[r[c] for c in cells] for r in listed]
                == [[r[c] for c in cells] for r in lone])
        # only q = 149's audit moves with the table: lone, it has none
        assert (listed == lone) == (q != "149")
        assert any(r["audited"] == "1" for r in lone) == (q == "53")


def test_corrupt_cache_file_exits_two(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["lvalue", "--q", "7", "--cache-dir", str(cache)]
    rc, _, _ = run_cli(args, capsys)
    assert rc == 0
    (path,) = cache.glob("eigenform_*.npy")
    lam = np.load(path)
    lam[5] = -lam[5]          # lambda(5): breaks multiplicativity at 10, 15
    np.save(path, lam)
    rc, _, err = run_cli(args, capsys)
    assert rc == 2
    assert "corrupt cache file" in err


def test_nan_in_cache_file_exits_two(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["lvalue", "--q", "7", "--cache-dir", str(cache)]
    rc, _, _ = run_cli(args, capsys)
    assert rc == 0
    (path,) = cache.glob("eigenform_*.npy")
    lam = np.load(path)
    lam[10] = np.nan
    np.save(path, lam)
    rc, _, err = run_cli(args, capsys)
    assert rc == 2
    assert "corrupt cache file" in err


@pytest.fixture
def fresh_kernels(monkeypatch):
    """Unset the process's evaluator memo, as in a fresh process: the next
    run builds or reads the grids itself, where otherwise the first run of
    the session would decide their source for all.  The memo comes back
    afterwards."""
    def reset():
        monkeypatch.setattr(lvalues, "_evaluators", None)
    reset()
    return reset


def test_kernel_file_gives_the_same_bytes(tmp_path, fresh_kernels, capsys):
    # without --cache-dir, with a cold one and with a warm one
    args = ["lvalue", "--q", "17", "--tail-eps", "1e-7"]
    cache = ["--cache-dir", str(tmp_path)]
    outs = []
    for extra in ([], cache, cache):
        fresh_kernels()
        rc, out, _ = run_cli(args + extra, capsys)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert len(list(tmp_path.glob("kernel_grids_*.bin"))) == 1


def _kernel_file(cache, fresh_kernels, capsys) -> pathlib.Path:
    """The kernel file a fresh `weights --cache-dir cache` writes."""
    rc, _, _ = run_cli(["weights", "--cache-dir", str(cache)], capsys)
    assert rc == 0
    (path,) = cache.glob("kernel_grids_*.bin")
    fresh_kernels()
    return path


def test_kernel_file_flipped_byte_exits_two(tmp_path, fresh_kernels,
                                            capsys):
    path = _kernel_file(tmp_path, fresh_kernels, capsys)
    data = bytearray(path.read_bytes())
    data[32 + 8] ^= 1         # W at knot 1, which the spot check skips
    path.write_bytes(bytes(data))
    rc, _, err = run_cli(["lvalue", "--q", "7", "--cache-dir",
                          str(tmp_path)], capsys)
    assert rc == 2
    assert "corrupt cache file" in err and "digest" in err


def test_kernel_file_checked_knot_exits_two(tmp_path, fresh_kernels,
                                            capsys):
    # a self-consistent file: the digest is recomputed over the perturbed
    # bytes, so only the spot check can see W2's slope one ulp off at knot
    # 32.  The same change at a knot the check skips (33, say) is not
    # caught: such a file reads as a good one.
    path = _kernel_file(tmp_path, fresh_kernels, capsys)
    grids = np.frombuffer(path.read_bytes()[32:], "<f8").reshape(2, 2, -1)
    grids = grids.copy()
    grids[1, 1, 32] = np.nextafter(grids[1, 1, 32], 0.0)
    payload = grids.tobytes()
    path.write_bytes(hashlib.sha256(payload).digest() + payload)
    rc, _, err = run_cli(["audit", "--q", "7", "--k", "0.5", "--cache-dir",
                          str(tmp_path)], capsys)
    assert rc == 2
    assert "corrupt cache file" in err and "checked knots" in err


@pytest.mark.parametrize("layout", ["file", "below_a_file",
                                    "directory_at_the_file"])
def test_bad_cache_dir_fails_the_computation(layout, tmp_path,
                                             fresh_kernels, capsys):
    # the grids are read while the config is checked, but a cache directory
    # that cannot be read or written is still a computation failure (2),
    # not a usage error (1)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = {"file": blocker, "below_a_file": blocker / "cache",
             "directory_at_the_file": tmp_path / "cache"}[layout]
    if layout == "directory_at_the_file":
        pathlib.Path(weights._grid_path(str(cache))).mkdir(parents=True)
    rc, out, err = run_cli(["lvalue", "--q", "7", "--cache-dir", str(cache)],
                           capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("twistmoments: computation failed: ")


def test_tracer_names_resolve():
    # perfbench/trace_cli.py wraps these package attributes by name; a
    # rename or deletion here would break `perfbench/run.py --trace 1`
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("_trace_cli", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.SPANS) == 23
    for mod_name, attr_path, _, _ in tracer.SPANS:
        owner = importlib.import_module(mod_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner) or isinstance(owner, property), attr_path


# ------------------------------------------------------- parser per command

def _usage_cases():
    cases = [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--q", "5"],
             ["--bogus", "chars", "--q", "5"]]
    # moments and fit were folded into sweep: both parsers must refuse
    # their names alike
    for name in (*cli._COMMANDS, "moments", "fit"):
        cases += [[name, "--help"], [name, "--bogus"], [name, "--q", "x"],
                  [name, "--format", "xml"], ["--bogus", name, "--q", "x"]]
    return cases


@pytest.mark.parametrize("args", _usage_cases(), ids=" ".join)
def test_parser_flags_only_the_named_command(args, capsys, monkeypatch):
    # the parser flags only the command argv names; help, usage errors and
    # exit codes must read as with the flags on all seven subcommands
    got = run_cli(args, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda commands: full(cli._COMMANDS))
    assert got == run_cli(args, capsys)


# ------------------------------------------------ kernel lookup against oracle

@pytest.mark.parametrize("args", [
    ["lvalue", "--q", "53"],
    ["sweep", "--q-list", "17,29,37,53", "--fit"],
])
def test_searchsorted_kernel_gives_the_same_bytes(args, capsys, monkeypatch):
    want = run_cli(args, capsys)
    assert want[0] == 0
    monkeypatch.setattr(weights.WeightEvaluator, "__call__",
                        helpers.searchsorted_weight)
    assert run_cli(args, capsys) == want
