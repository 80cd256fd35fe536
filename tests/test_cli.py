"""Command-line front end: dispatch, formats, config handling, exit codes."""

import collections
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from twistmoments import characters, cli, hecke, lvalues, mollifier


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
    ["lvalue", "--q", "7", "--kappa", "14"],
    ["lvalue", "--q", "7", "--X", "0"],
    ["lvalue", "--q", "7", "--tail-eps", "2"],
    ["moments", "--q", "53", "--k", "-1"],
    ["audit", "--q-list", "53,101", "--k", "0.5"],   # exactly one modulus
    ["mollifier-verify", "--q-list", "53,101"],
    ["fit", "--q-list", "53,101,149"],               # needs >= 4 moduli
    ["moments", "--q", "53", "--ell", "8,3"],        # odd ladder entry
    ["moments", "--q", "53", "--ell", "2,8"],        # increasing ladder
    ["tau", "--n-max", "0"],
    ["chars", "--q", "9", "--format", "xml"],
    ["lvalue", "--q", "5", "--seed", "-1"],
    ["tau", "--n-max", "30000000"],                  # beyond TAU_N_MAX
    ["audit", "--q", "17", "--k-list", "0.5,2"],     # exactly one k
    ["mollifier-verify", "--q", "17", "--k-list", "0.5,2"],
])
def test_validation_failures_exit_one(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 1
    assert "error" in err
    assert out == ""


def test_computation_failure_exits_two(capsys):
    rc, _, err = run_cli(
        ["lvalue", "--q", "7", "--cache-dir", "/proc/nope/x"], capsys)
    assert rc == 2
    assert "failed" in err


# -------------------------------------------------------------------- outputs

def test_tau_csv_is_plain_coefficient_file(tmp_path, capsys):
    out_path = tmp_path / "tau.tsv"
    rc, _, _ = run_cli(["tau", "--n-max", "100", "--out", str(out_path)],
                       capsys)
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 100
    assert not lines[0].startswith("#")
    assert hecke.read_coefficient_file(str(out_path)) == [
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
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    rc, out, _ = run_cli(["moments", "--q", "53", "--k", "1"], capsys)
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

    count(characters, "build_group")
    count(lvalues, "family_values")
    count(mollifier.MollifierContext, "__init__")
    rc, _, _ = run_cli(["audit", "--q", "17", "--k", "0.5",
                        "--tail-eps", "1e-7"], capsys)
    assert rc == 0
    assert calls == {"build_group": 1, "family_values": 1, "__init__": 1}


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
    names = {r["name"] for r in doc["rows"]}
    assert {"dual_representation", "trunc_exp_tail_vs_term",
            "trunc_exp_tail_vs_geom", "diagonal_identity",
            "diagonal_local_factor"} <= names


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
                        ({"out": 1}, "out")):
        bad.write_text(json.dumps(body))
        rc, out, err = run_cli(["lvalue", "--q", "5", "--config", str(bad)],
                               capsys)
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
    d = _hash_of(["chars", "--q", "9", "--cache-dir", str(tmp_path / "c1")],
                 capsys)
    e = _hash_of(["chars", "--q", "9", "--cache-dir", str(tmp_path / "c2")],
                 capsys)
    assert d == e == a


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
    # without --cache-dir every call gets a table of exactly its own size,
    # whatever bigger table an earlier modulus left in the process
    monkeypatch.setattr(hecke, "_shared_tables", {})
    rows_211 = {}
    for q_list in ("211", "401,211"):
        rc, out, _ = run_cli(["lvalue", "--q-list", q_list,
                              "--tail-eps", "1e-5"], capsys)
        assert rc == 0
        rows_211[q_list] = [l for l in out.splitlines()
                            if l.startswith("211,")]
    assert len(rows_211["211"]) == 209          # phi*(211)
    assert rows_211["211"] == rows_211["401,211"]


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
