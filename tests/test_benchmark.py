"""The benchmark's own operations, each run once in-process and read by the
benchmark's own output checkers, so an output the benchmark would refuse
fails here first; and once more under the tracer's wrappers, so a hook that
reads a package internal fails here, not only in a traced benchmark run.

perfbench/run.py and perfbench/trace_cli.py are loaded by path, with
checks.py beside them, and none writes bytecode under perfbench/.  The
operations run through cli.run, with a temporary --cache-dir and --out in
place of the benchmark's work directory.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from twistmoments import cli, hecke, lvalues

_PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # run.py puts perfbench/ on sys.path for checks.py and calibrate.py
    monkeypatch.setattr(sys, "path", list(sys.path))
    added = [n for n in ("checks", "calibrate") if n not in sys.modules]
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", _PERFBENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    yield mod
    for name in added:
        sys.modules.pop(name, None)


def test_benchmark_operations_pass_its_checkers(bench, tmp_path):
    assert set(bench.WORKLOADS) == {"cold-table", "warm-sweep",
                                    "warm-audit", "chars-wide"}
    out = tmp_path / "out.txt"
    texts = {}

    def run(op, cache):
        args = list(op.args)
        if op.cache:
            args += ["--cache-dir", str(cache)]
        assert cli.run(args + ["--out", str(out)]) == 0, op.key
        text = out.read_text()
        bench._CHECKERS[op.kind](text, op)
        return text

    run(bench.SETUP_OP, None)
    for name, wl in bench.WORKLOADS.items():
        for op in wl.ops:
            # a "fresh" operation starts from an empty cache every time
            cache = tmp_path / (f"{name}-{op.key}" if op.cache == "fresh"
                                else name)
            texts[name, op.key] = run(op, cache)
    bench.checks.check_balance(texts["warm-audit", "lvalue-X1"],
                               texts["warm-audit", "lvalue-X0.5"])


def test_warm_audit_second_pass_reads_the_cache(bench, tmp_path,
                                                monkeypatch):
    # the warm-audit operations twice against one cache, each pass with an
    # unset evaluator memo, as in fresh processes: the first pass writes the
    # tables and the kernel file, the second adds no file and prints the
    # same bytes, and every output passes the benchmark's checkers
    cache = tmp_path / "cache"
    out = tmp_path / "out.txt"
    passes = []
    for _ in range(2):
        monkeypatch.setattr(lvalues, "_evaluators", None)
        before = set(cache.iterdir()) if cache.exists() else set()
        texts = {}
        for op in bench.WORKLOADS["warm-audit"].ops:
            args = list(op.args)
            if op.cache:
                args += ["--cache-dir", str(cache)]
            assert cli.run(args + ["--out", str(out)]) == 0, op.key
            texts[op.key] = out.read_text()
            bench._CHECKERS[op.kind](texts[op.key], op)
        bench.checks.check_balance(texts["lvalue-X1"], texts["lvalue-X0.5"])
        passes.append((before, set(cache.iterdir()), texts))
    (_, filled, first), (before, after, second) = passes
    assert any(p.name.startswith("kernel_grids_") for p in filled)
    assert before == after == filled
    assert second == first


# SPANS paths that no benchmark operation calls: only the tracer holds them
_TRACER_ONLY = {"gauss_sum", "central_value_sq", "block_sum",
                "block_sum_complex", "n_poly", "WeightEvaluator.quad"}


def test_tracer_hooks_on_the_benchmark_operations(bench, tmp_path,
                                                  monkeypatch):
    # every SPANS target wrapped as perfbench/trace_cli.py wraps it (the
    # monkeypatch restores each at teardown), then every benchmark
    # operation run once: the hooks read AfeConfig.audit_count, the
    # positional q of family_values, n_max of ramanujan_tau_table and
    # r.audited, and each counter they feed must appear
    spec = importlib.util.spec_from_file_location(
        "_trace_cli", _PERFBENCH / "trace_cli.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, path, _, _ in tracer.SPANS:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, owner.__dict__[attr])
    # no table or kernel grid left by an earlier test: the run builds both
    monkeypatch.setattr(hecke, "_shared_table", None)
    monkeypatch.setattr(lvalues, "_evaluators", None)
    rec = tracer.Recorder()
    rec.install(sys.modules)
    ops = [(bench.SETUP_OP, "setup")] + [
        (op, f"{name}-{op.key}") for name, wl in bench.WORKLOADS.items()
        for op in wl.ops]
    for op, key in ops:
        args = list(op.args) + ["--out", str(tmp_path / "out.txt")]
        if op.cache:
            args += ["--cache-dir", str(tmp_path / key)]
        assert cli.run(args) == 0, key
    assert {"hecke.tau_terms", "lvalues.family_chars",
            "lvalues.unaudited_families",
            "mollifier.support_size"} <= set(rec.counts)

    def calls(mod_name, path, name):
        if name is None:
            name = f"{mod_name.split('.')[-1]}.{path.split('.')[-1]}"
        return rec.counts[name + "_calls"]
    called = {path for mod_name, path, name, _ in tracer.SPANS
              if calls(mod_name, path, name)}
    assert called == {path for _, path, _, _ in tracer.SPANS} - _TRACER_ONLY
