"""The benchmark's own operations, each run once in-process and read by the
benchmark's own output checkers, so an output the benchmark would refuse
fails here first.

perfbench/run.py is loaded by path, with checks.py beside it, and neither
writes bytecode under perfbench/.  The operations run through cli.run, with
a temporary --cache-dir and --out in place of the benchmark's work
directory.
"""

import importlib.util
import pathlib
import sys

import pytest

from twistmoments import cli, lvalues

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
