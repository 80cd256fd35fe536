"""Every public top-level function and class of the package has a caller.

A name counts as called when an ast.Name or ast.Attribute names it anywhere
in the package outside its own definition, or when perfbench/trace_cli.py's
SPANS wraps it.  The AST is read rather than the text, so a name that only
turns up in a string or an error message does not count.  A name left
without a caller either gains one, moves to tests/helpers.py, or joins
ALLOWED with its reason.
"""

import ast
import collections
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "twistmoments"

# (module, name): why the name stays without a caller in the package
ALLOWED = {
    ("characters", "kloosterman"):
        "gains a caller with the prime-power family (ROADMAP item 3)",
    ("hecke", "rankin_prime_sum"):
        "gains a caller with the predicted main term (ROADMAP items 10, 11)",
}


def _names(node) -> collections.Counter:
    """How often each identifier is read as a Name or an Attribute."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _traced() -> set[tuple[str, str]]:
    """(module, top-level name) of every package attribute SPANS wraps."""
    spec = importlib.util.spec_from_file_location(
        "_trace_cli", ROOT / "perfbench" / "trace_cli.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(mod.rpartition(".")[2], path.partition(".")[0])
            for mod, path, _, _ in tracer.SPANS}


def _uncalled() -> set[tuple[str, str]]:
    """(module, name) of every public top-level function and class that
    nothing in the package reads outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    reads = sum((_names(tree) for tree in trees.values()),
                collections.Counter())
    return {(mod, node.name) for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and reads[node.name] == _names(node)[node.name]}


def test_every_public_name_has_a_caller():
    uncalled = _uncalled() - _traced()
    assert uncalled <= set(ALLOWED), sorted(uncalled - set(ALLOWED))
    # an allowance outlives its reason once the name gains a caller
    assert set(ALLOWED) <= uncalled, sorted(set(ALLOWED) - uncalled)


def test_traced_names_without_a_caller():
    # the names only the tracer holds; they can move to tests/helpers.py
    # once the benchmark stops wrapping them (ROADMAP items 6 and 9)
    assert _uncalled() & _traced() == {("characters", "gauss_sum"),
                                       ("lvalues", "central_value_sq"),
                                       ("mollifier", "n_poly"),
                                       ("sums", "block_sum")}
