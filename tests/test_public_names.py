"""Every public top-level function and class of the package has a caller,
and every public member of a public class has a reader.

A name counts as called when an ast.Name or ast.Attribute names it anywhere
in the package outside its own definition, or when perfbench/trace_cli.py's
SPANS wraps it.  The members of a public class are its public methods and
properties and, for a named-tuple subclass, its record fields; one counts
as read when an ast.Attribute loads it anywhere in the package outside its
own definition (its class's other methods count), or when a SPANS path
("Class.member") names it.  The AST is read rather than the text, so a name
that only turns up in a string or an error message does not count, and
neither does a field set by keyword.  A name left without a caller either
gains one, moves to tests/helpers.py, or joins ALLOWED with its reason.
"""

import ast
import collections
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "twistmoments"

# (module, name or "Class.member"): why it stays without a caller or reader
# in the package
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


def _loads(node) -> collections.Counter:
    """How often each identifier is loaded as an Attribute."""
    return collections.Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


def _traced(spans=None) -> set[tuple[str, str]]:
    """(module, path) of every package attribute the spans wrap, path a
    top-level name or "Class.member"; perfbench/trace_cli.py's SPANS when
    none are given."""
    if spans is None:
        spec = importlib.util.spec_from_file_location(
            "_trace_cli", ROOT / "perfbench" / "trace_cli.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        spans = tracer.SPANS
    return {(mod.rpartition(".")[2], path) for mod, path, _, _ in spans}


def _uncalled(trees) -> set[tuple[str, str]]:
    """(module, name) of every public top-level function and class that
    nothing in the package reads outside its own definition."""
    reads = sum((_names(tree) for tree in trees.values()),
                collections.Counter())
    return {(mod, node.name) for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and reads[node.name] == _names(node)[node.name]}


def _record_fields(cls: ast.ClassDef) -> list[str]:
    """The fields of a class built on namedtuple("Name", fields), fields a
    string or a sequence of strings; none for any other class."""
    for base in cls.bases:
        if (isinstance(base, ast.Call)
                and getattr(base.func, "id", None) == "namedtuple"):
            fields = ast.literal_eval(base.args[1])
            if isinstance(fields, str):
                return fields.replace(",", " ").split()
            return list(fields)
    return []


def _unread_members(trees) -> set[tuple[str, str]]:
    """(module, "Class.member") of every public method, property and record
    field of a public class that nothing in the package loads outside its
    own definition."""
    reads = sum((_loads(tree) for tree in trees.values()),
                collections.Counter())
    out = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            own = {node.name: _loads(node)[node.name] for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
            own.update((f, 0) for f in _record_fields(cls))
            out |= {(mod, f"{cls.name}.{name}") for name, n in own.items()
                    if not name.startswith("_") and reads[name] == n}
    return out


def test_every_public_name_has_a_caller():
    trees = _trees()
    uncalled = (_uncalled(trees) | _unread_members(trees)) - _traced()
    assert uncalled <= set(ALLOWED), sorted(uncalled - set(ALLOWED))
    # an allowance outlives its reason once the name gains a caller
    assert set(ALLOWED) <= uncalled, sorted(set(ALLOWED) - uncalled)


def test_traced_names_without_a_caller():
    # the names only the tracer holds; they can move to tests/helpers.py
    # once the benchmark stops wrapping them (ROADMAP items 6 and 9)
    trees = _trees()
    assert (_uncalled(trees) | _unread_members(trees)) & _traced() == {
        ("characters", "gauss_sum"), ("lvalues", "central_value_sq"),
        ("mollifier", "n_poly"), ("sums", "block_sum"),
        ("weights", "WeightEvaluator.quad")}


_SYNTHETIC = '''
from collections import namedtuple


class Record(namedtuple("Record", "used unused")):
    def unread(self):
        return self.unread

    def helper(self):
        return self.used

    def caller(self):
        return self.helper()

    def traced(self):
        return 0

    def _private(self):
        return 0


class _Hidden:
    def never(self):
        return 0


def reader(rec):
    return rec.caller(), Record(used=1, unused=2)
'''


def test_member_scan_on_synthetic_source():
    # flagged: a method read only inside its own body, and a field only set
    # by keyword; kept: a method read by a sibling, one a SPANS-style path
    # names, and every private name or member of a private class
    trees = {"mod": ast.parse(_SYNTHETIC)}
    spans = [("pkg.mod", "Record.traced", "mod.traced", None)]
    assert _unread_members(trees) - _traced(spans) == {
        ("mod", "Record.unread"), ("mod", "Record.unused")}
