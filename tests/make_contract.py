"""The CLI contract: what each command line of COMMANDS prints.

    PYTHONPATH=src python tests/make_contract.py     # rewrites contract.json

tests/contract.json holds, for each command line in CSV and in JSON, the
exit code, the sha256 of stdout and of stderr, and their cells.
tests/test_contract.py runs the same lines and compares.  Rerun this script
only after a change that moves output on purpose, and name each command
whose record moved.

Cells are what a rounding difference cannot move apart from the floats:
a CSV or stderr line is kept as a template, its floats cut out as "{}",
followed by those floats; a JSON document is kept parsed.  An output over
_INLINE bytes keeps its floats in order and, for every other cell, the
sha256 of its cells with each float cut out, since comparing those cells
exactly is comparing that digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import re
import sys
import tempfile

import numpy

from twistmoments import cli

PATH = pathlib.Path(__file__).with_name("contract.json")
_INLINE = 1 << 16
# a float as repr and "{:g}" print it, never a run of digits inside a word
# such as a config hash
_FLOAT = re.compile(
    r"(?<![\w.+-])-?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+|inf|nan)(?![\w.])")

_WIDE = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1201, 1499, 1331,
         1369, 1024, 1001, 1005, 1007, 1015, 1023, 1025, 1105, 1155, 1225,
         1485, 1100, 1200, 1452)
_WARM = ("--cache-dir", "{cache}")
_SWEEP = ("sweep", "--q-list", "53,81,101,105,149,211", "--k-list", "0.5,1,2",
          "--fit", "--tail-eps", "1e-5", *_WARM)
_Q17 = ("--q", "17", "--tail-eps", "1e-7", *_WARM)

# in run order: "{cache}" is one cache directory shared by every line, so
# the second _SWEEP is warm.  Each line runs in CSV, then in JSON.
COMMANDS = tuple(tuple(argv) for argv in (
    # the benchmark's operations (perfbench/run.py)
    ("weights",),
    ("chars", "--q-list", "5,7,9,11,13"),
    ("tau", "--n-max", "100000"),
    ("sweep", "--q-list", "5,7,9,11,13", "--k-list", "0.5,1,2", *_WARM),
    ("chars", "--q-list", "53,81,101,105,149,211"),
    _SWEEP,
    _SWEEP,
    ("chars", "--q", "17"),
    ("lvalue", *_Q17, "--X", "1"),
    ("lvalue", *_Q17, "--X", "0.5"),
    ("audit", *_Q17, "--k", "0.5"),
    ("audit", *_Q17, "--k", "2"),
    ("mollifier-verify", *_Q17),
    ("chars", "--q-list", ",".join(map(str, _WIDE[0::2]))),
    ("chars", "--q-list", ",".join(map(str, _WIDE[1::2]))),
    # README's quickstart
    ("tau", "--n-max", "100"),
    ("chars", "--q", "9"),
    ("lvalue", "--q", "7"),
    ("sweep", "--q", "53", "--k", "1"),
    ("sweep", "--q-list", "101,149,211,307", "--k", "1", "--fit"),
    ("audit", "--q", "53", "--k", "0.5"),
    ("mollifier-verify", "--q", "53"),
    # more of the moment and check reports
    ("mollifier-verify", "--q", "101", "--k", "2"),
    # a usage error and a computation failure
    ("lvalue", "--q", "7", "--X", "1e300"),
    ("lvalue", "--q", "53", "--tail-eps", "1e-4"),
))
FORMATS = ("csv", "json")


def run(argv, cache: str) -> tuple[int, str, str]:
    """cli.run on argv with "{cache}" replaced: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([a.replace("{cache}", cache) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_all(cache: str) -> dict:
    """Every command line in order, in each format, keyed (index, format)."""
    return {(i, fmt): run([*argv, "--format", fmt], cache)
            for i, argv in enumerate(COMMANDS) for fmt in FORMATS}


def _line_cells(line: str):
    floats = [float(m) for m in _FLOAT.findall(line)]
    return [_FLOAT.sub("{}", line), *floats] if floats else line


def _cut_floats(cells, floats: list):
    """cells with each float replaced by "{}" and appended to floats."""
    if isinstance(cells, float):
        floats.append(cells)
        return "{}"
    if isinstance(cells, dict):
        return {key: _cut_floats(v, floats) for key, v in cells.items()}
    if isinstance(cells, list):
        return [_cut_floats(v, floats) for v in cells]
    return cells


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cells(text: str, fmt: str):
    """text's cells: a JSON document parsed, any other text line by line
    (_line_cells); an output over _INLINE bytes as {"sha256": <digest of
    its cells less the floats>, "floats": <the floats>}."""
    if fmt == "json" and text:
        out = json.loads(text)
    else:
        out = [_line_cells(line) for line in text.splitlines()]
    if len(text) <= _INLINE:
        return out
    floats = []
    rest = json.dumps(_cut_floats(out, floats), sort_keys=True)
    return {"sha256": _digest(rest), "floats": floats}


def record(result, fmt: str) -> dict:
    code, out, err = result
    return {"exit": code,
            "stdout_sha256": _digest(out), "stdout": cells(out, fmt),
            "stderr_sha256": _digest(err), "stderr": cells(err, "text")}


def main():
    with tempfile.TemporaryDirectory() as cache:
        results = run_all(cache)
    doc = {"numpy": numpy.__version__, "machine": platform.machine(),
           "commands": [{"argv": list(argv),
                         **{fmt: record(results[i, fmt], fmt)
                            for fmt in FORMATS}}
                        for i, argv in enumerate(COMMANDS)]}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {PATH} ({len(COMMANDS)} command lines)", file=sys.stderr)


if __name__ == "__main__":
    main()
