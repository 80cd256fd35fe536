"""The CLI contract: every command line of make_contract.COMMANDS prints
what tests/contract.json recorded.

Where numpy's version and the machine are the recorded ones, the test runs
in "digest" mode: the sha256 of stdout and of stderr must match, every
byte, and so must every cell.  Elsewhere, in "cells" mode, every cell that
is not a float must match exactly, and every float within 1e-12 relative
or 1e-15 absolute, so a numpy that rounds differently still passes and a
moved value still fails.  The mode is in each test id.
"""

import json
import math
import platform

import numpy
import pytest

import make_contract

_DOC = json.loads(make_contract.PATH.read_text())
_MODE = ("digest" if (_DOC["numpy"], _DOC["machine"])
         == (numpy.__version__, platform.machine()) else "cells")
_REL, _ABS = (0.0, 0.0) if _MODE == "digest" else (1e-12, 1e-15)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return make_contract.run_all(str(tmp_path_factory.mktemp("cache")))


def _mismatch(got, want, where="") -> str | None:
    """Where got first differs from want, or None: floats within
    _REL/_ABS, every other cell exactly."""
    if isinstance(want, float) and type(got) is float:
        if (got == want or (math.isnan(got) and math.isnan(want))
                or abs(got - want) <= max(_REL * abs(want), _ABS)):
            return None
        return f"{where}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        return next((m for key in want if (m := _mismatch(
            got[key], want[key], f"{where}/{key}"))), None)
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: {len(got)} items != {len(want)}"
        return next((m for i, (g, w) in enumerate(zip(got, want))
                     if (m := _mismatch(g, w, f"{where}/{i}"))), None)
    return None if got == want else f"{where}: {got!r} != {want!r}"


def test_the_file_names_every_command():
    assert ([cmd["argv"] for cmd in _DOC["commands"]]
            == [list(argv) for argv in make_contract.COMMANDS])


@pytest.mark.parametrize("fmt", make_contract.FORMATS)
@pytest.mark.parametrize(
    "index", range(len(make_contract.COMMANDS)),
    ids=[f"{_MODE}-" + " ".join(argv) for argv in make_contract.COMMANDS])
def test_contract(index, fmt, results):
    want = _DOC["commands"][index][fmt]
    got = make_contract.record(results[index, fmt], fmt)
    assert got["exit"] == want["exit"]
    for stream in ("stdout", "stderr"):
        assert _mismatch(got[stream], want[stream], stream) is None
        if _MODE == "digest":
            key = stream + "_sha256"
            assert got[key] == want[key], stream
