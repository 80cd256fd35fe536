"""Central values of twisted modular L-functions and their mollified moments
over families of primitive Dirichlet characters, at moduli small enough to
check every identity directly.

Modules:
    arith       sieves, multiplicative helpers, phi_star
    hecke       eigenform coefficient tables (built-in Ramanujan tau)
    characters  Dirichlet character groups, Gauss/Kloosterman sums
    weights     the two smoothing kernels of the functional equations
    sums        compensated reductions
    lvalues     central values by approximate functional equation
    mollifier   parameter ladder, prime segments, polynomial tower
    moments     family moments and inequality audits
    cli         command-line front end
"""

import contextlib
import importlib.util
import os
import sys

__version__ = "0.1.0"

# The exact tau route works at any size; this bound only limits the time and
# memory one request may take (build_eigenform at 5.58M terms: 12.2-13.0 s
# and a 950 MB peak in a fresh process on a 2-core machine).  It bounds
# hecke's tables and with them lvalues' truncation lengths, and is kept here
# so that the CLI checks --n-max without loading hecke.
TAU_N_MAX = 20_000_000


# kept here so that weights writes its kernel file without running hecke
@contextlib.contextmanager
def _replacing(path: str):
    """Open a temporary binary file beside path; it replaces path only on
    success."""
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Each layer is registered at once but runs its code on first attribute
# access, so a command loads only the layers it uses.  cli is left out:
# `python -m twistmoments.cli` runs it as __main__.
for _name in ("arith", "characters", "hecke", "lvalues", "moments",
              "mollifier", "sums", "weights"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

__all__ = [
    "arith", "characters", "hecke", "lvalues", "moments", "mollifier",
    "sums", "weights", "__version__",
]
