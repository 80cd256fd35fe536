"""Run one twistmoments CLI command with spans around the package's layers.

    python3 perfbench/trace_cli.py TRACE_FILE -- <twistmoments arguments>

The package is imported, the public functions listed in SPANS are replaced
by timing wrappers, and twistmoments.cli.run is called with the arguments.
Each call records [name, start, end, parent span index]; counters are
updated at the same boundaries.  Spans stay in memory and are written to
TRACE_FILE as one JSON object when the command returns.  The exit code is
the command's.  Nothing under src/ is modified; untraced benchmark runs
never load this file.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time


def _n_points(args, kwargs, result):
    return {"weights.eval_points": len(result) if hasattr(result, "__len__")
            else 1}


def _tau_terms(args, kwargs, result):
    return {"hecke.tau_terms": args[0] if args else kwargs["n_max"]}


def _afe(args, kwargs):
    """The AfeConfig passed to lvalues.family_values, or its default."""
    if len(args) > 2:
        return args[2]
    return kwargs.get("cfg", sys.modules["twistmoments.lvalues"].DEFAULT_CONFIG)


def _family(args, kwargs, result):
    unaudited = (_afe(args, kwargs).audit_count > 0
                 and not any(r.audited for r in result))
    return {"lvalues.family_chars": len(result),
            "lvalues.unaudited_families": int(unaudited)}


def _support(args, kwargs, result):
    return {"mollifier.support_size": len(result)}


# (module, attribute path, span name or None for count-only, counter hook)
SPANS = [
    ("twistmoments.cli", "run", "cli.run", None),
    ("twistmoments.hecke", "ramanujan_tau_table", "hecke.tau", _tau_terms),
    ("twistmoments.hecke", "build_eigenform", "hecke.build", None),
    ("twistmoments.weights", "WeightEvaluator.__init__", "weights.grid",
     None),
    ("twistmoments.weights", "WeightEvaluator.__call__", "weights.eval",
     _n_points),
    ("twistmoments.weights", "WeightEvaluator.quad", "weights.quad", None),
    ("twistmoments.characters", "build_group", "characters.group", None),
    ("twistmoments.characters", "Character.conductor",
     "characters.conductor", None),
    ("twistmoments.characters", "primitive_characters",
     "characters.primitive", None),
    ("twistmoments.characters", "gauss_sum", "characters.gauss", None),
    ("twistmoments.lvalues", "family_values", "lvalues.family", _family),
    ("twistmoments.lvalues", "central_value_sq", "lvalues.audit", None),
    ("twistmoments.sums", "block_sum", "sums.block_sum", None),
    ("twistmoments.sums", "block_sum_complex", "sums.block_sum", None),
    ("twistmoments.mollifier", "n_poly", "mollifier.npoly", None),
    ("twistmoments.mollifier", "mollifier_coefficients", "mollifier.coeffs",
     _support),
    ("twistmoments.moments", "holder_chain_audit", "moments.holder", None),
    ("twistmoments.moments", "family_pointwise_audit", "moments.pointwise",
     None),
    ("twistmoments.moments", "diagonal_factorization_check",
     "moments.diagonal", None),
    ("twistmoments.moments", "family_moment", "moments.moment", None),
    ("twistmoments.moments", "exponent_fit", "moments.fit", None),
    ("twistmoments.arith", "sieve_primes", "arith.sieve", None),
    ("twistmoments.arith", "factorize", None, None),
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.keys: dict[str, list] = collections.defaultdict(list)

    def wrap(self, fn, name, hook):
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[fn.__module__.split(".")[-1] + "."
                            + fn.__name__ + "_calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else None])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            self.counts[name + "_calls"] += 1
            self._key(name, args, kwargs)
            if hook is not None:
                for key, val in hook(args, kwargs, result).items():
                    if key == "mollifier.support_size":
                        self.counts[key] = max(self.counts[key], val)
                    else:
                        self.counts[key] += val
            return result
        return timed

    def _key(self, name, args, kwargs):
        # distinct moduli (and balance parameters) per operation, for the
        # builds-per-modulus waste ratios
        if name == "characters.group":
            self.keys[name].append(args[0] if args else kwargs["q"])
        elif name == "lvalues.family":
            self.keys[name].append([args[1], _afe(args, kwargs).X])

    def install(self, modules):
        for mod_name, path, name, hook in SPANS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if outer else getattr(owner, attr)
            if isinstance(fn, property):
                setattr(owner, attr, property(self.wrap(fn.fget, name, hook)))
            else:
                setattr(owner, attr, self.wrap(fn, name, hook))


def main(argv: list[str]) -> int:
    trace_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py TRACE_FILE -- <arguments>")
    rec = Recorder()
    t0 = time.perf_counter()
    import twistmoments.cli
    t1 = time.perf_counter()
    rec.spans.append(["cli.import", t0, t1, None])
    rec.install(sys.modules)
    code = 3
    try:
        code = twistmoments.cli.run(cli_args)
    finally:
        with open(trace_file, "w") as fh:
            json.dump({"spans": rec.spans, "counts": dict(rec.counts),
                       "keys": rec.keys, "code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
