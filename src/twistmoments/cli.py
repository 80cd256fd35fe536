"""Command-line front end: configuration, dispatch, and report emission.

One subcommand per concern (tau, chars, weights, lvalue, moments, sweep,
mollifier-verify, audit, fit), each with --config, --format, --out and the
flags of the settings it reads (_READS).  Config resolution order: built-in
defaults, then a JSON config file (--config), then explicit flags; a file
key the command does not read keeps its default.  Every run emits the
resolved config hash with its results so outputs are traceable; given the
same config and seed the bytes are identical.  A table-backed command hands
each family the run's one table (_table), so lvalues.audit_plan decides the
squared-route audit alike in every command.

Exit codes: 0 success, 1 bad usage or config, 2 computation failure.

Listing a family (chars) loads neither numpy nor dataclasses: the records on
its path, RunConfig here and characters.CharacterGroup, are named-tuple
subclasses, and its CSV is formatted one character group at a time.  No
command loads dataclasses or numpy.random: the table-backed records are
named tuples too, and the seeded draws use random.Random.  The kernel grids
are read while the config is checked, from the --cache-dir kernel file when
one is given; a bad file or directory there fails the computation (exit 2),
as a bad cached table does, and so does an --out that cannot be written.

main() freezes the garbage collector once run() returns, so the exiting
process skips finalization's collections over every object the command left
(stdout and stderr still flush and atexit handlers still run); run() does
not, since an in-process caller goes on running and needs its collector.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import sys
from collections import namedtuple

from . import (TAU_N_MAX, characters, hecke, lvalues, moments, mollifier,
               tausieve)

DEFAULT_ELL = (8, 2)        # even, decreasing, small enough to act at q ~ 50
_WEIGHT_SAMPLES = 25


class _CliError(ValueError):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    # a subcommand reports unknown arguments under its own usage line
    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return args, extras


class RunConfig(namedtuple("RunConfig", (
        "command", "q_list", "k_list", "X", "tail_eps", "ell", "N", "M",
        "format", "out", "cache_dir", "seed", "audit_count", "n_max",
        "fit"))):
    """Fully resolved run parameters; hashed for output traceability.

    q_list, k_list and ell are tuples (ell, N and M None when unset), out
    and cache_dir paths or None.
    """

    __slots__ = ()

    def identity(self) -> dict:
        """Every field that decides the results, and the weight 12 of Delta,
        the one form the package computes with.  Where results are written
        and where tables are cached do not change the content."""
        d = self._asdict()
        del d["out"], d["cache_dir"]
        d["kappa"] = 12
        return d

    @property
    def hash(self) -> str:
        text = json.dumps(self.identity(), sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def afe(self) -> lvalues.AfeConfig:
        return lvalues.AfeConfig(X=self.X, tail_eps=self.tail_eps,
                                 seed=self.seed, audit_count=self.audit_count)

    def ladder(self, q: int) -> mollifier.LadderParams:
        """The --ell override, else the (N, M) schedule, else the default
        ladder.  A lone N or M reaches the schedule, which refuses it."""
        k = self.k_list[0]
        if self.ell is None and self.N is None and self.M is None:
            return mollifier.build_ladder(q, k=k, override_ell=DEFAULT_ELL)
        return mollifier.build_ladder(q, N=self.N, M=self.M, k=k,
                                      override_ell=self.ell)


# every setting a config file or a flag may give: its default (None when
# unset) and its flag's add_argument options; the flag is the key with dashes
_SETTINGS = {
    "q": (None, {"type": int}),
    "q_list": (None, {"help": "comma-separated moduli"}),
    "k": (None, {"type": float}),
    "k_list": (None, {"help": "comma-separated exponents"}),
    "X": (1.0, {"type": float}),
    "tail_eps": (1e-8, {"type": float}),
    "ell": (None, {"help": "comma-separated ladder override"}),
    "N": (None, {"type": int}),
    "M": (None, {"type": int}),
    "format": ("csv", {"choices": ["csv", "json"]}),
    "out": (None, {}),
    "cache_dir": (None, {}),
    "seed": (0, {"type": int}),
    "audit_count": (8, {"type": int}),
    "n_max": (100, {"type": int}),
    "fit": (False, {"action": "store_true", "default": None}),
}
# the settings each command reads beside format and out, which all read; a
# setting a command does not read is none of its flags and keeps its default
_SHARED = ("format", "out")
_READS = {name: tuple(keys.split()) for name, keys in {
    "tau": "n_max",
    "chars": "q q_list",
    "weights": "cache_dir",
    "lvalue": "q q_list X tail_eps cache_dir seed audit_count",
    "moments": "q q_list X tail_eps cache_dir seed audit_count k k_list",
    "sweep": "q q_list X tail_eps cache_dir seed audit_count k k_list fit",
    "mollifier-verify": "q q_list k k_list X tail_eps cache_dir seed ell N M",
    "audit": "q q_list X tail_eps cache_dir seed audit_count k k_list ell N M",
    "fit": "q q_list X tail_eps cache_dir seed audit_count k k_list",
}.items()}


def _build_parser(commands) -> _Parser:
    """Every subcommand, with --config and the flags of the settings it
    reads on those named in commands only: argv names the one parsed.  Help
    and usage errors read the same as with the flags on all of them."""
    p = _Parser(prog="twistmoments", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        sp = sub.add_parser(name, prog=f"twistmoments {name}")
        if name not in commands:
            continue
        sp.add_argument("--config", help="JSON config file; flags override")
        for key, (_, options) in _SETTINGS.items():
            if key in _READS[name] or key in _SHARED:
                sp.add_argument("--" + key.replace("_", "-"), **options)
    return p


def _number(value, what: str, cast):
    """One setting through cast (int or float).  A bool, a null, text that
    does not parse or a fractional int is a config error."""
    try:
        out = cast(value)
        valid = (not isinstance(value, bool)
                 and (cast is float or isinstance(value, str)
                      or out == value))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        kind = "an integer" if cast is int else "a number"
        raise _CliError(f"{what} must be {kind}, got {value!r}")
    return out


def _parse_list(text, what: str, cast) -> tuple | None:
    """A comma-separated string or a JSON list, each item through cast;
    None for an absent or empty setting."""
    if not text:
        return None
    if isinstance(text, str):
        text = [t for t in text.split(",") if t.strip()]
    elif not isinstance(text, list):
        raise _CliError(f"bad {what} list: {text!r}")
    vals = tuple(_number(v, what, cast) for v in text)
    if not vals:
        raise _CliError(f"empty {what} list")
    return vals


def _resolve(args: argparse.Namespace) -> RunConfig:
    if not args.command:
        raise _CliError("missing subcommand")
    reads = {*_READS[args.command], *_SHARED}
    merged = {key: default for key, (default, _) in _SETTINGS.items()}
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise _CliError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_SETTINGS))
        if unknown:
            raise _CliError("config file: unknown keys "
                            + ", ".join(map(repr, unknown)))
    flags = {key: val for key, val in vars(args).items()
             if key in reads and val is not None}
    file_cfg = {key: val for key, val in file_cfg.items() if key in reads}
    # a setting the command does not read keeps its default; q stands for a
    # one-item q_list and k for a k_list, and a source gives one form only
    for where, given in (("config file: ", file_cfg), ("", flags)):
        for one, many in (("q", "q_list"), ("k", "k_list")):
            if one in given and many in given:
                raise _CliError(f"{where}give {one} or {many}, not both")
            if given.get(one) is not None:
                given[many] = [given.pop(one)]
        merged.update(given)
    for key in ("out", "cache_dir"):
        if not isinstance(merged[key], (str, type(None))):
            raise _CliError(f"{key} must be a path, got {merged[key]!r}")
    if not isinstance(merged["fit"], bool):
        raise _CliError(f"fit must be true or false, got {merged['fit']!r}")

    def num(key, cast=int):
        """merged[key] through cast; None for an unset key without a
        default (a null counts as unset there)."""
        val = merged[key]
        if val is None and _SETTINGS[key][0] is None:
            return None
        return _number(val, key, cast)

    cfg = RunConfig(
        command=args.command,
        q_list=_parse_list(merged["q_list"], "q", int) or (),
        k_list=_parse_list(merged["k_list"], "k", float) or (1.0,),
        X=num("X", float), tail_eps=num("tail_eps", float),
        ell=_parse_list(merged["ell"], "ell", int),
        N=num("N"), M=num("M"),
        format=str(merged["format"]), out=merged["out"],
        cache_dir=merged["cache_dir"], seed=num("seed"),
        audit_count=num("audit_count"), n_max=num("n_max"),
        fit=merged["fit"])
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.format not in ("csv", "json"):
        raise _CliError(f"format must be csv or json, got {cfg.format!r}")
    # NaN fails the first test of X, inf the second
    if not cfg.X > 0:
        raise _CliError(f"X must be positive, got {cfg.X}")
    if not cfg.X < math.inf:
        raise _CliError(f"X must be finite, got {cfg.X}")
    if not 0 < cfg.tail_eps < 1:
        raise _CliError(f"tail-eps must lie in (0,1), got {cfg.tail_eps}")
    if cfg.seed < 0:
        raise _CliError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.audit_count < 0:
        raise _CliError(f"audit-count must be >= 0, got {cfg.audit_count}")
    if not 1 <= cfg.n_max <= TAU_N_MAX:
        raise _CliError(f"n-max must lie in 1..{TAU_N_MAX}, "
                        f"got {cfg.n_max}")
    if any(k < 0 for k in cfg.k_list):
        raise _CliError(f"k must be >= 0, got {cfg.k_list}")
    # NaN fails this test as well as inf
    if not all(k < math.inf for k in cfg.k_list):
        raise _CliError(f"k must be finite, got {cfg.k_list}")
    if "q" in _READS[cfg.command] and not cfg.q_list:
        raise _CliError(f"{cfg.command} needs --q or --q-list")
    if cfg.command in ("mollifier-verify", "audit"):
        if len(cfg.q_list) != 1:
            raise _CliError(f"{cfg.command} takes exactly one modulus")
        if len(cfg.k_list) != 1:
            raise _CliError(f"{cfg.command} takes exactly one k")
        k, top = cfg.k_list[0], moments.LOCAL_FACTOR_K_MAX
        if cfg.command == "mollifier-verify" and k > top:
            raise _CliError(f"k={k:g} is beyond the local-factor envelope, "
                            f"established for k <= {top:g}")
    if cfg.command == "fit" and len(cfg.q_list) < 4:
        raise _CliError("fit needs at least 4 moduli")
    for q in cfg.q_list:
        if q < 3 or q % 4 == 2:
            raise _CliError(
                f"q={q}: need q >= 3 with q not 2 mod 4 "
                "(no primitive characters otherwise)")
    for what, vals in (("modulus", cfg.q_list), ("k", cfg.k_list)):
        if len(set(vals)) != len(vals):
            raise _CliError(f"repeated {what} in {vals}")
    if cfg.command in ("moments", "sweep", "fit", "audit"):
        # each moment is divided by (log q)^(k^2), largest at the largest q
        q = max(cfg.q_list)
        for k in cfg.k_list:
            try:
                math.log(q) ** (k * k)
            except OverflowError:
                raise _CliError(f"k={k:g} is too large at q={q}: "
                                "(log q)^(k^2) overflows")
    if "ell" in _READS[cfg.command]:
        try:
            cfg.ladder(max(cfg.q_list))
        except ValueError as exc:
            raise _CliError(f"bad ladder: {exc}")
    if "tail_eps" in _READS[cfg.command]:
        # every L-value truncates where W's grid falls below tail_eps /
        # SAFETY; the grids are read here, and a failed read is not a usage
        # error, so it propagates
        w = lvalues.default_evaluators(cfg.cache_dir)[0]
        try:
            w.envelope_cutoff(cfg.tail_eps / lvalues.SAFETY)
        except ValueError as exc:
            raise _CliError(f"tail-eps {cfg.tail_eps:g} is too small: {exc}")
        # n_cap grows with q and with max(X, 1/X), which may overflow
        try:
            lvalues.required_n_cap(max(cfg.q_list), cfg.afe())
        except ValueError as exc:
            raise _CliError(f"X={cfg.X:g} is too far from 1: {exc}")
        except OverflowError:
            raise _CliError(f"X={cfg.X:g} is too far from 1: n_cap overflows")


def _plain(v):
    """A numpy scalar as its Python value, anything else as it is.  No
    numpy scalar exists before numpy is loaded, so this never loads it."""
    np = sys.modules.get("numpy")
    return v.item() if np is not None and isinstance(v, np.generic) else v


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _csv_text(cfg: RunConfig, header, lines) -> str:
    """The hash comment, the header and the given lines, each ended by a
    newline."""
    return "\n".join([f"# config {cfg.hash}", ",".join(header), *lines]) + "\n"


def _csv(cfg: RunConfig, header, rows, comments=()) -> str:
    """One line per row, each cell formatted by _fmt."""
    lines = [",".join(map(_fmt, row)) for row in rows]
    return _csv_text(cfg, header, [*lines, *comments])


def _json_default(v):
    """numpy scalars as their Python values, anything else iterable as a
    list."""
    plain = _plain(v)
    return plain if plain is not v else list(v)


def _json_doc(cfg: RunConfig, header, rows, audits=None) -> str:
    doc = {"config": {**cfg.identity(), "hash": cfg.hash},
           "rows": [dict(zip(header, row)) for row in rows]}
    if audits is not None:
        doc["audits"] = audits
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


def _render(cfg: RunConfig, header, rows, audits=None, comments=()) -> str:
    if cfg.format == "json":
        return _json_doc(cfg, header, rows, audits)
    return _csv(cfg, header, rows, comments)


def _cmd_tau(cfg: RunConfig) -> str:
    taus = hecke.ramanujan_tau_table(cfg.n_max)
    if cfg.format == "csv":
        # plain "n<TAB>tau(n)" coefficient lines; deliberately no hash
        # comment or header line
        return tausieve.coefficient_lines(taus)
    return _render(cfg, ("n", "tau"), enumerate(map(int, taus), start=1))


_CHARS_HEADER = ("q", "index", "conductor", "primitive", "even")


def _cmd_chars(cfg: RunConfig) -> str:
    groups = [characters.build_group(q) for q in cfg.q_list]
    if cfg.format == "json":
        rows = [row for grp in groups for row in zip(
            [grp.q] * grp.phi_q, range(grp.phi_q), grp.conductors,
            [c == grp.q for c in grp.conductors], grp.even)]
        return _json_doc(cfg, _CHARS_HEADER, rows)
    # _csv's text, one line per character straight from the group's tuples;
    # "conductor,primitive,even" takes few values, each formatted once
    body = []
    for grp in groups:
        q = grp.q
        tails = {(c, e): f"{c},{c == q:d},{e:d}"
                 for c in set(grp.conductors) for e in (False, True)}
        body.extend([f"{q},{i},{tails[ce]}"
                     for i, ce in enumerate(zip(grp.conductors, grp.even))])
    return _csv_text(cfg, _CHARS_HEADER, body)


def _cmd_weights(cfg: RunConfig) -> str:
    import numpy as np
    w1, w2 = lvalues.default_evaluators(cfg.cache_dir)
    xs = np.geomspace(1e-3, 1e3, _WEIGHT_SAMPLES)
    rows = [(float(x), float(w1(x)), float(w2(x))) for x in xs]
    return _render(cfg, ("x", "W", "W2"), rows)


def _table(cfg: RunConfig, n_min: int = 0) -> hecke.EigenformTable:
    """The run's one eigenform table, sized for the largest n_cap over its
    moduli, or for n_min if that is more."""
    afe = cfg.afe()
    need = max(lvalues.required_n_cap(q, afe) for q in cfg.q_list)
    return hecke.shared_eigenform(max(need, n_min), cache_dir=cfg.cache_dir)


def _cmd_lvalue(cfg: RunConfig) -> str:
    afe = cfg.afe()
    tab = _table(cfg)
    rows, audits, comments = [], [], []
    for q in cfg.q_list:
        recs = lvalues.family_values(tab, q, afe)
        rows += [(q, r.chi.index, r.chi.conductor, r.value.real,
                  r.value.imag, abs(r.value), r.sq_direct, r.residual,
                  r.audited) for r in recs]
        audited = sum(r.audited for r in recs)
        skipped = lvalues.audit_plan(tab, q, afe)[1]
        audits.append({"q": q, "audited": audited, "characters": len(recs),
                       "skipped": skipped})
        comments.append(f"# audit q={q} audited={audited}/{len(recs)}"
                        + (f" skipped: {skipped}" if skipped else ""))
    return _render(cfg, ("q", "index", "conductor", "re", "im", "abs",
                         "sq_direct", "residual", "audited"), rows,
                   audits=audits, comments=comments)


def _moment_rows(cfg: RunConfig):
    rows = []
    reports: dict[float, list[moments.MomentReport]] = {}
    for rep in moments.sweep_reports(_table(cfg), cfg.q_list, cfg.k_list,
                                     cfg.afe()):
        reports.setdefault(rep.k, []).append(rep)
        rows.append((rep.q, rep.k, rep.phi_star, rep.raw_moment,
                     rep.normalized, rep.ratio_to_logq_pow_k2))
    return rows, reports


_MOMENT_HEADER = ("q", "k", "phi_star", "raw_moment", "normalized",
                  "ratio_to_logq_pow_k2")


_FIT_HEADER = ("k", "slope", "intercept", "r_squared", "points")


def _fit_blocks(reports: dict[float, list]) -> tuple[list[str], list[dict]]:
    """The exponent fit at each k with at least 4 moduli, as a comment line
    and a dict keyed by _FIT_HEADER, and a skip line for every other k."""
    comments: list[str] = []
    audits: list[dict] = []
    for k in sorted(reports):
        reps = reports[k]
        if len(reps) < 4:
            comments.append(f"# fit k={_fmt(k)} skipped (needs >= 4 moduli)")
            continue
        fit = moments.exponent_fit(reps)
        comments.append(
            f"# fit k={_fmt(k)} slope={_fmt(fit.slope)} "
            f"intercept={_fmt(fit.intercept)} r2={_fmt(fit.r_squared)} "
            f"points={fit.points}")
        audits.append(dict(zip(_FIT_HEADER, (k, *fit))))
    return comments, audits


def _cmd_sweep(cfg: RunConfig) -> str:
    rows, reports = _moment_rows(cfg)
    if not cfg.fit:
        return _render(cfg, _MOMENT_HEADER, rows)
    comments, fits = _fit_blocks(reports)
    return _render(cfg, _MOMENT_HEADER, rows, audits={"fit": fits},
                   comments=comments)


def _cmd_fit(cfg: RunConfig) -> str:
    # _validate refuses fewer than 4 moduli, so no k is skipped
    fits = _fit_blocks(_moment_rows(cfg)[1])[1]
    return _render(cfg, _FIT_HEADER, [tuple(f.values()) for f in fits])


def _context(cfg: RunConfig, n_min: int = 0) -> mollifier.MollifierContext:
    """The eigenform table (_table's), ladder and prime segments of the
    run's one modulus, held by its mollifier context."""
    q = cfg.q_list[0]
    ladder = cfg.ladder(q)
    return mollifier.MollifierContext(_table(cfg, n_min), ladder,
                                      mollifier.build_segments(q, ladder))


def _cmd_audit(cfg: RunConfig) -> str:
    ctx = _context(cfg)
    recs = lvalues.family_values(ctx.table, ctx.segments.q, cfg.afe())
    # one tower per character, read by both audits
    towers = moments.family_towers(ctx, [rec.chi for rec in recs])
    pw = moments.family_pointwise_audit(recs, towers)
    hc = moments.holder_chain_audit(recs, towers)
    rows = [("pointwise", c.name, c.subject, c.lhs, c.rhs, c.ok)
            for c in pw.checks]
    rows += [("holder", c.name, c.subject, c.lhs, c.rhs, c.ok)
             for c in hc.checks]
    audits = {"pointwise_pass": pw.pass_count,
              "pointwise_fail": pw.fail_count,
              "holder_pass": hc.pass_count, "holder_fail": hc.fail_count,
              "reported": hc.reported}
    comments = [f"# pointwise {pw.pass_count}/{len(pw.checks)} "
                f"holder {hc.pass_count}/{len(hc.checks)}"]
    comments += [f"# reported {name}={_fmt(val)}"
                 for name, val in sorted(hc.reported.items())]
    return _render(cfg, ("kind", "name", "subject", "lhs", "rhs", "ok"),
                   rows, audits=audits, comments=comments)


def _cmd_mollifier_verify(cfg: RunConfig) -> str:
    # the local-factor rows read lambda(p) up to their largest prime
    ctx = _context(cfg, max(moments.LOCAL_FACTOR_PRIMES))
    ladder = ctx.ladder
    prims = characters.primitive_characters(
        characters.build_group(ctx.segments.q))
    chk = moments.verify_checks(ctx, prims[:12], cfg.seed)
    audits = {"ladder": list(ladder.ell), "c_k": ladder.c_k,
              "r_k": ladder.r_k, **chk.reported}
    comments = [f"# support_size={audits['support_size']} "
                f"max_coefficient={_fmt(audits['max_coefficient'])}"]
    return _render(cfg, ("name", "subject", "value", "bound", "ok"),
                   chk.checks, audits=audits, comments=comments)


_COMMANDS = {
    "tau": _cmd_tau,
    "chars": _cmd_chars,
    "weights": _cmd_weights,
    "lvalue": _cmd_lvalue,
    # moments reads no fit, so sweep's route prints its rows alone
    "moments": _cmd_sweep,
    "sweep": _cmd_sweep,
    "mollifier-verify": _cmd_mollifier_verify,
    "audit": _cmd_audit,
    "fit": _cmd_fit,
}


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the first
    # command name in argv is the subcommand argparse will run
    parser = _build_parser([next((a for a in argv if a in _COMMANDS), None)])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        _emit(_COMMANDS[cfg.command](cfg), cfg.out)
    except _CliError as exc:
        print(f"twistmoments: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, ArithmeticError, RuntimeError,
            OSError, MemoryError) as exc:
        # a bare MemoryError has no text of its own
        print(f"twistmoments: computation failed: "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


def main():
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
