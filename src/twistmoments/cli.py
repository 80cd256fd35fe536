"""Command-line front end: configuration, dispatch, and report emission.

One subcommand per concern (tau, chars, weights, lvalue, moments, sweep,
mollifier-verify, audit, fit).  Config resolution order: built-in defaults,
then a JSON config file (--config), then explicit flags.  Every run emits
the resolved config hash with its results so outputs are traceable; given
the same config and seed the bytes are identical.

Exit codes: 0 success, 1 bad usage or config, 2 computation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import arith, characters, hecke, lvalues, moments, mollifier
from .lvalues import AfeConfig

DEFAULT_ELL = (8, 2)        # even, decreasing, small enough to act at q ~ 50
_WEIGHT_SAMPLES = 25


class _CliError(ValueError):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; hashed for output traceability."""

    command: str
    q_list: tuple[int, ...]
    k_list: tuple[float, ...]
    kappa: int
    X: float
    tail_eps: float
    ell: tuple[int, ...] | None
    N: int | None
    M: int | None
    format: str
    out: str | None
    cache_dir: str | None
    seed: int
    audit_count: int
    n_max: int
    fit: bool

    def identity(self) -> dict:
        """Every field that decides the results.  Where they are written and
        where tables are cached do not change the content."""
        d = asdict(self)
        del d["out"], d["cache_dir"]
        return d

    @property
    def hash(self) -> str:
        text = json.dumps(self.identity(), sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def afe(self) -> AfeConfig:
        return AfeConfig(X=self.X, tail_eps=self.tail_eps, seed=self.seed,
                         audit_count=self.audit_count)

    def ladder(self, q: int) -> mollifier.LadderParams:
        k = self.k_list[0]
        if self.ell is not None:
            return mollifier.build_ladder(q, N=self.N, M=self.M, k=k,
                                          override_ell=self.ell)
        if self.N is not None and self.M is not None:
            return mollifier.build_ladder(q, N=self.N, M=self.M, k=k)
        return mollifier.build_ladder(q, k=k, override_ell=DEFAULT_ELL)


_DEFAULTS = {
    "kappa": 12, "X": 1.0, "tail_eps": 1e-8, "format": "csv",
    "seed": 0, "audit_count": 8, "n_max": 100, "fit": False,
}
# every setting a config file or a flag may give
_KEYS = ("q", "q_list", "k", "k_list", "kappa", "X", "tail_eps", "ell", "N",
         "M", "format", "out", "cache_dir", "seed", "audit_count", "n_max",
         "fit")


def _build_parser() -> _Parser:
    p = _Parser(prog="twistmoments", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")
    names = ["tau", "chars", "weights", "lvalue", "moments", "sweep",
             "mollifier-verify", "audit", "fit"]
    for name in names:
        sp = sub.add_parser(name, prog=f"twistmoments {name}")
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--q", type=int)
        sp.add_argument("--q-list", help="comma-separated moduli")
        sp.add_argument("--k", type=float)
        sp.add_argument("--k-list", help="comma-separated exponents")
        sp.add_argument("--kappa", type=int)
        sp.add_argument("--X", type=float)
        sp.add_argument("--tail-eps", type=float)
        sp.add_argument("--ell", help="comma-separated ladder override")
        sp.add_argument("--N", type=int)
        sp.add_argument("--M", type=int)
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--out")
        sp.add_argument("--cache-dir")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--audit-count", type=int)
        sp.add_argument("--n-max", type=int)
        sp.add_argument("--fit", action="store_true", default=None)
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
    merged = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise _CliError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_KEYS))
        if unknown:
            raise _CliError("config file: unknown keys "
                            + ", ".join(map(repr, unknown)))
        merged.update(file_cfg)
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in ("out", "cache_dir"):
        if not isinstance(merged.get(key), (str, type(None))):
            raise _CliError(f"{key} must be a path, got {merged[key]!r}")
    if not isinstance(merged["fit"], bool):
        raise _CliError(f"fit must be true or false, got {merged['fit']!r}")

    def num(key, cast=int):
        """merged[key] through cast; None for an unset key without a
        default (a null counts as unset there)."""
        val = merged.get(key)
        if val is None and key not in _DEFAULTS:
            return None
        return _number(val, key, cast)

    q, k = num("q"), num("k", float)
    q_list = (_parse_list(merged.get("q_list"), "q", int)
              or (() if q is None else (q,)))
    k_list = (_parse_list(merged.get("k_list"), "k", float)
              or (1.0 if k is None else k,))

    cfg = RunConfig(
        command=args.command, q_list=q_list, k_list=k_list,
        kappa=num("kappa"), X=num("X", float),
        tail_eps=num("tail_eps", float),
        ell=_parse_list(merged.get("ell"), "ell", int),
        N=num("N"), M=num("M"),
        format=str(merged["format"]), out=merged.get("out"),
        cache_dir=merged.get("cache_dir"), seed=num("seed"),
        audit_count=num("audit_count"), n_max=num("n_max"),
        fit=merged["fit"])
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.format not in ("csv", "json"):
        raise _CliError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.kappa != 12:
        raise _CliError("only the built-in weight-12 eigenform is wired in; "
                        "--kappa must be 12")
    if not cfg.X > 0:
        raise _CliError(f"X must be positive, got {cfg.X}")
    if not 0 < cfg.tail_eps < 1:
        raise _CliError(f"tail-eps must lie in (0,1), got {cfg.tail_eps}")
    if cfg.seed < 0:
        raise _CliError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.audit_count < 0:
        raise _CliError(f"audit-count must be >= 0, got {cfg.audit_count}")
    if not 1 <= cfg.n_max <= hecke.TAU_N_MAX:
        raise _CliError(f"n-max must lie in 1..{hecke.TAU_N_MAX}, "
                        f"got {cfg.n_max}")
    if any(k < 0 for k in cfg.k_list):
        raise _CliError(f"k must be >= 0, got {cfg.k_list}")
    needs_q = {"chars", "lvalue", "moments", "sweep", "mollifier-verify",
               "audit", "fit"}
    if cfg.command in needs_q and not cfg.q_list:
        raise _CliError(f"{cfg.command} needs --q or --q-list")
    if cfg.command in ("mollifier-verify", "audit"):
        if len(cfg.q_list) != 1:
            raise _CliError(f"{cfg.command} takes exactly one modulus")
        if len(cfg.k_list) != 1:
            raise _CliError(f"{cfg.command} takes exactly one k")
    if cfg.command == "fit" and len(cfg.q_list) < 4:
        raise _CliError("fit needs at least 4 moduli")
    if cfg.ell is not None:
        try:
            mollifier.build_ladder(max(cfg.q_list or (3,)), k=cfg.k_list[0],
                                   override_ell=cfg.ell)
        except ValueError as exc:
            raise _CliError(f"bad ladder: {exc}")
    for q in cfg.q_list:
        if q < 3 or q % 4 == 2:
            raise _CliError(
                f"q={q}: need q >= 3 with q not 2 mod 4 "
                "(no primitive characters otherwise)")


def _fmt(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _csv(cfg: RunConfig, header, rows, comments=()) -> str:
    lines = [f"# config {cfg.hash}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(comments)
    return "\n".join(lines) + "\n"


def _json_default(v):
    """numpy scalars as their Python values, anything else iterable as a
    list."""
    return v.item() if isinstance(v, np.generic) else list(v)


def _json_doc(cfg: RunConfig, header, rows, audits=None) -> str:
    cd = cfg.identity()
    cd["hash"] = cfg.hash
    doc = {"config": cd,
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
        # plain coefficient-file format, importable by the hecke reader;
        # deliberately no hash comment or header line
        return hecke.coefficient_lines(taus)
    return _render(cfg, ("n", "tau"), enumerate(map(int, taus), start=1))


def _cmd_chars(cfg: RunConfig) -> str:
    rows = []
    for q in cfg.q_list:
        grp = characters.build_group(q)
        rows.extend(zip([q] * grp.phi_q, range(grp.phi_q),
                        grp.conductors.tolist(),
                        (grp.conductors == q).tolist(), grp.even.tolist()))
    return _render(cfg, ("q", "index", "conductor", "primitive", "even"),
                   rows)


def _cmd_weights(cfg: RunConfig) -> str:
    w1, w2 = lvalues.default_evaluators(cfg.kappa)
    xs = np.geomspace(1e-3, 1e3, _WEIGHT_SAMPLES)
    rows = [(float(x), float(w1(x)), float(w2(x))) for x in xs]
    return _render(cfg, ("x", "W", "W2"), rows)


def _cmd_lvalue(cfg: RunConfig) -> str:
    afe = cfg.afe()
    rows = []
    for q in cfg.q_list:
        tab = hecke.shared_eigenform(lvalues.required_n_cap(q, afe),
                                     cfg.kappa, cache_dir=cfg.cache_dir)
        for r in lvalues.family_values(tab, q, afe):
            rows.append((q, r.chi.index, r.chi.conductor, r.value.real,
                         r.value.imag, abs(r.value), r.sq_direct,
                         r.residual, r.audited))
    return _render(cfg, ("q", "index", "conductor", "re", "im", "abs",
                         "sq_direct", "residual", "audited"), rows)


def _moment_rows(cfg: RunConfig):
    afe = cfg.afe()
    need = max(lvalues.required_n_cap(q, afe) for q in cfg.q_list)
    tab = hecke.shared_eigenform(need, cfg.kappa, cache_dir=cfg.cache_dir)
    rows = []
    reports: dict[float, list[moments.MomentReport]] = {}
    for rep in moments.sweep_reports(tab, cfg.q_list, cfg.k_list, afe):
        reports.setdefault(rep.k, []).append(rep)
        rows.append((rep.q, rep.k, rep.phi_star, rep.raw_moment,
                     rep.normalized, rep.ratio_to_logq_pow_k2))
    return rows, reports


_MOMENT_HEADER = ("q", "k", "phi_star", "raw_moment", "normalized",
                  "ratio_to_logq_pow_k2")


def _cmd_moments(cfg: RunConfig) -> str:
    rows, _ = _moment_rows(cfg)
    return _render(cfg, _MOMENT_HEADER, rows)


def _fit_blocks(reports: dict[float, list]) -> tuple[list[str], list[dict]]:
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
        audits.append({"k": k, "slope": fit.slope,
                       "intercept": fit.intercept,
                       "r_squared": fit.r_squared, "points": fit.points})
    return comments, audits


def _cmd_sweep(cfg: RunConfig) -> str:
    rows, reports = _moment_rows(cfg)
    comments: list[str] = []
    audits = None
    if cfg.fit:
        comments, fits = _fit_blocks(reports)
        audits = {"fit": fits}
    return _render(cfg, _MOMENT_HEADER, rows, audits=audits,
                   comments=comments)


def _cmd_fit(cfg: RunConfig) -> str:
    _, reports = _moment_rows(cfg)
    rows = []
    for k in sorted(reports):
        fit = moments.exponent_fit(reports[k])
        rows.append((k, fit.slope, fit.intercept, fit.r_squared, fit.points))
    return _render(cfg, ("k", "slope", "intercept", "r_squared", "points"),
                   rows)


def _cmd_audit(cfg: RunConfig) -> str:
    q = cfg.q_list[0]
    k = cfg.k_list[0]
    afe = cfg.afe()
    ladder = cfg.ladder(q)
    tab = hecke.shared_eigenform(lvalues.required_n_cap(q, afe), cfg.kappa,
                                 cache_dir=cfg.cache_dir)
    recs = lvalues.family_values(tab, q, afe)
    ctx = mollifier.MollifierContext(tab, ladder,
                                     mollifier.build_segments(q, ladder))
    pw = moments.family_pointwise_audit(ctx, recs, k)
    hc = moments.holder_chain_audit(ctx, recs, k)
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
    q = cfg.q_list[0]
    k = cfg.k_list[0]
    afe = cfg.afe()
    ladder = cfg.ladder(q)
    tab = hecke.shared_eigenform(lvalues.required_n_cap(q, afe), cfg.kappa,
                                 cache_dir=cfg.cache_dir)
    segs = mollifier.build_segments(q, ladder)
    ctx = mollifier.MollifierContext(tab, ladder, segs)
    grp = characters.build_group(q)
    prims = characters.primitive_characters(grp)
    rows = []

    sample = prims[:12]
    for j in range(1, ladder.R + 1):
        worst = 0.0
        for chi in sample:
            for alpha in (k, k - 1):
                a = mollifier.n_poly(ctx, chi, j, alpha, "exp")
                b = mollifier.n_poly(ctx, chi, j, alpha, "dirichlet")
                worst = max(worst, abs(a - b))
        rows.append(("dual_representation", f"j={j}", worst, 1e-10,
                     worst <= 1e-10))

    rng = np.random.default_rng(cfg.seed)
    worst_exact = 0.0
    worst_coarse = 0.0
    for _ in range(200):
        K = int(rng.integers(1, 7)) * 2
        a = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(1e-3, 1.0)) * a * K / 20
        z = complex(r * np.exp(2j * np.pi * rng.uniform()))
        err = abs(mollifier.trunc_exp_tail(K, z))
        worst_exact = max(worst_exact, err / (r ** K / math.factorial(K)))
        worst_coarse = max(worst_coarse, err / (a * math.e / 20) ** K)
    rows.append(("trunc_exp_tail_vs_term", "200 samples", worst_exact, 1.0,
                 worst_exact <= 1.0))
    rows.append(("trunc_exp_tail_vs_geom", "200 samples", worst_coarse, 1.0,
                 worst_coarse <= 1.0))

    for rec in mollifier.segment_prime_sum_bounds(ctx):
        if rec["checked"]:
            rows.append(("segment_prime_weight", f"j={rec['j']}",
                         rec["value"], rec["upper"],
                         rec["lower"] <= rec["value"] <= rec["upper"]))
        else:
            rows.append(("segment_prime_weight_skipped", f"j={rec['j']}",
                         rec["value"], None, True))

    chk = moments.diagonal_factorization_check(ctx, k)
    rows.append(("diagonal_identity", f"k={_fmt(k)}", chk.residual,
                 moments.DIAGONAL_TOL, chk.ok))

    envelope = 10.0 if k <= 1 else 80.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        rec = moments.diagonal_local_factor(tab, p, k, envelope=envelope)
        rows.append(("diagonal_local_factor", f"p={p}", rec["deviation"],
                     rec["bound"], rec["ok"]))

    coeffs = mollifier.mollifier_coefficients(ctx, k)
    audits = {"ladder": list(ladder.ell), "c_k": ladder.c_k,
              "r_k": ladder.r_k,
              "support_size": len(coeffs),
              "max_coefficient": max(abs(v) for v in coeffs.values())}
    comments = [f"# support_size={len(coeffs)} "
                f"max_coefficient={_fmt(audits['max_coefficient'])}"]
    return _render(cfg, ("name", "subject", "value", "bound", "ok"),
                   rows, audits=audits, comments=comments)


_COMMANDS = {
    "tau": _cmd_tau,
    "chars": _cmd_chars,
    "weights": _cmd_weights,
    "lvalue": _cmd_lvalue,
    "moments": _cmd_moments,
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
    except _CliError as exc:
        print(f"twistmoments: error: {exc}", file=sys.stderr)
        return 1
    try:
        text = _COMMANDS[cfg.command](cfg)
    except (ValueError, AssertionError, ArithmeticError, RuntimeError,
            OSError) as exc:
        print(f"twistmoments: computation failed: {exc}", file=sys.stderr)
        return 2
    _emit(text, cfg.out)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
