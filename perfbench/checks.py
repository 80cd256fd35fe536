"""Output checkers for the twistmoments CLI benchmark.

Every checker re-derives what it compares against: divisor sums, Euler's
phi and phi*, the q-expansion of Delta, the kernels by quadrature on another
contour, least-squares fits.  None of them reads a stored copy of earlier
output, and none imports the package under test.

Each checker takes the text one operation emitted and raises CheckError on
the first violated property.  On success it returns the amount of verified
work, in the unit the benchmark counts for that operation kind.
"""

from __future__ import annotations

import math
import re

import numpy as np

import calibrate


class CheckError(AssertionError):
    """An operation's output violates a property it must have."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ----------------------------------------------------------- number theory

def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n))


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi_star(q: int) -> int:
    """Primitive characters mod q, as the Dirichlet convolution mu * phi."""
    return sum(mobius(q // d) * euler_phi(d) for d in divisors(q))


def delta_expansion(n_max: int) -> list[int]:
    """tau(1..n_max) from the literal product q prod_m (1 - q^m)^24."""
    poly = [0] * n_max
    poly[0] = 1                       # coefficients of prod, degree < n_max
    for m in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, m - 1, -1):
                poly[i] -= poly[i - m]
    return poly                       # tau(n) = poly[n - 1]


# ------------------------------------------------------------------ parsing

def parse_csv(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, rows, trailing comment lines) of a CLI CSV report."""
    lines = text.splitlines()
    _require(len(lines) >= 2, "report shorter than its two header lines")
    _require(re.fullmatch(r"# config [0-9a-f]{12}", lines[0]) is not None,
             f"first line is not a config hash: {lines[0]!r}")
    header = lines[1].split(",")
    rows: list[list[str]] = []
    comments: list[str] = []
    for line in lines[2:]:
        if line.startswith("#"):
            comments.append(line)
            continue
        _require(not comments, f"data row after a comment: {line!r}")
        cells = line.split(",")
        _require(len(cells) == len(header),
                 f"row has {len(cells)} cells, header {len(header)}: {line!r}")
        rows.append(cells)
    return header, rows, comments


def _expect_header(header: list[str], want: tuple[str, ...]) -> None:
    _require(tuple(header) == want, f"header {header} != {list(want)}")


def _flag(cell: str) -> bool:
    _require(cell in ("0", "1"), f"boolean cell {cell!r} is not 0 or 1")
    return cell == "1"


def _close(a: float, b: float, rel: float, what: str) -> None:
    _require(math.isfinite(a) and math.isfinite(b),
             f"{what}: non-finite {a!r} / {b!r}")
    _require(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
             f"{what}: {a!r} != {b!r} (rel tol {rel:g})")


# --------------------------------------------------------------------- tau

def check_tau(text: str, n_max: int) -> int:
    """"n<TAB>tau(n)" lines for n = 1..n_max; returns n_max coefficients."""
    tau = [0]
    for i, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        _require(len(parts) == 2 and parts[0] == str(i),
                 f"line {i} is not '{i}<TAB>value': {line!r}")
        tau.append(int(parts[1]))
    _require(len(tau) - 1 == n_max, f"{len(tau) - 1} lines, want {n_max}")
    lit = delta_expansion(min(n_max, 40))
    for n, t in enumerate(lit, start=1):
        _require(tau[n] == t, f"tau({n}) = {tau[n]}, product expansion {t}")
    # tau(n) = sigma_11(n) mod 691, sigma_11 by a divisor sieve
    sig = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        sig[d::d] += pow(d, 11, 691)
    sig %= 691
    bad = [n for n in range(1, n_max + 1) if tau[n] % 691 != sig[n]]
    _require(not bad, f"tau(n) != sigma_11(n) mod 691 first at n={bad[:1]}")
    # prime-power recursion and multiplicativity, through the least prime
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(2, n_max + 1):
        p = spf[n]
        pa, m = p, n // p
        while m % p == 0:
            pa, m = pa * p, m // p
        if m > 1:
            _require(tau[n] == tau[pa] * tau[m],
                     f"tau({n}) != tau({pa}) tau({m})")
        elif pa > p:
            want = tau[p] * tau[pa // p] - p ** 11 * tau[pa // (p * p)]
            _require(tau[n] == want, f"Hecke recursion fails at {n}")
    return n_max


# ------------------------------------------------------------------ weights

def kernel(kind: str, x: float, kappa: int = 12, c: float = 2.0,
           T: float = 60.0, h: float = 1.0 / 128) -> float:
    """W or W2 at x by the trapezoid rule on Re s = c (the CLI uses c = 1)."""
    from scipy.special import loggamma
    t = np.arange(-T, T + h / 2, h)
    s = c + 1j * t
    lg = loggamma(kappa / 2 + s) - loggamma(kappa / 2)
    ln_k = lg + s * s if kind == "W" else 2.0 * lg
    f = np.exp(ln_k - s * math.log(2 * math.pi * x)) / s
    return float((np.sum(f) * h / (2 * math.pi)).real)


def check_weights(text: str) -> int:
    """x, W(x), W2(x) rows; returns the number of kernel samples."""
    header, rows, _ = parse_csv(text)
    _expect_header(header, ("x", "W", "W2"))
    _require(len(rows) == 25, f"{len(rows)} kernel rows, want 25")
    for x_s, w_s, w2_s in rows:
        x, w, w2 = float(x_s), float(w_s), float(w2_s)
        for kind, val in (("W", w), ("W2", w2)):
            want = kernel(kind, x)
            _require(abs(val - want) <= 1e-8,
                     f"{kind}({x:g}) = {val!r}, contour c=2 gives {want!r}")
    return len(rows)


def check_calibrate(text: str) -> int:
    """The calibration job's one line: two checksums, the second known."""
    parts = text.split()
    _require(len(parts) == 3 and parts[0] == "calibrate"
             and parts[1].isdigit() and parts[2].isdigit(),
             f"calibration output {text!r}")
    _require(int(parts[2]) == sum(calibrate.Q_ARRAYS),
             f"calibration array checksum {parts[2]}")
    return 1


# -------------------------------------------------------------------- chars

def check_chars(text: str, q_list: list[int]) -> int:
    """Character rows; returns the number of rows (characters) checked."""
    header, rows, _ = parse_csv(text)
    _expect_header(header, ("q", "index", "conductor", "primitive", "even"))
    by_q: dict[int, list[tuple[int, int, bool, bool]]] = {}
    for q_s, i_s, f_s, p_s, e_s in rows:
        by_q.setdefault(int(q_s), []).append(
            (int(i_s), int(f_s), _flag(p_s), _flag(e_s)))
    _require(sorted(by_q) == sorted(q_list),
             f"moduli {sorted(by_q)} != requested {sorted(q_list)}")
    for q, recs in by_q.items():
        phi = euler_phi(q)
        _require(sorted(r[0] for r in recs) == list(range(phi)),
                 f"q={q}: indices are not 0..phi(q)-1 = {phi - 1}")
        for idx, f, prim, _ in recs:
            _require(q % f == 0, f"q={q} index {idx}: conductor {f} !| q")
            _require(prim == (f == q),
                     f"q={q} index {idx}: primitive={prim}, conductor {f}")
        for f in divisors(q):
            got = sum(1 for r in recs if r[1] == f)
            _require(got == phi_star(f),
                     f"q={q}: {got} characters of conductor {f}, "
                     f"phi*({f}) = {phi_star(f)}")
        even = sum(1 for r in recs if r[3])
        _require(2 * even == phi, f"q={q}: {even} even of {phi} characters")
    return len(rows)


# -------------------------------------------------------------------- sweep

_MOMENT_HEADER = ("q", "k", "phi_star", "raw_moment", "normalized",
                  "ratio_to_logq_pow_k2")
_FIT_RE = re.compile(r"# fit k=(\S+) slope=(\S+) intercept=(\S+) "
                     r"r2=(\S+) points=(\d+)")


def _fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def check_sweep(text: str, q_list: list[int], k_list: list[float],
                fit: bool) -> int:
    """Moment rows per (q, k), plus fit comments; returns sum of phi*(q)."""
    header, rows, comments = parse_csv(text)
    _expect_header(header, _MOMENT_HEADER)
    want = [(q, k) for q in sorted(q_list) for k in k_list]
    got = [(int(r[0]), float(r[1])) for r in rows]
    _require(got == want, f"rows cover {got}, want {want}")
    norm: dict[tuple[int, float], float] = {}
    for q_s, k_s, ps_s, raw_s, n_s, r_s in rows:
        q, k = int(q_s), float(k_s)
        raw, nrm, ratio = float(raw_s), float(n_s), float(r_s)
        _require(int(ps_s) == phi_star(q),
                 f"q={q}: phi_star {ps_s}, mu*phi gives {phi_star(q)}")
        _require(raw > 0, f"q={q} k={k}: raw moment {raw!r} not positive")
        _close(nrm, raw / phi_star(q), 1e-12, f"q={q} k={k} normalized")
        _close(ratio, nrm / math.log(q) ** (k * k), 1e-12,
               f"q={q} k={k} ratio_to_logq_pow_k2")
        norm[(q, k)] = nrm
    for q in q_list:
        # Lyapunov: the power mean (mean |L|^2k)^(1/2k) is nondecreasing
        means = [norm[(q, k)] ** (1 / (2 * k)) for k in sorted(k_list)
                 if k > 0]
        for a, b in zip(means, means[1:]):
            _require(b >= a * (1 - 1e-12),
                     f"q={q}: power means {means} decrease")
    if fit and len(q_list) >= 4:
        fits = [_FIT_RE.fullmatch(c) for c in comments]
        _require(all(fits) and len(fits) == len(k_list),
                 f"fit comments {comments} do not cover k={k_list}")
        for m, k in zip(fits, k_list):
            _require(float(m.group(1)) == k and int(m.group(5)) == len(q_list),
                     f"fit line {m.group(0)!r} for k={k}")
            qs = sorted(q_list)
            slope, icept = _fit([math.log(math.log(q)) for q in qs],
                                [math.log(norm[(q, k)]) for q in qs])
            _close(float(m.group(2)), slope, 1e-8, f"k={k} slope")
            _close(float(m.group(3)), icept, 1e-8, f"k={k} intercept")
    else:
        _require(not comments or not fit, f"unexpected comments {comments}")
    return sum(phi_star(q) for q in q_list)


# ------------------------------------------------------------------ lvalues

_LVALUE_HEADER = ("q", "index", "conductor", "re", "im", "abs",
                  "sq_direct", "residual", "audited")


def parse_lvalues(text: str) -> dict[tuple[int, int], complex]:
    header, rows, _ = parse_csv(text)
    _expect_header(header, _LVALUE_HEADER)
    return {(int(r[0]), int(r[1])): complex(float(r[3]), float(r[4]))
            for r in rows}


def check_lvalue(text: str, q_list: list[int],
                 cross_tol: float = 1e-3) -> int:
    """Central values over each family; returns the number of characters."""
    header, rows, _ = parse_csv(text)
    _expect_header(header, _LVALUE_HEADER)
    for q in q_list:
        recs = [r for r in rows if int(r[0]) == q]
        _require(len(recs) == phi_star(q),
                 f"q={q}: {len(recs)} rows, phi*(q) = {phi_star(q)}")
        _require(len({r[1] for r in recs}) == len(recs),
                 f"q={q}: repeated character index")
        vals = []
        for _, idx, f, re_s, im_s, abs_s, sq_s, res_s, aud_s in recs:
            v = complex(float(re_s), float(im_s))
            _require(int(f) == q, f"q={q} index {idx}: conductor {f} != q")
            _close(float(abs_s), abs(v), 1e-12, f"q={q} index {idx} abs")
            if _flag(aud_s):
                _require(float(res_s) <= cross_tol,
                         f"q={q} index {idx}: audited residual {res_s}")
            else:
                _close(float(sq_s), abs(v) ** 2, 1e-12,
                       f"q={q} index {idx} unaudited sq_direct")
            vals.append(v)
        # L(chi-bar) = conj L(chi): the family is closed under conjugation
        pool = sorted(vals, key=lambda z: (z.real, z.imag))
        for v in vals:
            best = min(range(len(pool)),
                       key=lambda i: abs(pool[i] - v.conjugate()))
            _require(abs(pool[best] - v.conjugate())
                     <= 1e-9 * max(1.0, abs(v)),
                     f"q={q}: no conjugate partner for L = {v}")
            pool.pop(best)
    _require(len(rows) == sum(phi_star(q) for q in q_list),
             f"{len(rows)} rows for moduli {q_list}")
    return len(rows)


def check_balance(text_a: str, text_b: str, tol: float = 1e-6) -> None:
    """The same family at two balance parameters X: values agree to tol."""
    a, b = parse_lvalues(text_a), parse_lvalues(text_b)
    _require(a.keys() == b.keys(), "the two X runs list different characters")
    for key, va in a.items():
        vb = b[key]
        _require(abs(va - vb) <= tol * max(1.0, abs(va)),
                 f"q={key[0]} index {key[1]}: L depends on X: {va} vs {vb}")


# -------------------------------------------------------- audit and verify

# checks whose left side must stay above the right (moments.py names)
_LOWER = {"lower_small_regime", "guard_unit"}
_AUDIT_RE = re.compile(r"# pointwise (\d+)/(\d+) holder (\d+)/(\d+)")


def check_audit(text: str) -> int:
    """Audit rows all ok, re-derived from lhs/rhs; returns the row count."""
    header, rows, comments = parse_csv(text)
    _expect_header(header, ("kind", "name", "subject", "lhs", "rhs", "ok"))
    _require(rows, "audit emitted no checks")
    for kind, name, subject, lhs_s, rhs_s, ok_s in rows:
        _require(kind in ("pointwise", "holder"), f"unknown kind {kind!r}")
        _require(_flag(ok_s), f"{kind} {name} {subject}: ok is false")
        lhs, rhs = float(lhs_s), float(rhs_s)
        holds = (lhs >= rhs * (1 - 1e-9) if name in _LOWER
                 else lhs <= rhs * (1 + 1e-9))
        _require(holds, f"{kind} {name} {subject}: {lhs!r} vs {rhs!r}")
    _require(comments, "audit summary line missing")
    m = _AUDIT_RE.fullmatch(comments[0])
    _require(m is not None, f"bad audit summary {comments[0]!r}")
    pw = sum(1 for r in rows if r[0] == "pointwise")
    hc = len(rows) - pw
    _require((int(m.group(1)), int(m.group(2)), int(m.group(3)),
              int(m.group(4))) == (pw, pw, hc, hc),
             f"summary {comments[0]!r} != {pw}/{pw} pointwise, {hc}/{hc} "
             "holder rows")
    return len(rows)


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def check_verify(text: str) -> int:
    """mollifier-verify rows all ok; returns the row count."""
    header, rows, comments = parse_csv(text)
    _expect_header(header, ("name", "subject", "value", "bound", "ok"))
    for name, subject, val_s, bound_s, ok_s in rows:
        _require(_flag(ok_s), f"{name} {subject}: ok is false")
        if bound_s and not name.startswith("segment_prime_weight"):
            _require(float(val_s) <= float(bound_s),
                     f"{name} {subject}: {val_s} > {bound_s}")
    names = [r[0] for r in rows]
    local = [r[1] for r in rows if r[0] == "diagonal_local_factor"]
    _require(local == [f"p={p}" for p in _FIRST_PRIMES],
             f"local-factor rows {local}")
    for name in ("trunc_exp_tail_vs_term", "trunc_exp_tail_vs_geom",
                 "diagonal_identity"):
        _require(names.count(name) == 1, f"{names.count(name)} {name} rows")
    _require(names.count("dual_representation") >= 1,
             "no dual_representation rows")
    _require(len(comments) == 1, f"summary lines {comments}")
    m = re.fullmatch(r"# support_size=(\d+) max_coefficient=(\S+)",
                     comments[0])
    _require(m is not None and int(m.group(1)) >= 1
             and float(m.group(2)) > 0,
             f"bad verify summary {comments[0]!r}")
    return len(rows)


def check_failure(returncode: int, stdout: bytes, stderr: bytes) -> None:
    """A failed operation must fail through the known tau fault only: the
    pure-Python unpack in hecke calls int.to_bytes on a product longer than
    the slots it asks for."""
    _require(returncode == 2, f"exit code {returncode}, want 2")
    _require(not stdout, "a failed operation printed a result")
    _require(stderr.decode(errors="replace").strip()
             == "twistmoments: computation failed: int too big to convert",
             f"unexpected failure: {stderr[-300:]!r}")
