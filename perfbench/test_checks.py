"""Each output checker accepts valid output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q

Valid outputs are either emitted by the CLI (chars, weights: both work
without an eigenform table) or built here from the properties they must
have; the corruptions are single, targeted edits.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import checks  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAD = "# config 0123456789ab\n"


def _cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "twistmoments.cli", *args],
                          check=True, capture_output=True, text=True,
                          env=env, cwd=ROOT).stdout


def _replace_line(text: str, i: int, line: str) -> str:
    lines = text.splitlines()
    lines[i] = line
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- tau

def _tau_text(n: int, bump: int | None = None) -> str:
    taus = checks.delta_expansion(n)
    if bump is not None:
        taus[bump - 1] += 1
    return "".join(f"{i}\t{t}\n" for i, t in enumerate(taus, start=1))


def test_tau_accepts_delta_and_rejects_off_by_one():
    assert checks.check_tau(_tau_text(120), 120) == 120
    for n in (7, 97, 100):          # inside and past the literal prefix
        with pytest.raises(checks.CheckError):
            checks.check_tau(_tau_text(120, bump=n), 120)


def test_tau_rejects_short_output():
    with pytest.raises(checks.CheckError):
        checks.check_tau(_tau_text(50), 60)


# ------------------------------------------------------------ chars/weights

def test_chars_accepts_cli_output_and_rejects_swapped_conductor():
    text = _cli("chars", "--q-list", "9,15,16,1024")
    assert checks.check_chars(text, [16, 9, 1024, 15]) == 6 + 8 + 8 + 512
    lines = text.splitlines()
    # q=9: index 1 has conductor 9, index 3 conductor 3; swap them
    i1 = lines.index("9,1,9,1,0")
    i3 = lines.index("9,3,3,0,0")
    bad = _replace_line(_replace_line(text, i1, "9,1,3,1,0"), i3,
                        "9,3,9,0,0")
    with pytest.raises(checks.CheckError):
        checks.check_chars(bad, [9, 15, 16, 1024])
    with pytest.raises(checks.CheckError):   # primitive flag off
        checks.check_chars(_replace_line(text, i1, "9,1,9,0,0"),
                           [9, 15, 16, 1024])
    with pytest.raises(checks.CheckError):   # parity flipped
        checks.check_chars(_replace_line(text, i1, "9,1,9,1,1"),
                           [9, 15, 16, 1024])


def test_weights_accepts_cli_output_and_rejects_perturbed_sample():
    text = _cli("weights")
    assert checks.check_weights(text) == 25
    lines = text.splitlines()
    x, w, w2 = lines[12].split(",")
    bad = _replace_line(text, 12, f"{x},{float(w) + 1e-6!r},{w2}")
    with pytest.raises(checks.CheckError):
        checks.check_weights(bad)


# -------------------------------------------------------------------- sweep

def _sweep_text(qs, ks, scale=None, fit=True) -> str:
    rows = []
    norm = {}
    for q in qs:
        ps = checks.phi_star(q)
        amps = [0.3 + (j * 7919 % 13) / 5 for j in range(ps)]
        for k in ks:
            raw = sum(a ** (2 * k) for a in amps)
            if scale and (q, k) == scale[0]:
                raw *= scale[1]
            nrm = raw / ps
            norm[(q, k)] = nrm
            rows.append(f"{q},{k!r},{ps},{raw!r},{nrm!r},"
                        f"{nrm / math.log(q) ** (k * k)!r}")
    text = HEAD + ",".join(checks._MOMENT_HEADER) + "\n" + "\n".join(rows)
    text += "\n"
    if fit:
        for k in ks:
            xs = [math.log(math.log(q)) for q in qs]
            ys = [math.log(norm[(q, k)]) for q in qs]
            slope, icept = checks._fit(xs, ys)
            text += (f"# fit k={k!r} slope={slope!r} intercept={icept!r} "
                     f"r2=0.5 points={len(qs)}\n")
    return text


def test_sweep_accepts_consistent_rows():
    qs, ks = [53, 81, 105, 211], [0.5, 1.0, 2.0]
    assert checks.check_sweep(_sweep_text(qs, ks), qs, ks, True) == sum(
        checks.phi_star(q) for q in qs)
    assert checks.check_sweep(_sweep_text(qs, ks, fit=False), qs, ks,
                              False) > 0


def test_sweep_rejects_non_monotone_power_mean():
    qs, ks = [53, 81, 105, 211], [0.5, 1.0, 2.0]
    bad = _sweep_text(qs, ks, scale=((81, 2.0), 0.5))
    with pytest.raises(checks.CheckError, match="power means"):
        checks.check_sweep(bad, qs, ks, False)


def test_sweep_rejects_wrong_phi_star_and_normalization():
    qs, ks = [53, 81, 105, 211], [1.0]
    text = _sweep_text(qs, ks, fit=False)
    lines = text.splitlines()
    q, k, ps, raw, nrm, ratio = lines[4].split(",")   # the q=105 row
    with pytest.raises(checks.CheckError, match="phi_star"):
        checks.check_sweep(_replace_line(
            text, 4, ",".join([q, k, "48", raw, nrm, ratio])), qs, ks, False)
    with pytest.raises(checks.CheckError, match="normalized"):
        checks.check_sweep(_replace_line(
            text, 4, ",".join([q, k, ps, raw, repr(float(nrm) * 1.01),
                               ratio])), qs, ks, False)


def test_sweep_rejects_wrong_fit():
    qs, ks = [53, 81, 105, 211], [1.0]
    text = _sweep_text(qs, ks).replace("slope=", "slope=1")
    with pytest.raises(checks.CheckError, match="slope"):
        checks.check_sweep(text, qs, ks, True)


# ------------------------------------------------------------------ lvalues

def _lvalue_text(q=13, flip=None, shift=0.0, residual=1e-8) -> str:
    """Family mod the prime 13: index e pairs with 12 - e, 6 is real."""
    vals = {}
    for e in range(1, 7):
        v = complex(0.4 + e / 7, 0.0 if e == 6 else 0.3 - e / 11)
        vals[e], vals[12 - e] = v, v.conjugate()
    if flip is not None:
        vals[flip] = vals[flip].conjugate()
    rows = []
    for e in range(1, 12 + 1):
        if e == 12:
            continue                        # index 0 is the principal one
        v = vals[e] + shift
        audited = e in (2, 5)
        sq = abs(v) ** 2 * (1 + residual) if audited else abs(v) ** 2
        rows.append(f"{q},{e},{q},{v.real!r},{v.imag!r},{abs(v)!r},{sq!r},"
                    f"{residual if audited else 0.0!r},{int(audited)}")
    return (HEAD + ",".join(checks._LVALUE_HEADER) + "\n"
            + "\n".join(rows) + "\n")


def test_lvalue_accepts_conjugation_closed_family():
    assert checks.check_lvalue(_lvalue_text(), [13]) == 11


def test_lvalue_rejects_broken_conjugate_pair_and_residual():
    with pytest.raises(checks.CheckError, match="conjugate"):
        checks.check_lvalue(_lvalue_text(flip=3), [13])
    with pytest.raises(checks.CheckError, match="residual"):
        checks.check_lvalue(_lvalue_text(residual=2e-3), [13])
    short = "\n".join(_lvalue_text().splitlines()[:-1]) + "\n"
    with pytest.raises(checks.CheckError, match="phi"):
        checks.check_lvalue(short, [13])


def test_balance_rejects_values_that_depend_on_x():
    checks.check_balance(_lvalue_text(), _lvalue_text(shift=1e-8))
    with pytest.raises(checks.CheckError, match="depends on X"):
        checks.check_balance(_lvalue_text(), _lvalue_text(shift=1e-5))


# -------------------------------------------------------- audit and verify

_AUDIT = HEAD + """kind,name,subject,lhs,rhs,ok
pointwise,product_small_regime,chi=1 j=1,1.0,1.0013,1
pointwise,lower_small_regime,chi=1 j=1,1.0,0.9993,1
holder,holder_three_factor,q=29,21.27,40.33,1
# pointwise 2/2 holder 1/1
# reported twisted_moment=21.27
"""


def test_audit_accepts_and_rejects_false_ok_and_bad_summary():
    assert checks.check_audit(_AUDIT) == 3
    with pytest.raises(checks.CheckError, match="ok is false"):
        checks.check_audit(_AUDIT.replace("40.33,1", "40.33,0"))
    with pytest.raises(checks.CheckError, match="summary"):
        checks.check_audit(_AUDIT.replace("2/2", "3/3"))
    with pytest.raises(checks.CheckError, match="1.0 vs"):
        checks.check_audit(_AUDIT.replace("1.0,0.9993", "1.0,1.5"))


_VERIFY = HEAD + "name,subject,value,bound,ok\n" + "".join(
    ["dual_representation,j=1,0.0,1e-10,1\n",
     "trunc_exp_tail_vs_term,200 samples,0.07,1.0,1\n",
     "trunc_exp_tail_vs_geom,200 samples,0.01,1.0,1\n",
     "segment_prime_weight_skipped,j=1,0.0,,1\n",
     "diagonal_identity,k=1.0,0.0,1e-09,1\n"]
    + [f"diagonal_local_factor,p={p},0.0001,{10 / p ** 2!r},1\n"
       for p in checks._FIRST_PRIMES]) + "# support_size=3 max_coefficient=1.0\n"


def test_verify_accepts_and_rejects_false_ok_and_missing_rows():
    assert checks.check_verify(_VERIFY) == 20
    with pytest.raises(checks.CheckError, match="ok is false"):
        checks.check_verify(_VERIFY.replace("1e-09,1", "1e-09,0"))
    with pytest.raises(checks.CheckError, match="local-factor"):
        checks.check_verify(_VERIFY.replace("p=47", "p=53"))
    with pytest.raises(checks.CheckError):
        checks.check_verify(_VERIFY.replace("0.07,1.0", "1.07,1.0"))


def test_failure_accepts_only_the_tau_fault():
    msg = b"twistmoments: computation failed: int too big to convert\n"
    checks.check_failure(2, b"", msg)
    with pytest.raises(checks.CheckError):
        checks.check_failure(2, b"", b"twistmoments: computation failed: "
                             b"squared-route residual\n")
    with pytest.raises(checks.CheckError):
        checks.check_failure(1, b"", msg)


def test_calibrate_accepts_its_line_and_rejects_a_short_array_sum():
    want = sum(calibrate.Q_ARRAYS)
    assert checks.check_calibrate(f"calibrate 855583 {want}\n") == 1
    with pytest.raises(checks.CheckError, match="array checksum"):
        checks.check_calibrate(f"calibrate 855583 {want - 1}\n")
    with pytest.raises(checks.CheckError, match="calibration output"):
        checks.check_calibrate(f"calibrate {want}\n")
