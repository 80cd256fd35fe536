"""Acceptance suite: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly through its assertion if the criterion is not
met.  The large shared eigenvalue tables come from session fixtures, so
their build time does not count against the per-criterion budgets.
"""

import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from twistmoments import (arith, characters, hecke, lvalues, moments,
                          mollifier)

import helpers

CFG = lvalues.DEFAULT_CONFIG
# a subprocess imports the package from this checkout's source
_ENV = {**os.environ,
        "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}


def _verdict(num, name, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    detail = f"{elapsed:.2f} s"
    if failures:
        detail += f"; first failures: {failures[:4]}"
    if elapsed >= budget:
        detail += f"; over {budget:.0f} s budget"
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_01_identity_suite():
    t0 = time.perf_counter()
    failures = []
    for q in range(3, 201):
        if q % 4 == 2:
            continue
        g = characters.build_group(q)
        V = np.array([c(np.arange(q)) for c in helpers.all_characters(g)])
        conds = helpers.conductors_for_value_matrix(
            V, q, list(arith.divisors(q)))
        if int(np.sum(conds == q)) != arith.phi_star(q):
            failures.append(("phi_star", q))
    for q in (9, 27, 49, 121):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            try:
                helpers.primitive_sum_identity(a, q, audit=True)
            except AssertionError:
                failures.append(("char_sum", a, q))
    _verdict(1, "identity suite", failures, time.perf_counter() - t0, 1.0)


def test_02_gauss_kloosterman_suite():
    t0 = time.perf_counter()
    failures = []
    for q in range(3, 102):
        if q % 4 == 2:
            continue
        g = characters.build_group(q)
        for chi in characters.primitive_characters(g):
            mag2 = abs(characters.gauss_sum(chi)) ** 2
            if abs(mag2 - q) > 1e-9 * q:
                failures.append(("gauss", q, chi.index))
    for q in (3, 9, 25, 27, 49):
        bound = helpers.divisor_count(q) * math.sqrt(q)
        for v in range(q):
            if abs(characters.kloosterman(1, v, q)) > bound + 1e-9:
                failures.append(("weil", q, v))
    if abs(characters.kloosterman(1, 1, 3) + 1.0) > 1e-12:
        failures.append(("S(1,1,3)",))
    _verdict(2, "gauss/kloosterman suite", failures,
             time.perf_counter() - t0, 10.0)


def test_03_eigenform_suite():
    t0 = time.perf_counter()
    failures = []
    oracle = helpers.tau_q_expansion(6)  # independent q-expansion product
    taus = [int(t) for t in hecke.ramanujan_tau_table(6)]
    if taus != oracle or taus[1] != -24 or taus[3] != -1472:
        failures.append(("tau_oracle", list(taus), oracle))
    t = hecke.build_eigenform(n_max=10**4)
    if t.lam_at(1) != 1.0:
        failures.append(("lam1",))
    d = np.array([helpers.divisor_count(n) for n in range(1, 10**4 + 1)],
                 dtype=float)
    if not np.all(np.abs(t.lam[1:]) <= d + 1e-9):
        failures.append(("deligne",))
    rng = np.random.default_rng(23)
    for _ in range(500):
        m, n = (int(v) for v in rng.integers(1, 101, size=2))
        lhs = t.lam_at(m) * t.lam_at(n)
        rhs = sum(t.lam_at(m * n // (dd * dd))
                  for dd in arith.divisors(math.gcd(m, n)))
        if abs(lhs - rhs) > 1e-10:
            failures.append(("hecke", m, n))
    for p in (2, 3, 5):
        j = 1
        while p ** (j + 1) <= 10**4:
            lhs = t.lam_at(p) * t.lam_at(p ** j)
            rhs = t.lam_at(p ** (j + 1)) + t.lam_at(p ** (j - 1))
            if abs(lhs - rhs) > 1e-10:
                failures.append(("recursion", p, j))
            j += 1
    _verdict(3, "eigenform suite", failures, time.perf_counter() - t0, 30.0)


def test_04_weight_suite():
    t0 = time.perf_counter()
    failures = []
    ev_w, ev_w2 = lvalues.default_evaluators()
    # the contour on Re s = 1, at twice its height (12 for W, 40 for W2)
    # and half its step 1/64
    for kind, ev, T in (("W", ev_w, 24.0), ("W2", ev_w2, 80.0)):
        if abs(ev.quad(1e-6) - 1.0) > 1e-4:
            failures.append(("limit", kind))
        for x in (0.1, 1.0, 10.0):
            fine = helpers.contour_weight_two_sided(kind, x, T=T,
                                                    h=1.0 / 128)
            base = ev.quad(x)
            if abs(fine.real - base) > 1e-8 * max(abs(base), abs(fine.real)):
                failures.append(("refinement", kind, x))
        for x in (1e-6, 1e-3, 0.01, 0.1, 1.0, 10.0, 30.0):
            z = helpers.contour_weight_two_sided(kind, x)
            if abs(z.imag) > 1e-9:
                failures.append(("realness", kind, x))
        arr = ev.quad(np.array([0.5, 2.0]))
        if arr.dtype != np.float64:
            failures.append(("dtype", kind))
    _verdict(4, "weight suite", failures, time.perf_counter() - t0, 30.0)


def test_05_afe_cross_validation(sweep_table):
    t0 = time.perf_counter()
    failures = []
    cfg_half = lvalues.AfeConfig(X=0.5)
    ev, _ = lvalues.default_evaluators()
    for q in (5, 7, 53, 101):
        recs1 = lvalues.family_values(sweep_table, q, CFG)
        recs2 = lvalues.family_values(sweep_table, q, cfg_half)
        audited = 0
        for r, r2 in zip(recs1, recs2):
            if (r.chi.index != r2.chi.index
                    or abs(r.value - r2.value) > 1e-5):
                failures.append(("X", q, r.chi.index))
            if r.audited:
                audited += 1
                if r.residual > 1e-3:
                    failures.append(("sq", q, r.chi.index))
        if audited == 0:
            failures.append(("no_audit", q))
        # doubling the certified cap moves the value by less than the budget
        cap = lvalues.required_n_cap(q, CFG)
        chi = recs1[0].chi
        n = np.arange(cap + 1, 2 * cap + 1)
        w = ev(n / q)
        chivals = chi(n)
        terms = sweep_table.lam[cap + 1:2 * cap + 1] / np.sqrt(n) * w
        drift = (abs(np.sum(terms * chivals))
                 + abs(np.sum(terms * chivals.conj())))
        if drift >= 10 * CFG.tail_eps:
            failures.append(("doubling", q, drift))
    _verdict(5, "afe cross-validation", failures,
             time.perf_counter() - t0, 300.0)


def test_06_mollifier_suite(sweep_table):
    t0 = time.perf_counter()
    failures = []
    for q in (53, 101):
        group = characters.build_group(q)
        prims = characters.primitive_characters(group)
        for k in (0.5, 2.0):
            lad = mollifier.build_ladder(q, k=k, override_ell=(8, 2))
            segs = mollifier.build_segments(q, lad)
            ctx = mollifier.MollifierContext(sweep_table, lad, segs)
            for alpha in (k, k - 1):
                for j in range(1, lad.R + 1):
                    coeffs = mollifier.segment_coefficients(ctx, j, alpha)
                    for chi in prims:
                        e = mollifier.n_poly(ctx, chi, j, alpha)
                        d = mollifier.evaluate_coefficients(coeffs, chi)
                        if abs(e - d) > 1e-10:
                            failures.append(("dual", q, k, chi.index, j))
    rng = np.random.default_rng(31)
    for _ in range(200):
        K = 2 * int(rng.integers(1, 7))
        a = float(rng.uniform(0.05, 2.0))
        r = a * K / 20.0 * float(rng.uniform(0.2, 1.0))
        theta = float(rng.uniform(0, 2 * np.pi))
        z = r * complex(np.cos(theta), np.sin(theta))
        err = abs(mollifier.trunc_exp_tail(K, z))
        if not (err <= abs(z) ** K / math.factorial(K) + 1e-15
                <= (a * math.e / 20) ** K + 2e-15):
            failures.append(("ebound", K, a))
    for k, ck, rk in ((0.25, 64.0, 6), (0.75, 64.0, 3), (2.0, 128.0, 3)):
        if mollifier.c_k_value(k) != ck or mollifier.r_k_value(k) != rk:
            failures.append(("ckrk", k))
    _verdict(6, "mollifier suite", failures, time.perf_counter() - t0, 60.0)


def test_07_inequality_audit(sweep_table):
    t0 = time.perf_counter()
    failures = []
    for q in (53, 101):
        recs = lvalues.family_values(sweep_table, q, CFG)
        for k in (0.5, 2.0):
            lad = mollifier.build_ladder(q, k=k, override_ell=(8, 2))
            segs = mollifier.build_segments(q, lad)
            ctx = mollifier.MollifierContext(sweep_table, lad, segs)
            towers = moments.family_towers(ctx, [r.chi for r in recs])
            for kind, audit in (
                    ("pointwise",
                     moments.family_pointwise_audit(recs, towers)),
                    ("holder", moments.holder_chain_audit(recs, towers))):
                bad = [c for c in audit.checks if not c.ok]
                if bad:
                    failures.append((kind, q, k, bad[:2]))
    _verdict(7, "inequality audit", failures, time.perf_counter() - t0, 300.0)


def test_08_growth_trend(sweep_table):
    t0 = time.perf_counter()
    failures = []
    window = (101, 149, 211, 307, 401, 503, 701, 1009)
    reports = moments.sweep_reports(sweep_table, window, (1.0,))
    ratios = [r.ratio_to_logq_pow_k2 for r in reports]
    if max(ratios) / min(ratios) > 4.0:
        failures.append(("band", ratios))
    fit = moments.exponent_fit(reports)
    if not 0.5 <= fit.slope <= 1.6:
        failures.append(("slope", fit.slope))
    _verdict(8, "growth trend", failures, time.perf_counter() - t0, 1800.0)


def test_09_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"sweep_{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "twistmoments.cli", "sweep",
             "--q-list", "53,101", "--k", "1", "--seed", "0",
             "--out", str(path)],
            capture_output=True, text=True, env=_ENV)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    failures = [] if blobs[0] == blobs[1] else [("bytes_differ",)]
    _verdict(9, "determinism", failures, time.perf_counter() - t0, 600.0)
