"""Central values: balance-point invariance, conjugation, route agreement."""

import tracemalloc

import numpy as np
import pytest

from twistmoments import arith, characters, hecke, lvalues, weights

CFG = lvalues.DEFAULT_CONFIG


def test_config_validation():
    with pytest.raises(ValueError):
        lvalues.AfeConfig(X=0.0)
    with pytest.raises(ValueError):
        lvalues.AfeConfig(X=-1.0)
    with pytest.raises(ValueError):
        lvalues.AfeConfig(tail_eps=0.0)


def test_required_caps_scale():
    a = lvalues.required_n_cap(53, CFG)
    b = lvalues.required_n_cap(212, CFG)
    assert 3.9 < b / a < 4.1
    half = lvalues.AfeConfig(X=0.5)
    assert abs(lvalues.required_n_cap(53, half) / a - 2.0) < 0.01
    m1 = lvalues.required_m_cap(53, CFG)
    m2 = lvalues.required_m_cap(106, CFG)
    assert 3.9 < m2 / m1 < 4.1
    # the caps stop at CAP_LIMIT terms: a far-off balance point for the
    # first-power route, a modulus near 5000 for the squared route
    with pytest.raises(ValueError, match="exceeds the limit"):
        lvalues.required_n_cap(53, lvalues.AfeConfig(X=1e-3))
    with pytest.raises(ValueError, match="exceeds the limit"):
        lvalues.required_m_cap(5000, CFG)


def test_balance_point_invariance_mod7(table_100k):
    g = characters.build_group(7)
    chis = characters.primitive_characters(g)
    base = [lvalues.central_value(table_100k, c) for c in chis]
    for X in (0.5, 2.0):
        cfg = lvalues.AfeConfig(X=X)
        vals = [lvalues.central_value(table_100k, c, cfg) for c in chis]
        for u, v in zip(base, vals):
            assert abs(u - v) < 1e-5


def test_reference_value_q5_quadratic(table_100k):
    g = characters.build_group(5)
    chi = g.character(2)
    assert chi.is_primitive
    assert chi.conjugate_index() == 2
    v = lvalues.central_value(table_100k, chi)
    assert abs(v.imag) < 1e-9
    assert abs(v.real - 1.6323752574661987) < 1e-8


def test_conjugate_symmetry(table_100k):
    g = characters.build_group(9)
    for chi in characters.primitive_characters(g):
        bar = g.character(chi.conjugate_index())
        a = lvalues.central_value(table_100k, chi)
        b = lvalues.central_value(table_100k, bar)
        assert abs(b - a.conjugate()) < 1e-8


def test_square_route_agreement(table_100k):
    g = characters.build_group(5)
    chi = g.character(2)
    first = abs(lvalues.central_value(table_100k, chi)) ** 2
    sq = lvalues.central_value_sq(table_100k, chi)
    assert sq >= -1e-6
    assert abs(sq - first) < 1e-3 * max(first, 1.0)


def test_square_route_rejects_principal(table_100k):
    g = characters.build_group(5)
    chi0 = next(c for c in g.characters() if c.is_principal)
    with pytest.raises(ValueError):
        lvalues.central_value_sq(table_100k, chi0)


def test_family_counts_audits_and_conjugate_closure(table_100k):
    recs7 = lvalues.family_values(table_100k, 7)
    assert len(recs7) == 5
    recs9 = lvalues.family_values(table_100k, 9)
    assert len(recs9) == 4
    audited = [r for r in recs7 + recs9 if r.audited]
    assert audited
    for r in audited:
        assert r.sq_direct is not None
        assert r.residual < lvalues.CROSS_TOL
    index = [r.chi.index for r in recs7]
    assert index == sorted(index)
    for r in recs7:
        mate = recs7[index.index(r.chi.conjugate_index())]
        assert abs(mate.value - r.value.conjugate()) < 1e-10
        assert mate.chi.conductor == r.chi.conductor == 7


def test_family_records_hold_no_value_arrays():
    # each record keeps its character, a (group, index) handle: the family
    # at q = 1009 holds far less than one length-q float array per member
    q = 1009
    cfg = lvalues.AfeConfig(tail_eps=1e-5, audit_count=0)
    n_max = lvalues.required_n_cap(q, cfg)
    lam = np.zeros(n_max + 1)
    lam[1:] = np.random.default_rng(1).uniform(-1.0, 1.0, n_max)
    table = hecke.EigenformTable(weight=12, n_max=n_max, lam=lam,
                                 source="random")
    lvalues.default_evaluators(12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = lvalues.family_values(table, q, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recs) == arith.phi_star(q)
    assert held < arith.phi_star(q) * q * 8 / 10


def test_cap_doubling_is_negligible(family_table):
    # terms past the certified cap are numerically dead: extending the sum
    # to twice the cap moves the value by far less than the tail budget
    ev, _ = lvalues.default_evaluators(12)
    t = family_table
    for q in (5, 53):
        cap = lvalues.required_n_cap(q, CFG)
        assert 2 * cap <= t.n_max
        g = characters.build_group(q)
        chi = characters.primitive_characters(g)[0]
        n = np.arange(cap + 1, 2 * cap + 1)
        w = ev(n / q)
        chivals = chi.values()[n % q]
        terms = t.lam[cap + 1:2 * cap + 1] / np.sqrt(n) * w
        drift = abs(np.sum(terms * chivals)) + abs(np.sum(terms * chivals.conj()))
        assert drift < 10 * CFG.tail_eps


def test_small_table_rejected():
    g = characters.build_group(101)
    chi = characters.primitive_characters(g)[0]
    small = hecke.build_eigenform(n_max=1000)
    with pytest.raises(ValueError):
        lvalues.central_value(small, chi)
    with pytest.raises(ValueError):
        lvalues.central_value_sq(small, chi)


def test_family_shares_one_w2_table(family_table, monkeypatch):
    # the audited characters of one family read one W2(2 pi m/q^2)/sqrt(m)
    # table, and the family does not keep it once its records are built
    calls = []
    call = weights.WeightEvaluator.__call__

    def counted(self, x):
        calls.append(self.kind)
        return call(self, x)
    monkeypatch.setattr(weights.WeightEvaluator, "__call__", counted)
    cfg = lvalues.AfeConfig(audit_count=8)
    assert lvalues.required_m_cap(53, cfg) <= family_table.n_max
    recs = lvalues.family_values(family_table, 53, cfg)
    assert sum(r.audited for r in recs) == 8
    assert calls.count("W2") == 1
    assert lvalues._w2_table.cache_info().currsize == 0
