"""Central values: balance-point invariance, conjugation, route agreement."""

import tracemalloc

import numpy as np
import pytest

from twistmoments import arith, characters, hecke, lvalues, weights

import helpers

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


@pytest.mark.parametrize("q", [5, 9, 16, 53, 105])
@pytest.mark.parametrize("X", [1.0, 0.5])
def test_family_matches_direct_sum(q, X, family_table):
    # every binned record against its own unbinned sum over n <= n_cap; at
    # these moduli the two agree to 2.5e-14 at the scale max(|L|, 1)
    cfg = lvalues.AfeConfig(X=X, audit_count=0)
    recs = lvalues.family_values(family_table, q, cfg)
    assert len(recs) == arith.phi_star(q)
    direct = helpers.central_values_direct(family_table,
                                           [r.chi for r in recs], cfg)
    for r, want in zip(recs, direct):
        assert abs(r.value - want) <= 1e-12 * max(abs(want), 1.0), r.chi


def test_balance_point_invariance_mod7(table_100k):
    base = lvalues.family_values(table_100k, 7)
    for X in (0.5, 2.0):
        recs = lvalues.family_values(table_100k, 7, lvalues.AfeConfig(X=X))
        assert [r.chi.index for r in recs] == [r.chi.index for r in base]
        for u, v in zip(base, recs):
            assert abs(u.value - v.value) < 1e-5


def _quadratic_q5(recs):
    (rec,) = [r for r in recs if r.chi.index == 2]
    assert rec.chi.conjugate_index() == 2
    return rec


def test_reference_value_q5_quadratic(table_100k):
    v = _quadratic_q5(lvalues.family_values(table_100k, 5)).value
    assert abs(v.imag) < 1e-9
    assert abs(v.real - 1.6323752574661987) < 1e-8


def test_square_route_agreement(table_100k):
    rec = _quadratic_q5(lvalues.family_values(
        table_100k, 5, lvalues.AfeConfig(audit_count=0)))
    first = abs(rec.value) ** 2
    sq = lvalues.central_value_sq(table_100k, rec.chi)
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
    for q, recs in ((7, recs7), (9, recs9)):
        index = [r.chi.index for r in recs]
        assert index == sorted(index)
        for r in recs:
            mate = recs[index.index(r.chi.conjugate_index())]
            assert abs(mate.value - r.value.conjugate()) < 1e-10
            assert mate.chi.conductor == r.chi.conductor == q


def test_conjugate_symmetry(table_100k):
    # L(1/2, f x chi-bar) is the conjugate of L(1/2, f x chi) on the first
    # route, and the squared route gives chi and chi-bar the same |L|^2
    g = characters.build_group(9)
    recs = {r.chi.index: r for r in lvalues.family_values(table_100k, 9)}
    for chi in characters.primitive_characters(g):
        bar = g.character(chi.conjugate_index())
        a, b = recs[chi.index].value, recs[bar.index].value
        assert abs(b - a.conjugate()) < 1e-8
        sq_a = lvalues.central_value_sq(table_100k, chi)
        sq_b = lvalues.central_value_sq(table_100k, bar)
        assert abs(sq_a - sq_b) < 1e-8 * max(sq_a, 1.0)


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
    with pytest.raises(ValueError, match="rebuild the table"):
        lvalues.family_values(small, 101)
    with pytest.raises(ValueError, match="rebuild the table"):
        lvalues.central_value_sq(small, chi)


def test_family_shares_one_w2_table(family_table, monkeypatch):
    # the audited characters of one family read one W2(2 pi m/q^2)/sqrt(m)
    # table, through the family's residue table
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


def test_family_evaluates_each_character_once(family_table, monkeypatch):
    # the bin dot products, the root factor and the audit's dot against the
    # residue table share one values() array
    calls = []
    values = characters.Character.values

    def counted(self):
        calls.append(self.index)
        return values(self)
    monkeypatch.setattr(characters.Character, "values", counted)
    recs = lvalues.family_values(family_table, 53,
                                 lvalues.AfeConfig(audit_count=8))
    assert len(recs) == 51
    assert sum(r.audited for r in recs) == 8
    assert sorted(calls) == sorted(r.chi.index for r in recs)


def test_family_never_calls_the_oracle(family_table, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("central_value_sq called")
    monkeypatch.setattr(lvalues, "central_value_sq", refuse)
    recs = lvalues.family_values(family_table, 53)
    assert sum(r.audited for r in recs) == 8


@pytest.mark.parametrize("q", [53, 64, 81, 105, 125])
def test_audits_match_per_character_oracle(q, family_table):
    # every primitive chi audited: the residue-table |L|^2 against the
    # per-character double sum, at a prime, a power of 2, odd prime powers
    # and a composite modulus
    n = arith.phi_star(q)
    cfg = lvalues.AfeConfig(tail_eps=1e-5, audit_count=n)
    recs = lvalues.family_values(family_table, q, cfg)
    assert sum(r.audited for r in recs) == n
    for r in recs:
        want = lvalues.central_value_sq(family_table, r.chi, cfg)
        assert abs(r.sq_direct - want) <= 1e-11 * max(abs(want), 1e-2), r.chi


@pytest.mark.parametrize("q", [53, 101])
def test_residue_table_family_identity(q, family_table):
    # at prime q the characters mod q are the primitive ones plus chi_0, so
    # orthogonality sums 2 sum_c chi(c) G[c] over the family to
    # 2 ((q - 1) G[1] - sum_c G[c]); the first-power route must agree
    g = lvalues._residue_table(family_table, q,
                               lvalues.required_m_cap(q, CFG))
    by_table = 2.0 * ((q - 1) * g[1] - g.sum())
    recs = lvalues.family_values(family_table, q,
                                 lvalues.AfeConfig(audit_count=0))
    first = sum(abs(r.value) ** 2 for r in recs)
    assert abs(by_table - first) <= 1e-9 * first


def test_residue_table_symmetry_guard():
    q = 7
    inv = lvalues._unit_inverses(q)
    assert [int(inv[c]) for c in range(1, q)] == [1, 4, 5, 2, 3, 6]
    g = np.array([0.0, 2.0, 1.0, 0.5, 1.0, 0.5, -1.0])
    lvalues._check_inverse_symmetry(g, inv)
    g[3] += 1e-6
    with pytest.raises(AssertionError, match="inverse-symmetric"):
        lvalues._check_inverse_symmetry(g, inv)
