"""Weight kernels: quadrature accuracy, grid fidelity, decay and errors."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from twistmoments import lvalues, weights

import helpers


@pytest.fixture(scope="module")
def ev_w():
    return lvalues.default_evaluators()[0]


@pytest.fixture(scope="module")
def ev_w2():
    return lvalues.default_evaluators()[1]


def test_small_x_limit(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        assert abs(ev.quad(1e-6) - 1.0) < 1e-4
        assert abs(ev(1e-6) - 1.0) < 1e-4


def test_frozen_reference_values(ev_w, ev_w2):
    assert abs(ev_w.quad(50.0) - 0.002998406658876877) < 1e-12
    w2_50 = ev_w2.quad(50.0)
    assert abs(w2_50 - 8.900811428434201e-07) < 1e-15
    assert w2_50 < 1e-6


def test_two_sided_contour_oracle(ev_w, ev_w2):
    for ev, kind in ((ev_w, "W"), (ev_w2, "W2")):
        for x in (0.1, 1.0, 10.0):
            z = helpers.contour_weight_two_sided(kind, x)
            got = ev.quad(x)
            assert abs(z.imag) < 1e-9
            assert abs(z.real - got) < 1e-12 * max(1.0, abs(got))


def test_quad_against_exact_oracle(ev_w, ev_w2):
    # 25-digit references, every third of a decade over [1e-8, 1e4]: a
    # tanh-sinh quadrature of E[Q(a, 2 pi x e^{-V})] for W, the Bessel-K
    # closed form for W2
    xs = np.geomspace(1e-8, 1e4, 37)
    for ev in (ev_w, ev_w2):
        ref = np.array([helpers.kernel_exact(ev.kind, x) for x in xs])
        keep = ref >= 1e-20
        assert keep.sum() >= 20
        rel = np.abs(ev.quad(xs[keep]) - ref[keep]) / ref[keep]
        assert rel.max() <= 1e-14


def test_quad_across_chunks_matches_pointwise(ev_w, ev_w2):
    xs = np.geomspace(1e-6, 1e3, 2 * weights._CHUNK + 17)
    for ev in (ev_w, ev_w2):
        batch = ev.quad(xs)
        single = np.array([ev.quad(float(x)) for x in xs])
        assert np.max(np.abs(batch - single) * xs) <= 1e-14


def test_quadrature_stability_under_refinement(ev_w, ev_w2):
    # the contour at twice its height T (12 for W, 40 for W2) and half its
    # step 1/64 agrees at the 1e-8 relative level
    for kind, ev, T in (("W", ev_w, 24.0), ("W2", ev_w2, 80.0)):
        for x in (0.1, 1.0, 10.0):
            a = ev.quad(x)
            b = helpers.contour_weight_two_sided(kind, x, T=T,
                                                 h=1.0 / 128).real
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def test_grid_matches_quadrature(ev_w, ev_w2):
    # 10^4 log-uniform points over each spline's span, against bounds about
    # 3 times the measured interpolation floor: 6.3e-12 for W; for W2,
    # 2.2e-10 where W2 >= 1e-3, 7.5e-10 where W2 >= 1e-20, and 7.6e-6 down
    # to _FLOOR, where the trapezoid samples themselves stop being smooth
    rng = np.random.default_rng(2)
    for ev, bands in ((ev_w, ((0.0, 2e-11),)),
                      (ev_w2, ((1e-3, 5e-10), (1e-20, 2e-9),
                               (weights._FLOOR, 2.5e-5)))):
        xs = np.exp(rng.uniform(np.log(weights._GRID_LO),
                                np.log(ev._support_end), 10**4))
        direct = ev.quad(xs)
        rel = np.abs(ev(xs) - direct) / direct
        for floor, bound in bands:
            keep = direct > floor
            assert keep.sum() >= 1000
            assert rel[keep].max() <= bound


def test_knot_slopes_against_independent_derivatives(ev_w, ev_w2):
    # W: a central difference of log quad in log x, with step d = 1e-4 and
    # truncation error about d^2/6 times the third derivative
    d = 1e-4
    x = ev_w.grid_x[:len(ev_w._spline._x) - 1]
    diff = (np.log(ev_w.quad(x * np.exp(d)))
            - np.log(ev_w.quad(x * np.exp(-d)))) / (2 * d)
    s = ev_w._spline._coef[:, 2]
    assert np.all(np.abs(s - diff) <= 1e-9 * np.maximum(1.0, np.abs(diff)))
    # W2: the Bessel-K closed form, at every 32nd knot with W2 >= 1e-20;
    # deeper in the tail the trapezoid rule itself drifts from the integral
    s = ev_w2._spline._coef[:, 2]
    for i in range(0, len(s), 32):
        if ev_w2.grid_vals[i] < 1e-20:
            break
        want = helpers.w2_log_slope_exact(float(ev_w2.grid_x[i]))
        assert abs(s[i] - want) <= 1e-13 * max(1.0, abs(want))


def test_exactly_real_output_types(ev_w):
    arr = ev_w.quad(np.array([0.5, 2.0]))
    assert arr.dtype == np.float64
    assert isinstance(ev_w.quad(1.0), float)
    assert isinstance(ev_w(1.0), float)


def test_monotone_tail(ev_w, ev_w2):
    xs = np.geomspace(10.0, 1000.0, 50)
    for ev in (ev_w, ev_w2):
        vals = np.array([ev(float(x)) for x in xs])
        assert np.all(np.diff(vals) <= 1e-18)
        assert np.all(vals >= 0.0)


def test_grid_values_bounded(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        assert np.all((ev.grid_vals >= 0.0) & (ev.grid_vals <= 1.0))


def test_envelope_cutoff(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        x8 = ev.envelope_cutoff(1e-8)
        x6 = ev.envelope_cutoff(1e-6)
        assert 0 < x6 < x8
        assert ev(float(2 * x8)) <= 1.01e-8
        with pytest.raises(ValueError):
            ev.envelope_cutoff(0.0)
    # W2 underflows to 0 inside the grid, so every threshold resolves; W is
    # still 6.8e-22 at the grid's end, so a lower threshold is refused
    assert ev_w2.envelope_cutoff(1e-30) >= ev_w2.envelope_cutoff(1e-8)
    with pytest.raises(ValueError):
        ev_w.envelope_cutoff(1e-30)


def test_constructor_validation(ev_w):
    with pytest.raises(ValueError):
        weights.WeightEvaluator("V")
    with pytest.raises(ValueError):
        ev_w.quad(0.0)
    with pytest.raises(ValueError):
        ev_w.quad(-1.0)


def test_nan_argument_raises(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        for bad in (np.nan, np.array([1.0, np.nan, 2.0]), -np.inf):
            with pytest.raises(ValueError):
                ev(bad)
            with pytest.raises(ValueError):
                ev.quad(bad)


def test_decay_audit(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        m = helpers.decay_audit(ev, 3.0)
        assert np.isfinite(m)
        assert m > 0
    with pytest.raises(ValueError):
        helpers.decay_audit(ev_w, 6.0)  # must stay below a = 6
    with pytest.raises(ValueError):
        helpers.decay_audit(ev_w, 0.0)


def test_spline_against_scipy(ev_w, ev_w2):
    rng = np.random.default_rng(5)
    for ev in (ev_w, ev_w2):
        knots = ev._spline._x
        vals, xdv = ev._quad_slope(ev.grid_x[:len(knots)])
        ref = CubicHermiteSpline(knots, np.log(vals), xdv / vals)
        pts = np.concatenate([knots, rng.uniform(knots[0], knots[-1], 10**5)])
        want = ref(pts)
        # log W2 reaches -642 at the spline's end, where one ulp is 1.1e-13,
        # so the bound allows a few ulps of the value
        assert np.all(np.abs(ev._spline(pts) - want)
                      <= 1e-13 + 4 * np.spacing(np.abs(want)))


class _ScipyRouteEvaluator(weights.WeightEvaluator):
    """Grid samples from the unfolded contour with scipy's loggamma, on
    Re s = 1 with step 1/64, to height 12 for W and 40 for W2.  The knot
    slopes stay the quadrature's: only the samples are compared."""

    def _quad_slope(self, xs):
        return (_contour_samples(self.kind, xs),
                super()._quad_slope(xs)[1])


def _contour_samples(kind, xs):
    return helpers.contour_weight_samples(
        kind, xs, 12, 1.0, 12.0 if kind == "W" else 40.0, 1.0 / 64)


def test_cutoffs_match_scipy_route(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        ref = _ScipyRouteEvaluator(ev.kind)
        # the reference grid is the contour's, not the quadrature's again
        assert np.array_equal(ref.grid_vals,
                              _contour_samples(ev.kind, ev.grid_x))
        assert not np.array_equal(ref.grid_vals, ev.grid_vals)
        for tail_eps in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            assert (ev.envelope_cutoff(tail_eps / lvalues.SAFETY)
                    == ref.envelope_cutoff(tail_eps / lvalues.SAFETY))


# ----------------------------------------------- lookup against the oracle

def _same(ev, xs):
    return np.array_equal(ev(xs), helpers.searchsorted_weight(ev, xs))


def test_lookup_matches_searchsorted_at_knots(ev_w, ev_w2):
    # a knot is where the index arithmetic and its correction can slip
    for ev in (ev_w, ev_w2):
        t = ev._spline._x
        pts = np.concatenate([t, np.nextafter(t, -np.inf),
                              np.nextafter(t, np.inf)])
        assert np.array_equal(ev._spline(pts),
                              helpers.searchsorted_spline(ev._spline, pts))
        x = ev.grid_x[:len(t)]
        assert _same(ev, np.concatenate([x, np.nextafter(x, 0),
                                         np.nextafter(x, np.inf)]))


def test_lookup_matches_searchsorted_off_the_grid(ev_w, ev_w2):
    # 10^5 points over [_GRID_LO / 100, 100 _support_end], so many blocks
    # hold points on both sides of the spline's span
    rng = np.random.default_rng(14)
    for ev in (ev_w, ev_w2):
        lo, hi = weights._GRID_LO / 100, 100 * ev._support_end
        xs = np.exp(rng.uniform(np.log(lo), np.log(hi), 10**5))
        assert (xs < weights._GRID_LO).any()
        assert (xs > ev._support_end).any()
        assert _same(ev, xs)
        assert _same(ev, np.sort(xs))


@pytest.mark.parametrize("q", [17, 53, 149, 211])
def test_lookup_matches_searchsorted_on_family_arguments(ev_w, ev_w2, q):
    # the arrays family_values passes to W and _w2_table passes to W2
    for X in (0.5, 1.0, 2.0):
        cfg = lvalues.AfeConfig(X=X)
        n = np.arange(1, lvalues.required_n_cap(q, cfg) + 1)
        assert _same(ev_w, n / (q * X))
        assert _same(ev_w, n * (X / q))
    m = np.arange(1, lvalues.required_m_cap(q) + 1)
    assert _same(ev_w2, m * (2 * np.pi / (q * q)))


def test_lookup_scalar_and_empty_inputs(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        for x in (1e-9, 0.3, 7.0, 1e9, np.float64(2.5), np.array(2.5)):
            got, want = ev(x), helpers.searchsorted_weight(ev, x)
            assert type(got) is float and got == want
        empty = ev(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64


def test_lookup_working_set_is_the_output(ev_w, ev_w2):
    # the searchsorted route peaked at 9.25 times the output's bytes
    xs = np.arange(1, 10**6 + 1) / 211
    for ev in (ev_w, ev_w2):
        tracemalloc.start()
        try:
            out = ev(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


def test_spline_refuses_jittered_knots():
    t = np.linspace(0.0, 1.0, 64)
    y, s = np.sin(t), np.cos(t)
    weights._HermiteSpline(t, y, s)
    jittered = t.copy()
    jittered[30] += 0.3 * (t[1] - t[0])
    with pytest.raises(ValueError, match="uniform"):
        weights._HermiteSpline(jittered, y, s)


# ------------------------------------------------------------ kernel file

def _grid_state(ev):
    return (ev.grid_x, ev.grid_vals, ev.grid_slopes, ev._spline._coef,
            ev._support_end, ev._left_val)


def test_kernel_file_round_trip(tmp_path, monkeypatch):
    # a cold call builds both grids and writes one file; a warm call reads
    # it and recomputes only every _SPOT_STEP-th knot of each kernel; all
    # three pairs hold the same bits
    points = []
    quad_slope = weights.WeightEvaluator._quad_slope

    def counted(self, xs):
        points.append(len(xs))
        return quad_slope(self, xs)
    monkeypatch.setattr(weights.WeightEvaluator, "_quad_slope", counted)
    plain = weights.evaluators()
    points.clear()
    cold = weights.evaluators(str(tmp_path / "cache"))
    assert points == [weights._GRID_SIZE] * 2
    (path,) = (tmp_path / "cache").iterdir()
    assert path.name.startswith("kernel_grids_")
    points.clear()
    warm = weights.evaluators(str(tmp_path / "cache"))
    assert points == [weights._GRID_SIZE // weights._SPOT_STEP] * 2
    assert list((tmp_path / "cache").iterdir()) == [path]
    for kind, trio in zip(("W", "W2"), zip(plain, cold, warm)):
        assert all(ev.kind == kind for ev in trio)
        for a, b, c in zip(*map(_grid_state, trio)):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_precomputed_grid_is_spot_checked(ev_w2):
    # a grid handed to the constructor is recomputed at every
    # _SPOT_STEP-th knot and must agree to the bit there
    grid = (ev_w2.grid_vals, ev_w2.grid_slopes)
    weights.WeightEvaluator("W2", grid)
    for row in (0, 1):
        bad = [a.copy() for a in grid]
        at = 3 * weights._SPOT_STEP
        bad[row][at] = np.nextafter(bad[row][at], 0.0)
        with pytest.raises(ValueError, match="checked knots"):
            weights.WeightEvaluator("W2", tuple(bad))
