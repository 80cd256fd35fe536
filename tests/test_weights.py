"""Weight kernels: quadrature accuracy, grid fidelity, decay and errors."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import loggamma

from twistmoments import lvalues, weights

import helpers


@pytest.fixture(scope="module")
def ev_w():
    return lvalues.default_evaluators(12)[0]


@pytest.fixture(scope="module")
def ev_w2():
    return lvalues.default_evaluators(12)[1]


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


def test_full_grid_matches_unfolded_contour(ev_w, ev_w2):
    # every grid sample against the unfolded, scipy-based trapezoid; the
    # rounding noise of either sum scales with the 1/x prefactor
    for ev in (ev_w, ev_w2):
        ref = helpers.contour_weight_samples(ev.kind, ev.grid_x)
        assert np.max(np.abs(ev.grid_vals - ref) * ev.grid_x) <= 2e-14


def test_quad_across_chunks_matches_pointwise(ev_w, ev_w2):
    xs = np.geomspace(1e-6, 1e3, 2 * weights._CHUNK + 17)
    for ev in (ev_w, ev_w2):
        batch = ev.quad(xs)
        single = np.array([ev.quad(float(x)) for x in xs])
        assert np.max(np.abs(batch - single) * xs) <= 1e-14


def test_quadrature_stability_under_refinement(ev_w, ev_w2):
    # doubling T and halving h moves nothing at the 1e-8 relative level
    for kind, ev in (("W", ev_w), ("W2", ev_w2)):
        for x in (0.1, 1.0, 10.0):
            a = ev.quad(x)
            b = helpers.contour_weight_two_sided(kind, x, T=2 * ev.T,
                                                 h=ev.h / 2).real
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def test_grid_matches_quadrature(ev_w, ev_w2):
    rng = np.random.default_rng(2)
    for ev, hi in ((ev_w, 100.0), (ev_w2, 50.0)):
        xs = np.exp(rng.uniform(np.log(1e-6), np.log(hi), size=100))
        direct = ev.quad(xs)
        interp = np.array([ev(float(x)) for x in xs])
        rel = np.abs(interp - direct) / np.maximum(np.abs(direct), 1e-18)
        assert rel.max() < 1e-7


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
        assert np.abs(ev.grid_vals).max() <= 1.01


def test_envelope_cutoff(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        x8 = ev.envelope_cutoff(1e-8)
        x6 = ev.envelope_cutoff(1e-6)
        assert 0 < x6 < x8
        assert ev(float(2 * x8)) <= 1.01e-8
        with pytest.raises(ValueError):
            ev.envelope_cutoff(0.0)
        # past the support end values clamp to exactly zero, so thresholds
        # below the quadrature noise floor resolve to the support edge
        assert ev.envelope_cutoff(1e-30) >= x8


def test_constructor_validation(ev_w):
    with pytest.raises(ValueError):
        weights.WeightEvaluator("V")
    with pytest.raises(ValueError):
        ev_w.quad(0.0)
    with pytest.raises(ValueError):
        ev_w.quad(-1.0)


def test_tail_error_when_T_too_small(ev_w2):
    # T = 40 leaves a tail band of mass 3.8e-39, which the 1/(2 pi x)
    # factor lifts above the 1e-12 tolerance at x = 1e-30
    with pytest.raises(weights.QuadratureTailError):
        ev_w2.quad(1e-30)


def test_decay_audit(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        m = weights.decay_audit(ev, 3.0)
        assert np.isfinite(m)
        assert m > 0
    with pytest.raises(ValueError):
        weights.decay_audit(ev_w, 6.0)  # must stay below kappa/2
    with pytest.raises(ValueError):
        weights.decay_audit(ev_w, 0.0)


def test_loggamma_against_scipy(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        z = ev.kappa / 2 + ev.c + 1j * ev._t
        got = weights._loggamma(z)
        assert np.abs(np.exp(got - loggamma(z)) - 1.0).max() <= 1e-13
    # Re z below the Stirling threshold: the upward-shift path
    z = 0.25 + 1j * np.linspace(-30.0, 30.0, 601)
    got = weights._loggamma(z)
    assert np.abs(np.exp(got - loggamma(z)) - 1.0).max() <= 1e-13


def test_spline_against_scipy(ev_w, ev_w2):
    rng = np.random.default_rng(5)
    for ev in (ev_w, ev_w2):
        knots = ev._spline._x
        ref = CubicSpline(knots, np.log(ev.grid_vals[:len(knots)]))
        pts = np.concatenate([knots, rng.uniform(knots[0], knots[-1], 10**5)])
        assert np.abs(ev._spline(pts) - ref(pts)).max() <= 1e-13


class _ScipyRouteEvaluator(weights.WeightEvaluator):
    """Grid samples from the unfolded contour with scipy's loggamma."""

    def quad(self, x):
        return helpers.contour_weight_samples(self.kind, x, self.kappa,
                                              self.c, self.T, self.h)


def test_cutoffs_match_scipy_route(ev_w, ev_w2):
    for ev in (ev_w, ev_w2):
        ref = _ScipyRouteEvaluator(ev.kind, kappa=ev.kappa)
        assert ev._support_end == ref._support_end
        for tail_eps in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            assert (ev.envelope_cutoff(tail_eps / lvalues.SAFETY)
                    == ref.envelope_cutoff(tail_eps / lvalues.SAFETY))
