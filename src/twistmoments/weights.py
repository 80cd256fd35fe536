"""Smooth weight kernels for the approximate functional equations.

Two kernels, both inverse Mellin transforms along the vertical line Re s = c:

    W(x)  = (1/2pi i) int Gamma(kappa/2 + s)/Gamma(kappa/2) e^{s^2} (2 pi x)^{-s} ds/s
    W2(x) = (1/2pi i) int [Gamma(kappa/2 + s)/Gamma(kappa/2)]^2 (2 pi x)^{-s} ds/s

W drives the first-power equation, W2 the squared one.  Both tend to 1 as
x -> 0 (residue at s = 0) and decay faster than any power: W like
exp(-log^2(2 pi x)/4) thanks to the e^{s^2} factor, W2 like exp(-c sqrt(x))
from the Gamma^2.

Quadrature is a trapezoid rule on s = c + it, |t| <= T, with the integrand
assembled in log space so large |t| never overflows: log Gamma comes from a
Stirling series after an upward shift.  The kernel factor K(t) = Gamma-part / s
is independent of x and cached per evaluator, so an evaluation is the folded
sum Re sum_j e^{-i theta_j} K_j over the M nodes t_j = j h, with
theta_j = t_j log(2 pi x).  The phase is blocked: with j = Bk + r (B = 32),
e^{-i theta_j} = E_k R_r, where E_k = e^{-i B k h log(2 pi x)} and
R_r = e^{-i r h log(2 pi x)}.  One x therefore costs ceil(M/B) + B complex
exponentials instead of 2M cosines and sines, and the sum over nodes is one
small matrix product, (E @ K as a ceil(M/B) x B block) * R, summed over r.

Production evaluation interpolates a 2048-sample log-spaced grid with a
not-a-knot cubic spline in (log x, log W); direct quadrature stays available
for audits.  The spline is built only over the part of the grid where
samples sit safely above quadrature noise; past that the weight is clamped
to 0, which costs less than 1e-16 absolute and keeps the log transform well
defined.
"""

from __future__ import annotations

import math

import numpy as np

_GRID_SIZE = 2048
_GRID_LO = 1e-8
_GRID_HI = 1e6
# below these, grid samples are dominated by quadrature round-off
_NOISE_FLOOR = {"W": 1e-20, "W2": 1e-16}
_TAIL_TOL = 1e-12
_CHUNK = 256
# nodes per phase block, B in the module docstring
_PHASE_BLOCK = 32
# contour abscissa c, truncation height T by kind, and trapezoid step h
_C = 1.0
_T = {"W": 12.0, "W2": 40.0}
_H = 1.0 / 64


# Stirling coefficients B_2k / (2k (2k - 1)), k = 1..10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188,
             -174611 / 125400)
# The series is summed at Re z >= this, where its first omitted term is
# below 3e-17.  A larger shift costs accuracy: the rounding noise of the
# bigger intermediate terms is not analytic in t, and the contour integral
# amplifies it at small x by up to 1/x.
_STIRLING_MIN = 7.0


def _loggamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z > 0, up to an integer multiple of 2 pi i.

    Gamma(z) = Gamma(z + m) / (z (z + 1) ... (z + m - 1)), with the least m
    that puts every point at Re z + m >= _STIRLING_MIN; log Gamma(z + m) is
    the Stirling series there.  The product is logged once, so the branch is
    not the principal one: only exp of the result is meaningful.
    """
    z = np.asarray(z, dtype=complex)
    m = max(0, math.ceil(_STIRLING_MIN - float(z.real.min())))
    prod = np.ones_like(z)
    for k in range(m):
        prod *= z + k
    w = z + m
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for coef in reversed(_STIRLING):
        series = series * inv2 + coef
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
            + series / w - np.log(prod))


class _NotAKnotSpline:
    """Cubic spline through (x_i, y_i), x strictly increasing, n >= 4, with
    not-a-knot ends: the third derivative is continuous at x_1 and x_{n-2}.

    The knot slopes solve a tridiagonal system whose end rows carry the
    not-a-knot conditions; its eliminated pivots are dx_0 + dx_1 and the like,
    so the Thomas sweep needs no pivoting.  Each interval then holds the cubic
    Hermite polynomial in powers of (x - x_i).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = len(x)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
        sub = np.zeros(n)
        diag = np.empty(n)
        sup = np.zeros(n)
        rhs = np.empty(n)
        sub[1:-1] = dx[1:]
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        sup[1:-1] = dx[:-1]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        diag[0], sup[0] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        sub[-1], diag[-1] = d, dx[-2]
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = _thomas(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        self._coef = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1],
                               y[:-1]])

    def __call__(self, xv: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self._x, xv, side="right") - 1,
                    0, len(self._x) - 2)
        d = xv - self._x[i]
        a, b, c, e = self._coef[:, i]
        return ((a * d + b) * d + c) * d + e


def _thomas(sub: list, diag: list, sup: list, rhs: list) -> np.ndarray:
    """Solve a tridiagonal system by forward elimination and back
    substitution, on Python floats (one pass each way)."""
    n = len(diag)
    cp = [0.0] * n
    dp = [0.0] * n
    cp[0] = sup[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / den
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / den
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return np.array(dp)


class QuadratureTailError(RuntimeError):
    """The |Im s| in [T-1, T] band of the contour contributes more than the
    tolerance: T is too small for this x."""


class WeightEvaluator:
    """Immutable evaluator for one kernel; thread-safe after construction.

    Holds the folded kernel factor K(t) at the M = T/h + 1 nodes, zero-padded
    to whole blocks of _PHASE_BLOCK nodes for the blocked-phase sum, and the
    interpolation grid.  The contour is fixed: c = 1, T = 12 for W and 40
    for W2, h = 1/64; the attributes c, T and h record it.

    Args:
        kind: "W" (first-power kernel, with e^{s^2}) or "W2" (squared kernel).
        kappa: weight of the eigenform, even.
    """

    def __init__(self, kind: str, kappa: int = 12):
        if kind not in ("W", "W2"):
            raise ValueError(f"kind must be 'W' or 'W2', got {kind!r}")
        self.kind = kind
        self.kappa = kappa
        self.c = _C
        self.T = _T[kind]
        self.h = _H

        # The integrand is conjugate-symmetric in t, so the [-T, T] trapezoid
        # sum equals f(0) + 2 sum_{t>0} w_t Re f(t) exactly; folding the
        # contour halves the work and makes the result real by construction
        # instead of real up to amplified rounding noise.
        t = np.arange(0, round(self.T / self.h) + 1) * self.h
        s = self.c + 1j * t
        lg = _loggamma(kappa / 2 + s) - math.lgamma(kappa / 2)
        ln_k = lg + s * s if kind == "W" else 2.0 * lg
        kern = np.exp(ln_k) / s
        f0 = kern[0]
        if abs(f0.imag) > 1e-13 * abs(f0.real):
            raise AssertionError("kernel not real at t=0")
        kern *= 2.0
        kern[0] = f0.real
        kern[-1] *= 0.5
        self._t = t
        # K padded with zeros to whole blocks: row k holds nodes Bk..Bk+B-1
        nb = -(-len(kern) // _PHASE_BLOCK)
        blocks = np.zeros(nb * _PHASE_BLOCK, dtype=complex)
        blocks[:len(kern)] = kern
        self._kern_blocks = blocks.reshape(nb, _PHASE_BLOCK)
        # absolute bound on what the outermost unit band can contribute,
        # before the (2 pi x)^{-c} factor
        band = t >= self.T - 1.0
        self._tail_mass = float(np.sum(np.abs(kern[band]))) * self.h / (2 * np.pi)

        self._build_grid()

    # ------------------------------------------------------------------ direct

    def quad(self, x) -> np.ndarray | float:
        """Direct quadrature at x (scalar or array); exactly real because the
        folded trapezoid sum is.

        The phases come in blocks (see the module docstring): per x, one row
        of coarse factors E_k and one of fine factors R_r, and the node sum is
        Re of (E @ K_blocks) * R over r.  Points are taken _CHUNK at a time,
        so the working set stays bounded for any number of points.

        Raises:
            QuadratureTailError: the truncated contour cannot certify
                convergence at this x.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs <= 0):
            raise ValueError("weight argument must be positive")
        ln2pix = np.log(2 * np.pi * xs)
        pref = (self.h / (2 * np.pi)) * np.exp(-self.c * ln2pix)
        tail = self._tail_mass * np.exp(-self.c * ln2pix)
        if np.any(tail > _TAIL_TOL):
            bad = float(xs[np.argmax(tail)])
            raise QuadratureTailError(
                f"kind={self.kind}: tail band exceeds {_TAIL_TOL:g} "
                f"at x={bad:g}; increase T")
        t_coarse = np.arange(len(self._kern_blocks)) * (_PHASE_BLOCK * self.h)
        t_fine = np.arange(_PHASE_BLOCK) * self.h
        out = np.empty(len(xs))
        for lo in range(0, len(xs), _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            lx = ln2pix[sl, None]
            coarse = np.exp(-1j * (lx * t_coarse))
            fine = np.exp(-1j * (lx * t_fine))
            # Re(e^{-i theta} K) pairs each t > 0 with its conjugate mirror
            # at -t, so the imaginary residue of the represented two-sided
            # sum is identically zero rather than < 1e-9 by luck
            node_sum = ((coarse @ self._kern_blocks) * fine).real.sum(axis=1)
            out[sl] = pref[sl] * node_sum
        return out if np.ndim(x) else float(out[0])

    # ------------------------------------------------------------------- grid

    def _build_grid(self):
        x = np.geomspace(_GRID_LO, _GRID_HI, _GRID_SIZE)
        v = self.quad(x)
        floor = _NOISE_FLOOR[self.kind]
        peak = int(np.argmax(v))
        below = np.nonzero(v[peak:] < floor)[0]
        end = peak + (int(below[0]) if len(below) else len(v) - peak)
        if end < peak + 8:
            raise AssertionError("degenerate weight grid")
        if np.any(v[:end] <= 0):
            raise AssertionError("nonpositive sample above the noise floor")
        self.grid_x = x
        self.grid_vals = v
        self._support_end = float(x[end - 1])
        self._left_val = float(v[0])
        self._spline = _NotAKnotSpline(np.log(x[:end]), np.log(v[:end]))

    def __call__(self, x) -> np.ndarray | float:
        """Grid-interpolated value, clamped to the left-edge value below the
        grid and to 0 past the point where samples sink into quadrature
        noise."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs <= 0):
            raise ValueError("weight argument must be positive")
        out = np.zeros(len(xs))
        low = xs < _GRID_LO
        out[low] = self._left_val
        mid = ~low & (xs <= self._support_end)
        if np.any(mid):
            out[mid] = np.exp(self._spline(np.log(xs[mid])))
        return out if np.ndim(x) else float(out[0])

    def envelope_cutoff(self, eps: float) -> float:
        """Smallest grid x beyond which the running majorant of |values|
        stays <= eps; conservative input to truncation-length choices."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        vals = np.abs(self.grid_vals.copy())
        vals[self.grid_x > self._support_end] = 0.0
        majorant = np.maximum.accumulate(vals[::-1])[::-1]
        idx = np.nonzero(majorant <= eps)[0]
        if not len(idx):
            raise ValueError(f"majorant never reaches {eps:g} on the grid")
        return float(self.grid_x[idx[0]])


def decay_audit(ev: WeightEvaluator, c_test: float) -> float:
    """Max of |W(x)| x^{c_test} over a log grid x in [1, 1e4]: the implied
    constant in the min(1, x^{-c}) decay bound at exponent c_test."""
    if not 0 < c_test < ev.kappa / 2:
        raise ValueError(
            f"c_test must lie in (0, kappa/2) = (0, {ev.kappa / 2}), "
            f"got {c_test}")
    x = np.geomspace(1.0, 1e4, 200)
    return float(np.max(np.abs(ev.quad(x)) * x ** c_test))
