"""Smooth weight kernels for the approximate functional equations.

Two kernels, both inverse Mellin transforms along a vertical line Re s > 0:

    W(x)  = (1/2pi i) int Gamma(a + s)/Gamma(a) e^{s^2} (2 pi x)^{-s} ds/s
    W2(x) = (1/2pi i) int [Gamma(a + s)/Gamma(a)]^2 (2 pi x)^{-s} ds/s

with a = 6, half the weight 12 of Delta.  W drives the first-power
equation, W2 the squared one.

Both are tails of positive random variables.  For Y ~ Gamma(a),
E[Y^s] = Gamma(a + s)/Gamma(a), and for V ~ N(0, 2), E[e^{sV}] = e^{s^2};
the 1/s makes each integral a tail probability.  So, with Y, Y1, Y2
independent Gamma(a) and U = log Y2,

    W(x)  = P(Y e^V > 2 pi x) = E[Q(a, 2 pi x e^{-V})]
    W2(x) = P(Y1 Y2 > 2 pi x) = E[Q(a, 2 pi x e^{-U})]

where Q(a, y) = P(Y > y) = e^{-y} sum_{j<a} y^j / j!, a finite sum because
a is an integer.  Both fall from 1 as x -> 0 and decay faster than any power:
W like exp(-log^2(2 pi x)/4), W2 like exp(-2 sqrt(2 pi x)).  This is the
incomplete-gamma form of the kernels (Rubinstein, "Computational methods
and experiments in analytic number theory").

Each expectation is a trapezoid rule over the density of V, proportional to
e^{-v^2/4}, or of U, proportional to e^{a u - e^u}, with the weights
normalised to sum 1.  The integrands are analytic in the strip
|Im| < pi/2 and decay like a Gaussian or a double exponential, so the rule
converges geometrically in the step (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule").  Every value is a convex
combination of numbers in [0, 1], so there is no cancellation and no
truncated contour to guard.

Production evaluation interpolates a 2048-sample log-spaced grid by cubic
Hermite in (log x, log W), on knot slopes x W'(x)/W(x) from the same
trapezoid pass as the samples, so no linear system is solved; direct
quadrature stays available for audits.  The interpolant spans every sample
above _FLOOR; past them the kernel evaluates to 0.  The knots are uniform in
log x, so a point's cell is index arithmetic, trunc((log x - t_0)/h),
corrected by at most one step each way against the knots themselves, with
no search.  Points are taken _EVAL_BLOCK at a time and each block is
written straight into the output array, so a call's working set is its
output plus one block of scratch.

The grids are a pure function of this module's constants, bit for bit, so
`evaluators(cache_dir)` keeps both in one kernel file per cache directory,
named by those constants and numpy's version.  A loaded file must match the
sha256 digest taken when it was written, and every _SPOT_STEP-th knot is
recomputed and must agree to the bit (a knot's trapezoid sum does not
depend on which other points share its chunk).  A file that matches its
digest and is wrong only at knots the spot check skips is not caught.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from . import _replacing

_GRID_SIZE = 2048
_GRID_LO = 1e-8
_GRID_HI = 1e6
_CHUNK = 64
# points per block of a spline evaluation; the scratch is sized by it
_EVAL_BLOCK = 4096
# the Gamma parameter a of both kernels: half of Delta's weight 12
_A = 6
# trapezoid nodes (first, last, step) in v for W and in u for W2, sized for
# a = 6.  The ends are sized against an exact oracle, not by halving the
# step, which cannot see them: the mass cut off is below 1e-22, while
# cutting the Gaussian nodes at -10 would drop 7.7e-13 of it, and the
# normalisation would spread that as a 5.9e-13 relative error over every
# x >= 3e-4.
_NODES = {"W": (-14.0, 26.0, 0.1), "W2": (-16.0, 8.0, 0.08)}
# quad drops node terms below e^{-708} times Q's polynomial, at most about
# e^{-680} (1e-295) each.  Samples above this floor agree to 1e-13 relative
# with the same rule summed exactly in log space, so the floor costs them
# nothing; below it W2's last samples are off by up to 4% relative from that
# sum, which the log-space spline cannot take.  Only W2 falls below it on
# the grid.  The rule itself drifts from W2's integral in the deep tail:
# against the closed form (tests' helpers.kernel_exact) it is off by 7.6e-11
# relative at x = 1,000 and 2.3e-5 at x = 2,963.  No sum reads values that
# small: every truncation threshold is above about 6.8e-22.
_FLOOR = 1e-280
# Part of the kernel file's key, beside the constants above and numpy's
# version: a file written under another layout is a miss.
_GRID_FORMAT = 1
# one knot in this many of a grid read from the cache is recomputed
_SPOT_STEP = 32


class _HermiteSpline:
    """Cubic Hermite interpolant through (x_i, y_i) with slopes s_i on
    uniform knots x_i = x_0 + i h, n >= 4.  Each interval holds the cubic
    that matches the values and slopes at both of its knots, in powers of
    (x - x_i), one row of four coefficients; no linear system couples the
    rows.  On a cell of width h its error is at most h^4/384 max|y^(4)|
    (de Boor, "A Practical Guide to Splines").

    A point's interval is i = trunc((x - x_0)/h), clamped to [1, n-3], then
    moved up one where x_{i+1} <= x and down one where x_i > x: the largest i
    in [0, n-2] with x_i <= x, as a binary search over the knots would find.
    The one-step correction needs every knot within h/4 of x_0 + i h, which
    the constructor checks.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, s: np.ndarray):
        n = len(x)
        h = (x[-1] - x[0]) / (n - 1)
        if np.any(np.abs(x - (x[0] + h * np.arange(n))) > h / 4):
            raise ValueError("spline knots must be uniform to within h/4")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        self._x0 = float(x[0])
        self._inv_h = 1 / h
        # row i: (a, b, c, e) of ((a d + b) d + c) d + e, d = x - x_i
        self._coef = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1],
                               y[:-1]], axis=1)

    def __call__(self, xv) -> np.ndarray:
        out = np.array(xv, dtype=float)
        scratch = self.scratch(len(out))
        for lo in range(0, len(out), _EVAL_BLOCK):
            self.eval_block(out[lo:lo + _EVAL_BLOCK], scratch)
        return out

    @staticmethod
    def scratch(n: int) -> tuple:
        """Work arrays for eval_block on blocks of up to min(n, _EVAL_BLOCK)
        points: cell index, step mask, knot or offset, coefficient rows."""
        m = min(n, _EVAL_BLOCK)
        return (np.empty(m, np.intp), np.empty(m, bool), np.empty(m),
                np.empty((m, 4)))

    def eval_block(self, buf: np.ndarray, scratch: tuple) -> None:
        """Replace the points in buf (one block) by the spline's values."""
        m = len(buf)
        i, step, knot, rows = (a[:m] for a in scratch)
        np.subtract(buf, self._x0, out=knot)
        knot *= self._inv_h
        np.clip(knot, 1, len(self._x) - 3, out=knot)
        np.copyto(i, knot, casting="unsafe")        # trunc, as knot >= 1
        # mode="clip" only spares numpy a buffered copy: i is in range
        np.take(self._x[1:], i, out=knot, mode="clip")
        np.less_equal(knot, buf, out=step)
        i += step
        np.take(self._x, i, out=knot, mode="clip")
        np.greater(knot, buf, out=step)
        i -= step
        np.take(self._x, i, out=knot, mode="clip")
        np.subtract(buf, knot, out=knot)            # d = x - x_i
        np.take(self._coef, i, axis=0, out=rows, mode="clip")
        np.multiply(rows[:, 0], knot, out=buf)
        buf += rows[:, 1]
        buf *= knot
        buf += rows[:, 2]
        buf *= knot
        buf += rows[:, 3]


class WeightEvaluator:
    """Immutable evaluator for one kernel; thread-safe after construction.

    Holds the trapezoid nodes of the kernel's expectation, as the factors
    e^{-v_j} (or e^{-u_j}) and the logs of their normalised weights, and the
    interpolation grid with its knot slopes.

    Args:
        kind: "W" (first-power kernel, with e^{s^2}) or "W2" (squared kernel).
        grid: the samples and knot slopes (grid_vals, grid_slopes) of an
            evaluator of this kind, in place of the trapezoid pass over every
            knot.  Every _SPOT_STEP-th knot is recomputed, and a value or
            slope that differs by a bit raises ValueError.
    """

    def __init__(self, kind: str, grid: tuple | None = None):
        if kind not in _NODES:
            raise ValueError(f"kind must be 'W' or 'W2', got {kind!r}")
        self.kind = kind
        first, last, step = _NODES[kind]
        t = np.linspace(first, last, round((last - first) / step) + 1)
        log_w = -t * t / 4 if kind == "W" else _A * t - np.exp(t)
        log_w -= log_w.max()
        self._log_weights = log_w - np.log(np.exp(log_w).sum())
        self._scale = np.exp(-t)
        # 1/i! for i = a-1 down to 0, for Horner's rule
        self._coef = [1 / math.factorial(i) for i in reversed(range(_A))]
        self._build_grid(grid)

    # ------------------------------------------------------------------ direct

    def quad(self, x) -> np.ndarray | float:
        """Direct quadrature at x (scalar or array): the weighted sum of
        Q(a, 2 pi x e^{-t_j}) over the nodes."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(xs > 0):
            raise ValueError("weight argument must be positive")
        out = self._quad_slope(xs)[0]
        return out if np.ndim(x) else float(out[0])

    def _quad_slope(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """W(x) and x W'(x) at the positive points xs, by one trapezoid pass.
        As dQ/dy = -e^{-y} y^{a-1}/(a-1)! and y_j = 2 pi x e^{-t_j} has
        x dy_j/dx = y_j, x W'(x) = -sum_j w_j y_j^a e^{-y_j} / (a-1)!.
        Points are taken _CHUNK at a time, so the working set stays bounded
        for any number of points."""
        out = np.empty(len(xs))
        slope = np.empty(len(xs))
        for lo in range(0, len(xs), _CHUNK):
            y = (2 * np.pi * xs[lo:lo + _CHUNK, None]) * self._scale
            # w_j Q(a, y) = e^{log w_j - y} sum_{i<a} y^i / i!, the sum by
            # Horner's rule.  An exponential below e^{-708} is taken as 0:
            # numpy's exp is up to 14 times slower where it underflows, and
            # the terms dropped are at most about 1e-295 each (see _FLOOR).
            # Every term with y past 708 is dropped, so clamping y at 1e3
            # changes no value and keeps the polynomial finite.
            np.minimum(y, 1e3, out=y)
            terms = np.full_like(y, self._coef[0])
            for c in self._coef[1:]:
                terms *= y
                terms += c
            arg = self._log_weights - y
            ew = np.exp(arg, out=np.zeros_like(arg), where=arg > -708)
            terms *= ew
            out[lo:lo + _CHUNK] = terms.sum(axis=1)
            for _ in range(_A):                 # w_j y^a e^{-y}
                ew *= y
            slope[lo:lo + _CHUNK] = ew.sum(axis=1)
        # weights that sum to 1 in exact arithmetic can lift a rounded sum
        # an ulp past 1, which a probability cannot take
        np.minimum(out, 1.0, out=out)
        slope *= -self._coef[0]                 # -1/(a-1)!
        return out, slope

    # ------------------------------------------------------------------- grid

    def _build_grid(self, grid: tuple | None):
        x = np.geomspace(_GRID_LO, _GRID_HI, _GRID_SIZE)
        if grid is None:
            v, xdv = self._quad_slope(x)
        else:
            v, xdv = grid
            spot = slice(None, None, _SPOT_STEP)
            for name, want, got in zip(("value", "slope"),
                                       self._quad_slope(x[spot]),
                                       (v[spot], xdv[spot])):
                if not np.array_equal(want, got):
                    raise ValueError(f"{self.kind} grid {name}s differ from "
                                     "the trapezoid pass at checked knots")
        below = np.flatnonzero(v <= _FLOOR)
        end = int(below[0]) if len(below) else len(v)
        self.grid_x = x
        self.grid_vals = v
        self.grid_slopes = xdv
        self._support_end = float(x[end - 1])
        self._left_val = float(v[0])
        # the knot slopes d log W / d log x = x W'(x) / W(x)
        self._spline = _HermiteSpline(np.log(x[:end]), np.log(v[:end]),
                                      xdv[:end] / v[:end])

    def __call__(self, x) -> np.ndarray | float:
        """Grid-interpolated value, clamped to the left-edge value below the
        grid and to 0 past the last sample above _FLOOR.

        Each block of _EVAL_BLOCK points is written into the output as log x,
        then replaced by the spline's value in place and exponentiated, so
        the call allocates its output and one block of scratch.  A block
        with points off [_GRID_LO, _support_end] is clamped onto it first and
        those points are overwritten afterwards.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(len(xs))
        scratch = self._spline.scratch(len(xs))
        for lo in range(0, len(xs), _EVAL_BLOCK):
            blk = xs[lo:lo + _EVAL_BLOCK]
            res = out[lo:lo + _EVAL_BLOCK]
            least, most = blk.min(), blk.max()
            if not least > 0:
                raise ValueError("weight argument must be positive")
            inside = least >= _GRID_LO and most <= self._support_end
            if inside:
                np.log(blk, out=res)
            else:
                np.log(np.clip(blk, _GRID_LO, self._support_end, out=res),
                       out=res)
            self._spline.eval_block(res, scratch)
            np.exp(res, out=res)
            if not inside:
                res[blk < _GRID_LO] = self._left_val
                res[blk > self._support_end] = 0.0
        return out if np.ndim(x) else float(out[0])

    def envelope_cutoff(self, eps: float) -> float:
        """Smallest grid x beyond which the running majorant of the values
        stays <= eps; conservative input to truncation-length choices."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        majorant = np.maximum.accumulate(self.grid_vals[::-1])[::-1]
        idx = np.nonzero(majorant <= eps)[0]
        if not len(idx):
            raise ValueError(f"majorant never reaches {eps:g} on the grid")
        return float(self.grid_x[idx[0]])


def _grid_path(cache_dir: str) -> str:
    key = hashlib.sha256(repr((
        _NODES, _GRID_LO, _GRID_HI, _GRID_SIZE, _A, _FLOOR, _GRID_FORMAT,
        np.__version__)).encode()).hexdigest()[:12]
    return os.path.join(cache_dir, f"kernel_grids_{key}.bin")


def evaluators(cache_dir: str | None = None) -> tuple[WeightEvaluator,
                                                      WeightEvaluator]:
    """The evaluators (W, W2).

    With cache_dir, their grids come from the kernel file there: its sha256
    digest, then W's samples and slopes and W2's, as little-endian float64.
    On a miss both grids are built and the file is written, atomically.

    Raises:
        ValueError: "corrupt cache file ..." for a file that fails its
            digest or the evaluator's spot check.
        OSError: the cache directory cannot be read, created or written.
    """
    if cache_dir is None:
        return WeightEvaluator("W"), WeightEvaluator("W2")
    path = _grid_path(cache_dir)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        pair = WeightEvaluator("W"), WeightEvaluator("W2")
        payload = np.stack([a for ev in pair
                            for a in (ev.grid_vals, ev.grid_slopes)]
                           ).astype("<f8").tobytes()
        os.makedirs(cache_dir, exist_ok=True)
        with _replacing(path) as fh:
            fh.write(hashlib.sha256(payload).digest() + payload)
        return pair
    digest, payload = data[:32], data[32:]
    try:
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("bytes do not match their digest")
        grids = np.frombuffer(payload, "<f8").reshape(2, 2, _GRID_SIZE)
        return WeightEvaluator("W", grids[0]), WeightEvaluator("W2", grids[1])
    except ValueError as exc:
        raise ValueError(f"corrupt cache file {path}: {exc}") from None
