"""Calibration job: a fixed piece of work that does not touch twistmoments.

    python3 perfbench/calibrate.py      # prints one checksum line

run.py starts one of these, as a fresh process, twice in every timed round.
Its wall time tracks how fast the shared host runs a process like the
CLI's at that moment: it loads the same third-party stack (numpy, scipy's
special functions and splines), then does a fixed mix of interpreter-bound
integer work, small dictionaries and lists, and short numpy array
operations in a Python loop, the kinds of steps the CLI's characters and
arithmetic layers take.  The work and its output never change, so a slower
calibration job means a slower host, not a slower program.
"""

from __future__ import annotations

import numpy as np

N_FACTOR = 25_000       # integers factorised by trial division
Q_ARRAYS = range(401, 561)  # moduli whose root-of-unity tables are built


def _factor_work() -> int:
    acc = 0
    for n in range(2, N_FACTOR):
        m, f, parts = n, 2, {}
        while f * f <= m:
            while m % f == 0:
                parts[f] = parts.get(f, 0) + 1
                m //= f
            f += 1
        if m > 1:
            parts[m] = parts.get(m, 0) + 1
        acc = (acc * 31 + len(parts) + sum(parts.values())) % 1_000_003
    return acc


def _array_work() -> int:
    acc = 0
    for q in Q_ARRAYS:
        e = np.exp(2j * np.pi * np.arange(q) / q)
        for a in range(1, 70):
            # orthogonality: q when a == 1, else 0 up to rounding
            acc += round(abs(np.vdot(e, e[(a * np.arange(q)) % q])))
    return acc


def main() -> None:
    # loaded for their cost only, as the CLI loads them
    import scipy.interpolate  # noqa: F401
    import scipy.special  # noqa: F401
    print(f"calibrate {_factor_work()} {_array_work()}")


if __name__ == "__main__":
    main()
