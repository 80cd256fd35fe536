"""Compensated reduction helpers for long alternating sums.

numpy's pairwise summation is already good inside a contiguous block; these
helpers add a Neumaier pass across block partials so accumulations stay
honest at 1e5..1e7 terms without giving up vectorized speed.  All reductions
use a fixed left-to-right block order, so results are bit-reproducible for a
given input ordering.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096


def neumaier(values) -> float:
    """Neumaier-compensated sum of a 1-d real sequence."""
    total = 0.0
    comp = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


# No package code calls block_sum; it stays because perfbench/trace_cli.py
# wraps it by name.
def block_sum(values: np.ndarray) -> float:
    """Sum a real array: pairwise inside blocks, Neumaier across them."""
    v = np.asarray(values)
    if v.size == 0:
        return 0.0
    edges = np.arange(0, v.size, _BLOCK)
    partials = np.add.reduceat(v, edges)
    return neumaier(partials)


# Reached in the package only from lvalues.central_value_sq, the
# per-character oracle that no package code calls.
def block_sum_complex(values: np.ndarray) -> complex:
    v = np.asarray(values)
    if v.size == 0:
        return 0.0 + 0.0j
    edges = np.arange(0, v.size, _BLOCK)
    partials = np.add.reduceat(v, edges)
    return complex(neumaier(partials.real), neumaier(partials.imag))
