"""Compensated reduction helpers for long alternating sums.

numpy's pairwise summation is already good inside a contiguous block; these
helpers sum the block partials with math.fsum, correctly rounded, so
accumulations stay honest at 1e5..1e7 terms without giving up vectorized
speed.  The blocks are fixed, so results are bit-reproducible for a given
input ordering.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 4096


# No package code calls block_sum; it stays because perfbench/trace_cli.py
# wraps it by name.
def block_sum(values: np.ndarray) -> float:
    """Sum a real array: pairwise inside blocks, math.fsum across them."""
    v = np.asarray(values)
    if v.size == 0:
        return 0.0
    edges = np.arange(0, v.size, _BLOCK)
    return math.fsum(np.add.reduceat(v, edges))


# Reached in the package only from lvalues.central_value_sq, the
# per-character oracle that no package code calls.
def block_sum_complex(values: np.ndarray) -> complex:
    v = np.asarray(values)
    if v.size == 0:
        return 0.0 + 0.0j
    edges = np.arange(0, v.size, _BLOCK)
    partials = np.add.reduceat(v, edges)
    return complex(math.fsum(partials.real), math.fsum(partials.imag))
