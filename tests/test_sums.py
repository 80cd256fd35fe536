"""Blocked reductions: pairwise inside each block, correctly rounded across."""

import math

import numpy as np
import pytest

from twistmoments import sums


def _spread(terms, offset):
    """One term per block, at the given offset inside it, zeros elsewhere,
    so the block partials are the terms themselves."""
    v = np.zeros(len(terms) * sums._BLOCK, dtype=np.asarray(terms).dtype)
    v[offset::sums._BLOCK] = terms
    return v


def _partials(v):
    return np.add.reduceat(v, np.arange(0, v.size, sums._BLOCK))


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("offset", [0, 1, sums._BLOCK - 1])
def test_block_sums_equal_fsum_of_their_partials(k, offset):
    # [1e16, 1, -1e16] * k, one term per block: the partials cancel across
    # blocks to k exactly, where a left-to-right float sum of them gives 0
    terms = [1e16, 1.0, -1e16] * k
    v = _spread(terms, offset)
    assert list(_partials(v)) == terms
    assert sum(_partials(v)) == 0.0
    assert sums.block_sum(v) == math.fsum(_partials(v)) == k
    c = _spread([complex(a, b) for a, b in zip(terms, terms[::-1])], offset)
    p = _partials(c)
    assert sums.block_sum_complex(c) == complex(
        math.fsum(p.real), math.fsum(p.imag)) == complex(k, k)


def test_block_sums_of_nothing():
    assert sums.block_sum(np.array([])) == 0.0
    assert sums.block_sum_complex(np.array([], dtype=complex)) == 0j
