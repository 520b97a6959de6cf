"""Arithmetic over ``(N, n, q)`` stacks of shapes with numpy's loops over
shapes and landmarks.

numpy runs a reduction over the landmark axis of such a stack, or a
broadcast of an ``(N, 1, q)`` factor over it, with an inner loop over
just the q columns: 10-40 times the cost of a pass over the same data.
These functions do the same arithmetic, bit for bit, with the inner loop
over shapes or landmarks.
"""
from __future__ import annotations

import numpy as np


def landmark_sum(stack: np.ndarray) -> np.ndarray:
    """``stack.sum(axis=1)`` of an ``(N, n, q)`` stack with q >= 2, bit for
    bit: the ``(N, q)`` sums, each adding its landmarks in order as numpy
    does along an axis that is not its inner loop, taken from a
    landmark-major copy."""
    count, n, q = stack.shape
    rows = stack.transpose(1, 2, 0).copy().reshape(n, q * count)
    return np.add.reduce(rows, axis=0).reshape(q, count).T


def per_shape(ufunc, stack: np.ndarray, factors: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc(stack, factors[:, None])`` of an ``(N, n, q)`` stack and an
    ``(N, q)`` factor per shape, into ``out`` if given: one call per column,
    whose loop runs over landmarks."""
    if out is None:
        out = np.empty(stack.shape)
    for c in range(stack.shape[2]):
        ufunc(stack[:, :, c], factors[:, c, None], out=out[:, :, c])
    return out
