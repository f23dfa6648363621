"""Benchmark instances: a seeded random family and two small fixed tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

GENERATOR_ID = "essnn-uniform-v1"


def random_instance(order, dim, d=0, seed=0):
    """Seeded essentially nonnegative tensor, optionally scaled down.

    Off-diagonal entries are uniform in [0, 1], diagonal entries uniform in
    [-1, 0], and every entry is multiplied by 10**-d (skipped at d = 0,
    where it changes no bit).  Deterministic for a fixed seed (within this
    implementation; the draw order is the full uniform block first, then
    the diagonal).  The Tensor takes the drawn array, so building one peaks
    at one n^m array.
    """
    if order < 2 or dim < 1:
        raise ValueError("need order >= 2 and dim >= 1")
    if d < 0:
        raise ValueError("d must be nonnegative")
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(dim,) * order)
    data[(np.arange(dim),) * order] = rng.uniform(-1.0, 0.0, size=dim)
    if d:
        data *= 10.0 ** (-d)
    return Tensor._adopt(data)


def dense_demo():
    """Irreducible 3x3x3 tensor with negative diagonal and positive
    off-diagonal entries; its dominant eigenvalue is 36.2757 to four
    decimals."""
    data = np.zeros((3, 3, 3))
    data[:, :, 0] = [
        [-1.51, 8.35, 1.03],
        [4.04, 3.72, 1.45],
        [6.71, 6.43, 1.35],
    ]
    data[:, :, 1] = [
        [9.02, 0.78, 6.89],
        [9.71, -5.32, 1.85],
        [2.09, 4.17, 2.98],
    ]
    data[:, :, 2] = [
        [9.55, 1.57, 6.91],
        [5.63, 5.55, 1.43],
        [5.76, 8.29, -0.15],
    ]
    return Tensor._adopt(data)


def sparse_ring_demo():
    """Sparse irreducible 3x3x3 tensor whose first two indices feed off the
    third and vice versa; its dominant eigenpair is exactly
    (1, (1, 1, sqrt(2))/2)."""
    data = np.zeros((3, 3, 3))
    data[0, 2, 2] = 1.0
    data[1, 2, 2] = 1.0
    data[2, 0, 0] = 1.0
    data[2, 1, 1] = 1.0
    data[0, 0, 0] = -1.0
    data[1, 1, 1] = -1.0
    return Tensor._adopt(data)
