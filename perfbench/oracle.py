"""Independent checks of nega3 output, written with numpy alone.

Nothing here imports nega3.  A code spec (r1, r2, r3) is expanded into its
generator (I | M) by the textbook rule: row j of a negacirculant block is
the j-fold negashift of the first row.  Self-duality is G G^T = 0, and the
minimum weight and its count come from enumerating all 3^k codewords.
"""

from __future__ import annotations

import itertools

import numpy as np


def negacirculant(first_row) -> np.ndarray:
    row = np.asarray(first_row, dtype=np.int64) % 3
    rows = [row]
    for _ in range(len(row) - 1):
        prev = rows[-1]
        rows.append(np.concatenate([[(-prev[-1]) % 3], prev[:-1]]))
    return np.array(rows)


def generator(rows) -> np.ndarray:
    """(I | M) for the three first rows, each three blocks of width n."""
    n = len(rows[0]) // 3
    m = np.block([[negacirculant(r[t * n:(t + 1) * n]) for t in range(3)] for r in rows])
    return np.hstack([np.eye(3 * n, dtype=np.int64), m])


def is_self_dual(g: np.ndarray) -> bool:
    k, n = g.shape
    return 2 * k == n and not ((g @ g.T) % 3).any()


def _span(rows: np.ndarray) -> np.ndarray:
    coeffs = np.array(list(itertools.product(range(3), repeat=len(rows))), dtype=np.int64)
    return (coeffs @ rows) % 3


def min_weight_and_count(g: np.ndarray) -> tuple[int, int]:
    """Minimum nonzero weight and the number of words of that weight, by
    sweeping every sum of one half-span with the whole other half-span."""
    half = len(g) // 2
    a, b = _span(g[:half]), _span(g[half:])
    counts = np.zeros(g.shape[1] + 1, dtype=np.int64)
    for row in a:
        counts += np.bincount(np.count_nonzero((row + b) % 3, axis=1),
                              minlength=g.shape[1] + 1)
    d = int(np.flatnonzero(counts[1:])[0]) + 1
    return d, int(counts[d])
