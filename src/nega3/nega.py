"""Negacirculant block constructions of ternary self-dual codes.

A candidate code of length 6n is described by three vectors r1, r2, r3 over
GF(3), each of length 3n.  Every vector splits into three width-n blocks;
each block expands to the n x n negacirculant matrix whose rows are repeated
right-shifts of the block with the wrapped entry negated.  The nine blocks
tile a 3n x 3n matrix M and the candidate generator matrix is (I | M).

Negacirculant n x n matrices form a commutative ring isomorphic to
R_n = F_3[x]/(x^n + 1): a matrix corresponds to the polynomial of its first
row, and transposition corresponds to the substitution x -> -x^(n-1).  Sums
and products of negacirculants are again negacirculant, so each block of
the Gram matrix of (I | M) is determined by its first row.  The
self-duality test below exploits that: it checks nine first-row polynomial
identities instead of multiplying out full matrices.

Specs hold their rows as Gf3Vector, the hashable value that findings, the
registry and vector files read, whose digits f_value reads as a numeral.  The
ring arithmetic is stated once, on int8 entry arrays batched over leading
axes: the block rows (_block_rows), and from them the generator (I | M),
whose int8 rows the Code keeps as its reduced basis, the identities here
and the search's.  So are f order (_f_keys, _at_least) and the block
moves that bring a batch of sampled specs into the exhaustive walk's row
form (_walk_form).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError
from .gf3 import Code, Gf3Vector, _code, _entry_rows, _vectors
from .weights import _orbit_shape


@dataclass(frozen=True)
class CodeSpec:
    """Defining data of one candidate code: block size n and the three
    first-row vectors (each of length 3n)."""

    block_size: int
    r1: Gf3Vector
    r2: Gf3Vector
    r3: Gf3Vector

    def __post_init__(self):
        w = 3 * self.block_size
        for r in (self.r1, self.r2, self.r3):
            if len(r) != w:
                raise LengthMismatchError(
                    f"row of length {len(r)}; block size {self.block_size} needs {w}")

    @property
    def length(self) -> int:
        return 6 * self.block_size

    @property
    def rows(self) -> tuple[Gf3Vector, Gf3Vector, Gf3Vector]:
        return (self.r1, self.r2, self.r3)

    @classmethod
    def from_entry_rows(cls, rows: Sequence[Sequence[int]]) -> "CodeSpec":
        if len(rows) != 3:
            raise ValueError(f"expected 3 rows, got {len(rows)}")
        vecs = [Gf3Vector(r) for r in rows]
        if len(vecs[0]) % 3:
            raise LengthMismatchError(f"row length {len(vecs[0])} is not a multiple of 3")
        return cls(len(vecs[0]) // 3, vecs[0], vecs[1], vecs[2])


def _specs(rows: np.ndarray) -> list[CodeSpec]:
    """The specs of int8 first rows (specs, 3, 3n), their vectors cut from
    the rows' bytes (gf3._vectors).  The batch's shape is checked once, so
    each spec is made through CodeSpec.__new__ without the row-length loop
    of __post_init__."""
    _, three, width = rows.shape
    if three != 3 or width % 3:
        raise LengthMismatchError(f"first rows shaped {rows.shape}, not (specs, 3, 3n)")
    vectors = iter(_vectors(rows.reshape(-1, width)))
    specs = []
    for r1, r2, r3 in zip(vectors, vectors, vectors):
        spec = CodeSpec.__new__(CodeSpec)
        for name, value in (("block_size", width // 3), ("r1", r1), ("r2", r2), ("r3", r3)):
            object.__setattr__(spec, name, value)  # in __init__'s order: shared dict keys
        specs.append(spec)
    return specs


# -- the ring R_n, on int8 entry arrays ---------------------------------------
#
# A first row of width 3n holds three elements of R_n = F_3[x]/(x^n + 1),
# one per width-n block, and its block row j is x^j times each.  The
# negacirculant of b has transpose b*(x) = b(x^{-1}), x^{-1} = -x^{n-1}, so
# the first row of the block product A B^T of the block rows of a and b is
# sum_t a_t * b_t^*, whose coefficient j is a dotted with block row j of b.
# (I | M) generates a self-dual code iff the block Gram matrix of M is -I:
#   sum_t r_{i,t} * r_{j,t}^*  =  2 * [i == j]   for 1 <= i <= j <= 3.
# Two such rows fix the third up to a ring multiple.  The blockwise cross
# product a x b has sum_t a_t (a x b)_t = 0, and the Binet-Cauchy identity
# gives it the norm <a, a><b, b> - <a, b><b, a> = 2 * 2 - 0 = 1 (mod 3),
# so g = conj(r1 x r2), conjugated block by block, completes r1, r2 to an
# orthogonal basis of R_n^3 with unit norms, and the rows orthogonal to r1
# and r2 are exactly the u * g, of norm u u^*.  So the third rows are the
# u * g for u in V_n = {u in R_n : u u^* = 2 = -1}, none at odd n.


@functools.cache
def _negashift_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where block row j of a width-3n first row takes each entry from, and
    its sign: entry i of block row j is sign[j, i] * row[index[j, i]]."""
    pos = np.arange(3 * n) % n
    j = np.arange(n)[:, None]
    return np.arange(3 * n) - pos + (pos - j) % n, np.where(pos < j, -1, 1).astype(np.int8)


def _block_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The block rows of int8 first rows (..., 3n), as (..., n, 3n): row j
    is the j-fold blockwise negashift, its entries up to multiples of 3,
    which Gram sums need not reduce."""
    index, sign = _negashift_table(n)
    return rows[..., index] * sign


def block_row_vectors(block_size: int, r: Gf3Vector) -> list[Gf3Vector]:
    """The n rows of the 1 x 3 block matrix (A | B | C) of the negacirculant
    blocks of r: row j is the j-fold blockwise negashift of r."""
    return _vectors(_block_rows(_entry_rows([r], len(r))[0], block_size) % 3)


def build_generator(spec: CodeSpec) -> Code:
    """The code spanned by (I | M); always of dimension 3n.  Its rows
    (e_i | block row i) are already the reduced echelon basis, so no row
    reduction runs, and its cache records the orbit width of
    weights._orbit_shape: the simultaneous negashift of the six blocks is
    an automorphism of every such code."""
    k = 3 * spec.block_size
    m = _block_rows(_entry_rows(spec.rows, k), spec.block_size).reshape(k, k) % 3
    code = _code(np.concatenate((np.eye(k, dtype=np.int8), m), axis=1), range(k))
    code._cache["orbit_width"] = _orbit_shape(spec.length, code.k)
    return code


def _block_gram(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """sum_t a_t * b_t^* for int8 first rows a and b of shape (..., 3n),
    broadcast over the leading axes, as coefficients mod 3 of shape (..., n).

    Sums of 3n products up to 4 overflow int8 past n = 10, so they run in
    int16, exact below n = 2730."""
    return np.matmul(_block_rows(b, n), a[..., None], dtype=np.int16)[..., 0] % 3


def _block_conj(rows: np.ndarray, n: int) -> np.ndarray:
    """b^*(x) = b(x^-1) for each width-n block b of int8 first rows (...,
    3n): coefficient j of b^* is b_0 at j = 0 and -b_(n-j) past it, mod 3."""
    j = np.arange(n)
    sign = np.where(j > 0, -1, 1).astype(np.int8)
    return (rows.reshape(*rows.shape[:-1], 3, n)[..., -j % n] * sign).reshape(rows.shape) % 3


def _block_cross(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The cross product a x b over R_n of int8 first rows of shape (...,
    3n), broadcast over the leading axes, mod 3: block t is a_(t+1)
    b_(t+2) - a_(t+2) b_(t+1), block indices mod 3.  The product a_s b_t is
    a_s dotted with block t of b's block rows."""
    blocks = _block_rows(b, n).reshape(*b.shape[:-1], n, 3, n).swapaxes(-3, -2)
    a = a.reshape(*a.shape[:-1], 3, 1, 1, n)
    prod = np.matmul(a, blocks[..., None, :, :, :], dtype=np.int16)[..., 0, :]  # (..., s, t, n)
    s, t = [1, 2, 0], [2, 0, 1]
    cross = prod[..., s, t, :] - prod[..., t, s, :]
    return (cross.reshape(*cross.shape[:-2], 3 * n) % 3).astype(np.int8)


@functools.cache
def _norm_two_elements(n: int) -> np.ndarray:
    """V_n = {u in R_n : u u^* = 2 = -1} as read-only int8 rows (|V_n|, n)
    in ascending f order: 4, 8, 36, 80 and 320 elements at n = 2, 4, 6, 8
    and 10, none at odd n.  Brute force over the 3^n elements, 4096 at a
    time, each as the first row (u, 0, 0) of _block_gram."""
    out = []
    for start in range(0, 3**n, 4096):
        f = np.arange(start, min(start + 4096, 3**n))
        u = (f[:, None] // 3 ** np.arange(n) % 3).astype(np.int8)
        row = np.pad(u, ((0, 0), (0, 2 * n)))
        gram = _block_gram(row, row, n)
        out.append(u[(gram[:, 0] == 2) & ~gram[:, 1:].any(axis=1)])
    table = np.concatenate(out)
    table.flags.writeable = False
    return table


def row_gram_is_two(block_size: int, r: Gf3Vector) -> bool:
    """Diagonal part of the self-duality identities for a single first row:
    its blockwise product with its own conjugate must be the constant 2."""
    row = _entry_rows([r], len(r))[0]
    got = _block_gram(row, row, block_size)
    return bool(got[0] == 2) and not got[1:].any()


def self_dual_violations(spec: CodeSpec) -> list[tuple[int, int]]:
    """Block pairs (i, j), i <= j in row-major order, whose identity fails.

    Empty exactly when (I | M) generates a self-dual code.
    """
    rows = _entry_rows(spec.rows, 3 * spec.block_size)
    gram = _block_gram(rows[:, None], rows, spec.block_size)  # (i, j): r_i with r_j
    gram[..., 0] -= 2 * np.eye(3, dtype=gram.dtype)  # nonzero where an identity fails
    return [(i + 1, j + 1) for i in range(3) for j in range(i, 3) if gram[i, j].any()]


def is_self_dual(spec: CodeSpec) -> bool:
    return not self_dual_violations(spec)


# -- f-values: the search order on rows ------------------------------------

_NUMERAL = bytes.maketrans(b"\0\1\2", b"012")


def f_value(v: Gf3Vector) -> int:
    """The integer whose little-endian base-3 digits are the entries of v.

    This is a bijection between GF(3)^len and {0, ..., 3^len - 1}; entry 0
    (the leftmost) is the least significant digit.  The digits, reversed
    and spelled as characters, are its base-3 numeral.
    """
    return int(v._digits[::-1].translate(_NUMERAL) or b"0", 3)


def _f_keys(vals: np.ndarray) -> np.ndarray:
    """The f-values of int8 rows (..., w) as int32 chunks (..., c) of at
    most 19 digits (3^19 < 2^31), least significant first like the digits:
    both compare at their highest differing position (_at_least,
    np.lexsort), exactly at every width."""
    c = -(-vals.shape[-1] // 19)
    size = -(-vals.shape[-1] // c)
    digits = np.zeros((*vals.shape[:-1], c * size), vals.dtype)
    digits[..., : vals.shape[-1]] = vals
    return digits.reshape(*vals.shape[:-1], c, size) @ 3 ** np.arange(size, dtype=np.int32)


def _at_least(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a) >= f(b) for rows of digits or of _f_keys chunks (..., c), least
    significant first, broadcast: decided at the highest position where
    they differ, which is exact at every width."""
    a, b = np.broadcast_arrays(a, b)
    top = a.shape[-1] - 1 - (a != b)[..., ::-1].argmax(-1)
    return np.take_along_axis(a - b, top[..., None], -1)[..., 0] >= 0


def _walk_form(rows: np.ndarray) -> np.ndarray:
    """Int8 first rows (trials, 3, 3n) with no zero row, as self-dual draws
    have, each moved into the exhaustive walk's row form, the least such in
    (f(r1), f(r2), f(r3)), or left as drawn where no block move reaches it.
    The form: r1's blocks each zero or leading with 1, in non-increasing f
    order; r2 and r3 leading with 1; f(r3) < f(r2) <= f(r1).

    A move scales and permutes the block columns, then permutes and scales
    the rows.  Under each of the 48 column moves the rows are scaled to
    lead with 1 and sorted by falling f, as r1 must be the greatest, and
    the move's one candidate passes when r1's blocks do and f(r2) > f(r3).
    A row's _f_keys are those of its blocks times 1 or 2, block 0 the least
    significant; np.lexsort of the candidates' keys takes the least."""
    count, _, width = rows.shape
    n = width // 3
    moves = [(u, p) for u in itertools.product((1, 2), repeat=3)
             for p in itertools.permutations(range(3))]
    perm = np.array([p for _, p in moves])  # block q of a moved row is block perm[k, q]
    unit = np.array([[u[j] for j in p] for u, p in moves], np.int8)  # times unit[k, q]
    blocks = rows.reshape(count, 3, 3, n)
    keys = _f_keys(np.stack((blocks, 2 * blocks % 3), axis=3))  # (trials, row, block, unit-1, c)
    first = np.take_along_axis(blocks, (blocks != 0).argmax(-1)[..., None], -1)[..., 0]
    leads = first[:, :, perm].swapaxes(1, 2) * unit[:, None] % 3  # (trials, move, row, q)
    lead = np.take_along_axis(leads, (leads != 0).argmax(-1)[..., None], -1)
    scale = lead * unit[:, None] % 3  # each block's unit in its row scaled to lead with 1
    t, k = np.ogrid[:count, :len(moves)]
    tops = keys[t[..., None, None], np.arange(3)[:, None], perm[:, None], scale - 1]
    key = tops.reshape(count, len(moves), 3, 3 * keys.shape[-1])  # block 0's chunks first
    order = np.lexsort(np.moveaxis(key, -1, 0))[..., ::-1]  # falling f
    key, top = key[t[..., None], k[..., None], order], tops[t, k, order[..., 0]]  # r1's blocks
    ok = (((leads * lead % 3)[t, k, order[..., 0]] != 2).all(-1)
          & (key[:, :, 1] != key[:, :, 2]).any(-1)
          & _at_least(top[:, :, 0], top[:, :, 1]) & _at_least(top[:, :, 1], top[:, :, 2]))
    cands = np.moveaxis(key[:, :, ::-1].reshape(count, len(moves), 3 * key.shape[-1]), -1, 0)
    best = np.lexsort(np.concatenate((cands, ~ok[None])))[:, 0]  # the least that passes
    t, r = t[:, 0], order[t[:, 0], best]
    form = (blocks[t[:, None, None], r[..., None], perm[best, None]]
            * scale[t[:, None], best[:, None], r, :, None] % 3)
    return np.where(ok[t, best, None, None], form.reshape(count, 3, width), rows)
