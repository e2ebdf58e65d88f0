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

Specs hold their rows in the two bit planes of Gf3Vector, where one
blockwise negashift builds the block rows and the generator rows
(e_i | block row i).  The ring arithmetic is stated once, on int8 entry
arrays batched over leading axes, for the identities here and the search,
and so are f order (_f_keys, _at_least) and the block moves that bring a
batch of sampled specs into the exhaustive walk's row form (_walk_form).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import LengthMismatchError
from .gf3 import Code, Gf3Vector, _code_from_echelon, _entry_rows, _mk
from .weights import _orbit_shape


def _negashift_blocks(v: Gf3Vector, b: int) -> Gf3Vector:
    """Negashift every width-b block of v at once; b must divide len(v)."""
    top = ((1 << v._n) - 1) // ((1 << b) - 1) << (b - 1)  # last bit of each block
    lo, hi = v._lo, v._hi
    # a block's last entry re-enters at its first position with planes swapped
    return _mk(v._n, ((lo & ~top) << 1) | ((hi & top) >> (b - 1)),
               ((hi & ~top) << 1) | ((lo & top) >> (b - 1)))


def negashift(v: Gf3Vector) -> Gf3Vector:
    """Shift right by one position; the wrapped entry is negated."""
    return _negashift_blocks(v, len(v))


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


def block_row_vectors(block_size: int, r: Gf3Vector) -> list[Gf3Vector]:
    """The n rows of the 1 x 3 block matrix expanded from r.

    Row j is the j-fold blockwise negashift of r, i.e. row j of (A | B | C)
    where A, B, C are the negacirculant blocks of r.
    """
    rows = [r]
    for _ in range(block_size - 1):
        rows.append(_negashift_blocks(rows[-1], block_size))
    return rows


def _systematic_rows(block_size: int, first_rows: Sequence[Gf3Vector]) -> list[Gf3Vector]:
    """The rows (e_i | block row i) of (I | M) for the block rows expanded
    from the given first rows, in order."""
    k = 3 * block_size
    rights = [v for r in first_rows for v in block_row_vectors(block_size, r)]
    return [_mk(2 * k, (1 << i) | (v._lo << k), v._hi << k) for i, v in enumerate(rights)]


def build_generator(spec: CodeSpec) -> Code:
    """The code spanned by (I | M); always of dimension 3n.  Its rows are
    already the reduced echelon basis, so no row reduction runs, and its
    cache records the orbit width of weights._orbit_shape: the simultaneous
    negashift of the six blocks is an automorphism of every such code."""
    code = _code_from_echelon(spec.length, _systematic_rows(spec.block_size, spec.rows))
    code._cache["orbit_width"] = _orbit_shape(spec.length, code.k)
    return code


# -- the ring R_n, on int8 entry arrays ---------------------------------------
#
# A first row of width 3n holds three elements of R_n = F_3[x]/(x^n + 1),
# one per width-n block, and its block row j is x^j times each.  The
# negacirculant of b has transpose b*(x) = b(x^{-1}), x^{-1} = -x^{n-1}, so
# the first row of the block product A B^T of the block rows of a and b is
# sum_t a_t * b_t^*, whose coefficient j is a dotted with block row j of b.
# (I | M) generates a self-dual code iff the block Gram matrix of M is -I:
#   sum_t r_{i,t} * r_{j,t}^*  =  2 * [i == j]   for 1 <= i <= j <= 3.


@functools.cache
def _negashift_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where block row j of a width-3n first row takes each entry from, and
    its sign: entry i of block row j is sign[j, i] * row[index[j, i]]."""
    pos = np.arange(3 * n) % n
    j = np.arange(n)[:, None]
    return np.arange(3 * n) - pos + (pos - j) % n, np.where(pos < j, -1, 1).astype(np.int8)


def _block_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The block rows of int8 first rows (..., 3n), as (..., n, 3n): those of
    block_row_vectors up to multiples of 3, which Gram sums need not reduce."""
    index, sign = _negashift_table(n)
    return rows[..., index] * sign


def _block_gram(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """sum_t a_t * b_t^* for int8 first rows a and b of shape (..., 3n),
    broadcast over the leading axes, as coefficients mod 3 of shape (..., n).

    Sums of 3n products up to 4 overflow int8 past n = 10, so they run in
    int16, or in float32 for a single row b, to use one BLAS product: both
    are exact below n = 2730."""
    rows = _block_rows(b, n)
    if b.ndim == 1:
        return np.matmul(a, rows.T, dtype=np.float32).astype(np.int16) % 3
    return np.matmul(rows, a[..., None], dtype=np.int16)[..., 0] % 3


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


def f_value(v: Gf3Vector) -> int:
    """The integer whose little-endian base-3 digits are the entries of v.

    This is a bijection between GF(3)^len and {0, ..., 3^len - 1}; entry 0
    (the leftmost) is the least significant digit.  Each bit plane, written
    in binary and read in base 3, is the numeral of its own digits.
    """
    return int(f"{v._lo:b}", 3) + 2 * int(f"{v._hi:b}", 3)


def _f_keys(vals: np.ndarray) -> np.ndarray:
    """The f-values of int8 rows (..., w) as int32 chunks (..., c) of at
    most 19 digits (3^19 < 2^31), least significant first like the digits:
    both compare at their highest differing position (_at_least,
    np.lexsort), exactly at every width."""
    c = -(-vals.shape[-1] // 19)
    size = -(-vals.shape[-1] // c)
    digits = np.pad(vals, [(0, 0)] * (vals.ndim - 1) + [(0, c * size - vals.shape[-1])])
    return digits.reshape(*vals.shape[:-1], c, size) @ 3 ** np.arange(size, dtype=np.int32)


def _at_least(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a) >= f(b) for rows of digits or of _f_keys chunks (..., c), least
    significant first, broadcast: decided at the highest position where
    they differ, which is exact at every width."""
    a, b = np.broadcast_arrays(a, b)
    top = a.shape[-1] - 1 - (a != b)[..., ::-1].argmax(-1)
    return np.take_along_axis(a - b, top[..., None], -1)[..., 0] >= 0


# -- weight-preserving block transforms --------------------------------------

TransformKind = Literal["scale_columns", "scale_rows", "permute_columns", "permute_rows"]


@dataclass(frozen=True)
class BlockTransform:
    """One generating transform of the block-equivalence group.

    Scaling transforms carry three units (1 or 2), one per block column or
    block row; permutations carry an image tuple on block indices 0..2.
    All four kinds send self-dual specs to self-dual specs and preserve the
    weight distribution of the generated code.
    """

    kind: TransformKind
    units: tuple[int, int, int] | None = None
    perm: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.kind in ("scale_columns", "scale_rows"):
            if self.units is None or any(u not in (1, 2) for u in self.units):
                raise ValueError("scaling needs three units from {1, 2}")
            if self.perm is not None:
                raise ValueError("scaling takes no permutation")
        else:
            if self.perm is None or sorted(self.perm) != [0, 1, 2]:
                raise ValueError("permutation must rearrange (0, 1, 2)")
            if self.units is not None:
                raise ValueError("permutation takes no units")


def apply_transform(spec: CodeSpec, t: BlockTransform) -> CodeSpec:
    n = spec.block_size
    rows = spec.rows
    if t.kind == "scale_rows":
        new = [r.scale(u) for r, u in zip(rows, t.units)]
    elif t.kind == "permute_rows":
        new = [rows[p] for p in t.perm]
    else:  # a column move acts on the blocks of every row alike
        if t.kind == "scale_columns":
            parts = [[r.block(j, n).scale(u) for j, u in enumerate(t.units)] for r in rows]
        else:
            parts = [[r.block(p, n) for p in t.perm] for r in rows]
        new = [a.concat(b).concat(c) for a, b, c in parts]
    return CodeSpec(n, *new)


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
