"""Negacirculant block constructions of ternary self-dual codes.

A candidate code of length 6n is described by three vectors r1, r2, r3 over
GF(3), each of length 3n.  Every vector splits into three width-n blocks;
each block expands to the n x n negacirculant matrix whose rows are repeated
right-shifts of the block with the wrapped entry negated.  The nine blocks
tile a 3n x 3n matrix M and the candidate generator matrix is (I | M).

Negacirculant n x n matrices form a commutative ring isomorphic to
F_3[x]/(x^n + 1): a matrix corresponds to the polynomial of its first row,
and transposition corresponds to the substitution x -> -x^(n-1).  Sums and
products of negacirculants are again negacirculant, so each block of the
Gram matrix of (I | M) is determined by its first row.  The self-duality
test below exploits that: it checks nine first-row polynomial identities
instead of multiplying out full matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import LengthMismatchError
from .gf3 import Code, Gf3Matrix, Gf3Vector, _mk


def negashift(v: Gf3Vector) -> Gf3Vector:
    """Shift right by one position; the wrapped entry is negated."""
    n = len(v)
    mask = (1 << n) - 1
    lo, hi = v._lo, v._hi
    # the bit falling off the top re-enters at position 0 with planes swapped
    return _mk(
        n,
        ((lo << 1) & mask) | (hi >> (n - 1)),
        ((hi << 1) & mask) | (lo >> (n - 1)),
    )


def nega_matrix(first_row: Gf3Vector) -> Gf3Matrix:
    """The negacirculant matrix generated by the given first row."""
    rows = [first_row]
    for _ in range(len(first_row) - 1):
        rows.append(negashift(rows[-1]))
    return Gf3Matrix(rows)


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

    def blocks(self, i: int) -> tuple[Gf3Vector, Gf3Vector, Gf3Vector]:
        """The three width-n blocks of row i (1-based)."""
        r = self.rows[i - 1]
        n = self.block_size
        return (r.block(0, n), r.block(1, n), r.block(2, n))

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

    Row j is the concatenation of the j-fold negashift of each block, i.e.
    row j of (A | B | C) where A, B, C are the negacirculant blocks of r.
    """
    blocks = [r.block(i, block_size) for i in range(3)]
    rows = []
    for _ in range(block_size):
        rows.append(blocks[0].concat(blocks[1]).concat(blocks[2]))
        blocks = [negashift(b) for b in blocks]
    return rows


def right_half_matrix(spec: CodeSpec) -> Gf3Matrix:
    """The 3n x 3n block matrix M tiled from the spec's nine negacirculants."""
    rows: list[Gf3Vector] = []
    for r in spec.rows:
        rows.extend(block_row_vectors(spec.block_size, r))
    return Gf3Matrix(rows)


def generator_matrix(spec: CodeSpec) -> Gf3Matrix:
    """The literal generator matrix (I | M)."""
    m = right_half_matrix(spec)
    return Gf3Matrix.identity(m.nrows).hstack(m)


def build_generator(spec: CodeSpec) -> Code:
    """The code spanned by (I | M); always of dimension 3n."""
    g = generator_matrix(spec)
    return Code(g.ncols, g.rows)


# -- self-duality through the polynomial ring ------------------------------
#
# In F_3[x]/(x^n + 1) the negacirculant of first row b has transpose given by
# b*(x) = b(x^{-1}) with x^{-1} = -x^{n-1}.  (I | M) generates a self-dual
# code iff the 3 x 3 block Gram matrix of M equals -I, i.e. iff
#   sum_t r_{i,t} * r_{j,t}^*  =  2 * [i == j]   for 1 <= i <= j <= 3,
# each identity read in the polynomial ring.


def _conj(p: list[int]) -> list[int]:
    n = len(p)
    return [p[0]] + [(-p[n - i]) % 3 for i in range(1, n)]


def _mul_nega(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    conv = [0] * (2 * n)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return [(conv[t] - conv[t + n]) % 3 for t in range(n)]


def row_pair_gram(block_size: int, a: Gf3Vector, b: Gf3Vector) -> list[int]:
    """The polynomial sum_t a_t * b_t^* for two first rows, reduced mod x^n + 1."""
    acc = [0] * block_size
    for t in range(3):
        prod = _mul_nega(
            a.block(t, block_size).entries(), _conj(b.block(t, block_size).entries())
        )
        acc = [(x + y) % 3 for x, y in zip(acc, prod)]
    return acc


def row_gram_is_two(block_size: int, r: Gf3Vector) -> bool:
    """Diagonal part of the self-duality identities for a single first row:
    its blockwise product with its own conjugate must be the constant 2."""
    got = row_pair_gram(block_size, r, r)
    return got[0] == 2 and not any(got[1:])


def self_dual_violations(spec: CodeSpec) -> list[tuple[int, int]]:
    """Block pairs (i, j), i <= j, whose Gram identity fails.

    Empty exactly when (I | M) generates a self-dual code.
    """
    n = spec.block_size
    bad = []
    for i in range(1, 4):
        for j in range(i, 4):
            got = row_pair_gram(n, spec.rows[i - 1], spec.rows[j - 1])
            want = [2] + [0] * (n - 1) if i == j else [0] * n
            if got != want:
                bad.append((i, j))
    return bad


def is_self_dual(spec: CodeSpec) -> bool:
    return not self_dual_violations(spec)


# -- f-values: the search order on rows ------------------------------------


def f_value(v: Gf3Vector) -> int:
    """The integer whose little-endian base-3 digits are the entries of v.

    This is a bijection between GF(3)^len and {0, ..., 3^len - 1}; entry 0
    (the leftmost) is the least significant digit.
    """
    f = 0
    for e in reversed(v.entries()):
        f = 3 * f + e
    return f


def vector_from_f(n: int, f: int) -> Gf3Vector:
    """Inverse of f_value for length n."""
    entries = []
    for _ in range(n):
        f, e = divmod(f, 3)
        entries.append(e)
    if f:
        raise ValueError("value out of range for this length")
    return Gf3Vector(entries)


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
    rows = list(spec.rows)
    if t.kind == "scale_rows":
        new = [r.scale(u) for r, u in zip(rows, t.units)]
    elif t.kind == "scale_columns":
        new = []
        for r in rows:
            parts = [r.block(j, n).scale(t.units[j]) for j in range(3)]
            new.append(parts[0].concat(parts[1]).concat(parts[2]))
    elif t.kind == "permute_rows":
        new = [rows[t.perm[i]] for i in range(3)]
    else:  # permute_columns
        new = []
        for r in rows:
            parts = [r.block(t.perm[j], n) for j in range(3)]
            new.append(parts[0].concat(parts[1]).concat(parts[2]))
    return CodeSpec(n, new[0], new[1], new[2])
