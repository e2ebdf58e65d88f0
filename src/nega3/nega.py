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
instead of multiplying out full matrices.  Entry j of the first row of a
block product A B^T is row 0 of A dotted with row j of B, so each identity
is read off as n packed dot products.

Vectors stay in the two bit planes of Gf3Vector throughout.  One blockwise
negashift, a few bit operations per plane, shifts every block of a row at
once; the block rows, the generator rows (e_i | block row i) and the ring
products are all built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import LengthMismatchError
from .gf3 import Code, Gf3Vector, _code_from_echelon, _mk


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
    already the reduced echelon basis, so no row reduction runs."""
    return _code_from_echelon(spec.length, _systematic_rows(spec.block_size, spec.rows))


# -- self-duality through the polynomial ring ------------------------------
#
# In F_3[x]/(x^n + 1) the negacirculant of first row b has transpose given by
# b*(x) = b(x^{-1}) with x^{-1} = -x^{n-1}.  (I | M) generates a self-dual
# code iff the 3 x 3 block Gram matrix of M equals -I, i.e. iff
#   sum_t r_{i,t} * r_{j,t}^*  =  2 * [i == j]   for 1 <= i <= j <= 3,
# each identity read in the polynomial ring.  The left side is the first row
# of the block product A B^T of the block rows of r_i and r_j, and entry j of
# that row is row 0 of A dotted with row j of B.


def row_pair_gram(block_size: int, a: Gf3Vector, b: Gf3Vector) -> list[int]:
    """The polynomial sum_t a_t * b_t^* for two first rows, reduced mod x^n + 1."""
    return [a.dot(v) for v in block_row_vectors(block_size, b)]


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
    (the leftmost) is the least significant digit.  Each bit plane, written
    in binary and read in base 3, is the numeral of its own digits.
    """
    return int(f"{v._lo:b}", 3) + 2 * int(f"{v._hi:b}", 3)


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
