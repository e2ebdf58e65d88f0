"""Exact arithmetic and linear algebra over GF(3).

Vectors are stored in two bit planes: plane one holds a set bit wherever the
entry is 1, plane two wherever it is 2.  Both planes live in arbitrary-size
Python integers, so addition, negation, Hamming weight and inner products are
word-parallel bitwise operations whatever the length.  The packing is an
implementation detail; code outside this package should stick to the
entry-level API.

All types here are immutable values: every operation returns a fresh object,
and instances hash by content, so they are safe to use as dict keys and to
ship between worker processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import LengthMismatchError

Gf3 = int  # field elements are plain ints 0, 1, 2


def _mk(n: int, lo: int, hi: int) -> "Gf3Vector":
    v = object.__new__(Gf3Vector)
    v._n = n
    v._lo = lo
    v._hi = hi
    return v


class Gf3Vector:
    """A fixed-length vector over GF(3), packed in two bit planes.

    Bit i of the low plane is set when entry i equals 1, bit i of the high
    plane when it equals 2.  Entry index 0 is the leftmost (first) position.
    """

    __slots__ = ("_n", "_lo", "_hi")

    def __init__(self, entries: Iterable[int]):
        lo = hi = 0
        n = 0
        for e in entries:
            e = e % 3
            if e == 1:
                lo |= 1 << n
            elif e == 2:
                hi |= 1 << n
            n += 1
        self._n = n
        self._lo = lo
        self._hi = hi

    @classmethod
    def zeros(cls, n: int) -> "Gf3Vector":
        return _mk(n, 0, 0)

    # -- element access ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Gf3:
        if not 0 <= i < self._n:
            raise IndexError(i)
        if (self._lo >> i) & 1:
            return 1
        if (self._hi >> i) & 1:
            return 2
        return 0

    def __iter__(self) -> Iterator[Gf3]:
        lo, hi = self._lo, self._hi
        for i in range(self._n):
            yield ((lo >> i) & 1) + 2 * ((hi >> i) & 1)

    def entries(self) -> list[Gf3]:
        return list(self)

    def is_zero(self) -> bool:
        return not (self._lo | self._hi)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Gf3Vector") -> "Gf3Vector":
        if self._n != other._n:
            raise LengthMismatchError(f"{self._n} != {other._n}")
        # bit-sliced GF(3) addition on the (lo, hi) encoding
        t = (self._lo | other._hi) ^ (self._hi | other._lo)
        lo = t ^ (self._hi | other._hi)
        hi = t ^ (self._lo | other._lo)
        return _mk(self._n, lo, hi)

    def __neg__(self) -> "Gf3Vector":
        return _mk(self._n, self._hi, self._lo)

    def __sub__(self, other: "Gf3Vector") -> "Gf3Vector":
        return self + (-other)

    def scale(self, c: Gf3) -> "Gf3Vector":
        c = c % 3
        if c == 0:
            return _mk(self._n, 0, 0)
        if c == 1:
            return self
        return _mk(self._n, self._hi, self._lo)

    def weight(self) -> int:
        return (self._lo | self._hi).bit_count()

    def dot(self, other: "Gf3Vector") -> Gf3:
        if self._n != other._n:
            raise LengthMismatchError(f"{self._n} != {other._n}")
        ones = (self._lo & other._lo) | (self._hi & other._hi)
        twos = (self._lo & other._hi) | (self._hi & other._lo)
        return (ones.bit_count() + 2 * twos.bit_count()) % 3

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf3Vector):
            return NotImplemented
        return self._n == other._n and self._lo == other._lo and self._hi == other._hi

    def __hash__(self) -> int:
        return hash((self._n, self._lo, self._hi))

    def __repr__(self) -> str:
        return f"Gf3Vector([{''.join(str(e) for e in self)}])"


def _entry_rows(rows: Sequence[Gf3Vector], n: int) -> np.ndarray:
    """The entries of length-n vectors as a (len(rows), n) int8 array over
    {0, 1, 2}, unpacked from their bit planes in one numpy pass."""
    size = (n + 7) // 8
    data = b"".join(p.to_bytes(size, "little") for r in rows for p in (r._lo, r._hi))
    planes = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), 2, size)
    bits = np.unpackbits(planes, axis=-1, count=n, bitorder="little")
    return (bits[:, 0] + 2 * bits[:, 1]).view(np.int8)


def _vectors(rows: np.ndarray) -> list[Gf3Vector]:
    """The rows of an integer array shaped (count, n) over {0, 1, 2} as
    vectors: their bit planes packed in one numpy pass, each read as 64-bit
    lanes and joined into one Python integer, most significant lane first."""
    n = rows.shape[-1]
    lanes = max(1, (n + 63) // 64)
    planes = np.zeros((len(rows), 2, 8 * lanes), dtype=np.uint8)
    planes[..., : (n + 7) // 8] = np.packbits(np.stack([rows == 1, rows == 2], axis=1), axis=-1,
                                              bitorder="little")
    words = planes.view("<u8").astype(object)  # (count, plane, lane)
    ints = words[..., -1]
    for lane in range(lanes - 2, -1, -1):
        ints = ints << 64 | words[..., lane]
    return [_mk(n, lo, hi) for lo, hi in ints.tolist()]


def _rref_rows(rows: Sequence[Gf3Vector]) -> tuple[list[Gf3Vector], list[int]]:
    """Row-reduce, scanning columns left to right.

    Returns the reduced rows (zero rows last) and the pivot columns in
    ascending order.  Pivot entries are normalized to 1 and pivot columns
    are cleared everywhere else, so the result is canonical for the row
    space.
    """
    work = list(rows)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(top, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[top], work[pivot_row] = work[pivot_row], work[top]
        if work[top][col] == 2:
            work[top] = -work[top]
        for i in range(len(work)):
            if i != top:
                c = work[i][col]
                if c:
                    work[i] = work[i] + work[top].scale(3 - c)
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work, pivots


class Code:
    """A linear code over GF(3), held as a reduced-echelon row basis.

    Construction reduces whatever spanning rows are supplied, so two Code
    objects compare equal exactly when they are the same subspace.
    """

    __slots__ = ("n", "k", "basis", "pivots", "_cache")

    def __init__(self, n: int, rows: Sequence[Gf3Vector]):
        for r in rows:
            if len(r) != n:
                raise LengthMismatchError(f"row of length {len(r)} in a length-{n} code")
        reduced, pivots = _rref_rows(rows)
        self.n = n
        self.k = len(pivots)
        self.basis = tuple(reduced[: self.k])
        self.pivots = tuple(pivots)
        self._cache: dict = {}

    def contains(self, v: Gf3Vector) -> bool:
        if len(v) != self.n:
            raise LengthMismatchError(f"{len(v)} != {self.n}")
        for p, row in zip(self.pivots, self.basis):
            c = v[p]
            if c:
                v = v + row.scale(3 - c)
        return v.is_zero()

    def dual(self) -> "Code":
        """The dual code under the standard inner product."""
        return Code(self.n, _dual_rows(self))

    def is_self_dual(self) -> bool:
        """Whether the code equals its dual: 2k = n and R R^T = 0 mod 3 for
        the basis R, one integer product; kept in the code's cache."""
        if "self_dual" not in self._cache:
            square = 2 * self.k == self.n
            if square:
                rows = _entry_rows(self.basis, self.n)
                square = not (np.matmul(rows, rows.T, dtype=np.int32) % 3).any()
            self._cache["self_dual"] = square
        return self._cache["self_dual"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.n, self.basis))

    def __repr__(self) -> str:
        return f"Code(n={self.n}, k={self.k})"


def _code_from_echelon(n: int, rows: Sequence[Gf3Vector]) -> Code:
    """Code(n, rows) for rows already in reduced echelon form with pivots
    0, ..., len(rows) - 1, such as the rows (e_i | block row i) of an
    (I | M) generator, without the row reduction."""
    code = object.__new__(Code)
    code.n = n
    code.k = len(rows)
    code.basis = tuple(rows)
    code.pivots = tuple(range(len(rows)))
    code._cache = {}
    return code


def _dual_rows(code: Code) -> list[Gf3Vector]:
    """A basis of the dual of code: for each non-pivot column f, ascending,
    the row with 1 at f and -basis[p][f] at each pivot column p.

    The non-pivot columns are an information set of the dual, and these
    rows are already its reduced echelon form with pivots scanned from the
    right: basis row p is zero left of p and on the other pivots, so row f
    is zero right of f and on the other non-pivot columns.  Read in
    reverse, the rows are in that scan's pivot order.
    """
    pivots = set(code.pivots)
    rows = []
    for f in range(code.n):
        if f in pivots:
            continue
        # -basis[p][f] is 2 where that entry is 1 (plane two) and 1 where it is 2
        lo, hi = 1 << f, 0
        for p, row in zip(code.pivots, code.basis):
            lo |= (row._hi >> f & 1) << p
            hi |= (row._lo >> f & 1) << p
        rows.append(_mk(code.n, lo, hi))
    return rows
