"""Exact linear algebra over GF(3), on int8 rows.

A Code keeps its reduced basis, from one column loop (_echelon), as an
int8 (k, n) array over {0, 1, 2}; membership, the dual basis and the
self-duality product are a few array operations on it.

Gf3Vector is the packed, hashable value that specs, findings and the
registry hold: one bit plane set where an entry is 1 and one where it is
2, each an arbitrary-size Python integer, so weight is one popcount.  One
packer (_planes) turns int8 rows into such planes as 64-bit lanes, for
vectors (_vectors) and for the weight kernel; _entry_rows reads vectors
back as rows.  Code outside this package should stick to the entry-level
API.  All types here are immutable values that hash by content, safe as
dict keys and to ship between worker processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import LengthMismatchError

Gf3 = int  # field elements are plain ints 0, 1, 2


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

    def weight(self) -> int:
        return (self._lo | self._hi).bit_count()

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


def _planes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two bit planes of integer rows (..., n) over {0, 1, 2}, each as
    64-bit lanes (..., lanes), at least one, least significant lane first:
    bit i of lane t of the first plane is set where entry 64 t + i is 1,
    of the second where it is 2."""
    n = rows.shape[-1]
    out = np.zeros((2, *rows.shape[:-1], 8 * max(1, -(-n // 64))), dtype=np.uint8)
    for plane, value in zip(out, (1, 2)):
        plane[..., : -(-n // 8)] = np.packbits(rows == value, axis=-1, bitorder="little")
    lo, hi = out.view("<u8")
    return lo, hi


def _vectors(rows: np.ndarray) -> list[Gf3Vector]:
    """The rows of an integer array shaped (count, n) over {0, 1, 2} as
    vectors: their planes packed in one pass (_planes), each plane's lanes
    joined into one Python integer, most significant lane first."""
    words = np.stack(_planes(rows), axis=1).astype(object)  # (count, plane, lane)
    ints = words[..., -1]
    for lane in range(words.shape[-1] - 2, -1, -1):
        ints = ints << 64 | words[..., lane]
    vectors = []
    for lo, hi in ints.tolist():
        v = object.__new__(Gf3Vector)
        v._n, v._lo, v._hi = rows.shape[-1], lo, hi
        vectors.append(v)
    return vectors


def _echelon(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The reduced echelon form of integer rows (count, n), columns scanned
    left to right: its nonzero rows as int8 (k, n) over {0, 1, 2}, each
    pivot entry 1 and each pivot column clear in the other rows, and the k
    pivot columns ascending.  It is canonical for the row space, so any
    row with a nonzero entry in the column may serve as the pivot row."""
    work = (rows % 3).astype(np.int8)
    pivots: list[int] = []
    for col in range(work.shape[1]):
        top = len(pivots)
        if top == len(work):
            break
        r = top + int(work[top:, col].argmax())
        c = int(work[r, col])
        if not c:
            continue
        row = work[r] * c % 3  # c c = 1 for c = 1, 2
        work[r] = work[top]
        work -= np.multiply.outer(work[:, col], row)
        work %= 3
        work[top] = row
        pivots.append(col)
    return work[: len(pivots)], pivots


class Code:
    """A linear code over GF(3), held as a reduced-echelon row basis.

    Construction reduces whatever spanning rows are supplied (_echelon), so
    two Code objects compare equal exactly when they are the same subspace.
    basis holds the reduced rows as vectors and _rows the same rows as an
    int8 (k, n) array, which every computation on the code reads.
    """

    __slots__ = ("n", "k", "basis", "pivots", "_rows", "_cache")

    def __init__(self, n: int, rows: Sequence[Gf3Vector]):
        for r in rows:
            if len(r) != n:
                raise LengthMismatchError(f"row of length {len(r)} in a length-{n} code")
        self._set(*_echelon(_entry_rows(rows, n)))

    def _set(self, rows: np.ndarray, pivots: Iterable[int]) -> None:
        self.n = rows.shape[1]
        self._rows = rows
        self.basis = tuple(_vectors(rows))
        self.pivots = tuple(pivots)
        self.k = len(self.pivots)
        self._cache: dict = {}

    def contains(self, v: Gf3Vector) -> bool:
        """Whether v is a codeword: v equals the sum of the basis rows, each
        times v's entry at its pivot."""
        if len(v) != self.n:
            raise LengthMismatchError(f"{len(v)} != {self.n}")
        x = _entry_rows([v], self.n)[0]
        span = np.matmul(x[list(self.pivots)], self._rows, dtype=np.int32)
        return not ((x - span) % 3).any()

    def dual(self) -> "Code":
        """The dual code under the standard inner product."""
        return _code(_dual_rows(self._rows, self.pivots))

    def is_self_dual(self) -> bool:
        """Whether the code equals its dual: 2k = n and R R^T = 0 mod 3 for
        the basis R, one integer product; kept in the code's cache."""
        if "self_dual" not in self._cache:
            square = 2 * self.k == self.n
            if square:
                rows = self._rows
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


def _code(rows: np.ndarray, pivots: Iterable[int] | None = None) -> Code:
    """The Code spanned by integer rows (count, n), row-reduced (_echelon);
    with pivots given, the Code whose reduced basis the rows, over {0, 1,
    2}, already are, such as the rows (e_i | block row i) of an (I | M)
    generator with pivots 0, ..., k - 1, without the row reduction."""
    code = object.__new__(Code)
    code._set(*(_echelon(rows) if pivots is None else (rows, pivots)))
    return code


def _dual_rows(rows: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
    """A basis of the dual of the span of reduced echelon rows (k, n) with
    these pivots, as int8 rows (n - k, n): for each non-pivot column f,
    ascending, the row with 1 at f and -rows[i][f] at each pivot column
    pivots[i].

    The non-pivot columns are an information set of the dual, and these
    rows are already its reduced echelon form with pivots scanned from the
    right: basis row i is zero left of pivots[i] and on the other pivots,
    so row f is zero right of f and on the other non-pivot columns.  Read
    in reverse, the rows are in that scan's pivot order.
    """
    on = np.zeros(rows.shape[1], dtype=bool)
    on[list(pivots)] = True
    free = np.flatnonzero(~on)
    out = np.zeros((len(free), rows.shape[1]), dtype=np.int8)
    out[np.arange(len(free)), free] = 1
    out[:, on] = -rows[:, free].T % 3
    return out
