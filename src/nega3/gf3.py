"""Exact linear algebra over GF(3), on int8 rows.

A Code keeps its reduced basis, from one column loop (_echelon), as an
int8 (k, n) array over {0, 1, 2}; membership, the dual basis, the
self-duality product, == and hash read that one copy.

Gf3Vector is the hashable value that specs, findings and the registry
hold: its entries as one immutable bytes of digits 0, 1, 2, which are
also the bytes of its int8 row.  So _entry_rows reads vectors as rows in
one np.frombuffer, and _vectors cuts rows' bytes into vectors.  Code
outside this package should stick to the entry-level API.  All types here
are immutable values that hash by content, safe as dict keys and to ship
between worker processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import LengthMismatchError

Gf3 = int  # field elements are plain ints 0, 1, 2


class Gf3Vector:
    """A fixed-length vector over GF(3), its entries reduced mod 3 and held
    as one bytes of digits, entry 0 (the leftmost) first."""

    __slots__ = ("_digits",)

    def __init__(self, entries: Iterable[int]):
        self._digits = bytes([e % 3 for e in entries])

    # -- element access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._digits)

    def __getitem__(self, i: int) -> Gf3:
        if i < 0:
            raise IndexError(i)
        return self._digits[i]

    def __iter__(self) -> Iterator[Gf3]:
        return iter(self._digits)

    def entries(self) -> list[Gf3]:
        return list(self._digits)

    def weight(self) -> int:
        return len(self._digits) - self._digits.count(0)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf3Vector):
            return NotImplemented
        return self._digits == other._digits

    def __hash__(self) -> int:
        return hash(self._digits)

    def __repr__(self) -> str:
        return f"Gf3Vector([{''.join(map(str, self._digits))}])"


def _entry_rows(rows: Sequence[Gf3Vector], n: int) -> np.ndarray:
    """The entries of length-n vectors as a read-only (len(rows), n) int8
    array over {0, 1, 2}: their digits joined, read in place."""
    return np.frombuffer(b"".join(r._digits for r in rows), np.int8).reshape(len(rows), n)


def _vectors(rows: np.ndarray) -> list[Gf3Vector]:
    """The rows of an integer array shaped (count, n) over {0, 1, 2} as
    vectors, cut from the bytes of the rows as int8."""
    n = rows.shape[-1]
    data = rows.astype(np.int8, copy=False).tobytes()
    vectors = []
    for i in range(len(rows)):
        v = object.__new__(Gf3Vector)
        v._digits = data[i * n : i * n + n]
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
    _rows holds the reduced rows as a contiguous int8 (k, n) array, the one
    copy that every computation, == and hash read; basis gives them as
    vectors.
    """

    __slots__ = ("n", "k", "pivots", "_rows", "_cache")

    def __init__(self, n: int, rows: Sequence[Gf3Vector]):
        for r in rows:
            if len(r) != n:
                raise LengthMismatchError(f"row of length {len(r)} in a length-{n} code")
        self._set(*_echelon(_entry_rows(rows, n)))

    def _set(self, rows: np.ndarray, pivots: Iterable[int]) -> None:
        self.n = rows.shape[1]
        self._rows = np.ascontiguousarray(rows, dtype=np.int8)
        self.pivots = tuple(pivots)
        self.k = len(self.pivots)
        self._cache: dict = {}

    @property
    def basis(self) -> tuple[Gf3Vector, ...]:
        """The reduced basis rows as vectors, built from _rows on each call."""
        return tuple(_vectors(self._rows))

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
        return self.n == other.n and self._rows.tobytes() == other._rows.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self._rows.tobytes()))

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
