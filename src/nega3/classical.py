"""Classical ternary self-dual codes used as cross-check benchmarks.

Two families are provided: Pless symmetry codes built from Legendre symbols
over F_q (q an odd prime, q = 2 mod 3), and the extended length-48
quadratic residue code, spanned by the cyclic shifts of the indicator of
the non-residues mod 47 plus an overall parity coordinate.  Both
constructions verify their own self-duality and raise if it fails, so a
silent convention slip cannot produce a wrong benchmark.

Fingerprints condense a code to its comparison-relevant statistics
(parameters, minimum weight, word counts at the bottom of the distribution)
without attempting a full equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .gf3 import Code, Gf3Vector
from .weights import count_weight, min_weight


def _legendre(a: int, q: int) -> int:
    """Legendre symbol of a modulo the odd prime q: 0, 1 or -1."""
    a %= q
    if a == 0:
        return 0
    s = pow(a, (q - 1) // 2, q)
    return 1 if s == 1 else -1


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def pless_symmetry(q: int) -> Code:
    """The [2q + 2, q + 1] Pless symmetry code over GF(3).

    Rows and columns of the non-identity half are indexed by infinity and
    the elements of F_q; the infinity row is (0, 1, ..., 1), each finite row
    a starts with 1 and continues with the Legendre symbols chi(b - a).
    Requires q to be an odd prime congruent to 2 mod 3.
    """
    if not _is_prime(q) or q % 3 != 2 or q == 2:
        raise ValueError(f"q = {q}: need an odd prime congruent to 2 mod 3")
    size = q + 1
    entries = [[0] + [1] * q]
    for a in range(q):
        row = [1]
        for b in range(q):
            row.append(_legendre(b - a, q) % 3)
        entries.append(row)
    rows = [Gf3Vector([int(j == i) for j in range(size)] + row) for i, row in enumerate(entries)]
    code = Code(2 * size, rows)
    if not code.is_self_dual():
        raise InternalInconsistencyError(f"symmetry construction for q={q} is not self-dual")
    return code


def extended_qr48() -> Code:
    """The extended quadratic residue code of length 48 over GF(3).

    The 47 cyclic shifts of the indicator of the quadratic non-residues
    mod 47 span a [47, 24] quadratic residue code (its idempotent view);
    each is extended with the negated sum of its entries.  The result must
    be a self-dual [48, 24] code, which is checked.
    """
    q = 47
    indicator = [int(_legendre(a, q) == -1) for a in range(q)]
    rows = []
    for i in range(q):
        shifted = indicator[-i:] + indicator[:-i]
        rows.append(Gf3Vector(shifted + [-sum(shifted) % 3]))
    code = Code(q + 1, rows)
    if code.k != 24 or not code.is_self_dual():
        raise InternalInconsistencyError("the extended length-47 QR code is not self-dual")
    return code


# -- fingerprints --------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Equivalence-level summary: parameters, minimum weight, and word
    counts at the first weights of the distribution."""

    n: int
    k: int
    d: int
    alpha: int
    deeper_counts: tuple[tuple[int, int], ...] = ()

    def matches(self, other: "Fingerprint") -> bool:
        return self == other


def fingerprint(code: Code, depth: str = "basic") -> Fingerprint:
    """Summarize a code for cross-construction comparison.

    depth "basic" records (n, k, d, count at d); "extended" adds the counts
    at d + 3 and d + 6.  Codes that differ anywhere here are certainly
    inequivalent; matching fingerprints are strong but not conclusive
    evidence of equivalence.
    """
    if depth not in ("basic", "extended"):
        raise ValueError(f"unknown fingerprint depth {depth!r}")
    d = min_weight(code)
    alpha = count_weight(code, d)
    deeper: tuple[tuple[int, int], ...] = ()
    if depth == "extended":
        deeper = tuple((w, count_weight(code, w)) for w in (d + 3, d + 6))
    return Fingerprint(code.n, code.k, d, alpha, deeper)
