"""Classical ternary self-dual codes used as cross-check benchmarks.

Two families are provided: Pless symmetry codes built from Legendre symbols
over F_q (q an odd prime, q = 2 mod 3), and the extended length-48
quadratic residue code obtained from a degree-23 factor of x^47 - 1 over
GF(3) plus an overall parity coordinate.  Both constructions verify their
own self-duality and raise if it fails, so a silent convention slip cannot
produce a wrong benchmark.

Fingerprints condense a code to its comparison-relevant statistics
(parameters, minimum weight, word counts at the bottom of the distribution)
without attempting a full equivalence test.
"""

from __future__ import annotations

import random
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


# -- extended quadratic residue code of length 48 -----------------------------
#
# Dense polynomial arithmetic over GF(3), coefficient lists low degree first.


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % 3
    return _ptrim(out)


def _pmod(a: list[int], m: list[int]) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    lead_inv = 1 if m[-1] == 1 else 2
    while len(a) - 1 >= dm and _ptrim(a):
        shift = len(a) - 1 - dm
        c = (a[-1] * lead_inv) % 3
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % 3
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b)
    if a:
        inv = 1 if a[-1] == 1 else 2
        a = [(c * inv) % 3 for c in a]
    return a


def _ppow_mod(base: list[int], e: int, m: list[int]) -> list[int]:
    result = [1]
    base = _pmod(base, m)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base), m)
        base = _pmod(_pmul(base, base), m)
        e >>= 1
    return result


def _degree23_factors_of_x47_minus_1() -> list[list[int]]:
    """Both degree-23 irreducible factors of x^47 - 1 over GF(3), in a
    canonical order.

    x^47 - 1 = (x - 1) h(x) with h = 1 + x + ... + x^46; the multiplicative
    order of 3 mod 47 is 23, so h splits into two irreducibles of degree 23.
    They are separated by the standard equal-degree split: for random a(x),
    gcd(a^((3^23 - 1)/2) - 1, h) is a proper factor about half the time.
    """
    h = [1] * 47
    e = (3**23 - 1) // 2
    rng = random.Random(1847)
    while True:
        a = [rng.randrange(3) for _ in range(46)]
        p = _ppow_mod(a, e, h)
        p = _ptrim([(p[0] - 1) % 3] + p[1:] if p else [2])
        g = _pgcd(p, h)
        if len(g) - 1 == 23:
            other = _pdiv_exact(h, g)
            factors = sorted([g, other], key=tuple)
            return factors


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead_inv = 1 if b[-1] == 1 else 2
    while len(_ptrim(a)) >= len(b):
        shift = len(a) - len(b)
        c = (a[-1] * lead_inv) % 3
        out[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % 3
        _ptrim(a)
    if _ptrim(a):
        raise InternalInconsistencyError("inexact polynomial division")
    return out


def extended_qr48() -> Code:
    """The extended quadratic residue code of length 48 over GF(3).

    A degree-23 factor g of x^47 - 1 generates a [47, 24] cyclic code; each
    generator row x^i g is extended with the negated sum of its entries.
    The two factor choices give equivalent codes; construction picks the one
    whose extension passes the self-duality check.
    """
    for g in _degree23_factors_of_x47_minus_1():
        rows = []
        for i in range(24):
            coeffs = ([0] * i + g)[:47]
            coeffs += [0] * (47 - len(coeffs))
            coeffs.append((-sum(coeffs)) % 3)
            rows.append(Gf3Vector(coeffs))
        code = Code(48, rows)
        if code.is_self_dual():
            return code
    raise InternalInconsistencyError("no extension of the length-47 cyclic code is self-dual")


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
