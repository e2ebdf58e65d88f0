"""Weight enumerator families of ternary self-dual codes.

With the first variable evaluated at 1, every weight enumerator of a ternary
self-dual code of length n lies in the span of the polynomials
g4^a * g12^b with 4a + 12b = n, where

    g4  = 1 + 8 y^3
    g12 = y^3 (1 - y^3)^3.

For lengths divisible by 12 the codes of interest have no nonzero words
below weight n/4, which pins the enumerator down to a one-parameter family
base + alpha * direction, alpha being the number of words of weight n/4.
The basis is unit lower-triangular at weights 0, 3, ..., 3m (m = n/12), so
the family comes by forward substitution over the integers; no floating
point or division enters anywhere.

Every enumerator here is a dict weight -> coefficient with the zero
coefficients dropped, the form of WeightProfile.counts, so a measured
distribution matches a member of the family exactly when the two dicts are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import InternalInconsistencyError


G4 = {0: 1, 3: 8}
G12 = {3: 1, 6: -3, 9: 3, 12: -1}


def _times(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """The product p * q of two enumerators."""
    out: dict[int, int] = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _plus(p: dict[int, int], c: int, q: dict[int, int]) -> dict[int, int]:
    """The enumerator p + c * q, a new dict."""
    out = dict(p)
    for e, v in q.items():
        out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


def gleason_basis(n: int) -> list[dict[int, int]]:
    """The products g4^a * g12^b with 4a + 12b = n, b ascending."""
    if n <= 0 or n % 4:
        raise ValueError(f"length {n} does not support ternary self-dual codes")
    return [reduce(_times, [G4] * ((n - 12 * b) // 4) + [G12] * b, {0: 1})
            for b in range(n // 12 + 1)]


def _fit(basis: list[dict[int, int]], want: list[int]) -> dict[int, int]:
    """The basis combination whose coefficients at y^0, y^3, ..., y^(3m) are
    want, by forward substitution: basis[b] is y^(3b) plus higher terms, so
    adding a multiple of it fixes the coefficient at y^(3b) and leaves the
    lower ones alone."""
    out: dict[int, int] = {}
    for b, p in enumerate(basis):
        out = _plus(out, want[b] - out.get(3 * b, 0), p)
    if [out.get(3 * b, 0) for b in range(len(basis))] != want:
        raise InternalInconsistencyError("forward substitution missed its targets")
    return out


@dataclass(frozen=True)
class EnumeratorFamily:
    """The one-parameter enumerator family base + alpha * direction for
    length-n codes whose smallest nonzero weight is n/4.  near_extremal_family
    hands the same base and direction to every caller, so they are read,
    not changed; at(alpha) returns a new dict."""

    n: int
    base: dict[int, int]
    direction: dict[int, int]

    def at(self, alpha: int) -> dict[int, int]:
        """The enumerator at this count of minimum-weight words."""
        return _plus(self.base, alpha, self.direction)


@lru_cache(maxsize=None)
def near_extremal_family(n: int) -> EnumeratorFamily:
    """Solve for the family at length n (n a positive multiple of 12).

    The base is the unique basis combination with constant coefficient 1 and
    zero coefficients at weights 3, 6, ..., 3m (m = n/12); the direction has
    constant coefficient 0, coefficient 1 at weight 3m and zeros between.
    """
    if n <= 0 or n % 12:
        raise ValueError(f"length {n} is not a positive multiple of 12")
    m = n // 12
    basis = gleason_basis(n)
    return EnumeratorFamily(n, _fit(basis, [1] + [0] * m), _fit(basis, [0] * m + [1]))


@dataclass(frozen=True)
class AlphaConstraint:
    """Admissible range for the count of minimum-weight words: the count is
    divisor * beta with beta in [beta_min, beta_max]."""

    n: int
    divisor: int
    beta_min: int
    beta_max: int

    def contains_alpha(self, alpha: int) -> bool:
        beta, rem = divmod(alpha, self.divisor)
        return rem == 0 and self.beta_min <= beta <= self.beta_max


_ALPHA_CONSTRAINTS = {
    36: AlphaConstraint(36, 8, 1, 111),
    48: AlphaConstraint(48, 8, 1, 4324),
    60: AlphaConstraint(60, 8, 1, 5148),
    72: AlphaConstraint(72, 8, 14466, 251482),
}


def alpha_constraint(n: int) -> AlphaConstraint:
    try:
        return _ALPHA_CONSTRAINTS[n]
    except KeyError:
        raise ValueError(f"no admissible-count table for length {n}") from None
