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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalInconsistencyError


class IntPoly:
    """A sparse univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {e: int(v) for e, v in (coeffs or {}).items() if v}
        self.coeffs = c

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def negative_exponents(self) -> list[int]:
        return sorted(e for e, v in self.coeffs.items() if v < 0)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return IntPoly(out)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly({e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return IntPoly(out)

    def __pow__(self, k: int) -> "IntPoly":
        out = IntPoly({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        parts = [f"{v}*y^{e}" for e, v in self.items()]
        return "IntPoly(" + " + ".join(parts) + ")"


G4 = IntPoly({0: 1, 3: 8})
G12 = IntPoly({3: 1}) * (IntPoly({0: 1, 3: -1}) ** 3)


def gleason_basis(n: int) -> list[IntPoly]:
    """The products g4^a * g12^b with 4a + 12b = n, b ascending."""
    if n <= 0 or n % 4:
        raise ValueError(f"length {n} does not support ternary self-dual codes")
    return [(G4 ** ((n - 12 * b) // 4)) * (G12**b) for b in range(n // 12 + 1)]


def _fit(basis: list[IntPoly], want: list[int]) -> IntPoly:
    """The basis combination whose coefficients at y^0, y^3, ..., y^(3m) are
    want, by forward substitution: basis[b] is y^(3b) plus higher terms, so
    adding a multiple of it fixes the coefficient at y^(3b) and leaves the
    lower ones alone."""
    out = IntPoly()
    for b, p in enumerate(basis):
        out = out + p.scale(want[b] - out.coefficient(3 * b))
    if [out.coefficient(3 * b) for b in range(len(basis))] != want:
        raise InternalInconsistencyError("forward substitution missed its targets")
    return out


@dataclass(frozen=True)
class EnumeratorFamily:
    """The one-parameter enumerator family base + alpha * direction for
    length-n codes whose smallest nonzero weight is n/4."""

    n: int
    base: IntPoly
    direction: IntPoly

    def at(self, alpha: int) -> IntPoly:
        return self.base + self.direction.scale(alpha)


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
