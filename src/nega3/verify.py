"""The verify core: one verdict per stored or ingested code.

verify_entry rebuilds the code of a registry entry (a spec, or a neighbor
seed vector applied to its parent's spec), checks self-duality through the
nine block identities, certifies d and alpha with the covering scan, and
cross-checks them against the entry's expectations and the enumerator
family of its length.  ``nega3 verify`` prints VerifyReport.summary(), and
derives no part of the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .gf3 import Code
from .gleason import alpha_constraint, near_extremal_family
from .nega import build_generator, self_dual_violations
from .registry import Registry, RegistryEntry
from .search import beta_of, neighbor
from .weights import (
    ExtremalityClass,
    _full_distribution_guard,
    _orbit_shape,
    classify,
    count_weight,
    full_distribution,
    min_weight,
)

_CLASS_WORDS = {
    ExtremalityClass.EXTREMAL: "extremal",
    ExtremalityClass.NEAR_EXTREMAL: "near-extremal",
    ExtremalityClass.NEITHER: "neither extremal nor near-extremal",
}


@dataclass(frozen=True)
class VerifyReport:
    """The verdict on one entry.

    d, alpha and cls are None when no code was measured: the spec is not
    self-dual (violations lists the failing block identities), or the
    parent of a neighbor entry is not a spec.  gleason is None when no
    enumerator family applies, else whether the counts agree with it; deep
    says the complete distribution was compared.
    """

    label: str
    parent: str | None = None
    expected_d: int | None = None
    expected_beta: int | None = None
    violations: tuple[tuple[int, int], ...] = ()
    d: int | None = None
    alpha: int | None = None
    cls: ExtremalityClass | None = None
    gleason: bool | None = None
    deep: bool = False

    @property
    def beta(self) -> int | None:
        return None if self.alpha is None else beta_of(self.alpha)

    @property
    def d_ok(self) -> bool:
        return self.expected_d is None or self.d == self.expected_d

    @property
    def beta_ok(self) -> bool:
        return self.expected_beta is None or self.alpha == 8 * self.expected_beta

    @property
    def ok(self) -> bool:
        return self.d is not None and self.d_ok and self.beta_ok and self.gleason is not False

    def summary(self) -> str:
        """The verdict as ``nega3 verify`` prints it after the label."""
        if self.violations:
            pairs = ", ".join(f"({i},{j})" for i, j in self.violations)
            return f"FAIL: not self-dual; failing block identities at {pairs}"
        if self.d is None:
            return f"FAIL: parent {self.parent} is not a code spec"
        parts = [
            f"neighbor of {self.parent}" if self.parent is not None else "self-dual",
            f"d={self.d}",
            f"alpha={self.alpha}",
        ]
        if self.beta is not None:
            parts.append(f"beta={self.beta}")
        parts.append(_CLASS_WORDS[self.cls])
        if not self.d_ok:
            parts.append(f"FAIL: expected d={self.expected_d}")
        if not self.beta_ok:
            parts.append(f"FAIL: expected beta={self.expected_beta}")
        if self.gleason is False:
            parts.append("GLEASON MISMATCH")
        elif self.gleason:
            parts.append("Gleason-consistent (full distribution)" if self.deep
                         else "Gleason-consistent")
        return ", ".join(parts)


def check_deep_guard(entries: Iterable[RegistryEntry], *, allow_long: bool) -> None:
    """Raise GuardError, before any work, when a deep verify of one of the
    entries could need a full distribution past the full_distribution
    guard.  Only lengths divisible by 12 have an enumerator family, and
    every code verified here has dimension length / 2.  The estimate is
    priced by the path the sweep takes: (I | M) spec codes over negashift
    orbits of the width build_generator records for them
    (weights._orbit_shape), other codes over every word."""
    for entry in entries:
        if entry.length % 12 == 0:
            k = entry.length // 2
            width = _orbit_shape(entry.length, k) if entry.spec is not None else 0
            _full_distribution_guard(k, width, allow_long)


def verify_entry(entry: RegistryEntry, registry: Registry, *, deep: bool,
                 allow_long: bool) -> VerifyReport:
    """Verify one spec, extremal-spec, neighbor-vector or vector-file entry.

    registry resolves a neighbor entry's parent.  deep compares the
    complete weight distribution with the enumerator family; past the
    full_distribution guard that raises GuardError before any work unless
    allow_long is set.
    """
    if deep:
        check_deep_guard([entry], allow_long=allow_long)
    report = VerifyReport(entry.label, parent=entry.parent, expected_d=entry.expected_d,
                          expected_beta=entry.expected_beta, deep=deep)
    if entry.kind == "neighbor-vector":
        parent = registry.entry(entry.parent)
        if parent.spec is None:
            return report
        code = neighbor(build_generator(parent.spec), entry.x)
    else:
        violations = tuple(self_dual_violations(entry.spec))
        if violations:
            return replace(report, violations=violations)
        code = build_generator(entry.spec)
    d = min_weight(code)
    alpha = count_weight(code, d)
    cls = classify(code)
    gleason = _gleason_check(code, d, alpha, cls, deep, allow_long)
    return replace(report, d=d, alpha=alpha, cls=cls, gleason=gleason)


def _gleason_check(code: Code, d: int, alpha: int, cls: ExtremalityClass,
                   deep: bool, allow_long: bool) -> bool | None:
    """Whether the measured counts agree with the enumerator family, or
    None when no family applies at this length and class.

    deep compares the complete distribution; otherwise the cheap checks
    run: the admissible-count range for near-extremal codes, the forced
    count at d for extremal ones.
    """
    n = code.n
    if n % 12 or cls is ExtremalityClass.NEITHER:
        return None
    family = near_extremal_family(n)
    if deep:
        dist = full_distribution(code, allow_long=allow_long)
        return dist.counts == family.at(0 if cls is ExtremalityClass.EXTREMAL else alpha)
    if cls is ExtremalityClass.EXTREMAL:
        return alpha == family.base.get(d, 0)
    try:
        rng = alpha_constraint(n)
    except ValueError:
        return None
    return rng.contains_alpha(alpha)
