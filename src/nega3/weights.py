"""Exact minimum weights, counts at a given weight, and full distributions.

Minimum-weight and counting queries run a covering enumeration over several
systematic generator matrices.  The basis is re-echelonized on successive
disjoint column blocks; messages of support size 1, 2, ... are expanded for
each matrix, and once level j is complete every unseen codeword has weight
at least sum_i max(0, j + 1 - deficit_i), where deficit_i is the rank the
code falls short of full on block i.  The run stops when that bound meets
the best weight seen (for minima) or strictly passes the queried weight
(for counts), which certifies the answer without visiting all 3^k words.

The expansion itself is vectorized: packed bit planes of whole batches of
row combinations are walked through the 2^j sign patterns in Gray-code
order, so each successive pattern costs one bit-sliced vector addition.

Full distributions take a different route: the basis is split in half, all
3^(k - k//2) sums of one half are tabulated, and the table is swept once per
sum of the other half.  Counts use 64-bit integers throughout and are exact.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, InternalInconsistencyError
from .gf3 import Code

_LANE_BITS = 64
_MASK64 = (1 << 64) - 1

# rough throughput used only for guard messages, in codewords per second
_EVALS_PER_SECOND = 2e7

FULL_DISTRIBUTION_GUARD_K = 20


class ExtremalityClass(enum.Enum):
    EXTREMAL = "extremal"
    NEAR_EXTREMAL = "near-extremal"
    NEITHER = "neither"


def ms_bound(n: int) -> int:
    """Largest minimum weight a ternary self-dual code of length n can have."""
    return 3 * (n // 12) + 3


def near_extremal_weight(n: int) -> int:
    return 3 * (n // 12)


@dataclass
class WeightProfile:
    """Weight information about one code.  ``counts`` maps weight to the
    exact number of codewords of that weight; ``complete`` says whether the
    map covers every weight."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)
    complete: bool = False

    @property
    def d(self) -> int | None:
        positive = [w for w, c in self.counts.items() if w > 0 and c > 0]
        return min(positive) if positive else None

    @property
    def alpha(self) -> int | None:
        d = self.d
        return self.counts[d] if d is not None else None

    def total(self) -> int:
        return sum(self.counts.values())


# -- packing -----------------------------------------------------------------


def _lanes(n: int) -> int:
    return (n + _LANE_BITS - 1) // _LANE_BITS


def _pack_rows(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    num_lanes = _lanes(n)
    lo = np.zeros((len(rows), num_lanes), dtype=np.uint64)
    hi = np.zeros((len(rows), num_lanes), dtype=np.uint64)
    for i, r in enumerate(rows):
        xlo, xhi = r._lo, r._hi
        for lane in range(num_lanes):
            lo[i, lane] = (xlo >> (_LANE_BITS * lane)) & _MASK64
            hi[i, lane] = (xhi >> (_LANE_BITS * lane)) & _MASK64
    return lo, hi


def _add_planes(alo, ahi, blo, bhi):
    t = (alo | bhi) ^ (ahi | blo)
    return t ^ (ahi | bhi), t ^ (alo | blo)


def _weights_of(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.bitwise_count(lo | hi).sum(axis=-1, dtype=np.int64)


# -- information sets ---------------------------------------------------------


@dataclass
class _InfoSet:
    lo: np.ndarray  # (k, lanes)
    hi: np.ndarray
    deficit: int


def _information_sets(code: Code) -> list[_InfoSet]:
    """Systematic bases on greedily chosen disjoint column blocks."""
    cached = code._cache.get("infosets")
    if cached is not None:
        return cached
    from .gf3 import _rref_rows

    sets: list[_InfoSet] = []
    used: set[int] = set()
    while True:
        fresh = [c for c in range(code.n) if c not in used]
        if not fresh:
            break
        order = fresh + [c for c in range(code.n) if c in used]
        reduced, pivots = _rref_rows(code.basis, order)
        new_pivots = [p for p in pivots if p not in used]
        if not new_pivots:
            break
        lo, hi = _pack_rows(reduced[: code.k], code.n)
        sets.append(_InfoSet(lo, hi, deficit=code.k - len(new_pivots)))
        used.update(new_pivots)
    code._cache["infosets"] = sets
    return sets


def covering_lower_bound(level: int, deficits: list[int]) -> int:
    """Certified weight floor for codewords missed by all expansions of
    message support size <= level."""
    return sum(max(0, level + 1 - d) for d in deficits)


def enumeration_cost(k: int, level: int) -> int:
    """Codeword evaluations one systematic matrix needs through the level."""
    from math import comb

    return sum(comb(k, j) * (1 << j) for j in range(1, min(level, k) + 1))


def levels_needed_for_count(code: Code, w: int) -> int:
    """Smallest expansion level whose covering bound strictly exceeds w."""
    deficits = [s.deficit for s in _information_sets(code)]
    for j in range(1, code.k + 1):
        if covering_lower_bound(j, deficits) > w:
            return j
    return code.k


def count_cost(code: Code, w: int) -> int:
    """Codeword evaluations needed to count weight-w words with certificates."""
    sets = _information_sets(code)
    level = levels_needed_for_count(code, w)
    return len(sets) * enumeration_cost(code.k, level)


# -- level scans ---------------------------------------------------------------


class _Abort(Exception):
    def __init__(self, weight: int):
        self.weight = weight


class _ScanStats:
    """Accumulates results of codeword visits during a level scan."""

    def __init__(self, target: int | None = None, abort_below: int | None = None):
        self.min_weight: int | None = None
        self.target = target
        self.abort_below = abort_below
        self.matched: set[tuple[int, int]] = set()

    def visit(self, lo: np.ndarray, hi: np.ndarray) -> None:
        w = _weights_of(lo, hi)
        batch_min = int(w.min())
        if self.min_weight is None or batch_min < self.min_weight:
            self.min_weight = batch_min
            if self.abort_below is not None and batch_min < self.abort_below:
                raise _Abort(batch_min)
        if self.target is not None:
            for i in np.flatnonzero(w == self.target):
                self.matched.add(_canonical_key(lo[i], hi[i]))


def _canonical_key(lo_lanes: np.ndarray, hi_lanes: np.ndarray) -> tuple[int, int]:
    """Key identifying a codeword up to sign: planes as ints, leading entry
    normalized to 1."""
    lo = hi = 0
    for lane in range(len(lo_lanes) - 1, -1, -1):
        lo = (lo << _LANE_BITS) | int(lo_lanes[lane])
        hi = (hi << _LANE_BITS) | int(hi_lanes[lane])
    nz = lo | hi
    if nz & (-nz) & hi:
        lo, hi = hi, lo
    return lo, hi


def _combo_chunks(k: int, j: int, chunk: int = 1 << 16):
    it = itertools.combinations(range(k), j)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def _scan_level(iset: _InfoSet, j: int, stats: _ScanStats) -> None:
    """Visit every codeword whose message support has size exactly j."""
    k = iset.lo.shape[0]
    if j > k:
        return
    for combos in _combo_chunks(k, j):
        glo = [iset.lo[combos[:, t]] for t in range(j)]
        ghi = [iset.hi[combos[:, t]] for t in range(j)]
        lo, hi = glo[0].copy(), ghi[0].copy()
        for t in range(1, j):
            lo, hi = _add_planes(lo, hi, glo[t], ghi[t])
        stats.visit(lo, hi)
        # remaining sign patterns in Gray order: flipping pattern bit t takes
        # that coefficient from 1 to 2 (add the row) or back (add its
        # negation, i.e. the row with planes swapped)
        for i in range(1, 1 << j):
            t = (i & -i).bit_length() - 1
            set_now = ((i ^ (i >> 1)) >> t) & 1
            if set_now:
                lo, hi = _add_planes(lo, hi, glo[t], ghi[t])
            else:
                lo, hi = _add_planes(lo, hi, ghi[t], glo[t])
            stats.visit(lo, hi)


def _scan_level_all(sets: list[_InfoSet], j: int, stats: _ScanStats) -> None:
    for s in sets:
        _scan_level(s, j, stats)


def min_weight(code: Code, abort_below: int | None = None) -> int:
    """Exact minimum weight, certified by the covering bound.

    With ``abort_below`` set, the scan may return early with any codeword
    weight strictly below the threshold (useful to reject candidates); the
    result is exact whenever it is >= abort_below.  Exact results are kept
    in the code's cache, so later queries on the same code cost nothing.
    """
    if code.k == 0:
        raise ValueError("minimum weight of the zero code is undefined")
    d = code._cache.get("min_weight")
    if d is None:
        try:
            d = _min_weight_scan(code, abort_below)
        except _Abort as early:
            return early.weight
        code._cache["min_weight"] = d
    return d


def _min_weight_scan(code: Code, abort_below: int | None) -> int:
    """The covering scan behind min_weight; raises _Abort on an early exit."""
    sets = _information_sets(code)
    deficits = [s.deficit for s in sets]
    stats = _ScanStats(abort_below=abort_below)
    for j in range(1, code.k + 1):
        _scan_level_all(sets, j, stats)
        assert stats.min_weight is not None
        if covering_lower_bound(j, deficits) >= stats.min_weight:
            return stats.min_weight
    return stats.min_weight  # every message enumerated


def count_weight(code: Code, w: int) -> int:
    """Exact number of codewords of weight w.

    Runs the covering enumeration until its bound strictly exceeds w, so
    every weight-w word has been seen; words found through several
    systematic matrices are deduplicated by a sign-normalized key.  When a
    straight sweep of all 3^k codewords is cheaper, delegates to
    full_distribution instead (both routes are exact).
    """
    if w < 1:
        raise ValueError("count_weight takes a positive weight")
    if code.k == 0 or w > code.n:
        return 0
    level = levels_needed_for_count(code, w)
    sets = _information_sets(code)
    bz_cost = len(sets) * enumeration_cost(code.k, level)
    if code.k <= 22 and 3**code.k < bz_cost:
        return full_distribution(code, allow_long=True).counts.get(w, 0)
    stats = _ScanStats(target=w)
    for j in range(1, level + 1):
        _scan_level_all(sets, j, stats)
    return 2 * len(stats.matched)


def full_distribution(code: Code, allow_long: bool = False) -> WeightProfile:
    """The complete weight distribution by exhaustive (but vectorized)
    enumeration of all 3^k codewords."""
    if code.k == 0:
        return WeightProfile(code.n, {0: 1}, complete=True)
    _full_distribution_guard(code.k, allow_long)
    half = code.k // 2
    lo_a, hi_a = _span_planes(code.basis[:half], code.n)
    lo_b, hi_b = _span_planes(code.basis[half:], code.n)
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for i in range(lo_a.shape[0]):
        lo, hi = _add_planes(lo_a[i], hi_a[i], lo_b, hi_b)
        counts += np.bincount(_weights_of(lo, hi), minlength=code.n + 1)
    profile = WeightProfile(
        code.n,
        {w: int(c) for w, c in enumerate(counts) if c},
        complete=True,
    )
    if profile.total() != 3**code.k:
        raise InternalInconsistencyError("distribution total is not 3^k")
    return profile


def _full_distribution_guard(k: int, allow_long: bool) -> None:
    """Refuse a full distribution of a dimension-k code past the guard."""
    if k > FULL_DISTRIBUTION_GUARD_K and not allow_long:
        seconds = 3**k / _EVALS_PER_SECOND
        raise GuardError(
            f"full distribution of a dimension-{k} code sweeps 3^{k} "
            f"= {3**k:.2e} codewords (roughly {seconds:.0f}s); "
            "pass allow_long=True (CLI: --allow-long) to run it",
            estimate=3**k,
        )


def _span_planes(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Planes of every linear combination of the given rows (3^len rows)."""
    lo = np.zeros((1, _lanes(n)), dtype=np.uint64)
    hi = np.zeros((1, _lanes(n)), dtype=np.uint64)
    for r in rows:
        rlo, rhi = _pack_rows([r], n)
        l1, h1 = _add_planes(lo, hi, rlo, rhi)
        l2, h2 = _add_planes(l1, h1, rlo, rhi)
        lo = np.concatenate([lo, l1, l2])
        hi = np.concatenate([hi, h1, h2])
    return lo, hi


def classify(code: Code) -> ExtremalityClass:
    """Extremality class of a self-dual code by its minimum weight (the
    cached one, when min_weight has already run on this code)."""
    d = min_weight(code)
    bound = ms_bound(code.n)
    if d > bound:
        raise InternalInconsistencyError(
            f"minimum weight {d} exceeds the self-dual bound {bound} for length {code.n}")
    if d == bound:
        return ExtremalityClass.EXTREMAL
    if d == near_extremal_weight(code.n):
        return ExtremalityClass.NEAR_EXTREMAL
    return ExtremalityClass.NEITHER
